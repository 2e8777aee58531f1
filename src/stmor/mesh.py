"""Simplex meshes of the space-time domain Q = Omega(t) x [0, T].

The spatial mesh (d = 1 or 2) is extruded level by level into a simplex mesh
of dimension D = d+1 whose last coordinate is time.  Prisms are subdivided
with the sorted-global-index rule, so neighboring prisms always share
conforming facets.  A prescribed domain deformation is applied by extrude
to the nodes it lays out, so the element topology never changes.

Both mesh classes check themselves once, at construction: node ids in
range, positive element measures, and boundary tags that cover exactly the
topological boundary.  A mesh that exists is valid.
"""

import hashlib
import logging
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)

TAG_INITIAL = "initial"
TAG_TERMINAL = "terminal"

_FACTORIAL = (1, 1, 2, 6, 24)


class MeshError(Exception):
    """Raised for invalid meshes or deformation maps."""


@dataclass
class SpatialMesh:
    """Simplex mesh of the spatial domain Omega (d = 1: intervals, d = 2: triangles).

    boundary_markers maps each boundary facet (sorted node tuple, d nodes) to a
    tag string such as ``dirichlet:wall`` or ``neumann:outlet``.
    """

    dimension: int
    nodes: np.ndarray           # (n_nodes, d)
    elements: np.ndarray        # (n_elements, d+1), global node ids
    boundary_markers: dict

    def __post_init__(self):
        self.nodes = np.ascontiguousarray(self.nodes, dtype=np.float64)
        self.elements = np.ascontiguousarray(self.elements, dtype=np.int64)
        if self.nodes.ndim != 2 or self.nodes.shape[1] != self.dimension:
            raise MeshError("spatial node array must be (n, %d)" % self.dimension)
        if self.elements.ndim != 2 or self.elements.shape[1] != self.dimension + 1:
            raise MeshError("spatial elements must have %d nodes" % (self.dimension + 1))
        self.boundary_markers = {tuple(sorted(map(int, f))): str(t)
                                 for f, t in self.boundary_markers.items()}
        if self.elements.size and (self.elements.min() < 0 or self.elements.max() >= self.n_nodes):
            raise MeshError("element references a node id out of range")
        bad = np.flatnonzero(self.element_measures() <= 0.0)
        if bad.size:
            raise MeshError("spatial element %d has non-positive measure" % bad[0])
        boundary = set(_boundary_facets_of(self.elements, self.dimension))
        marked = set(self.boundary_markers)
        if marked - boundary:
            raise MeshError("boundary marker on a non-boundary facet: %s"
                            % (min(marked - boundary),))
        if boundary - marked:
            raise MeshError("spatial boundary facet %s carries no marker"
                            % (min(boundary - marked),))

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_elements(self):
        return self.elements.shape[0]

    def element_measures(self):
        d = self.dimension
        x = self.nodes[self.elements]                      # (m, d+1, d)
        edges = x[:, 1:, :] - x[:, :1, :]                  # (m, d, d)
        if d == 1:
            det = edges[:, 0, 0]
        else:
            det = np.linalg.det(edges)
        return np.abs(det) / _FACTORIAL[d]


@dataclass
class SpaceTimeMesh:
    """Simplex mesh of Q; the last node coordinate is time.

    boundary_facets maps each boundary facet (sorted node tuple, D nodes) to a
    tag: ``dirichlet:<name>``, ``neumann:<name>``, ``initial`` or ``terminal``.
    time_levels holds the extrusion levels (empty for imported meshes).
    reference_nodes are the undeformed extrusion coordinates; boundary profiles
    and deformation maps are evaluated on them.

    The arrays and the facet dict are read-only after construction: the
    geometry, the hash and the facet rows with their tag index (which answer
    nodes_of_tag, lateral_nodes and tags) are derived from them once.  The
    constructor checks node ids, element orientation and that the tagged
    facets are exactly the topological boundary, by one facet search.
    """

    dimension: int
    nodes: np.ndarray           # (n_nodes, D)
    elements: np.ndarray        # (n_elements, D+1)
    boundary_facets: dict
    time_levels: np.ndarray = field(default_factory=lambda: np.empty(0))
    reference_nodes: np.ndarray = None
    n_spatial: int = None       # spatial nodes per level for extruded meshes
    spatial: SpatialMesh = None

    def __post_init__(self):
        self.nodes = np.ascontiguousarray(self.nodes, dtype=np.float64)
        self.elements = np.ascontiguousarray(self.elements, dtype=np.int64)
        D = self.dimension
        if self.nodes.ndim != 2 or self.nodes.shape[1] != D \
                or self.elements.ndim != 2 or self.elements.shape[1] != D + 1:
            raise MeshError("space-time nodes must be (n, %d) and elements (m, %d)" % (D, D + 1))
        self.time_levels = np.asarray(self.time_levels, dtype=np.float64)
        if self.reference_nodes is None:
            self.reference_nodes = self.nodes
        keys, tags = list(self.boundary_facets), list(map(str, self.boundary_facets.values()))
        try:
            rows = np.sort(np.array(keys, dtype=np.int64).reshape(len(keys), D), axis=1)
        except ValueError:
            raise MeshError("each boundary facet must list %d node ids" % D) from None
        self.boundary_facets = dict(zip(map(tuple, rows.tolist()), tags))
        if len(self.boundary_facets) < len(keys):
            raise MeshError("a boundary facet is listed twice, in two node orders")
        order = np.lexsort(rows.T[::-1])
        self._facets = rows[order]  # (n, D), in tuple order
        self._tag_code = {t: i for i, t in enumerate(sorted(set(tags)))}
        self._tag_of = np.fromiter(map(self._tag_code.get, tags), np.int64, len(tags))[order]
        self._geom = None
        self._hash = None
        if self.elements.size and (self.elements.min() < 0 or self.elements.max() >= self.n_nodes):
            raise MeshError("element references a node id out of range")
        meas = self.all_element_geometry()[0]
        bad = np.flatnonzero(meas <= 0.0)
        if bad.size:
            raise MeshError("element %d has non-positive measure %.3e" % (bad[0], meas[bad[0]]))
        boundary = _boundary_facet_rows(self.elements, D)
        if not np.array_equal(boundary, self._facets):
            boundary, tagged = set(map(tuple, boundary.tolist())), set(self.boundary_facets)
            first = min(boundary ^ tagged)
            raise MeshError("boundary tags do not cover the topological boundary: facet %s %s"
                            % (first, "has no tag" if first in boundary else "is tagged but inner"))

    @property
    def d(self):
        """Spatial dimension."""
        return self.dimension - 1

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_elements(self):
        return self.elements.shape[0]

    def all_element_geometry(self):
        """Vectorized geometry: (measures, grads) with grads (n_e, D+1, D), cached."""
        if self._geom is None:
            D, el = self.dimension, self.elements
            x0 = self.nodes[el[:, 0]]
            M = np.empty((len(el), D, D))                  # columns = edge vectors
            for j in range(D):
                M[:, :, j] = self.nodes[el[:, j + 1]] - x0
            del x0
            det = np.linalg.det(M)
            bad = np.flatnonzero(np.abs(det) < 1e-300)
            if bad.size:
                raise MeshError("element %d is degenerate" % bad[0])
            grads = np.empty((len(el), D + 1, D))
            grads[:, 1:, :] = np.linalg.inv(M)             # rows = gradients of N_1..N_D
            del M
            grads[:, 0, :] = -grads[:, 1:, :].sum(axis=1)
            self._geom = (det / _FACTORIAL[D], grads)
        return self._geom

    def facet_measure(self, facet):
        """(D-1)-measure of a facet given by node ids."""
        x = self.nodes[list(facet)]
        v = x[1:] - x[:1]
        gram = v @ v.T
        return float(np.sqrt(max(np.linalg.det(gram), 0.0)) / _FACTORIAL[len(facet) - 1])

    def _nodes_of_facets(self, chosen):
        hit = np.zeros(self.n_nodes, dtype=bool)
        hit[self._facets[chosen]] = True
        return np.flatnonzero(hit)

    def nodes_of_tag(self, tag):
        """Sorted unique node ids lying on facets with the given tag."""
        return self._nodes_of_facets(self._tag_of == self._tag_code.get(tag, -1))

    def lateral_nodes(self):
        """Sorted unique node ids on facets tagged neither initial nor terminal."""
        caps = [self._tag_code.get(t, -1) for t in (TAG_INITIAL, TAG_TERMINAL)]
        return self._nodes_of_facets(~np.isin(self._tag_of, caps))

    def tags(self):
        return list(self._tag_code)

    def content_hash(self):
        """Hex digest identifying the mesh (geometry, topology, tags, levels)."""
        if self._hash is None:
            h = hashlib.sha256()
            h.update(b"stmesh")
            h.update(np.int64(self.dimension).tobytes())
            h.update(np.ascontiguousarray(self.nodes).tobytes())
            h.update(np.ascontiguousarray(self.elements).tobytes())
            # the facets in tuple order, each its int64 node ids then its tag
            tags = np.array(list(map(str.encode, self._tag_code)), dtype=bytes)[self._tag_of]
            rec = np.hstack([self._facets.view(np.uint8),
                             tags.view(np.uint8).reshape(tags.size, tags.itemsize)])
            h.update(rec[np.arange(rec.shape[1]) < 8 * self.dimension
                         + np.char.str_len(tags)[:, None]])
            h.update(np.ascontiguousarray(self.time_levels).tobytes())
            self._hash = h.hexdigest()[:16]
        return self._hash


def _boundary_facet_rows(elements, D):
    """Facets referenced once, as (n, D) sorted rows in lexicographic order (no id limit)."""
    ordered = np.sort(elements, axis=1)                     # so every face row is sorted
    faces = np.empty((D + 1, len(ordered), D), dtype=ordered.dtype)
    for i in range(D + 1):                                  # face i omits node i
        faces[i] = np.delete(ordered, i, axis=1)
    del ordered
    faces = faces.reshape(-1, D)
    faces = faces[np.lexsort(faces.T[::-1])]
    start = np.ones(faces.shape[0] + 1, dtype=bool)     # a face differs from the one before
    start[1:-1] = (faces[1:] != faces[:-1]).any(axis=1)
    return faces[start[:-1] & start[1:]]


def _boundary_facets_of(elements, D):
    """Facets referenced by exactly one element, as sorted tuples of ints."""
    return list(map(tuple, _boundary_facet_rows(elements, D).tolist()))


def extrude(spatial, time_levels, deformation=None):
    """Extrude a spatial simplex mesh over the given time levels.

    Each prism (spatial simplex x time slab) is cut into d+1 simplices with the
    deterministic sorted-global-index rule, so the result is conforming.  Node
    ids are level-major: node = level * n_spatial + spatial_id.  The boundary
    is written down, not searched: the t = t0 and t = T caps are the spatial
    elements, tagged ``initial`` and ``terminal``, and in each slab the side
    of a marked spatial facet f_0 < ... < f_{d-1} splits, by the same rule,
    into the d facets (f_0..f_i at the bottom, f_i..f_{d-1} at the top), each
    tagged with the facet's marker.  The mesh constructor checks the result.

    Parameters
    ----------
    spatial : SpatialMesh
    time_levels : sequence of float
        Strictly increasing, at least two entries.
    deformation : callable (x, t) -> x, optional
        Maps the spatial coordinates of the reference nodes; time and
        topology are unchanged, and the reference nodes are kept.

    Returns
    -------
    SpaceTimeMesh
    """
    levels = np.asarray(time_levels, dtype=np.float64)
    if levels.ndim != 1 or levels.size < 2:
        raise MeshError("need at least two time levels")
    if not np.all(np.diff(levels) > 0):
        raise MeshError("time levels must be strictly increasing")

    d = spatial.dimension
    D = d + 1
    ns = spatial.n_nodes
    L = levels.size

    reference = np.empty((ns * L, D))
    reference[:, :d] = np.tile(spatial.nodes, (L, 1))
    reference[:, d] = np.repeat(levels, ns)
    nodes = reference
    if deformation is not None:
        nodes = reference.copy()
        nodes[:, :d] = deformation(reference[:, :d], reference[:, d])

    vsort = np.sort(spatial.elements, axis=1)              # consistent global ordering
    x = spatial.nodes[vsort]
    spatial_sign = np.sign(np.linalg.det(x[:, 1:] - x[:, :1]))
    prism = np.empty((d + 1, spatial.n_elements, D + 1), dtype=np.int64)
    for j in range(d + 1):
        # simplex j of the prism: bottom copies of v_0..v_j, top copies of v_j..v_d.
        # Its signed measure is (-1)^(d+j) dt det[v_1-v_0 .. v_d-v_0] / D!, so
        # where that is negative the last two nodes are swapped.
        prism[j, :, :j + 1] = vsort[:, :j + 1]
        prism[j, :, j + 1:] = vsort[:, j:] + ns
        flip = (-1) ** (d + j) * spatial_sign < 0
        prism[j, flip, -2:] = prism[j, flip, :-3:-1]
    slab = ns * np.arange(L - 1)[:, None, None]
    elements = (prism + slab[..., None]).reshape(-1, D + 1)

    marked = np.array(list(spatial.boundary_markers), dtype=np.int64).reshape(-1, d)
    sides = [np.concatenate([marked[:, :i + 1], marked[:, i:] + ns], axis=1) + slab
             for i in range(d)]
    facets = np.concatenate([vsort, vsort + (L - 1) * ns] + [f.reshape(-1, D) for f in sides])
    tags = np.array([TAG_INITIAL] * len(vsort) + [TAG_TERMINAL] * len(vsort)
                    + list(spatial.boundary_markers.values()) * (d * (L - 1)))
    order = np.lexsort(facets.T[::-1])
    boundary = dict(zip(map(tuple, facets[order].tolist()), tags[order].tolist()))

    mesh = SpaceTimeMesh(dimension=D, nodes=nodes, elements=elements,
                         boundary_facets=boundary, time_levels=levels,
                         reference_nodes=reference, n_spatial=ns, spatial=spatial)
    logger.info("extruded mesh: %d nodes, %d elements, %d levels",
                mesh.n_nodes, mesh.n_elements, L)
    return mesh


def plug_displacement(t, speed, schedule):
    """Plug displacement for a rest/in/rest/out/rest schedule.

    schedule = (t_in_start, t_in_end, t_out_start, t_out_end); the plug moves
    with -speed on the first window and +speed on the second.
    """
    t = np.asarray(t, dtype=np.float64)
    t0, t1, t2, t3 = schedule
    return -speed * (np.clip(t, t0, t1) - t0) + speed * (np.clip(t, t2, t3) - t2)


def plug_velocity(t, speed, schedule):
    """Plug velocity matching plug_displacement, right-continuous in t: at a
    schedule time the velocity is the one after it."""
    t = np.asarray(t, dtype=np.float64)
    t0, t1, t2, t3 = schedule
    v = np.zeros_like(t)
    v = np.where((t >= t0) & (t < t1), -speed, v)
    v = np.where((t >= t2) & (t < t3), speed, v)
    return v


def valve_plug_map(x_gate_rest, x_wall, speed, schedule,
                   band_lo, band_hi, blend_len):
    """Piecewise-linear x-remap (x, t) -> x that slides a gate tip from
    x_gate_rest; continuous in t.

    The zone [0, x_gate_rest] stretches to [0, x_tip(t)] and the slot
    [x_gate_rest, x_wall] to [x_tip(t), x_wall]; beyond x_wall the map is the
    identity.  The remap acts fully inside the band band_lo <= y <= band_hi
    and fades linearly to the identity over blend_len outside it, so distant
    boundary portions (inlet, outlet) stay fixed.  The map's velocity(x, t)
    is its time derivative at the reference points x, right-continuous in t
    like plug_velocity.
    """
    def blend(y):
        dist = np.maximum(band_lo - y, y - band_hi)
        return np.clip(1.0 - np.maximum(dist, 0.0) / blend_len, 0.0, 1.0)

    def fn(x, t):
        xc = x[:, 0]
        tip = x_gate_rest + plug_displacement(t, speed, schedule)
        remap = np.where(
            xc <= x_gate_rest,
            xc * (tip / x_gate_rest),
            np.where(xc <= x_wall,
                     x_wall + (xc - x_wall) * (x_wall - tip) / (x_wall - x_gate_rest),
                     xc))
        out = x.copy()
        out[:, 0] = xc + blend(x[:, 1]) * (remap - xc)
        return out

    def velocity(x, t):
        xc = x[:, 0]
        taper = np.where(xc <= x_gate_rest, xc / x_gate_rest,
                         np.clip((x_wall - xc) / (x_wall - x_gate_rest), 0.0, 1.0))
        out = np.zeros_like(x)
        out[:, 0] = blend(x[:, 1]) * taper * plug_velocity(t, speed, schedule)
        return out

    fn.velocity = velocity
    return fn


def narrowing_scale(t):
    """Wall-position scale of the narrowing law: 0.2 + 0.2(cos(pi t) + 1)."""
    t = np.asarray(t, dtype=np.float64)
    return 0.2 + 0.2 * (np.cos(np.pi * t) + 1.0)


def narrowing_rate(t):
    """Time derivative of narrowing_scale."""
    t = np.asarray(t, dtype=np.float64)
    return -0.2 * np.pi * np.sin(np.pi * t)


def narrowing_blend(x, x_center, x_halfwidth):
    """Smooth localization bump in x (1 at the center, 0 outside the window)."""
    if x_center is None:
        return np.ones_like(np.asarray(x, dtype=np.float64))
    xi = (np.asarray(x, dtype=np.float64) - x_center) / x_halfwidth
    return np.where(np.abs(xi) < 1.0, np.cos(0.5 * np.pi * xi) ** 2, 0.0)


def channel_narrowing_map(x_center=None, x_halfwidth=None):
    """Map (x, t) -> x that scales the channel height, so the walls follow
    the narrowing law.

    Interior nodes are blended linearly in y.  With x_center set, the
    narrowing is localized in a window of the given halfwidth; by default it
    acts uniformly along the channel.  The map's velocity(x, t) is its time
    derivative at the reference points x.
    """
    def fn(x, t):
        g = narrowing_blend(x[:, 0], x_center, x_halfwidth)
        scale = 1.0 + g * (narrowing_scale(t) - 1.0)
        out = x.copy()
        out[:, 1] = x[:, 1] * scale
        return out

    def velocity(x, t):
        out = np.zeros_like(x)
        out[:, 1] = x[:, 1] * narrowing_blend(x[:, 0], x_center, x_halfwidth) * narrowing_rate(t)
        return out

    fn.velocity = velocity
    return fn


# ---------------------------------------------------------------------------
# spatial mesh generators

def interval_mesh(x0, x1, n, left_tag="dirichlet:left", right_tag="dirichlet:right"):
    """Uniform 1D mesh of [x0, x1] with n elements."""
    if n < 1 or x1 <= x0:
        raise MeshError("interval mesh needs n >= 1 and x1 > x0")
    nodes = np.linspace(x0, x1, n + 1).reshape(-1, 1)
    elements = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    markers = {(0,): left_tag, (n,): right_tag}
    return SpatialMesh(dimension=1, nodes=nodes, elements=elements,
                       boundary_markers=markers)


def triangulate_tensor_grid(x_breaks, y_breaks, keep=None):
    """Triangulate the tensor grid x_breaks x y_breaks (2 triangles per quad).

    keep(xc, yc) may drop quads by midpoint; unreferenced nodes are removed
    and the numbering compacted.  Returns (nodes, triangles).
    """
    xb = np.asarray(x_breaks, dtype=np.float64)
    yb = np.asarray(y_breaks, dtype=np.float64)
    if xb.size < 2 or yb.size < 2 or not (np.all(np.diff(xb) > 0) and np.all(np.diff(yb) > 0)):
        raise MeshError("breakpoints must be strictly increasing, at least two each")
    nx, ny = xb.size - 1, yb.size - 1
    X, Y = np.meshgrid(xb, yb, indexing="ij")
    nodes = np.column_stack([X.ravel(), Y.ravel()])        # id = i * (ny+1) + j
    tris = []
    for i in range(nx):
        for j in range(ny):
            if keep is not None and not keep(0.5 * (xb[i] + xb[i + 1]),
                                             0.5 * (yb[j] + yb[j + 1])):
                continue
            n00 = i * (ny + 1) + j
            n10 = (i + 1) * (ny + 1) + j
            n01 = n00 + 1
            n11 = n10 + 1
            tris.append((n00, n10, n11))
            tris.append((n00, n11, n01))
    if not tris:
        raise MeshError("keep predicate removed every cell")
    tris = np.asarray(tris, dtype=np.int64)
    used = np.unique(tris)
    remap = np.full(nodes.shape[0], -1, dtype=np.int64)
    remap[used] = np.arange(used.size)
    return nodes[used], remap[tris]


def tag_boundary_by_midpoint(nodes, facets, classify):
    """Build a boundary-marker dict by classifying facet midpoints.

    facets are sorted node tuples, as _boundary_facets_of lists them.
    classify(x, y) must return a tag string for every midpoint; returning
    None raises, so untagged boundary cannot slip through.
    """
    markers = {}
    for f in facets:
        mid = nodes[list(f)].mean(axis=0)
        tag = classify(*mid)
        if tag is None:
            raise MeshError("no tag for boundary facet at %s" % (mid,))
        markers[f] = tag
    return markers


def rectangle_mesh(x_breaks, y_breaks, left, right, bottom, top):
    """Structured triangle mesh of a rectangle with one tag per side."""
    nodes, tris = triangulate_tensor_grid(x_breaks, y_breaks)
    xb = np.asarray(x_breaks, dtype=np.float64)
    yb = np.asarray(y_breaks, dtype=np.float64)
    tol = 1e-12 * max(xb[-1] - xb[0], yb[-1] - yb[0])

    def classify(x, y):
        if abs(x - xb[0]) <= tol:
            return left
        if abs(x - xb[-1]) <= tol:
            return right
        if abs(y - yb[0]) <= tol:
            return bottom
        if abs(y - yb[-1]) <= tol:
            return top
        return None

    markers = tag_boundary_by_midpoint(nodes, _boundary_facets_of(tris, 2), classify)
    return SpatialMesh(dimension=2, nodes=nodes, elements=tris, boundary_markers=markers)


# ---------------------------------------------------------------------------
# legacy VTK export (ASCII unstructured grid), for visualization only

_VTK_CELL = {1: 3, 2: 5, 3: 10}     # simplex dimension -> VTK_LINE/TRIANGLE/TETRA


def _write_vtk_grid(fh, points, cells, cell_dim, point_data):
    n = points.shape[0]
    pts3 = np.zeros((n, 3))
    pts3[:, :points.shape[1]] = points
    fh.write("# vtk DataFile Version 3.0\n")
    fh.write("stmor export\n")
    fh.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
    fh.write("POINTS %d double\n" % n)
    for row in pts3:
        fh.write("%.17g %.17g %.17g\n" % tuple(row))
    k = cells.shape[1]
    fh.write("CELLS %d %d\n" % (cells.shape[0], cells.shape[0] * (k + 1)))
    for row in cells:
        fh.write(str(k) + " " + " ".join(str(int(v)) for v in row) + "\n")
    fh.write("CELL_TYPES %d\n" % cells.shape[0])
    fh.write(("%d\n" % _VTK_CELL[cell_dim]) * cells.shape[0])
    if point_data:
        fh.write("POINT_DATA %d\n" % n)
        for name, arr in point_data.items():
            arr = np.asarray(arr, dtype=np.float64)
            if arr.ndim == 1:
                fh.write("SCALARS %s double 1\nLOOKUP_TABLE default\n" % name)
                for v in arr:
                    fh.write("%.17g\n" % v)
            else:
                vec3 = np.zeros((n, 3))
                vec3[:, :arr.shape[1]] = arr
                fh.write("VECTORS %s double\n" % name)
                for row in vec3:
                    fh.write("%.17g %.17g %.17g\n" % tuple(row))


def write_vtk(mesh, path, point_data=None):
    """Export the full space-time grid (with optional nodal fields) to VTK."""
    with open(path, "w") as fh:
        _write_vtk_grid(fh, mesh.nodes, mesh.elements, mesh.dimension, point_data or {})
