"""Simplex meshes of the space-time domain Q = Omega(t) x [0, T].

The spatial mesh (d = 1 or 2) is extruded level by level into a simplex mesh
of dimension D = d+1 whose last coordinate is time.  Prisms are subdivided
with the sorted-global-index rule, so neighboring prisms always share
conforming facets.  Prescribed domain deformations are applied by moving the
space-time nodes; the element topology never changes.
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
    """Raised for invalid meshes, maps, or mesh files."""


def _canonical(facet):
    return tuple(sorted(int(i) for i in facet))


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
        self.boundary_markers = {_canonical(f): str(t) for f, t in self.boundary_markers.items()}

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

    def boundary_facets(self):
        """All topological boundary facets (facets referenced by exactly one element)."""
        d = self.dimension
        counts = {}
        for elem in self.elements:
            for i in range(d + 1):
                f = _canonical(np.delete(elem, i))
                counts[f] = counts.get(f, 0) + 1
        return [f for f, c in counts.items() if c == 1]

    def validate(self):
        if self.elements.size and (self.elements.min() < 0 or self.elements.max() >= self.n_nodes):
            raise MeshError("element references a node id out of range")
        meas = self.element_measures()
        bad = np.flatnonzero(meas <= 0.0)
        if bad.size:
            raise MeshError("spatial element %d has non-positive measure" % bad[0])
        boundary = set(self.boundary_facets())
        marked = set(self.boundary_markers)
        if marked - boundary:
            raise MeshError("boundary marker on a non-boundary facet: %s"
                            % sorted(marked - boundary)[0])
        return self


@dataclass
class SpaceTimeMesh:
    """Simplex mesh of Q; the last node coordinate is time.

    boundary_facets maps each boundary facet (sorted node tuple, D nodes) to a
    tag: ``dirichlet:<name>``, ``neumann:<name>``, ``initial`` or ``terminal``.
    time_levels holds the extrusion levels (empty for imported meshes).
    reference_nodes are the undeformed extrusion coordinates; boundary profiles
    and deformation maps are evaluated on them.
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
        self.time_levels = np.asarray(self.time_levels, dtype=np.float64)
        if self.reference_nodes is None:
            self.reference_nodes = self.nodes
        self.boundary_facets = {_canonical(f): str(t) for f, t in self.boundary_facets.items()}
        self._geom = None
        self._hash = None

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

    def signed_measures(self):
        D = self.dimension
        x = self.nodes[self.elements]
        edges = x[:, 1:, :] - x[:, :1, :]
        return np.linalg.det(edges) / _FACTORIAL[D]

    def all_element_geometry(self):
        """Vectorized geometry: (measures, grads) with grads (n_e, D+1, D), cached."""
        if self._geom is None:
            D = self.dimension
            x = self.nodes[self.elements]                  # (m, D+1, D)
            M = np.swapaxes(x[:, 1:, :] - x[:, :1, :], 1, 2)   # columns = edge vectors
            det = np.linalg.det(M)
            bad = np.flatnonzero(np.abs(det) < 1e-300)
            if bad.size:
                raise MeshError("element %d is degenerate" % bad[0])
            Minv = np.linalg.inv(M)                        # rows = gradients of N_1..N_D
            grads = np.empty((x.shape[0], D + 1, D))
            grads[:, 1:, :] = Minv
            grads[:, 0, :] = -Minv.sum(axis=1)
            self._geom = (det / _FACTORIAL[D], grads)
        return self._geom

    def facet_measure(self, facet):
        """(D-1)-measure of a facet given by node ids."""
        x = self.nodes[list(facet)]
        v = x[1:] - x[:1]
        gram = v @ v.T
        return float(np.sqrt(max(np.linalg.det(gram), 0.0)) / _FACTORIAL[len(facet) - 1])

    def nodes_of_tag(self, tag):
        """Sorted unique node ids lying on facets with the given tag."""
        ids = set()
        for f, t in self.boundary_facets.items():
            if t == tag:
                ids.update(f)
        return np.array(sorted(ids), dtype=np.int64)

    def tags(self):
        return sorted(set(self.boundary_facets.values()))

    def content_hash(self):
        """Hex digest identifying the mesh (geometry, topology, tags, levels)."""
        if self._hash is None:
            h = hashlib.sha256()
            h.update(b"stmesh")
            h.update(np.int64(self.dimension).tobytes())
            h.update(np.ascontiguousarray(self.nodes).tobytes())
            h.update(np.ascontiguousarray(self.elements).tobytes())
            for f in sorted(self.boundary_facets):
                h.update(np.asarray(f, dtype=np.int64).tobytes())
                h.update(self.boundary_facets[f].encode())
            h.update(np.ascontiguousarray(self.time_levels).tobytes())
            self._hash = h.hexdigest()[:16]
        return self._hash

    def validate(self):
        if self.elements.size and (self.elements.min() < 0 or self.elements.max() >= self.n_nodes):
            raise MeshError("element references a node id out of range")
        meas = self.signed_measures()
        bad = np.flatnonzero(meas <= 0.0)
        if bad.size:
            raise MeshError("element %d has non-positive measure" % bad[0])
        boundary = set(_boundary_facets_of(self.elements, self.dimension))
        tagged = set(self.boundary_facets)
        if boundary != tagged:
            raise MeshError("boundary tags do not cover the topological boundary")
        return self


def _boundary_facets_of(elements, D):
    """Facets referenced by exactly one element (vectorized over all elements)."""
    m = elements.shape[0]
    if m == 0:
        return []
    faces = np.empty((m * (D + 1), D), dtype=np.int64)
    for i in range(D + 1):
        faces[i * m:(i + 1) * m] = np.delete(elements, i, axis=1)
    faces.sort(axis=1)
    uniq, counts = np.unique(faces, axis=0, return_counts=True)
    return [tuple(f) for f in uniq[counts == 1]]


def _orient_positive(nodes, elements, D):
    """Swap the last two nodes of any simplex with negative signed measure."""
    x = nodes[elements]
    edges = x[:, 1:, :] - x[:, :1, :]
    det = np.linalg.det(edges)
    flip = det < 0
    if np.any(flip):
        elements = elements.copy()
        elements[flip, -2], elements[flip, -1] = (elements[flip, -1].copy(),
                                                  elements[flip, -2].copy())
    return elements


def extrude(spatial, time_levels):
    """Extrude a spatial simplex mesh over the given time levels.

    Each prism (spatial simplex x time slab) is cut into d+1 simplices with the
    deterministic sorted-global-index rule, so the result is conforming.  Node
    ids are level-major: node = level * n_spatial + spatial_id.  Spatial
    boundary markers are propagated to the lateral facets; the t = t0 and
    t = T caps are tagged ``initial`` and ``terminal``.

    Parameters
    ----------
    spatial : SpatialMesh
    time_levels : sequence of float
        Strictly increasing, at least two entries.

    Returns
    -------
    SpaceTimeMesh
    """
    levels = np.asarray(time_levels, dtype=np.float64)
    if levels.ndim != 1 or levels.size < 2:
        raise MeshError("need at least two time levels")
    if not np.all(np.diff(levels) > 0):
        raise MeshError("time levels must be strictly increasing")
    spatial.validate()

    d = spatial.dimension
    D = d + 1
    ns = spatial.n_nodes
    L = levels.size

    # complete marker coverage is required, otherwise lateral facets are untaggable
    missing = set(spatial.boundary_facets()) - set(spatial.boundary_markers)
    if missing:
        raise MeshError("spatial boundary facet %s carries no marker" % (sorted(missing)[0],))

    nodes = np.empty((ns * L, D))
    nodes[:, :d] = np.tile(spatial.nodes, (L, 1))
    nodes[:, d] = np.repeat(levels, ns)

    vsort = np.sort(spatial.elements, axis=1)              # consistent global ordering
    m = spatial.n_elements
    elements = np.empty((m * (L - 1) * (d + 1), D + 1), dtype=np.int64)
    row = 0
    for k in range(L - 1):
        bot = vsort + k * ns
        top = vsort + (k + 1) * ns
        for j in range(d + 1):
            # simplex j of the prism: bottom copies of v_0..v_j, top copies of v_j..v_d
            elements[row:row + m, :j + 1] = bot[:, :j + 1]
            elements[row:row + m, j + 1:] = top[:, j:]
            row += m
    elements = _orient_positive(nodes, elements, D)

    t0, T = levels[0], levels[-1]
    boundary = {}
    for f in _boundary_facets_of(elements, D):
        t = nodes[list(f), d]
        if np.all(t == t0):
            boundary[f] = TAG_INITIAL
        elif np.all(t == T):
            boundary[f] = TAG_TERMINAL
        else:
            key = tuple(sorted(set(int(i) % ns for i in f)))
            try:
                boundary[f] = spatial.boundary_markers[key]
            except KeyError:
                raise MeshError("lateral facet %s matches no spatial marker "
                                "(inconsistent numbering)" % (f,)) from None

    mesh = SpaceTimeMesh(dimension=D, nodes=nodes, elements=elements,
                         boundary_facets=boundary, time_levels=levels,
                         n_spatial=ns, spatial=spatial)
    logger.info("extruded mesh: %d nodes, %d elements, %d levels",
                mesh.n_nodes, mesh.n_elements, L)
    return mesh


@dataclass
class DeformationMap:
    """Prescribed deformation (x, t) -> displaced x; continuous in t.

    kind is one of valve_plug, channel_narrowing, identity, analytic; the
    named scalar parameters are kept so that boundary data can be derived
    from the same description that moved the mesh.
    """

    kind: str
    parameters: dict
    fn: callable

    def __call__(self, x, t):
        return self.fn(np.asarray(x, dtype=np.float64), np.asarray(t, dtype=np.float64))


def identity_map():
    return DeformationMap(kind="identity", parameters={},
                          fn=lambda x, t: x)


def analytic_map(fn, parameters=None):
    return DeformationMap(kind="analytic", parameters=dict(parameters or {}), fn=fn)


def plug_displacement(t, speed, schedule):
    """Plug displacement for a rest/in/rest/out/rest schedule.

    schedule = (t_in_start, t_in_end, t_out_start, t_out_end); the plug moves
    with -speed on the first window and +speed on the second.
    """
    t = np.asarray(t, dtype=np.float64)
    t0, t1, t2, t3 = schedule
    return -speed * (np.clip(t, t0, t1) - t0) + speed * (np.clip(t, t2, t3) - t2)


def plug_velocity(t, speed, schedule):
    """Plug velocity matching plug_displacement (right-continuous in t)."""
    t = np.asarray(t, dtype=np.float64)
    t0, t1, t2, t3 = schedule
    v = np.zeros_like(t)
    v = np.where((t >= t0) & (t < t1), -speed, v)
    v = np.where((t >= t2) & (t < t3), speed, v)
    return v


def valve_plug_map(x_gate_rest, x_wall, speed, schedule,
                   band_lo, band_hi, blend_len):
    """Piecewise-linear x-remap that slides a gate tip from x_gate_rest.

    The zone [0, x_gate_rest] stretches to [0, x_tip(t)] and the slot
    [x_gate_rest, x_wall] to [x_tip(t), x_wall]; beyond x_wall the map is the
    identity.  The remap acts fully inside the band band_lo <= y <= band_hi
    and fades linearly to the identity over blend_len outside it, so distant
    boundary portions (inlet, outlet) stay fixed.
    """
    params = dict(x_gate_rest=x_gate_rest, x_wall=x_wall, speed=speed,
                  schedule=tuple(schedule), band_lo=band_lo, band_hi=band_hi,
                  blend_len=blend_len)

    def fn(x, t):
        xc = x[:, 0]
        y = x[:, 1]
        tip = x_gate_rest + plug_displacement(t, speed, schedule)
        remap = np.where(
            xc <= x_gate_rest,
            xc * (tip / x_gate_rest),
            np.where(xc <= x_wall,
                     x_wall + (xc - x_wall) * (x_wall - tip) / (x_wall - x_gate_rest),
                     xc))
        dist = np.maximum(band_lo - y, y - band_hi)
        beta = np.clip(1.0 - np.maximum(dist, 0.0) / blend_len, 0.0, 1.0)
        out = x.copy()
        out[:, 0] = xc + beta * (remap - xc)
        return out

    return DeformationMap(kind="valve_plug", parameters=params, fn=fn)


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


def channel_narrowing_map(r0, x_center=None, x_halfwidth=None):
    """Scale the channel height so walls at +-r0 follow the narrowing law.

    Interior nodes are blended linearly in y.  With x_center set, the
    narrowing is localized in a window of the given halfwidth; by default it
    acts uniformly along the channel.
    """
    params = dict(r0=r0, x_center=x_center, x_halfwidth=x_halfwidth)

    def fn(x, t):
        g = narrowing_blend(x[:, 0], x_center, x_halfwidth)
        scale = 1.0 + g * (narrowing_scale(t) - 1.0)
        out = x.copy()
        out[:, 1] = x[:, 1] * scale
        return out

    return DeformationMap(kind="channel_narrowing", parameters=params, fn=fn)


def deform(mesh, dmap):
    """Apply a deformation map to the node coordinates of a space-time mesh.

    Spatial coordinates are replaced by map(x, t) with t unchanged; boundary
    tags and connectivity are untouched.  Raises MeshError naming the first
    element whose measure becomes non-positive.
    """
    d = mesh.d
    new_nodes = mesh.nodes.copy()
    new_nodes[:, :d] = dmap(mesh.nodes[:, :d], mesh.nodes[:, d])
    out = SpaceTimeMesh(dimension=mesh.dimension, nodes=new_nodes,
                        elements=mesh.elements, boundary_facets=mesh.boundary_facets,
                        time_levels=mesh.time_levels,
                        reference_nodes=mesh.reference_nodes,
                        n_spatial=mesh.n_spatial, spatial=mesh.spatial)
    meas = out.signed_measures()
    bad = np.flatnonzero(meas <= 0.0)
    if bad.size:
        raise MeshError("deformation inverts element %d (measure %.3e)"
                        % (bad[0], meas[bad[0]]))
    return out


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
                       boundary_markers=markers).validate()


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

    classify(x, y) must return a tag string for every midpoint; returning
    None raises, so untagged boundary cannot slip through.
    """
    markers = {}
    for f in facets:
        mid = nodes[list(f)].mean(axis=0)
        tag = classify(*mid)
        if tag is None:
            raise MeshError("no tag for boundary facet at %s" % (mid,))
        markers[_canonical(f)] = tag
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

    mesh = SpatialMesh(dimension=2, nodes=nodes, elements=tris, boundary_markers={})
    mesh.boundary_markers = tag_boundary_by_midpoint(nodes, mesh.boundary_facets(), classify)
    return mesh.validate()


# ---------------------------------------------------------------------------
# mesh file format: line-oriented text, versioned header

def write_mesh(mesh, path):
    """Write the mesh in the ``stmesh v1`` text format."""
    d = mesh.d
    with open(path, "w") as fh:
        fh.write("stmesh v1 d=%d\n" % d)
        fh.write("N %d\n" % mesh.n_nodes)
        for row in mesh.nodes:
            fh.write(" ".join("%.17g" % v for v in row) + "\n")
        fh.write("E %d\n" % mesh.n_elements)
        for row in mesh.elements:
            fh.write(" ".join(str(int(v)) for v in row) + "\n")
        fh.write("B %d\n" % len(mesh.boundary_facets))
        for f in sorted(mesh.boundary_facets):
            fh.write(" ".join(str(int(v)) for v in f)
                     + " " + mesh.boundary_facets[f] + "\n")


def read_mesh(path):
    """Read a ``stmesh v1`` file.  Imported meshes carry no time levels."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or not lines[0].startswith("stmesh v1 d="):
        raise MeshError("%s: not a stmesh v1 file" % path)
    try:
        d = int(lines[0].split("d=")[1])
    except (IndexError, ValueError):
        raise MeshError("%s: malformed header" % path) from None
    D = d + 1
    pos = 1

    def expect_block(letter):
        nonlocal pos
        parts = lines[pos].split()
        if len(parts) != 2 or parts[0] != letter:
            raise MeshError("%s: expected '%s <count>' at line %d" % (path, letter, pos + 1))
        pos += 1
        return int(parts[1])

    n = expect_block("N")
    nodes = np.array([[float(v) for v in lines[pos + i].split()] for i in range(n)])
    pos += n
    m = expect_block("E")
    elements = np.array([[int(v) for v in lines[pos + i].split()] for i in range(m)],
                        dtype=np.int64).reshape(m, D + 1)
    pos += m
    nb = expect_block("B")
    boundary = {}
    for i in range(nb):
        parts = lines[pos + i].split()
        boundary[tuple(int(v) for v in parts[:D])] = parts[D]
    if nodes.size and nodes.shape[1] != D:
        raise MeshError("%s: node rows must have %d coordinates" % (path, D))
    return SpaceTimeMesh(dimension=D, nodes=nodes.reshape(n, D), elements=elements,
                         boundary_facets=boundary).validate()


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


def write_vtk_slice(mesh, path, level_index, point_data=None):
    """Export the constant-t slice at an extrusion level to VTK.

    Only extruded meshes carry the level structure needed here; nodal fields
    are restricted to the slice.
    """
    if mesh.n_spatial is None or mesh.spatial is None:
        raise MeshError("constant-t slices require an extruded mesh")
    L = mesh.time_levels.size
    if not 0 <= level_index < L:
        raise MeshError("level index %d outside 0..%d" % (level_index, L - 1))
    ns = mesh.n_spatial
    sel = slice(level_index * ns, (level_index + 1) * ns)
    pts = mesh.nodes[sel, :mesh.d]
    data = {}
    for name, arr in (point_data or {}).items():
        arr = np.asarray(arr)
        data[name] = arr[sel]
    with open(path, "w") as fh:
        _write_vtk_grid(fh, pts, mesh.spatial.elements, mesh.d, data)
