"""Simplex meshes of the space-time domain Q = Omega(t) x [0, T].

The spatial mesh (d = 1 or 2) is extruded level by level into a simplex mesh
of dimension D = d+1 whose last coordinate is time.  Prisms are subdivided
with the sorted-global-index rule, so neighboring prisms always share
conforming facets.  A prescribed domain deformation is applied by extrude
to the nodes it lays out, so the element topology never changes.

Both mesh classes check themselves once, at construction: node ids in
range, finite positive element measures, and boundary tags that cover
exactly the topological boundary.  A mesh that exists is valid.
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
class _Simplices:
    """Nodes, simplices of dimension dimension and the boundary: the facet
    rows (n, dimension) of node ids, in any order within a row, and one tag
    string per row, such as ``dirichlet:wall`` or ``neumann:outlet``."""

    dimension: int
    nodes: np.ndarray           # (n_nodes, dimension)
    elements: np.ndarray        # (n_elements, dimension+1), global node ids
    facets: np.ndarray          # (n_facets, dimension), boundary facet node ids
    facet_tags: np.ndarray      # (n_facets,) tag strings

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_elements(self):
        return self.elements.shape[0]

    def _check(self, measures, what):
        """Check the node ids, each element's measure (measures(), finite
        and positive) and the boundary, in that order; return (untagged, inner).

        The facet rows are sorted and ordered by their tuples (their _packed
        keys), with their tags as a str array, and compared with the facets
        the elements reference once: untagged is the first of those without
        a row and inner the first row that is not one of them, as tuples, or
        None.  Rows of another width, a tag count other than the row count
        and a facet listed twice are refused.
        """
        if self.elements.size and (self.elements.min() < 0 or self.elements.max() >= self.n_nodes):
            raise MeshError("element references a node id out of range")
        with np.errstate(invalid="ignore", over="ignore"):  # a non-finite measure is refused
            meas = measures()
        bad = np.flatnonzero(~((meas > 0.0) & (meas < np.inf)))
        if bad.size:
            i = bad[0]
            kind = "non-positive" if meas[i] <= 0.0 else "non-finite"
            raise MeshError("%s %d has %s measure %.3e" % (what, i, kind, meas[i]))
        width = self.dimension
        try:
            rows = np.asarray(self.facets, dtype=np.int64).reshape(len(self.facets), width)
        except ValueError:
            raise MeshError("each boundary facet must list %d node ids" % width) from None
        tags = np.asarray(self.facet_tags, dtype=str)
        if tags.shape != (len(rows),):
            raise MeshError("%d boundary facets but %d tags" % (len(rows), tags.size))
        rows = np.sort(rows, axis=1)
        order = np.argsort(_packed(rows.T, self.n_nodes))
        self.facets, self.facet_tags = rows[order], tags[order]
        boundary = _boundary_facet_rows(self.elements, width)
        if np.array_equal(self.facets, boundary):
            return None, None
        tagged = list(map(tuple, self.facets.tolist()))
        if len(set(tagged)) < len(tagged):
            raise MeshError("a boundary facet is listed twice")
        boundary = set(map(tuple, boundary.tolist()))
        return min(boundary.difference(tagged), default=None), \
            min(set(tagged) - boundary, default=None)


@dataclass
class SpatialMesh(_Simplices):
    """Simplex mesh of the spatial domain Omega (d = 1: intervals, d = 2: triangles)."""

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise MeshError("a spatial mesh has dimension 1 or 2, got %r" % (self.dimension,))
        self.nodes = np.ascontiguousarray(self.nodes, dtype=np.float64)
        self.elements = np.ascontiguousarray(self.elements, dtype=np.int64)
        if self.nodes.ndim != 2 or self.nodes.shape[1] != self.dimension:
            raise MeshError("spatial node array must be (n, %d)" % self.dimension)
        if self.elements.ndim != 2 or self.elements.shape[1] != self.dimension + 1:
            raise MeshError("spatial elements must have %d nodes" % (self.dimension + 1))
        untagged, inner = self._check(self.element_measures, "spatial element")
        if inner is not None:
            raise MeshError("boundary marker on a non-boundary facet: %s" % (inner,))
        if untagged is not None:
            raise MeshError("spatial boundary facet %s carries no marker" % (untagged,))

    def element_measures(self):
        return np.abs(_edge_det(self.nodes, self.elements)) / _FACTORIAL[self.dimension]


@dataclass
class SpaceTimeMesh(_Simplices):
    """Simplex mesh of Q; the last node coordinate is time.

    The facet tags are ``dirichlet:<name>``, ``neumann:<name>``, ``initial``
    or ``terminal``.  time_levels holds the extrusion levels (empty for
    imported meshes).  reference_nodes are the undeformed extrusion
    coordinates; boundary profiles and deformation maps are evaluated on them.

    The arrays are read-only after construction: the geometry, the hash and
    the tags are derived from them once.  The constructor checks the mesh
    (_check), by one facet search for the boundary.
    """

    time_levels: np.ndarray = field(default_factory=lambda: np.empty(0))
    reference_nodes: np.ndarray = None
    n_spatial: int = None       # spatial nodes per level for extruded meshes
    spatial: SpatialMesh = None

    def __post_init__(self):
        self.nodes = np.ascontiguousarray(self.nodes, dtype=np.float64)
        self.elements = np.ascontiguousarray(self.elements, dtype=np.int64)
        D = self.dimension
        if D not in (2, 3):
            raise MeshError("a space-time mesh has dimension 2 or 3, got %r" % (D,))
        if self.nodes.ndim != 2 or self.nodes.shape[1] != D \
                or self.elements.ndim != 2 or self.elements.shape[1] != D + 1:
            raise MeshError("space-time nodes must be (n, %d) and elements (m, %d)" % (D, D + 1))
        self.time_levels = np.asarray(self.time_levels, dtype=np.float64)
        if self.reference_nodes is None:
            self.reference_nodes = self.nodes
        self._geom = self._hash = self._tags = None
        untagged, inner = self._check(lambda: self.all_element_geometry()[0], "element")
        if untagged is not None or inner is not None:
            first = min(f for f in (untagged, inner) if f is not None)
            raise MeshError("boundary tags do not cover the topological boundary: facet %s %s"
                            % (first, "has no tag" if first == untagged else "is tagged but inner"))

    @property
    def d(self):
        """Spatial dimension."""
        return self.dimension - 1

    def all_element_geometry(self):
        """Vectorized geometry: (measures, grads) with grads (n_e, D+1, D), cached.

        Closed forms on length-E vectors.  With the edges e_j = x_j - x_0 as
        the columns of M, the gradients of N_1..N_D are the rows of
        M^-1 = adj M / det M (for D = 3 the cross products e_2 x e_3,
        e_3 x e_1 and e_1 x e_2), det M is e_1 dotted with the first row of
        adj M, and the measure is det M / D!.  N_0's gradient is minus the
        sum of the others.
        """
        if self._geom is None:
            D, E = self.dimension, self.n_elements
            # the outputs first, so that the temporaries' heap is freed whole
            det, grads = np.empty(E), np.empty((E, D + 1, D))
            # nodes 1..D less node 0, (D, D, E): freeing a block as large as
            # FomAssembler's (D, D+1, E) one would lift glibc's mmap threshold
            # so that that one stays in the heap (3 MB on the valve)
            x = element_coordinates(self.nodes, self.elements[:, 1:])
            for c, col in enumerate(x):
                col -= np.take(self.nodes[:, c], self.elements[:, 0])
            edge = x.transpose(1, 0, 2)                    # edge[j, c]: component c of e_(j+1)
            row, t = np.empty((D, E)), np.empty(E)         # one row of adj M at a time
            for r in range(D):
                _adjugate_row(edge, r, row, t)
                if r == 0:
                    np.multiply(edge[0, 0], row[0], out=det)
                    for c in range(1, D):
                        det += np.multiply(edge[0, c], row[c], out=t)
                    bad = np.flatnonzero(np.abs(det) < 1e-300)
                    if bad.size:
                        raise MeshError("element %d is degenerate" % bad[0])
                np.divide(row, det, out=grads[:, r + 1, :].T)
            del x, edge, row
            g0 = np.negative(grads[:, 1, :], out=grads[:, 0, :])
            for r in range(2, D + 1):
                g0 -= grads[:, r, :]
            det /= _FACTORIAL[D]
            self._geom = (det, grads)
        return self._geom

    def _nodes_of_facets(self, chosen):
        hit = np.zeros(self.n_nodes, dtype=bool)
        hit[self.facets[chosen]] = True
        return np.flatnonzero(hit)

    def nodes_of_tag(self, tag):
        """Sorted unique node ids lying on facets with the given tag."""
        return self._nodes_of_facets(self.facet_tags == tag)

    def lateral_nodes(self):
        """Sorted unique node ids on facets tagged neither initial nor terminal."""
        return self._nodes_of_facets((self.facet_tags != TAG_INITIAL)
                                     & (self.facet_tags != TAG_TERMINAL))

    def tags(self):
        if self._tags is None:
            self._tags = np.unique(self.facet_tags).tolist()
        return list(self._tags)

    def content_hash(self):
        """Hex digest identifying the mesh (geometry, topology, tags, levels)."""
        if self._hash is None:
            h = hashlib.sha256()
            h.update(b"stmesh")
            h.update(np.int64(self.dimension).tobytes())
            h.update(np.ascontiguousarray(self.nodes).tobytes())
            h.update(np.ascontiguousarray(self.elements).tobytes())
            # the facets in tuple order, each its int64 node ids then its tag
            names, codes = np.unique(self.facet_tags, return_inverse=True)
            tags = np.array(list(map(str.encode, names)), dtype=bytes)[codes]
            rec = np.hstack([self.facets.view(np.uint8),
                             tags.view(np.uint8).reshape(tags.size, tags.itemsize)])
            h.update(rec[np.arange(rec.shape[1]) < 8 * self.dimension
                         + np.char.str_len(tags)[:, None]])
            h.update(np.ascontiguousarray(self.time_levels).tobytes())
            self._hash = h.hexdigest()[:16]
        return self._hash


def _adjugate_row(edge, r, out, t):
    """Row r of adj M, M's columns the edges edge[j] (D = 2 or 3), into out;
    t is a scratch vector."""
    D = len(edge)
    if D == 2:
        other = edge[1 - r]
        sign = 1.0 if r == 0 else -1.0
        np.multiply(other[1], sign, out=out[0])
        np.multiply(other[0], -sign, out=out[1])
        return
    u, v = edge[(r + 1) % 3], edge[(r + 2) % 3]
    for k in range(3):
        k1, k2 = (k + 1) % 3, (k + 2) % 3
        _det2(u[k1], u[k2], v[k1], v[k2], out=out[k], t=t)


def _det2(a, b, c, d, out=None, t=None):
    """a d - b c, the determinant of rows (a, b) and (c, d), elementwise;
    into out, with t as scratch, when given."""
    out = np.multiply(a, d, out=out)
    out -= np.multiply(b, c, out=t)
    return out


def element_coordinates(nodes, elements):
    """The node coordinates of each element as contiguous length-E vectors:
    a (dim, nodes per element, E) block, x[c, i] component c of node i."""
    idx = np.ascontiguousarray(elements.T)
    x = np.empty((nodes.shape[1],) + idx.shape)
    for c, col in enumerate(np.ascontiguousarray(nodes.T)):
        for i, ids in enumerate(idx):
            np.take(col, ids, out=x[c, i])
    return x


def _edge_det(nodes, elements):
    """det[x_1 - x_0, .., x_d - x_0] of each spatial simplex (d = 1 or 2), closed form."""
    x = element_coordinates(nodes, elements)
    x[:, 1:] -= x[:, :1]
    return x[0, 1] if len(x) == 1 else _det2(x[0, 1], x[0, 2], x[1, 1], x[1, 2])


def _packed(columns, n, out=None):
    """One int64 key per row of node ids below n, given as its D columns:
    f_0 n^(D-1) + ... + f_(D-1), so the keys order sorted rows as tuples."""
    if n ** len(columns) >= 2 ** 63:
        raise MeshError("a mesh of %d nodes is too large: facet keys need n^%d < 2^63"
                        % (n, len(columns)))
    key = np.empty(len(columns[0]), dtype=np.int64) if out is None else out
    key[...] = columns[0]
    for col in columns[1:]:
        key *= n
        key += col
    return key


def _boundary_facet_rows(elements, D):
    """Facets referenced once, as (n, D) sorted rows in lexicographic order.

    Each face is one packed key (_packed, n the largest node id + 1), so the
    search is one sort of (D+1) E integers.
    """
    ordered = np.sort(elements, axis=1).T                   # so every face row is sorted
    n = int(ordered[-1].max()) + 1 if ordered.size else 1
    keys = np.empty((D + 1, ordered.shape[1]), dtype=np.int64)
    for i in range(D + 1):                                  # face i omits node i
        _packed([ordered[j] for j in range(D + 1) if j != i], n, out=keys[i])
    del ordered
    keys = keys.ravel()
    keys.sort()
    start = np.ones(keys.size + 1, dtype=bool)              # a key differs from the one before
    np.not_equal(keys[1:], keys[:-1], out=start[1:-1])
    keys = keys[start[:-1] & start[1:]]
    rows = np.empty((keys.size, D), dtype=np.int64)         # the keys unpacked, last id first
    for j in range(D - 1, -1, -1):
        keys, rows[:, j] = np.divmod(keys, n)
    return rows


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
    spatial_sign = np.sign(_edge_det(spatial.nodes, vsort))
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

    marked = spatial.facets                                # sorted rows
    sides = [np.concatenate([marked[:, :i + 1], marked[:, i:] + ns], axis=1) + slab
             for i in range(d)]
    facets = np.concatenate([vsort, vsort + (L - 1) * ns] + [f.reshape(-1, D) for f in sides])
    tags = np.concatenate([np.full(len(vsort), TAG_INITIAL), np.full(len(vsort), TAG_TERMINAL),
                           np.tile(spatial.facet_tags, d * (L - 1))])
    mesh = SpaceTimeMesh(dimension=D, nodes=nodes, elements=elements, facets=facets,
                         facet_tags=tags, time_levels=levels,
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
    return SpatialMesh(dimension=1, nodes=nodes, elements=elements,
                       facets=[[0], [n]], facet_tags=[left_tag, right_tag])


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
    """The tags of the facet rows, by classifying their midpoints.

    classify(x, y) must return a tag string for every midpoint; returning
    None raises, so untagged boundary cannot slip through.
    """
    tags = [classify(*mid) for mid in nodes[facets].mean(axis=1)]
    if None in tags:
        raise MeshError("no tag for boundary facet at %s"
                        % (nodes[facets[tags.index(None)]].mean(axis=0),))
    return tags


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

    facets = _boundary_facet_rows(tris, 2)
    return SpatialMesh(dimension=2, nodes=nodes, elements=tris, facets=facets,
                       facet_tags=tag_boundary_by_midpoint(nodes, facets, classify))


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
