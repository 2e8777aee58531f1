"""Extrusion, subdivision, deformation, and geometry queries."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stmor import mesh as mesh_module
from stmor.cases import build_mesh, bundled_case, bundled_case_ids
from stmor.fom import FomAssembler
from stmor.mesh import (
    MeshError,
    SpaceTimeMesh,
    SpatialMesh,
    channel_narrowing_map,
    extrude,
    interval_mesh,
    narrowing_scale,
    plug_displacement,
    plug_velocity,
    rectangle_mesh,
    triangulate_tensor_grid,
    valve_plug_map,
    write_vtk,
)


def unit_triangle():
    return SpatialMesh(
        dimension=2,
        nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        elements=np.array([[0, 1, 2]]),
        facets=[[0, 1], [1, 2], [0, 2]], facet_tags=["dirichlet:a", "dirichlet:b", "dirichlet:c"],
    )


def boundary_items(mesh):
    """The (facet tuple, tag) pairs of a mesh's boundary, in its row order."""
    return list(zip(map(tuple, mesh.facets.tolist()), mesh.facet_tags.tolist()))


def facet_counts(mesh):
    counts = {}
    for elem in mesh.elements:
        for i in range(mesh.dimension + 1):
            f = tuple(sorted(np.delete(elem, i)))
            counts[f] = counts.get(f, 0) + 1
    return counts


def oracle_boundary_facets(elements, D):
    """Facets referenced once, found with a row-wise np.unique (the reference finder)."""
    m = elements.shape[0]
    faces = np.empty((m * (D + 1), D), dtype=np.int64)
    for i in range(D + 1):
        faces[i * m:(i + 1) * m] = np.delete(elements, i, axis=1)
    faces.sort(axis=1)
    uniq, counts = np.unique(faces, axis=0, return_counts=True)
    return [tuple(f) for f in uniq[counts == 1].tolist()]


def oracle_extruded_elements(spatial, n_levels):
    """Prism subdivision level by level, each simplex oriented by its determinant."""
    d, ns, m = spatial.dimension, spatial.n_nodes, spatial.n_elements
    vsort = np.sort(spatial.elements, axis=1)
    elements = np.empty((m * (n_levels - 1) * (d + 1), d + 2), dtype=np.int64)
    row = 0
    for k in range(n_levels - 1):
        for j in range(d + 1):
            elements[row:row + m, :j + 1] = vsort[:, :j + 1] + k * ns
            elements[row:row + m, j + 1:] = vsort[:, j:] + (k + 1) * ns
            row += m
    nodes = np.column_stack([np.tile(spatial.nodes, (n_levels, 1)),
                             np.repeat(np.arange(n_levels, dtype=float), ns)])
    x = nodes[elements]
    flip = np.linalg.det(x[:, 1:] - x[:, :1]) < 0
    elements[flip, -2:] = elements[flip, :-3:-1]
    return elements


def relabel(spatial, seed):
    """The same spatial mesh with its nodes numbered in a random order."""
    new = np.random.default_rng(seed).permutation(spatial.n_nodes)
    nodes = np.empty_like(spatial.nodes)
    nodes[new] = spatial.nodes
    return SpatialMesh(dimension=spatial.dimension, nodes=nodes, elements=new[spatial.elements],
                       facets=new[spatial.facets], facet_tags=spatial.facet_tags)


def oracle_content_hash(st_mesh):
    """The mesh digest, fed facet by facet in tuple order."""
    h = hashlib.sha256()
    h.update(b"stmesh")
    h.update(np.int64(st_mesh.dimension).tobytes())
    h.update(st_mesh.nodes.tobytes())
    h.update(st_mesh.elements.tobytes())
    for f, tag in sorted(boundary_items(st_mesh)):
        h.update(np.asarray(f, dtype=np.int64).tobytes())
        h.update(tag.encode())
    h.update(st_mesh.time_levels.tobytes())
    return h.hexdigest()[:16]


def oracle_extrusion_tags(st_mesh):
    """Tags of an extruded (possibly deformed) mesh, found facet by facet."""
    ns, t = st_mesh.n_spatial, st_mesh.nodes[:, -1]
    t0, T = st_mesh.time_levels[0], st_mesh.time_levels[-1]
    markers = dict(boundary_items(st_mesh.spatial))
    boundary = {}
    for f in oracle_boundary_facets(st_mesh.elements, st_mesh.dimension):
        if np.all(t[list(f)] == t0):
            boundary[f] = "initial"
        elif np.all(t[list(f)] == T):
            boundary[f] = "terminal"
        else:
            key = tuple(sorted(set(int(i) % ns for i in f)))
            boundary[f] = markers[key]
    return boundary


def assert_matches_oracle(st_mesh):
    D = st_mesh.dimension
    np.testing.assert_array_equal(
        st_mesh.elements, oracle_extruded_elements(st_mesh.spatial, st_mesh.time_levels.size))
    assert list(map(tuple, mesh_module._boundary_facet_rows(st_mesh.elements, D).tolist())) \
        == oracle_boundary_facets(st_mesh.elements, D)
    expected = oracle_extrusion_tags(st_mesh)
    assert boundary_items(st_mesh) == list(expected.items())
    assert st_mesh.tags() == sorted(set(expected.values()))
    for tag in st_mesh.tags() + ["dirichlet:none"]:
        ids = sorted({i for f, t in expected.items() if t == tag for i in f})
        assert st_mesh.nodes_of_tag(tag).tolist() == ids
    lateral = sorted({i for f, t in expected.items()
                      if t not in ("initial", "terminal") for i in f})
    assert st_mesh.lateral_nodes().tolist() == lateral


BUNDLED_HASHES = {"artery-analog": "4f0653219e9c45ff", "couette": "1730dbfe2c29bdb5",
                  "poiseuille-body": "4cfb86211f773ec6", "valve-analog": "ca48b92f677b3599"}


class TestFacetSearch:
    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(1, 5), nl=st.integers(2, 4), seed=st.integers(0, 2 ** 16))
    def test_interval_extrusion_matches_oracle(self, n, nl, seed):
        spatial = relabel(interval_mesh(0.0, 1.0, n, "dirichlet:in", "neumann:out"), seed)
        assert_matches_oracle(extrude(spatial, np.linspace(0.0, 1.0, nl)))

    @settings(max_examples=15, deadline=None)
    @given(nx=st.integers(1, 3), ny=st.integers(1, 3), nl=st.integers(2, 4),
           seed=st.integers(0, 2 ** 16))
    def test_rectangle_extrusion_matches_oracle(self, nx, ny, nl, seed):
        spatial = relabel(rectangle_mesh(np.linspace(0, 2, nx + 1), np.linspace(-1, 1, ny + 1),
                                         "dirichlet:l", "dirichlet:r", "dirichlet:b",
                                         "neumann:t"), seed)
        assert list(map(tuple, mesh_module._boundary_facet_rows(spatial.elements, 2).tolist())) \
            == oracle_boundary_facets(spatial.elements, 2)
        assert_matches_oracle(extrude(spatial, np.linspace(0.0, 1.0, nl)))

    @pytest.mark.parametrize("case_id", sorted(BUNDLED_HASHES))
    def test_bundled_meshes_match_oracle(self, case_id):
        assert bundled_case_ids() == sorted(BUNDLED_HASHES)
        st_mesh = build_mesh(bundled_case(case_id))
        assert st_mesh.content_hash() == BUNDLED_HASHES[case_id]
        assert_matches_oracle(st_mesh)

    def test_non_canonical_facets_are_canonicalized(self):
        # each row reversed and the rows in reverse order, as int32
        st_mesh = extrude(unit_triangle(), [0.0, 0.5, 1.0])
        again = SpaceTimeMesh(dimension=3, nodes=st_mesh.nodes, elements=st_mesh.elements,
                              facets=st_mesh.facets[::-1, ::-1].astype(np.int32),
                              facet_tags=st_mesh.facet_tags[::-1],
                              time_levels=st_mesh.time_levels)
        assert boundary_items(again) == boundary_items(st_mesh)
        assert again.facets.dtype == np.int64
        assert again.content_hash() == st_mesh.content_hash()

    def test_sorted_numpy_facets_become_plain(self):
        # rows of numpy integers and tags of numpy strings, as lists
        st_mesh = extrude(unit_triangle(), [0.0, 0.5, 1.0])
        again = SpaceTimeMesh(dimension=3, nodes=st_mesh.nodes, elements=st_mesh.elements,
                              facets=[tuple(np.uint16(i) for i in f) for f in st_mesh.facets],
                              facet_tags=[np.str_(t) for t in st_mesh.facet_tags],
                              time_levels=st_mesh.time_levels)
        assert boundary_items(again) == boundary_items(st_mesh)
        assert again.facets.dtype == np.int64 and again.facet_tags.dtype.kind == "U"
        assert all(type(t) is str for t in again.tags())
        assert again.content_hash() == st_mesh.content_hash()

    def test_malformed_facet_keys_are_rejected(self):
        nodes = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                          [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        for facets, match in (([(0, 1)], "3 node ids"),
                              ([(0, 1, 2), (0, 1)], "3 node ids"),
                              ([(0, 1, 2), (2, 1, 0)], "listed twice"),
                              ([(0, 1, 2), (0, 1, 2)], "listed twice")):
            with pytest.raises(MeshError, match=match):
                SpaceTimeMesh(dimension=3, nodes=nodes, elements=np.array([[0, 1, 2, 3]]),
                              facets=facets, facet_tags=["a"] * len(facets))

    def test_tag_count_must_match_row_count(self):
        st_mesh = extrude(unit_triangle(), [0.0, 1.0])
        for tags in (st_mesh.facet_tags[1:], list(st_mesh.facet_tags) + ["initial"], "initial"):
            with pytest.raises(MeshError, match="%d boundary facets but" % len(st_mesh.facets)):
                SpaceTimeMesh(dimension=3, nodes=st_mesh.nodes, elements=st_mesh.elements,
                              facets=st_mesh.facets, facet_tags=tags)
        with pytest.raises(MeshError, match="3 boundary facets but 2 tags"):
            SpatialMesh(dimension=2, nodes=unit_triangle().nodes, elements=[[0, 1, 2]],
                        facets=[[0, 1], [1, 2], [0, 2]], facet_tags=["a", "b"])


class TestExtrude:
    def test_single_interval_single_slab(self):
        # one quad splits into 2 triangles
        st_mesh = extrude(interval_mesh(0.0, 1.0, 1), [0.0, 1.0])
        assert st_mesh.n_nodes == 4
        assert st_mesh.n_elements == 2
        np.testing.assert_allclose(st_mesh.all_element_geometry()[0].sum(), 1.0, rtol=1e-12)

    def test_single_triangle_two_slabs(self):
        # 3 nodes x 3 levels = 9; 1 prism x 2 slabs x 3 tets = 6; volume = 0.5 * 1.0
        st_mesh = extrude(unit_triangle(), [0.0, 0.5, 1.0])
        assert st_mesh.n_nodes == 9
        assert st_mesh.n_elements == 6
        meas = st_mesh.all_element_geometry()[0]
        assert np.all(meas > 0)
        np.testing.assert_allclose(meas.sum(), 0.5, rtol=1e-12)

    def test_caps_are_spatial_elements(self):
        spatial = rectangle_mesh([0, 0.5, 1.0], [0, 1.0],
                                 "dirichlet:l", "dirichlet:r", "dirichlet:b", "dirichlet:t")
        st_mesh = extrude(spatial, [0.0, 0.25, 1.0])
        ns = spatial.n_nodes
        initial = {f for f, t in boundary_items(st_mesh) if t == "initial"}
        terminal = {f for f, t in boundary_items(st_mesh) if t == "terminal"}
        spat = {tuple(sorted(e)) for e in spatial.elements}
        assert initial == spat
        assert terminal == {tuple(sorted(e + 2 * ns)) for e in spatial.elements}

    def test_initial_terminal_lie_on_caps(self):
        st_mesh = extrude(unit_triangle(), [0.25, 0.5, 2.0])
        for f, tag in boundary_items(st_mesh):
            tvals = st_mesh.nodes[list(f), -1]
            if tag == "initial":
                assert np.all(tvals == 0.25)
            elif tag == "terminal":
                assert np.all(tvals == 2.0)
            else:
                assert tag.startswith("dirichlet:")

    def test_lateral_tags_propagate(self):
        st_mesh = extrude(interval_mesh(0.0, 2.0, 3, "dirichlet:in", "neumann:out"),
                          [0.0, 1.0, 2.0])
        tags = set(st_mesh.facet_tags)
        assert tags == {"dirichlet:in", "neumann:out", "initial", "terminal"}
        for f, tag in boundary_items(st_mesh):
            if tag == "dirichlet:in":
                np.testing.assert_array_equal(st_mesh.nodes[list(f), 0], 0.0)
            if tag == "neumann:out":
                np.testing.assert_array_equal(st_mesh.nodes[list(f), 0], 2.0)

    def test_rejects_bad_levels(self):
        with pytest.raises(MeshError):
            extrude(unit_triangle(), [0.0])
        with pytest.raises(MeshError):
            extrude(unit_triangle(), [0.0, 1.0, 0.5])
        with pytest.raises(MeshError):
            extrude(unit_triangle(), [0.0, 0.0, 1.0])

    def test_rejects_unmarked_spatial_boundary(self):
        tri = unit_triangle()
        assert boundary_items(tri)[0] == ((0, 1), "dirichlet:a")
        with pytest.raises(MeshError, match=r"spatial boundary facet \(0, 1\) carries no marker"):
            SpatialMesh(dimension=2, nodes=tri.nodes, elements=tri.elements,
                        facets=tri.facets[1:], facet_tags=tri.facet_tags[1:])
        # a marker dropped after construction leaves the sides of its facet untagged
        tri.facets, tri.facet_tags = tri.facets[1:], tri.facet_tags[1:]
        with pytest.raises(MeshError, match=r"facet \(0, 1, 4\) has no tag"):
            extrude(tri, [0.0, 1.0])

    @settings(max_examples=15, deadline=None)
    @given(nx=st.integers(1, 3), ny=st.integers(1, 3), nl=st.integers(2, 4),
           T=st.floats(0.5, 3.0))
    def test_conformity_and_measure(self, nx, ny, nl, T):
        spatial = rectangle_mesh(np.linspace(0, 2, nx + 1), np.linspace(-1, 1, ny + 1),
                                 "dirichlet:l", "dirichlet:r", "dirichlet:b", "dirichlet:t")
        st_mesh = extrude(spatial, np.linspace(0.0, T, nl))
        counts = facet_counts(st_mesh)
        assert set(counts.values()) <= {1, 2}
        boundary = {f for f, c in counts.items() if c == 1}
        assert boundary == set(map(tuple, st_mesh.facets.tolist()))
        np.testing.assert_allclose(st_mesh.all_element_geometry()[0].sum(), 4.0 * T, rtol=1e-12)
        assert st_mesh.n_nodes == spatial.n_nodes * nl
        assert st_mesh.n_elements == spatial.n_elements * (nl - 1) * 3


class TestValidate:
    """A mesh checks itself at construction."""

    def test_untagged_mesh_is_rejected_at_construction(self):
        nodes = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                          [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(MeshError, match=r"boundary tags do not cover the topological "
                                            r"boundary: facet \(0, 1, 2\) has no tag"):
            SpaceTimeMesh(dimension=3, nodes=nodes, elements=np.array([[0, 1, 2, 3]]),
                          facets=[], facet_tags=[])

    def retagged(self, change):
        st_mesh = extrude(unit_triangle(), [0.0, 0.5, 1.0])
        facets = dict(boundary_items(st_mesh))
        change(facets)
        return SpaceTimeMesh(dimension=3, nodes=st_mesh.nodes, elements=st_mesh.elements,
                             facets=list(facets), facet_tags=list(facets.values()),
                             time_levels=st_mesh.time_levels)

    def test_names_the_first_untagged_facet(self):
        untagged = [(0, 1, 4), (3, 6, 7)]
        with pytest.raises(MeshError, match=r"boundary tags do not cover the topological "
                                            r"boundary: facet \(0, 1, 4\) has no tag"):
            self.retagged(lambda facets: [facets.pop(f) for f in untagged[::-1]])

    def test_names_the_first_tagged_inner_facet(self):
        # (0, 1, 5) is shared by two elements of the first slab
        with pytest.raises(MeshError, match=r"facet \(0, 1, 5\) is tagged but inner"):
            self.retagged(lambda facets: facets.update({(0, 4, 5): "dirichlet:a",
                                                        (0, 1, 5): "dirichlet:a"}))

    def test_degenerate_element_is_rejected(self):
        flat = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                         [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
        with pytest.raises(MeshError, match="element 0 is degenerate"):
            SpaceTimeMesh(dimension=3, nodes=flat, elements=np.array([[0, 1, 2, 3]]),
                          facets=[], facet_tags=[])

    def test_inverted_element_and_bad_ids_are_rejected(self):
        st_mesh = extrude(unit_triangle(), [0.0, 1.0])
        for elements, match in ((st_mesh.elements[:, [1, 0, 2, 3]], "element 0 has non-positive"),
                                (st_mesh.elements + 3, "node id out of range"),
                                (st_mesh.elements[:, :3], r"elements \(m, 4\)")):
            with pytest.raises(MeshError, match=match):
                SpaceTimeMesh(dimension=3, nodes=st_mesh.nodes, elements=elements,
                              facets=st_mesh.facets, facet_tags=st_mesh.facet_tags)

    def test_non_finite_measures_are_rejected(self):
        # an infinite time level, a deformation that returns NaN at one node
        # and a NaN or infinite node given to either constructor
        with pytest.raises(MeshError, match="element 0 has non-finite measure nan"):
            extrude(interval_mesh(0.0, 1.0, 3), [0.0, np.inf])
        st_mesh = extrude(unit_triangle(), [0.0, 0.5, 1.0])
        first = np.flatnonzero((st_mesh.elements == 4).any(axis=1))[0]

        def nan_at_4(x, t):
            out = x.copy()
            out[4] = np.nan
            return out

        with pytest.raises(MeshError, match="element %d has non-finite measure nan" % first):
            extrude(unit_triangle(), [0.0, 0.5, 1.0], nan_at_4)
        nodes = st_mesh.nodes.copy()
        nodes[4, 0] = np.nan
        with pytest.raises(MeshError, match="element %d has non-finite measure nan" % first):
            SpaceTimeMesh(dimension=3, nodes=nodes, elements=st_mesh.elements,
                          facets=st_mesh.facets, facet_tags=st_mesh.facet_tags)
        for bad, shown in ((np.nan, "nan"), (np.inf, "inf")):
            tri = unit_triangle()
            tri.nodes[1, 0] = bad
            with pytest.raises(MeshError, match="spatial element 0 has non-finite measure %s"
                                                % shown):
                SpatialMesh(dimension=2, nodes=tri.nodes, elements=tri.elements,
                            facets=tri.facets, facet_tags=tri.facet_tags)

    def test_mesh_build_scans_boundary_once(self, monkeypatch):
        scanned = []
        search = mesh_module._boundary_facet_rows

        def counted(elements, D):
            scanned.append(elements.shape)
            return search(elements, D)

        monkeypatch.setattr(mesh_module, "_boundary_facet_rows", counted)
        st_mesh = build_mesh(bundled_case("valve-analog"))
        assert [s for s in scanned if s[1] == 4] == [st_mesh.elements.shape]
        scanned.clear()
        FomAssembler(st_mesh)
        assert scanned == []


class TestGeometry:
    def test_unit_right_triangle_measure(self):
        st_mesh = extrude(interval_mesh(0.0, 1.0, 1), [0.0, 1.0])
        measures, _ = st_mesh.all_element_geometry()
        np.testing.assert_allclose(measures, 0.5, rtol=1e-14)

    def test_reference_tetrahedron(self):
        nodes = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                          [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        mesh = SpaceTimeMesh(dimension=3, nodes=nodes, elements=np.array([[0, 1, 2, 3]]),
                             facets=[(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)],
                             facet_tags=["initial", "dirichlet:y", "dirichlet:x",
                                         "neumann:slant"])
        measures, grads = mesh.all_element_geometry()
        np.testing.assert_allclose(measures[0], 1.0 / 6.0, rtol=1e-14)
        # spatial parts are the leading columns, time the last one
        np.testing.assert_allclose(grads[0, 1, :-1], [1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(grads[0, 3, -1], 1.0, rtol=1e-14)

    def test_gradient_partition_of_unity(self):
        spatial = rectangle_mesh([0, 0.3, 1.0], [0, 0.7, 1.0],
                                 "dirichlet:l", "dirichlet:r", "dirichlet:b", "dirichlet:t")
        st_mesh = extrude(spatial, [0.0, 0.4, 1.0], channel_narrowing_map())
        _, grads = st_mesh.all_element_geometry()
        np.testing.assert_allclose(grads.sum(axis=1), 0.0, atol=1e-13)



def lapack_geometry(st_mesh):
    """(measures, grads) by LAPACK det and inv of the edge matrices, the
    reference for the closed forms."""
    x = st_mesh.nodes[st_mesh.elements]
    M = np.transpose(x[:, 1:] - x[:, :1], (0, 2, 1))         # columns = edges
    inv = np.linalg.inv(M)
    grads = np.concatenate([-inv.sum(axis=1, keepdims=True), inv], axis=1)
    return np.linalg.det(M) / mesh_module._FACTORIAL[st_mesh.dimension], grads


def exact_geometry(st_mesh):
    """(measures, grads) of each element in exact rational arithmetic on its
    float node coordinates, by cofactor expansion."""
    from fractions import Fraction

    def det(rows):
        if len(rows) == 1:
            return rows[0][0]
        return sum((-1) ** j * rows[0][j] * det([r[:j] + r[j + 1:] for r in rows[1:]])
                   for j in range(len(rows)))

    D, out_V, out_g = st_mesh.dimension, [], []
    for elem in st_mesh.elements:
        x = [[Fraction(float(c)) for c in st_mesh.nodes[i]] for i in elem]
        M = [[x[j + 1][c] - x[0][c] for j in range(D)] for c in range(D)]
        dM = det(M)
        # inv[r][c] = cofactor(c, r) / det
        inv = [[(-1) ** (r + c) * det([row[:r] + row[r + 1:] for k, row in enumerate(M) if k != c])
                / dM for c in range(D)] for r in range(D)]
        out_V.append(float(dM / mesh_module._FACTORIAL[D]))
        out_g.append([[float(-sum(inv[r][c] for r in range(D))) for c in range(D)]]
                     + [[float(v) for v in row] for row in inv])
    return np.array(out_V), np.array(out_g)


def relative_gaps(got, ref):
    """(largest relative gap of the measures, largest gap of the gradients
    relative to each element's largest gradient entry)."""
    (V, g), (V_ref, g_ref) = got, ref
    scale = np.abs(g_ref).max(axis=(1, 2))
    return (np.abs(V - V_ref) / np.abs(V_ref)).max(), \
        (np.abs(g - g_ref).max(axis=(1, 2)) / scale).max()


def single_simplex(nodes):
    """A one-element SpaceTimeMesh on the given D+1 nodes, every facet tagged."""
    D = nodes.shape[1]
    facets = [sorted(set(range(D + 1)) - {i}) for i in range(D + 1)]
    return SpaceTimeMesh(dimension=D, nodes=nodes, elements=np.arange(D + 1)[None, :],
                         facets=facets, facet_tags=["dirichlet:side"] * (D + 1))


class TestClosedFormKernels:
    """The element geometry by adjugates over determinants and the facet
    search by packed int64 keys, against LAPACK, exact arithmetic and the
    row-wise oracle."""

    @pytest.mark.parametrize("case_id", sorted(BUNDLED_HASHES) + ["interval"])
    def test_geometry_matches_lapack(self, case_id):
        if case_id == "interval":
            st_mesh = extrude(interval_mesh(0.0, 1.0, 7), np.linspace(0.0, 1.0, 5) ** 2)
        else:
            st_mesh = build_mesh(bundled_case(case_id))
        got = st_mesh.all_element_geometry()
        assert got[1].shape == (st_mesh.n_elements, st_mesh.dimension + 1, st_mesh.dimension)
        assert max(relative_gaps(got, lapack_geometry(st_mesh))) <= 1e-13
        assert st_mesh.all_element_geometry() is got

    @pytest.mark.parametrize("D", [2, 3])
    def test_near_degenerate_element_within_its_condition(self, D):
        # a slot closed to 1e-5 of its width: the simplex spans 1e-5 in x
        # (D = 2) or in y (D = 3), nodes perturbed so that round-off shows
        def simplex(width):
            base = {2: [[0.0, 0.0], [width, 0.0], [0.0, 1.0]],
                    3: [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, width, 0.0], [0.0, 0.0, 1.0]]}
            return np.array(base[D]) + 1e-8 * np.random.default_rng(D).random((D + 1, D))

        st_mesh = single_simplex(simplex(1e-5))
        ratio = st_mesh.all_element_geometry()[0][0] / single_simplex(
            simplex(1.0)).all_element_geometry()[0][0]
        assert 0.9e-5 < ratio < 1.1e-5
        cond = np.linalg.cond(st_mesh.nodes[1:] - st_mesh.nodes[0])
        assert cond > 1e4
        V_gap, g_gap = relative_gaps(st_mesh.all_element_geometry(), exact_geometry(st_mesh))
        assert max(V_gap, g_gap) <= cond * 1e-15

    def test_degenerate_and_inverted_triangles_are_rejected(self):
        right = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        measures, grads = single_simplex(right).all_element_geometry()
        np.testing.assert_array_equal(measures, [0.5])
        np.testing.assert_array_equal(grads[0], [[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(MeshError, match="element 0 is degenerate"):
            single_simplex(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
        with pytest.raises(MeshError, match="element 0 has non-positive measure -5.000e-01"):
            single_simplex(right[[1, 0, 2]])
        with pytest.raises(MeshError, match="spatial element 0 has non-positive measure"):
            SpatialMesh(dimension=2, nodes=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
                        elements=np.array([[0, 1, 2]]),
                        facets=[(0, 1), (1, 2), (0, 2)], facet_tags=["a"] * 3)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("case_id", ["artery-analog", "couette"])
    def test_packed_search_on_relabelled_meshes(self, case_id, seed):
        # node ids permuted and spread out, elements shuffled: the packed
        # keys still find the oracle's facets, in its order
        elements = build_mesh(bundled_case(case_id)).elements
        rng = np.random.default_rng(seed)
        ids = np.sort(rng.choice(50 * elements.max(), elements.max() + 1, replace=False))
        relabelled = rng.permutation(ids)[elements][rng.permutation(len(elements))]
        relabelled = rng.permuted(relabelled, axis=1)
        np.testing.assert_array_equal(mesh_module._boundary_facet_rows(relabelled, 3),
                                      oracle_boundary_facets(relabelled, 3))

    def test_node_count_limit(self):
        # facet keys of 3 nodes need n^3 < 2^63: at most 2^21 - 1 nodes
        top = 2 ** 21 - 2
        rows = mesh_module._boundary_facet_rows(np.array([[0, 1, 2, top]]), 3)
        np.testing.assert_array_equal(rows, [[0, 1, 2], [0, 1, top], [0, 2, top], [1, 2, top]])
        with pytest.raises(MeshError, match="2097152 nodes is too large: facet keys need "
                                            r"n\^3 < 2\^63"):
            mesh_module._boundary_facet_rows(np.array([[0, 1, 2, top + 1]]), 3)
        mesh_module._packed([np.array([top])] * 3, top + 1)
        with pytest.raises(MeshError, match="too large"):
            mesh_module._packed([np.array([top])] * 3, top + 2)

    @pytest.mark.parametrize("D", [1, 4])
    def test_space_time_dimension_is_2_or_3(self, D):
        # the closed forms cover D = 2 and 3 only
        with pytest.raises(MeshError, match="dimension 2 or 3, got %d" % D):
            single_simplex(np.vstack([np.zeros(D), np.eye(D)]))

    @pytest.mark.parametrize("d", [0, 3])
    def test_spatial_dimension_is_1_or_2(self, d):
        with pytest.raises(MeshError, match="dimension 1 or 2, got %d" % d):
            SpatialMesh(dimension=d, nodes=np.vstack([np.zeros(d), np.eye(d)]),
                        elements=np.arange(d + 1)[None, :], facets=[], facet_tags=[])


class TestDeform:
    def test_identity_bit_identical(self):
        st_mesh = extrude(unit_triangle(), [0.0, 0.5, 1.0])
        out = extrude(unit_triangle(), [0.0, 0.5, 1.0], deformation=lambda x, t: x)
        assert np.array_equal(out.nodes, st_mesh.nodes)
        assert np.array_equal(out.reference_nodes, st_mesh.reference_nodes)
        assert np.array_equal(out.elements, st_mesh.elements)
        assert boundary_items(out) == boundary_items(st_mesh)
        assert out.content_hash() == st_mesh.content_hash()

    def test_narrowing_wall_node(self):
        # wall publishes the law directly: (0, r0) at t=1 -> (0, 0.2 r0)
        r0 = 5e-3
        dmap = channel_narrowing_map()
        out = dmap(np.array([[0.0, r0], [0.0, -r0], [0.2, 0.5 * r0]]), np.array([1.0, 1.0, 1.0]))
        np.testing.assert_allclose(out[0], [0.0, 0.2 * r0], atol=1e-18)
        np.testing.assert_allclose(out[1], [0.0, -0.2 * r0], atol=1e-18)
        # interior nodes blend linearly in y
        np.testing.assert_allclose(out[2], [0.2, 0.1 * r0], atol=1e-18)
        assert narrowing_scale(0.0) == pytest.approx(0.6, rel=1e-15)

    def test_plug_schedule(self):
        sched = (0.3, 0.7, 1.1, 1.5)
        # -0.0625 m/s over 0.4 s
        assert plug_displacement(0.7, 0.0625, sched) == pytest.approx(-0.025, rel=1e-15)
        assert plug_displacement(0.0, 0.0625, sched) == 0.0
        assert plug_displacement(1.0, 0.0625, sched) == pytest.approx(-0.025, rel=1e-15)
        assert plug_displacement(1.8, 0.0625, sched) == pytest.approx(0.0, abs=1e-16)
        np.testing.assert_allclose(plug_velocity(np.array([0.1, 0.5, 0.9, 1.3, 1.7]),
                                                 0.0625, sched),
                                   [0.0, -0.0625, 0.0, 0.0625, 0.0], atol=1e-18)

    def test_plug_displacement_is_velocity_integral(self):
        sched = (0.3, 0.7, 1.1, 1.5)
        ts = np.linspace(0.0, 1.8, 7201)
        # midpoint rule is exact for the piecewise-constant velocity
        v = plug_velocity(0.5 * (ts[1:] + ts[:-1]), 0.0625, sched)
        disp = np.concatenate([[0.0], np.cumsum(v * np.diff(ts))])
        np.testing.assert_allclose(disp, plug_displacement(ts, 0.0625, sched), atol=1e-13)

    def test_deform_keeps_positive_measures(self):
        spatial = rectangle_mesh([0, 0.5, 1.0], [-1.0, 0.0, 1.0],
                                 "dirichlet:l", "dirichlet:r", "dirichlet:b", "dirichlet:t")
        st_mesh = extrude(spatial, np.linspace(0.0, 1.0, 5))
        out = extrude(spatial, np.linspace(0.0, 1.0, 5), channel_narrowing_map())
        assert np.all(out.all_element_geometry()[0] > 0)
        # total volume shrinks: integral of the width scale over time
        assert out.all_element_geometry()[0].sum() < st_mesh.all_element_geometry()[0].sum()

    def test_deform_rejects_inverted(self):
        with pytest.raises(MeshError, match="element 0 has non-positive measure -"):
            extrude(unit_triangle(), [0.0, 1.0], lambda x, t: x * np.array([1.0, -1.0]))

    def test_valve_plug_map_moves_tip_only_in_band(self):
        dmap = valve_plug_map(x_gate_rest=0.0495, x_wall=0.05, speed=0.0625,
                              schedule=(0.3, 0.7, 1.1, 1.5),
                              band_lo=0.0375, band_hi=0.0625, blend_len=0.02)
        pts = np.array([[0.0495, 0.05],      # gate tip inside the band
                        [0.0495, 0.0],       # same x, far outside the band
                        [0.0, 0.05],         # gate root never moves
                        [0.05, 0.05],        # slot wall never moves
                        [0.08, 0.05]])       # downstream of the wall
        out = dmap(pts, np.full(5, 0.7))
        np.testing.assert_allclose(out[0, 0], 0.0495 - 0.025, rtol=1e-14)
        np.testing.assert_allclose(out[1:, 0], pts[1:, 0], atol=1e-18)
        np.testing.assert_allclose(out[:, 1], pts[:, 1], atol=1e-18)

    def test_reference_nodes_survive_deform(self):
        st_mesh = extrude(unit_triangle(), [0.0, 1.0])
        out = extrude(unit_triangle(), [0.0, 1.0], channel_narrowing_map())
        assert np.array_equal(out.reference_nodes, st_mesh.nodes)
        assert not np.array_equal(out.nodes, st_mesh.nodes)


class TestIO:
    def test_content_hash_tracks_geometry(self):
        a = extrude(unit_triangle(), [0.0, 1.0])
        b = extrude(unit_triangle(), [0.0, 1.0])
        assert a.content_hash() == b.content_hash()
        c = extrude(unit_triangle(), [0.0, 1.0], channel_narrowing_map())
        assert c.content_hash() != a.content_hash()

    def test_content_hash_matches_facet_loop(self):
        # tags of different byte lengths, one of them not ASCII, on a mesh
        # whose node numbers do not follow the facet order
        spatial = relabel(rectangle_mesh(np.linspace(0, 2, 4), np.linspace(-1, 1, 3),
                                         "dirichlet:l", "neumann:outflow-wall",
                                         "dirichlet:b", "dirichlet:top\u00e9"), 7)
        st_mesh = extrude(spatial, [0.0, 0.4, 1.0])
        assert len({len(t.encode()) for t in st_mesh.tags()}) == 5
        assert st_mesh.content_hash() == oracle_content_hash(st_mesh)

    def test_vtk_export(self, tmp_path):
        st_mesh = extrude(unit_triangle(), [0.0, 0.5, 1.0])
        full = tmp_path / "full.vtk"
        write_vtk(st_mesh, full, point_data={"p": np.arange(9.0),
                                             "u": np.ones((9, 2))})
        text = full.read_text()
        assert text.startswith("# vtk DataFile Version 3.0")
        assert "CELL_TYPES 6" in text and "\n10\n" in text


class TestGenerators:
    def test_tensor_grid_with_hole_compacts_nodes(self):
        nodes, tris = triangulate_tensor_grid([0, 1, 2, 3], [0, 1, 2, 3],
                                              keep=lambda x, y: not (1 < x < 2 and 1 < y < 2))
        assert tris.min() == 0 and tris.max() == nodes.shape[0] - 1
        assert tris.shape[0] == 2 * 8
        # hole adds an inner boundary loop of 4 edges; outer loop has 12
        assert len(mesh_module._boundary_facet_rows(tris, 2)) == 16

    def test_marker_on_an_inner_edge_is_rejected(self):
        nodes, tris = triangulate_tensor_grid([0, 1], [0, 1])
        inner = tuple(sorted(set(tris[0]) & set(tris[1])))
        with pytest.raises(MeshError, match=r"non-boundary facet: \(0, 3\)"):
            SpatialMesh(dimension=2, nodes=nodes, elements=tris,
                        facets=[inner], facet_tags=["dirichlet:a"])

    def test_interval_tags(self):
        m = interval_mesh(0.0, 3.0, 3, "dirichlet:a", "neumann:b")
        assert boundary_items(m) == [((0,), "dirichlet:a"), ((3,), "neumann:b")]
        assert m.facets.dtype == np.int64
        np.testing.assert_allclose(m.element_measures(), 1.0, rtol=1e-15)
