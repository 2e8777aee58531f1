"""Extrusion, subdivision, deformation, and geometry queries."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stmor.mesh import (
    MeshError,
    SpaceTimeMesh,
    SpatialMesh,
    channel_narrowing_map,
    deform,
    extrude,
    identity_map,
    interval_mesh,
    narrowing_scale,
    plug_displacement,
    plug_velocity,
    read_mesh,
    rectangle_mesh,
    triangulate_tensor_grid,
    valve_plug_map,
    write_mesh,
    write_vtk,
    write_vtk_slice,
)


def unit_triangle():
    return SpatialMesh(
        dimension=2,
        nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        elements=np.array([[0, 1, 2]]),
        boundary_markers={(0, 1): "dirichlet:a", (1, 2): "dirichlet:b", (0, 2): "dirichlet:c"},
    )


def facet_counts(mesh):
    counts = {}
    for elem in mesh.elements:
        for i in range(mesh.dimension + 1):
            f = tuple(sorted(np.delete(elem, i)))
            counts[f] = counts.get(f, 0) + 1
    return counts


class TestExtrude:
    def test_single_interval_single_slab(self):
        # one quad splits into 2 triangles
        st_mesh = extrude(interval_mesh(0.0, 1.0, 1), [0.0, 1.0])
        assert st_mesh.n_nodes == 4
        assert st_mesh.n_elements == 2
        st_mesh.validate()
        np.testing.assert_allclose(st_mesh.signed_measures().sum(), 1.0, rtol=1e-12)

    def test_single_triangle_two_slabs(self):
        # 3 nodes x 3 levels = 9; 1 prism x 2 slabs x 3 tets = 6; volume = 0.5 * 1.0
        st_mesh = extrude(unit_triangle(), [0.0, 0.5, 1.0])
        assert st_mesh.n_nodes == 9
        assert st_mesh.n_elements == 6
        st_mesh.validate()
        meas = st_mesh.signed_measures()
        assert np.all(meas > 0)
        np.testing.assert_allclose(meas.sum(), 0.5, rtol=1e-12)

    def test_caps_are_spatial_elements(self):
        spatial = rectangle_mesh([0, 0.5, 1.0], [0, 1.0],
                                 "dirichlet:l", "dirichlet:r", "dirichlet:b", "dirichlet:t")
        st_mesh = extrude(spatial, [0.0, 0.25, 1.0])
        ns = spatial.n_nodes
        initial = {f for f, t in st_mesh.boundary_facets.items() if t == "initial"}
        terminal = {f for f, t in st_mesh.boundary_facets.items() if t == "terminal"}
        spat = {tuple(sorted(e)) for e in spatial.elements}
        assert initial == spat
        assert terminal == {tuple(sorted(e + 2 * ns)) for e in spatial.elements}

    def test_initial_terminal_lie_on_caps(self):
        st_mesh = extrude(unit_triangle(), [0.25, 0.5, 2.0])
        for f, tag in st_mesh.boundary_facets.items():
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
        tags = set(st_mesh.boundary_facets.values())
        assert tags == {"dirichlet:in", "neumann:out", "initial", "terminal"}
        for f, tag in st_mesh.boundary_facets.items():
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
        spatial = unit_triangle()
        del spatial.boundary_markers[(0, 1)]
        with pytest.raises(MeshError, match="marker"):
            extrude(spatial, [0.0, 1.0])

    @settings(max_examples=15, deadline=None)
    @given(nx=st.integers(1, 3), ny=st.integers(1, 3), nl=st.integers(2, 4),
           T=st.floats(0.5, 3.0))
    def test_conformity_and_measure(self, nx, ny, nl, T):
        spatial = rectangle_mesh(np.linspace(0, 2, nx + 1), np.linspace(-1, 1, ny + 1),
                                 "dirichlet:l", "dirichlet:r", "dirichlet:b", "dirichlet:t")
        st_mesh = extrude(spatial, np.linspace(0.0, T, nl))
        st_mesh.validate()
        counts = facet_counts(st_mesh)
        assert set(counts.values()) <= {1, 2}
        boundary = {f for f, c in counts.items() if c == 1}
        assert boundary == set(st_mesh.boundary_facets)
        np.testing.assert_allclose(st_mesh.signed_measures().sum(), 4.0 * T, rtol=1e-12)
        assert st_mesh.n_nodes == spatial.n_nodes * nl
        assert st_mesh.n_elements == spatial.n_elements * (nl - 1) * 3


class TestGeometry:
    def test_unit_right_triangle_measure(self):
        st_mesh = extrude(interval_mesh(0.0, 1.0, 1), [0.0, 1.0])
        measures, _ = st_mesh.all_element_geometry()
        np.testing.assert_allclose(measures, 0.5, rtol=1e-14)

    def test_reference_tetrahedron(self):
        nodes = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                          [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        mesh = SpaceTimeMesh(dimension=3, nodes=nodes,
                             elements=np.array([[0, 1, 2, 3]]), boundary_facets={})
        measures, grads = mesh.all_element_geometry()
        np.testing.assert_allclose(measures[0], 1.0 / 6.0, rtol=1e-14)
        # spatial parts are the leading columns, time the last one
        np.testing.assert_allclose(grads[0, 1, :-1], [1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(grads[0, 3, -1], 1.0, rtol=1e-14)

    def test_gradient_partition_of_unity(self):
        spatial = rectangle_mesh([0, 0.3, 1.0], [0, 0.7, 1.0],
                                 "dirichlet:l", "dirichlet:r", "dirichlet:b", "dirichlet:t")
        st_mesh = deform(extrude(spatial, [0.0, 0.4, 1.0]), channel_narrowing_map(r0=1.0))
        _, grads = st_mesh.all_element_geometry()
        np.testing.assert_allclose(grads.sum(axis=1), 0.0, atol=1e-13)


class TestDeform:
    def test_identity_bit_identical(self):
        st_mesh = extrude(unit_triangle(), [0.0, 0.5, 1.0])
        out = deform(st_mesh, identity_map())
        assert np.array_equal(out.nodes, st_mesh.nodes)
        assert np.array_equal(out.elements, st_mesh.elements)
        assert out.boundary_facets == st_mesh.boundary_facets

    def test_narrowing_wall_node(self):
        # wall publishes the law directly: (0, r0) at t=1 -> (0, 0.2 r0)
        r0 = 5e-3
        dmap = channel_narrowing_map(r0=r0)
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
        out = deform(st_mesh, channel_narrowing_map(r0=1.0))
        assert np.all(out.signed_measures() > 0)
        # total volume shrinks: integral of the width scale over time
        assert out.signed_measures().sum() < st_mesh.signed_measures().sum()

    def test_deform_rejects_inverted(self):
        st_mesh = extrude(unit_triangle(), [0.0, 1.0])
        from stmor.mesh import analytic_map
        flip = analytic_map(lambda x, t: x * np.array([1.0, -1.0]))
        with pytest.raises(MeshError, match="element"):
            deform(st_mesh, flip)

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
        out = deform(st_mesh, channel_narrowing_map(r0=1.0))
        assert np.array_equal(out.reference_nodes, st_mesh.nodes)
        assert not np.array_equal(out.nodes, st_mesh.nodes)


class TestIO:
    def test_mesh_roundtrip(self, tmp_path):
        spatial = rectangle_mesh([0, 1.0], [0, 0.5],
                                 "dirichlet:l", "neumann:r", "dirichlet:b", "dirichlet:t")
        st_mesh = deform(extrude(spatial, [0.0, 0.5, 1.0]), channel_narrowing_map(r0=0.5))
        path = tmp_path / "m.stmesh"
        write_mesh(st_mesh, path)
        back = read_mesh(path)
        np.testing.assert_array_equal(back.nodes, st_mesh.nodes)   # %.17g is lossless
        np.testing.assert_array_equal(back.elements, st_mesh.elements)
        assert back.boundary_facets == st_mesh.boundary_facets
        assert back.time_levels.size == 0

    def test_read_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.stmesh"
        path.write_text("hello\n")
        with pytest.raises(MeshError, match="stmesh"):
            read_mesh(path)

    def test_content_hash_tracks_geometry(self):
        a = extrude(unit_triangle(), [0.0, 1.0])
        b = extrude(unit_triangle(), [0.0, 1.0])
        assert a.content_hash() == b.content_hash()
        c = deform(a, channel_narrowing_map(r0=1.0))
        assert c.content_hash() != a.content_hash()

    def test_vtk_export(self, tmp_path):
        st_mesh = extrude(unit_triangle(), [0.0, 0.5, 1.0])
        full = tmp_path / "full.vtk"
        write_vtk(st_mesh, full, point_data={"p": np.arange(9.0),
                                             "u": np.ones((9, 2))})
        text = full.read_text()
        assert text.startswith("# vtk DataFile Version 3.0")
        assert "CELL_TYPES 6" in text and "\n10\n" in text
        sl = tmp_path / "slice.vtk"
        write_vtk_slice(st_mesh, sl, 1, point_data={"p": np.arange(9.0)})
        text = sl.read_text()
        assert "CELL_TYPES 1" in text and "\n5\n" in text
        assert "POINTS 3 double" in text

    def test_slice_requires_extruded(self, tmp_path):
        nodes = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                          [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        mesh = SpaceTimeMesh(dimension=3, nodes=nodes,
                             elements=np.array([[0, 1, 2, 3]]), boundary_facets={})
        with pytest.raises(MeshError, match="extruded"):
            write_vtk_slice(mesh, tmp_path / "s.vtk", 0)


class TestGenerators:
    def test_tensor_grid_with_hole_compacts_nodes(self):
        nodes, tris = triangulate_tensor_grid([0, 1, 2, 3], [0, 1, 2, 3],
                                              keep=lambda x, y: not (1 < x < 2 and 1 < y < 2))
        assert tris.min() == 0 and tris.max() == nodes.shape[0] - 1
        assert tris.shape[0] == 2 * 8
        mesh = SpatialMesh(dimension=2, nodes=nodes, elements=tris, boundary_markers={})
        # hole adds an inner boundary loop of 4 edges; outer loop has 12
        assert len(mesh.boundary_facets()) == 16

    def test_interval_tags(self):
        m = interval_mesh(0.0, 3.0, 3, "dirichlet:a", "neumann:b")
        assert m.boundary_markers == {(0,): "dirichlet:a", (3,): "neumann:b"}
        np.testing.assert_allclose(m.element_measures(), 1.0, rtol=1e-15)
