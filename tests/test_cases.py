"""Bundled cases: profiles, geometry, config format, and flow behavior."""

import numpy as np
import pytest

from stmor import mesh as msh
from stmor.cases import (CaseConfig, CaseError, artery_analog_config,
                         build_mesh, build_problem, bundled_case,
                         bundled_case_ids, config_from_dict, couette_config,
                         load_case, make_profile,
                         poiseuille_body_config, valve_analog_config,
                         valve_spatial_mesh)
from stmor.fom import build_dof_map, build_lifting, solve_fom

# hand-computed planform constants of the valve case
VALVE_AREA = 0.0081375            # 0.1^2 - 0.025 * (0.0495 + 0.025)
VALVE_TAG_LENGTH = {"inlet": 0.025, "outlet": 0.1, "gate": 0.124, "wall": 0.35}
GATE_SOURCE = 0.0625 * 0.025      # swept area rate while the gate slides


def tag_lengths(spatial):
    out = {}
    for facet, tag in spatial.boundary_markers.items():
        a, b = facet
        out[tag] = out.get(tag, 0.0) + float(np.linalg.norm(spatial.nodes[a] - spatial.nodes[b]))
    return out


def level_slice_flux(mesh, u_field, axis, value, lo, hi, level, tol=1e-9):
    """Signed flux of a nodal velocity field through a straight mesh cut.

    The cut is picked in reference coordinates: spatial nodes whose `axis`
    coordinate equals `value` and whose other coordinate lies in [lo, hi].
    Edge geometry uses the deformed node positions at the given time level,
    so the result is the flux through the material line.  Positive values
    mean flow toward increasing `axis` coordinate.  Exact for P1 fields as
    long as the cut follows mesh edges.
    """
    sp = mesh.spatial
    if sp is None or sp.dimension != 2:
        raise CaseError("slice flux needs a mesh extruded from a 2d planform")
    if not 0 <= level < mesh.time_levels.size:
        raise CaseError("time level %d out of range" % level)
    ref = sp.nodes
    other = 1 - axis
    mask = ((np.abs(ref[:, axis] - value) <= tol)
            & (ref[:, other] >= lo - tol) & (ref[:, other] <= hi + tol))
    ids = np.flatnonzero(mask)
    if ids.size < 2:
        raise CaseError("cut %s = %g matches fewer than two nodes"
                        % ("xy"[axis], value))
    idset = set(ids.tolist())
    edges = set()
    for tri in sp.elements:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[0], tri[2])):
            a, b = int(a), int(b)
            if a in idset and b in idset:
                edges.add((min(a, b), max(a, b)))
    if not edges:
        raise CaseError("cut nodes are not connected by mesh edges")
    u = np.asarray(u_field, dtype=np.float64).reshape(mesh.n_nodes, -1)
    base = level * mesh.n_spatial
    flux = 0.0
    for a, b in edges:
        if ref[a, other] > ref[b, other]:     # ascending cut coordinate
            a, b = b, a
        dx, dy = mesh.nodes[base + b, :2] - mesh.nodes[base + a, :2]
        normal = (-dy, dx) if axis == 1 else (dy, -dx)
        um = 0.5 * (u[base + a, :2] + u[base + b, :2])
        flux += um[0] * normal[0] + um[1] * normal[1]
    return float(flux)


class TestProfiles:
    def test_valve_inlet_center_value(self):
        prof = make_profile("valve_inlet", {"x0_m": 0.0375, "width_m": 0.025,
                                            "coeff_1_m_s": 640.0, "t_end_s": 1.8})
        x = np.array([[0.05, 0.1], [0.0375, 0.1], [0.0625, 0.1]])
        t = np.array([0.9, 0.9, 0.9])
        vals = prof(x, t)
        # peak 640 * 0.0125^2 = 0.1 at the center, downward, sqrt(1/2) ramp
        assert vals[0, 1] == pytest.approx(-0.1 * np.sqrt(0.5), abs=1e-15)
        assert vals[0, 0] == 0.0
        assert abs(vals[1, 1]) < 1e-15 and abs(vals[2, 1]) < 1e-15

    def test_gate_slide_schedule_and_taper(self):
        prof = make_profile("gate_slide", {"x_gate_rest_m": 0.0495, "x_wall_m": 0.05,
                                           "speed_m_s": 0.0625,
                                           "schedule_s": [0.3, 0.7, 1.1, 1.5]})
        tip = np.array([[0.0495, 0.05]])
        assert prof(tip, np.array([0.5]))[0, 0] == pytest.approx(-0.0625)
        assert prof(tip, np.array([1.2]))[0, 0] == pytest.approx(+0.0625)
        for t in (0.1, 0.9, 1.7):
            assert prof(tip, np.array([t]))[0, 0] == 0.0
        half = np.array([[0.0495 / 2, 0.04]])
        assert prof(half, np.array([0.5]))[0, 0] == pytest.approx(-0.03125)
        assert prof(tip, np.array([0.5]))[0, 1] == 0.0

    def test_artery_inlet_ramp(self):
        prof = make_profile("artery_inlet", {"r0_m": 0.005, "t_ramp_s": 0.2})
        x = np.array([[0.0, 0.0], [0.0, 0.0025], [0.0, 0.005]])
        vals = prof(x, np.array([0.05, 1.0, 1.0]))
        assert vals[0, 0] == pytest.approx(0.5)        # sqrt(0.05/0.2)
        assert vals[1, 0] == pytest.approx(0.75)       # 1 - (1/2)^2, full ramp
        assert abs(vals[2, 0]) < 1e-15                 # wall

    def test_artery_wall_rate(self):
        prof = make_profile("artery_wall", {"x_center_m": 0.03, "x_halfwidth_m": 0.015})
        x = np.array([[0.03, 0.005], [0.0, 0.005], [0.03, 0.005]])
        vals = prof(x, np.array([0.5, 0.5, 0.0]))
        assert vals[0, 1] == pytest.approx(-0.005 * 0.2 * np.pi, abs=1e-15)
        assert vals[1, 1] == 0.0                       # outside the window
        assert abs(vals[2, 1]) < 1e-15                 # rate vanishes at t = 0

    def test_channel_parabola(self):
        prof = make_profile("channel_parabola", {"u_max_m_s": 1.0, "y0_m": 0.0, "y1_m": 1.0})
        x = np.array([[0.0, 0.5], [0.0, 0.25], [0.0, 1.0]])
        vals = prof(x, np.zeros(3))
        assert vals[0, 0] == pytest.approx(1.0)
        assert vals[1, 0] == pytest.approx(0.75)
        assert abs(vals[2, 0]) < 1e-15
        with pytest.raises(CaseError, match="y1_m"):
            make_profile("channel_parabola", {"u_max_m_s": 1.0, "y0_m": 1.0, "y1_m": 0.0})

    def test_simple_profiles(self):
        x = np.array([[0.0, 0.3], [0.0, -0.2]])
        t = np.zeros(2)
        shear = make_profile("linear_shear", {"rate_1_s": 2.0})(x, t)
        assert shear[0, 0] == pytest.approx(0.6) and shear[1, 0] == pytest.approx(-0.4)
        const = make_profile("constant", {"value_m_s": [1.5, -0.5]})(x, t)
        assert np.array_equal(const, [[1.5, -0.5], [1.5, -0.5]])
        assert make_profile("noslip", {})(x, t).shape == (2, 2)
        assert make_profile("parallel_outflow", {})(x, t).shape == (2, 1)
        assert not make_profile("noslip", {})(x, t).any()

    def test_profile_errors(self):
        with pytest.raises(CaseError, match="unknown boundary profile"):
            make_profile("vortex", {})
        with pytest.raises(CaseError, match="missing"):
            make_profile("artery_inlet", {"r0_m": 0.005})
        with pytest.raises(CaseError, match="unknown profile parameter"):
            make_profile("noslip", {"r0": 1.0})


class TestValveGeometry:
    @pytest.mark.parametrize("refine", [1.0, 2.0])
    def test_area_and_tag_lengths(self, refine):
        sp = valve_spatial_mesh(refine)
        assert sp.element_measures().sum() == pytest.approx(VALVE_AREA, rel=1e-12)
        lengths = tag_lengths(sp)
        assert set(lengths) == set(VALVE_TAG_LENGTH)
        for tag, expect in VALVE_TAG_LENGTH.items():
            assert lengths[tag] == pytest.approx(expect, rel=1e-12)

    def test_mesh_deformation(self):
        cfg = valve_analog_config(refine=1.0)
        mesh = build_mesh(cfg)
        assert mesh.time_levels.size == 19
        for bp in (0.3, 0.7, 1.1, 1.5):
            assert np.any(np.abs(mesh.time_levels - bp) < 1e-12)
        for tag in ("inlet", "outlet"):
            ids = mesh.nodes_of_tag(tag)
            assert np.abs(mesh.nodes[ids, :2] - mesh.reference_nodes[ids, :2]).max() == 0.0
        ref = mesh.reference_nodes
        tip = np.flatnonzero((np.abs(ref[:, 0] - 0.0495) < 1e-12)
                             & (np.abs(ref[:, 2] - 0.9) < 1e-12)
                             & (ref[:, 1] > 0.0375 - 1e-12) & (ref[:, 1] < 0.0625 + 1e-12))
        assert tip.size > 0
        assert np.allclose(mesh.nodes[tip, 0], 0.0495 - 0.025, atol=1e-15)

    def test_bad_time_step(self):
        cfg = valve_analog_config(refine=1.0, dt_s=0.7)
        with pytest.raises(CaseError, match="dt_s"):
            build_mesh(cfg)

    def test_single_lifting_function(self):
        cfg = valve_analog_config(refine=1.0)
        mesh = build_mesh(cfg)
        problem = build_problem(cfg, mesh)
        lifts = build_lifting(mesh, problem.dirichlet, problem.amplitudes)
        assert [l.group for l in lifts] == ["fixed"]


class TestChannelGeometry:
    def test_wall_follows_narrowing_law(self):
        cfg = artery_analog_config(n_x=10, n_y=6, n_levels=6)
        mesh = build_mesh(cfg)
        yb = np.unique(mesh.reference_nodes[:, 1])
        assert not np.allclose(np.diff(yb), np.diff(yb)[0])   # wall-clustered spacing
        ref = mesh.reference_nodes
        for t, scale in ((0.0, 0.6), (1.0, 0.2)):
            sel = np.flatnonzero((np.abs(ref[:, 0] - 0.03) < 1e-12)
                                 & (np.abs(ref[:, 1] - 0.005) < 1e-12)
                                 & (np.abs(ref[:, 2] - t) < 1e-12))
            assert sel.size == 1
            assert mesh.nodes[sel, 1] == pytest.approx(0.005 * scale, rel=1e-12)

    def test_two_lifting_functions(self):
        cfg = artery_analog_config(n_x=8, n_y=4, n_levels=3)
        mesh = build_mesh(cfg)
        problem = build_problem(cfg, mesh)
        lifts = build_lifting(mesh, problem.dirichlet, problem.amplitudes)
        assert sorted((l.group, l.coefficient) for l in lifts) == \
            [("fixed", 1.0), ("inflow", 0.1)]

    def test_needs_two_levels(self):
        cfg = artery_analog_config(n_x=4, n_y=4, n_levels=1)
        with pytest.raises(CaseError, match="n_levels"):
            build_mesh(cfg)


class TestConfigFormat:
    def test_unit_suffixed_material_keys(self):
        d = valve_analog_config().to_dict()
        assert d["material"] == {"rho_kg_m3": 1200.0, "eta0_pa_s": 270.0,
                                 "etainf_pa_s": 0.0, "lambda_s": 1.2e-3,
                                 "a": 1.0, "n": 0.775}

    @pytest.mark.parametrize("case_id", ["valve-analog", "artery-analog",
                                         "couette", "poiseuille-body"])
    def test_round_trip(self, case_id, tmp_path):
        cfg = bundled_case(case_id)
        path = tmp_path / "case.json"
        cfg.save(path)
        loaded = load_case(path)
        assert loaded.to_dict() == cfg.to_dict()
        assert loaded.material == cfg.material
        if cfg.space is not None:
            assert loaded.space.box.names == cfg.space.box.names
            assert loaded.space.semantics == cfg.space.semantics

    def test_body_force_round_trip(self):
        cfg = poiseuille_body_config()
        again = config_from_dict(cfg.to_dict())
        assert again.body_force == (8.0, 0.0)
        problem = build_problem(again)
        assert problem.body_force is not None
        assert tuple(problem.body_force.f) == (8.0, 0.0)

    def test_rejects_malformed_configs(self):
        good = valve_analog_config().to_dict()
        bad = dict(good, extra_section=1)
        with pytest.raises(CaseError, match="unknown configuration key"):
            config_from_dict(bad)
        bad = dict(good, schema_version=99)
        with pytest.raises(CaseError, match="schema_version"):
            config_from_dict(bad)
        bad = dict(good, material=dict(good["material"], eta0=270.0))
        del bad["material"]["eta0_pa_s"]
        with pytest.raises(CaseError, match="unit suffix"):
            config_from_dict(bad)
        bad = dict(good, material={k: v for k, v in good["material"].items()
                                   if k != "lambda_s"})
        with pytest.raises(CaseError, match="missing"):
            config_from_dict(bad)
        bad = dict(good, boundary=[dict(good["boundary"][0], orientation="up")])
        with pytest.raises(CaseError, match="unknown boundary key"):
            config_from_dict(bad)
        bad = dict(good, solver={"picard_tol": 1e-8, "newton": True})
        with pytest.raises(CaseError, match="unknown solver key"):
            config_from_dict(bad)

    @pytest.mark.parametrize("key, value", [
        ("rho_kg_m3", True), ("lambda_s", float("nan")), ("a", float("nan")),
        ("n", float("nan")), ("eta0_pa_s", float("inf")), ("etainf_pa_s", -1.0)])
    def test_bad_material_values_rejected(self, key, value):
        good = valve_analog_config().to_dict()
        with pytest.raises(CaseError, match="material values|need finite"):
            config_from_dict(dict(good, material=dict(good["material"], **{key: value})))

    def test_boolean_schema_version_rejected(self):
        with pytest.raises(CaseError, match="schema_version True"):
            config_from_dict(dict(valve_analog_config().to_dict(), schema_version=True))

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(CaseError, match="cannot parse"):
            load_case(path)

    def test_bundled_registry(self):
        assert bundled_case_ids() == ["artery-analog", "couette",
                                      "poiseuille-body", "valve-analog"]
        with pytest.raises(CaseError, match="unknown bundled case"):
            bundled_case("nozzle")

    def test_missing_tag_rejected(self):
        cfg = couette_config(n=2)
        mesh = build_mesh(cfg)
        entry = dict(cfg.boundary[0], tag="lid")
        bad = CaseConfig(case_id=cfg.case_id, geometry=cfg.geometry,
                         material=cfg.material,
                         boundary=cfg.boundary + (entry,))
        with pytest.raises(CaseError, match="lid"):
            build_problem(bad, mesh)

    def test_unknown_geometry_kind(self):
        cfg = couette_config(n=2)
        bad = CaseConfig(case_id="x", geometry={"kind": "annulus"},
                         material=cfg.material, boundary=cfg.boundary)
        with pytest.raises(CaseError, match="geometry kind"):
            build_mesh(bad)


@pytest.fixture(scope="module")
def valve_mesh():
    return build_mesh(valve_analog_config(refine=1.0))


@pytest.fixture(scope="module")
def valve():
    cfg = valve_analog_config()
    mesh = build_mesh(cfg)
    problem = build_problem(cfg, mesh)
    sol = solve_fom(mesh, problem, picard_tol=cfg.solver["picard_tol"],
                    picard_max=cfg.solver["picard_max"])
    dof_map = build_dof_map(mesh, problem.dirichlet)
    lifts = build_lifting(mesh, problem.dirichlet, problem.amplitudes)
    return mesh, sol, sol.velocity_field(dof_map, lifts)


@pytest.fixture(scope="module")
def artery():
    cfg = artery_analog_config(n_x=12, n_y=6, n_levels=6)
    mesh = build_mesh(cfg)
    problem = build_problem(cfg, mesh)
    sol = solve_fom(mesh, problem, picard_tol=1e-8, picard_max=60)
    dof_map = build_dof_map(mesh, problem.dirichlet)
    lifts = build_lifting(mesh, problem.dirichlet, problem.amplitudes)
    return cfg, mesh, sol, sol.velocity_field(dof_map, lifts)


class TestSliceFlux:
    def test_uniform_field_oracles(self, valve_mesh):
        u = np.tile([0.0, -1.0], (valve_mesh.n_nodes, 1))
        # widths straight off the planform; the slot width uses the deformed
        # gap 0.05 - 0.0245 at t = 0.9
        out = level_slice_flux(valve_mesh, u, 1, 0.0, 0.0, 0.1, level=9)
        assert out == pytest.approx(-0.1, rel=1e-12)
        slot = level_slice_flux(valve_mesh, u, 1, 0.05, 0.0, 0.05, level=9)
        assert slot == pytest.approx(-0.0255, rel=1e-12)
        passage = level_slice_flux(valve_mesh, u, 1, 0.05, 0.075, 0.1, level=9)
        assert passage == pytest.approx(-0.025, rel=1e-12)

    def test_flux_errors(self, valve_mesh):
        u = np.zeros((valve_mesh.n_nodes, 2))
        with pytest.raises(CaseError, match="level"):
            level_slice_flux(valve_mesh, u, 1, 0.0, 0.0, 0.1, level=99)
        with pytest.raises(CaseError, match="fewer than two"):
            level_slice_flux(valve_mesh, u, 1, 0.033, 0.0, 0.1, level=0)
        line = msh.extrude(msh.interval_mesh(0.0, 1.0, 2), np.array([0.0, 1.0]))
        with pytest.raises(CaseError, match="2d"):
            level_slice_flux(line, np.zeros((line.n_nodes, 1)), 0, 0.0, 0.0, 1.0, 0)


class TestValveFlow:
    """One converged solve of the bundled valve case, checked qualitatively."""

    def fluxes(self, mesh, u, level):
        f_in = level_slice_flux(mesh, u, 1, 0.1, 0.0, 0.1, level)
        f_out = level_slice_flux(mesh, u, 1, 0.0, 0.0, 0.1, level)
        f_slot = level_slice_flux(mesh, u, 1, 0.05, 0.0, 0.05, level)
        f_pass = level_slice_flux(mesh, u, 1, 0.05, 0.075, 0.1, level)
        return f_in, f_out, f_slot, f_pass

    def test_converged(self, valve):
        _, sol, _ = valve
        assert sol.converged

    def test_single_branch_while_closed(self, valve):
        mesh, _, u = valve
        f_in, _, f_slot, f_pass = self.fluxes(mesh, u, level=1)   # t = 0.1
        assert abs(f_slot) <= 0.01 * abs(f_in)
        assert abs(f_pass) >= 0.3 * abs(f_in)

    def test_two_branches_when_open(self, valve):
        mesh, _, u = valve
        f_in, f_out, f_slot, f_pass = self.fluxes(mesh, u, level=9)   # t = 0.9
        assert abs(f_slot) >= 0.15 * abs(f_in)
        assert abs(f_pass) >= 0.15 * abs(f_in)
        # gate at rest: plain mass balance within 1 percent
        assert abs(f_out - f_in) <= 0.01 * abs(f_in)

    def test_mass_balance_with_moving_gate(self, valve):
        # while the gate slides back it sweeps volume at 0.0625 * 0.025 per
        # second, which must leave through the outlet on top of the inflow
        mesh, _, u = valve
        f_in, f_out, _, _ = self.fluxes(mesh, u, level=13)   # t = 1.3
        assert abs(f_out - f_in + GATE_SOURCE) <= 0.015 * abs(f_in)


class TestArteryFlow:
    def test_converged_and_bounded(self, artery):
        _, _, sol, u = artery
        assert sol.converged
        assert np.abs(u).max() < 1.0

    def test_inlet_flux_matches_boundary_data(self, artery):
        cfg, mesh, _, u = artery
        level = mesh.time_levels.size - 1          # t = 1, ramp saturated
        f_in = level_slice_flux(mesh, u, 0, 0.0, -5e-3, 5e-3, level)
        yb = np.unique(mesh.reference_nodes[np.abs(mesh.reference_nodes[:, 0]) < 1e-12, 1])
        expected = 0.1 * np.trapezoid(1.0 - (yb / 5e-3) ** 2, yb)
        assert f_in == pytest.approx(expected, rel=1e-10)

    def test_outlet_balance_at_rest(self, artery):
        # at t = 1 the wall rate vanishes, so inflow and outflow must agree
        _, mesh, _, u = artery
        level = mesh.time_levels.size - 1
        f_in = level_slice_flux(mesh, u, 0, 0.0, -5e-3, 5e-3, level)
        f_out = level_slice_flux(mesh, u, 0, 60e-3, -5e-3, 5e-3, level)
        assert abs(f_out - f_in) <= 0.01 * abs(f_in)
