"""Bundled cases: profiles, geometry, config format, and flow behavior."""

import copy
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stmor import cases, mesh as msh
from stmor.cases import (CaseConfig, CaseError, artery_analog_config,
                         build_mesh, build_problem, bundled_case,
                         bundled_case_ids, config_from_dict, couette_config,
                         load_case, make_profile,
                         poiseuille_body_config, valve_analog_config,
                         valve_spatial_mesh)
from stmor.constitutive import ParameterError
from stmor.fom import SolverError, build_dof_map, build_lifting, solve_fom

# hand-computed planform constants of the valve case
VALVE_AREA = 0.0081375            # 0.1^2 - 0.025 * (0.0495 + 0.025)
VALVE_TAG_LENGTH = {"inlet": 0.025, "outlet": 0.1, "gate": 0.124, "wall": 0.35}
GATE_SOURCE = 0.0625 * 0.025      # swept area rate while the gate slides


def tag_lengths(spatial):
    out = {}
    for facet, tag in zip(spatial.facets, spatial.facet_tags):
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

    def test_wall_motion_gate_schedule_and_taper(self):
        prof = make_profile("wall_motion", {}, msh.valve_plug_map(
            0.0495, 0.05, 0.0625, (0.3, 0.7, 1.1, 1.5), 0.0375, 0.0625, 0.03))
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

    def test_wall_motion_artery_rate(self):
        prof = make_profile("wall_motion", {}, msh.channel_narrowing_map(0.03, 0.015))
        x = np.array([[0.03, 0.005], [0.0, 0.005], [0.03, 0.005]])
        vals = prof(x, np.array([0.5, 0.5, 0.0]))
        assert vals[0, 1] == pytest.approx(-0.005 * 0.2 * np.pi, abs=1e-15)
        assert vals[1, 1] == 0.0                       # outside the window
        assert abs(vals[2, 1]) < 1e-15                 # rate vanishes at t = 0

    @pytest.mark.parametrize("geometry", [
        {"kind": "rectangle", "x_breaks_m": [0.0, 1.0], "y_breaks_m": [0.0, 1.0],
         "time_levels_s": [0.0, 1.0]},
        dict(artery_analog_config().geometry, narrow_center_m=None)])
    def test_wall_motion_is_zero_on_a_fixed_domain(self, geometry):
        """A rectangle and a channel without narrowing do not move."""
        cfg = replace(couette_config(n=1), geometry=geometry, boundary=(
            {"tag": "wall", "profile": "wall_motion", "components": [0, 1]},))
        x = np.array([[0.0, 0.3], [0.03, 0.005], [0.5, -0.005]])
        (spec,) = build_problem(cfg).dirichlet
        assert np.array_equal(spec.profile(x, np.array([0.0, 0.5, 0.7])), np.zeros((3, 2)))

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
        with pytest.raises(CaseError, match="lacks t_ramp_s"):
            make_profile("artery_inlet", {"r0_m": 0.005})
        with pytest.raises(CaseError, match="profile parameter has an unknown key 'r0'"):
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


class TestWallKinematics:
    """A moving wall's lifting values are the time derivative of the
    geometry's own deformation map at the wall nodes' reference coordinates.

    The derivative is taken as a forward difference, h = 1e-7 s.  At a kink
    of the gate schedule both sides take the slope after it: the map's
    velocity is right-continuous in t, and a forward difference looks ahead.
    """

    @pytest.mark.parametrize("case_id, tag, top_speed", [("valve-analog", "gate", 0.0625),
                                                         ("artery-analog", "wall", 3e-3)])
    def test_lifting_is_the_rate_of_the_map(self, case_id, tag, top_speed):
        cfg = bundled_case(case_id)
        mesh = build_mesh(cfg)
        motion = cases._motion(cases._read_geometry(cfg.geometry))
        ref = mesh.reference_nodes
        assert np.array_equal(motion(ref[:, :2], ref[:, 2]), mesh.nodes[:, :2])
        nodes = mesh.nodes_of_tag(tag)
        x, t = ref[nodes, :2], ref[nodes, 2]
        h = 1e-7
        rate = (motion(x, t + h) - motion(x, t)) / h
        assert np.abs(rate).max() >= top_speed
        problem = build_problem(cfg, mesh)
        (lift,) = [l for l in build_lifting(mesh, problem.dirichlet, problem.amplitudes)
                   if l.group == "fixed"]
        assert np.abs(lift.vector[nodes] - rate).max() <= 1e-8
        if tag == "gate":
            kinks = np.isclose(t[:, None], (0.3, 0.7, 1.1, 1.5), rtol=0.0, atol=1e-12)
            assert np.abs(lift.vector[nodes[kinks.any(axis=1)], 0]).max() > 0.0


class TestConfigFormat:
    def test_moving_walls_carry_no_parameters(self):
        """The gate and the artery walls follow the geometry's deformation."""
        for cfg, tag in ((valve_analog_config(), "gate"), (artery_analog_config(), "wall")):
            (entry,) = [e for e in cfg.to_dict()["boundary"] if e["tag"] == tag]
            assert entry["profile"] == "wall_motion" and entry["params"] == {}

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
        path.write_text(json.dumps(cfg.to_dict()))
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
        with pytest.raises(CaseError, match="configuration has an unknown key 'extra_section'"):
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
        with pytest.raises(CaseError, match="lacks material.lambda_s"):
            config_from_dict(bad)
        bad = dict(good, boundary=[dict(good["boundary"][0], orientation="up")])
        with pytest.raises(CaseError, match="boundary has an unknown key 'orientation'"):
            config_from_dict(bad)
        bad = dict(good, solver={"picard_tol": 1e-8, "newton": True})
        with pytest.raises(CaseError, match="configuration has an unknown key 'solver.newton'"):
            config_from_dict(bad)

    @pytest.mark.parametrize("key, value", [
        ("rho_kg_m3", True), ("lambda_s", float("nan")), ("a", float("nan")),
        ("n", float("nan")), ("eta0_pa_s", float("inf")), ("etainf_pa_s", -1.0)])
    def test_bad_material_values_rejected(self, key, value):
        good = valve_analog_config().to_dict()
        with pytest.raises(CaseError, match="at material.%s|need finite" % key):
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


# ---------------------------------------------------------------------------
# key tables: one reader for every config section

def small_artery():
    return artery_analog_config(n_x=6, n_y=3, n_levels=3)


def leaves(data, path=()):
    """Paths to the scalars of a JSON tree; an empty object or list is one."""
    items = (data.items() if isinstance(data, dict)
             else enumerate(data) if isinstance(data, list) else ())
    items = list(items)
    if not items:
        yield path
    for key, value in items:
        yield from leaves(value, path + (key,))


def set_leaf(data, path, value):
    out = copy.deepcopy(data)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def leaf(data, path):
    for key in path:
        data = data[key]
    return data


FUZZ_CASES = {"couette": couette_config(n=2).to_dict(), "artery": small_artery().to_dict()}
FUZZ_LEAVES = [(name, path) for name, data in FUZZ_CASES.items() for path in leaves(data)]
FUZZ_VALUES = [float("nan"), float("inf"), -float("inf"), True, False, "x", None,
               [1.0], -1, -0.5, 1e300]


class TestKeyTables:
    @pytest.mark.parametrize("case, path, value", [
        ("couette", ("plan", "n_test"), -3),
        ("couette", ("plan", "seed"), -5),
        ("couette", ("plan", "seed"), 1.7),
        ("couette", ("plan", "train_counts"), [2.5]),
        ("couette", ("solver", "picard_max"), 7.9),
        ("couette", ("solver", "picard_max"), True),
        ("couette", ("boundary", 0, "components"), [0, -1]),
        ("couette", ("boundary", 0, "components"), [0.7, 1]),
        ("couette", ("boundary", 0, "params", "rate_1_s"), True),
        ("couette", ("geometry", "x_breaks_m"), [0.0, float("nan"), 1.0]),
        ("couette", ("body_force_m_s2",), [True, 0.0]),
        ("artery", ("geometry", "n_x"), 6.9),
        ("artery", ("geometry", "length_m"), float("inf")),
        ("artery", ("geometry", "t_end_s"), float("nan")),
        ("artery", ("amplitudes", "inflow"), float("nan")),
        ("artery", ("boundary", 0, "params", "r0_m"), float("nan")),
        ("artery", ("boundary", 2, "components"), [-1]),
    ])
    def test_bad_value_is_refused_at_load_naming_its_key(self, case, path, value):
        data = set_leaf(FUZZ_CASES[case], path, value)
        key = [k for k in path if isinstance(k, str)][-1]
        with pytest.raises(CaseError, match="'%s' is" % key):
            config_from_dict(data)

    @pytest.mark.parametrize("path, value", [
        (("solver", "picard_tol"), float("nan")),
        (("rom", "tol_eim_eta"), -1.0),
        (("rom", "energy_threshold"), 5.0),
        (("rom", "rank_cutoff"), float("nan")),
    ])
    def test_ranges_the_library_checks_are_left_to_it(self, path, value):
        config = config_from_dict(set_leaf(FUZZ_CASES["couette"], path, value))
        options = {**config.picard_options(), **config.offline_options()}
        assert options[path[1]] is value or math.isnan(options[path[1]])

    def test_absent_keys_take_the_table_defaults(self):
        data = FUZZ_CASES["couette"]
        data = dict(data, solver={}, plan={"seed": 3}, boundary=[
            {"tag": e["tag"], "profile": "linear_shear", "components": [0, 1]}
            for e in data["boundary"]])
        for key in ("amplitudes", "rom", "parameters", "body_force_m_s2"):
            del data[key]
        config = config_from_dict(data)
        assert config.picard_options() == {"picard_tol": 1e-8, "picard_max": 50}
        assert config.plan_options() == {"train_counts": (4, 4), "n_test": 10, "seed": 3}
        assert config.offline_options() == {"tol_eim_eta": 1e-12, "tol_eim_tau": 1e-12,
                                            "energy_threshold": 1.0, "rank_cutoff": None}
        assert config.boundary[0]["group"] == "fixed" and config.boundary[0]["params"] == {}
        mesh = build_mesh(config)
        assert build_mesh(couette_config(n=2)).content_hash() == mesh.content_hash()
        assert build_problem(config, mesh).dirichlet[0].profile(
            np.array([[0.0, 0.5]]), np.zeros(1))[0, 0] == 0.5

    def test_overrides_are_read_through_the_table(self):
        config = couette_config(n=2)
        assert config.plan_options(seed=None)["seed"] == 1
        assert config.plan_options(seed=8, train_counts=(3,))["train_counts"] == (3,)
        assert config.offline_options(tol_eim_eta=None)["tol_eim_eta"] == 1e-12
        with pytest.raises(CaseError, match="'seed' is -5"):
            config.plan_options(seed=-5)
        with pytest.raises(CaseError, match="'energy_threshold' is True"):
            config.offline_options(energy_threshold=True)

    def test_geometry_without_a_valid_step_or_narrowing_width(self):
        for dt in (0.0, -0.1):
            with pytest.raises(CaseError, match="dt_s"):
                build_mesh(valve_analog_config(refine=1.0, dt_s=dt))
        data = FUZZ_CASES["artery"]
        data = dict(data, geometry=dict(data["geometry"], narrow_halfwidth_m=None))
        with pytest.raises(CaseError, match="narrow_halfwidth_m"):
            build_mesh(config_from_dict(data))

    def test_component_outside_the_velocity_is_a_solver_error(self):
        config = couette_config(n=2)
        mesh = build_mesh(config)
        specs = build_problem(config, mesh).dirichlet
        for components in ((0, 2), (-1,)):
            bad = (replace(specs[0], components=components),) + specs[1:]
            with pytest.raises(SolverError, match="components"):
                build_dof_map(mesh, bad)

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(where=st.sampled_from(FUZZ_LEAVES), value=st.sampled_from(FUZZ_VALUES))
    def test_any_one_bad_leaf_is_kept_or_refused_with_a_typed_error(self, where, value):
        """One leaf of a small config set to a bad value either builds with
        that very value or stops with the case, parameter or mesh error that
        the command line prints as one line; the mesh library keeps its own
        range checks (increasing breaks and times)."""
        name, path = where
        data = set_leaf(FUZZ_CASES[name], path, value)
        try:
            config = config_from_dict(data)
            build_problem(config, build_mesh(config))
        except (CaseError, ParameterError, msh.MeshError):
            return
        kept = leaf(config.to_dict(), path)
        assert kept == value or (kept != kept and value != value)
        assert type(kept) is not bool or type(value) is bool


class TestMeshSize:
    @pytest.mark.parametrize("config, match", [
        (artery_analog_config(n_x=10 ** 9), "n_x, n_y and n_levels"),
        (artery_analog_config(n_levels=10 ** 400), "n_x, n_y and n_levels"),
        (valve_analog_config(refine=1e6), "refine, dt_s and t_end_s"),
        (valve_analog_config(refine=1e300), "refine, dt_s and t_end_s"),
        (valve_analog_config(dt_s=1e-300), "refine, dt_s and t_end_s"),
    ])
    def test_too_large_a_mesh_is_refused_before_it_is_built(self, config, match):
        tracemalloc.start()
        try:
            with pytest.raises(CaseError, match=match + ".*MAX_NODES"):
                build_mesh(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_counts_at_the_bound_are_kept(self, monkeypatch):
        # the 12x5x6 artery has 13 * 6 * 6 = 468 nodes
        config = artery_analog_config(n_x=12, n_y=5, n_levels=6)
        monkeypatch.setattr(cases, "MAX_NODES", 468)
        assert build_mesh(config).n_nodes == 468
        monkeypatch.setattr(cases, "MAX_NODES", 467)
        with pytest.raises(CaseError, match="MAX_NODES = 467"):
            build_mesh(config)
