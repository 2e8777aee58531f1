"""Sampling, error-metric, and study-runner tests.

The H1 oracle is hand-derived: the P1 interpolant of u = (x*x, 0) on a mesh
whose elements each live inside one x-slab has elementwise gradient
x_a + x_b, so the squared seminorm error per unit cross-section is h^3/3
per slab and the total over n uniform slabs of the unit cylinder is
1/(3 n^2).  The degree-2 quadrature integrates the quadratic mismatch
exactly, so the match is to machine precision.
"""

import csv
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stmor import analysis, cases, fom
from stmor import mesh as msh
from stmor.analysis import (AnalysisError, SamplePlan, error_pressure,
                            error_velocity, evaluate_tests, generate_samples,
                            h1_seminorm_error, make_report, offline_build,
                            read_study_report, run_study, solution_digest,
                            summarize_report, sweep_pairs, write_study_csv,
                            write_study_report)
from stmor.constitutive import (SEMANTICS_BC_SCALE, CarreauYasudaParams,
                                ParameterBox, ParameterSpace, relative_box)
from stmor.eim import EimError
from stmor.fom import fom_inner_products, read_snapshot, solve_fom, write_snapshot
from stmor.io import ArtifactError, read_artifact, write_artifact
from stmor.pod import PodError
from stmor.rom import read_rom, rom_info, solve_rom, truncate, write_rom

BOX_1D = ParameterBox(names=("a",), lower=(0.0,), upper=(1.0,))
BOX_2D = ParameterBox(names=("a", "b"), lower=(0.0, 2.0), upper=(1.0, 3.0))


def rectangle_mesh(x_breaks, y_breaks, t_levels):
    cfg = cases.CaseConfig(
        case_id="probe",
        geometry={"kind": "rectangle", "x_breaks_m": list(x_breaks),
                  "y_breaks_m": list(y_breaks), "time_levels_s": list(t_levels)},
        material=CarreauYasudaParams(eta_0=1.0, eta_inf=0.0, lam=1.0, a=2.0,
                                     n=1.0, rho=1.0),
        boundary=({"tag": "left", "profile": "noslip", "components": [0, 1],
                   "group": "fixed", "params": {}},))
    return cases.build_mesh(cfg)


def duct_config():
    """Small shear-thinning duct with a scaled parabolic inflow parameter."""
    brk = [0.0, 0.35, 0.62, 1.0]
    material = CarreauYasudaParams(eta_0=0.5, eta_inf=0.05, lam=1.0, a=2.0,
                                   n=0.5, rho=1.3)
    space = ParameterSpace(box=relative_box(("u_in",), (1.0,), 0.05),
                           semantics=SEMANTICS_BC_SCALE, targets=("inflow",))
    para = {"profile": "channel_parabola", "components": [0, 1],
            "params": {"u_max_m_s": 1.0, "y0_m": 0.0, "y1_m": 1.0}}
    boundary = (
        dict(para, tag="left", group="inflow"),
        dict(para, tag="initial", group="inflow"),
        {"tag": "bottom", "profile": "noslip", "components": [0, 1],
         "group": "fixed", "params": {}},
        {"tag": "top", "profile": "noslip", "components": [0, 1],
         "group": "fixed", "params": {}},
        {"tag": "right", "profile": "parallel_outflow", "components": [1],
         "group": "fixed", "params": {}},
    )
    return cases.CaseConfig(
        case_id="duct-study", geometry={"kind": "rectangle", "x_breaks_m": brk,
                                        "y_breaks_m": brk,
                                        "time_levels_s": [0.0, 0.28, 0.61, 1.0]},
        material=material, boundary=boundary, amplitudes={"inflow": 1.0},
        space=space, solver={"picard_tol": 1e-10, "picard_max": 50},
        plan={"train_counts": [3], "n_test": 4, "seed": 99},
        rom={"tol_eim_eta": 1e-13, "tol_eim_tau": 1e-13,
             "energy_threshold": 1.0, "rank_cutoff": 1e-14})


@pytest.fixture(scope="module")
def duct():
    cfg = duct_config()
    mesh = cases.build_mesh(cfg)
    problem = cases.build_problem(cfg, mesh)
    plan = SamplePlan(box=cfg.space.box, train_counts=(3,), n_test=4, seed=99)
    samples = generate_samples(plan)
    pipe = offline_build(mesh, problem, samples.training,
                         tol_eim_eta=1e-13, tol_eim_tau=1e-13,
                         energy_threshold=1.0, rank_cutoff=1e-14,
                         picard_tol=1e-10, picard_max=50)
    return cfg, plan, samples, pipe


@pytest.fixture(scope="module")
def duct_report(duct):
    cfg, plan, samples, pipe = duct
    sweep = {"n_u": [pipe.pkg.n_lifts + 1, pipe.pkg.n_u],
             "n_p": [1, pipe.pkg.n_p]}
    report = run_study(cfg, sweep=sweep, plan=plan, pipeline=pipe)
    return sweep, report


class TestSampling:
    def test_1d_count3_is_endpoints_and_midpoint(self):
        s = generate_samples(SamplePlan(box=BOX_1D, train_counts=(3,),
                                        n_test=2, seed=1))
        assert s.training.shape == (3, 1)
        assert s.training.ravel().tolist() == [0.0, 0.5, 1.0]

    def test_16x16_grid_has_256_points_and_corners(self):
        s = generate_samples(SamplePlan(box=BOX_2D, train_counts=(16, 16),
                                        n_test=3, seed=1))
        pts = {tuple(r) for r in s.training}
        assert s.training.shape == (256, 2)
        assert len(pts) == 256
        assert {(0.0, 2.0), (0.0, 3.0), (1.0, 2.0), (1.0, 3.0)} <= pts

    def test_testing_inside_box_and_seeded(self):
        plan = SamplePlan(box=BOX_2D, train_counts=(2, 2), n_test=50, seed=7)
        s1, s2 = generate_samples(plan), generate_samples(plan)
        assert np.array_equal(s1.testing, s2.testing)
        assert np.all(s1.testing >= [0.0, 2.0]) and np.all(s1.testing <= [1.0, 3.0])
        s3 = generate_samples(SamplePlan(box=BOX_2D, train_counts=(2, 2),
                                         n_test=50, seed=8))
        assert not np.array_equal(s1.testing, s3.testing)

    def test_count_below_two_rejected(self):
        with pytest.raises(AnalysisError, match="at least 2"):
            generate_samples(SamplePlan(box=BOX_1D, train_counts=(1,),
                                        n_test=1, seed=1))

    @pytest.mark.parametrize("field, plan", [
        ("train_counts", dict(train_counts=(2.5,))), ("train_counts", dict(train_counts=(True,))),
        ("train_counts", dict(train_counts=(-3,))), ("seed", dict(seed=1.5)),
        ("seed", dict(seed=True)), ("seed", dict(seed=-1)), ("n_test", dict(n_test=-1)),
        ("n_test", dict(n_test=2.0)), ("n_test", dict(n_test="4"))])
    def test_non_integer_or_negative_plan_value_rejected(self, field, plan):
        plan = SamplePlan(**dict(dict(box=BOX_1D, train_counts=(3,), n_test=2, seed=1), **plan))
        with pytest.raises(AnalysisError, match="%s must hold non-negative integers" % field):
            generate_samples(plan)

    def test_numpy_integers_are_integers(self):
        plan = SamplePlan(box=BOX_1D, train_counts=(np.int64(3),), n_test=np.int32(2),
                          seed=np.uint8(1))
        want = generate_samples(SamplePlan(box=BOX_1D, train_counts=(3,), n_test=2, seed=1))
        got = generate_samples(plan)
        assert np.array_equal(got.training, want.training)
        assert np.array_equal(got.testing, want.testing)

    def test_axis_count_mismatch_rejected(self):
        with pytest.raises(AnalysisError, match="per parameter axis"):
            generate_samples(SamplePlan(box=BOX_2D, train_counts=(3,),
                                        n_test=1, seed=1))


@pytest.fixture(scope="module")
def metric_mesh():
    mesh = rectangle_mesh([0.0, 0.5, 1.0], [0.0, 0.4, 1.0], [0.0, 0.5, 1.0])
    grams = fom_inner_products(mesh)
    return mesh, grams


class TestErrorMetrics:
    def test_identical_fields_have_zero_error(self, metric_mesh):
        mesh, grams = metric_mesh
        u = np.zeros((mesh.n_nodes, 2))
        u[:, 0] = mesh.nodes[:, 0] ** 2
        assert error_velocity(u.ravel(), u.ravel(), grams["K_u"]) == 0.0
        p = mesh.nodes[:, 1].copy()
        assert error_pressure(p, p, grams["M_p"]) == 0.0

    def test_doubling_gives_relative_error_one(self, metric_mesh):
        mesh, grams = metric_mesh
        u = np.zeros((mesh.n_nodes, 2))
        u[:, 0] = mesh.nodes[:, 0] ** 2
        assert error_velocity(u, 2.0 * u, grams["K_u"]) == pytest.approx(1.0, rel=1e-12)
        p = mesh.nodes[:, 1] - 0.3
        assert error_pressure(p, 2.0 * p, grams["M_p"]) == pytest.approx(1.0, rel=1e-12)

    def test_error_scales_linearly_with_perturbation(self, metric_mesh):
        mesh, grams = metric_mesh
        rng = np.random.Generator(np.random.PCG64(5))
        u = np.zeros((mesh.n_nodes, 2))
        u[:, 0] = mesh.nodes[:, 0] ** 2
        w = rng.standard_normal(u.shape)
        e1 = error_velocity(u, u + 1e-3 * w, grams["K_u"])
        e2 = error_velocity(u, u + 1e-6 * w, grams["K_u"])
        assert e1 / e2 == pytest.approx(1e3, rel=1e-9)

    def test_zero_norm_reference_rejected(self, metric_mesh):
        mesh, grams = metric_mesh
        # constant velocity has zero H1 seminorm even though nodal values do not
        const = np.ones((mesh.n_nodes, 2))
        with pytest.raises(AnalysisError, match="denominator"):
            error_velocity(const, 2.0 * const, grams["K_u"])
        with pytest.raises(AnalysisError, match="denominator"):
            error_pressure(np.zeros(mesh.n_nodes), np.ones(mesh.n_nodes),
                           grams["M_p"])

    def test_size_mismatch_rejected(self, metric_mesh):
        mesh, grams = metric_mesh
        u = np.ones(2 * mesh.n_nodes)
        with pytest.raises(AnalysisError, match="differ in size"):
            error_velocity(u, u[:-2], grams["K_u"])


class TestH1Seminorm:
    def test_zero_field_against_unit_gradient_is_cylinder_volume(self):
        mesh = rectangle_mesh([0.0, 0.5, 1.0], [0.0, 0.5, 1.0], [0.0, 1.0])

        def grad(x, t):
            g = np.zeros((len(x), 2, 2))
            g[:, 0, 0] = 1.0
            return g

        err = h1_seminorm_error(mesh, np.zeros((mesh.n_nodes, 2)), grad)
        assert err == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 4])
    def test_interpolated_quadratic_error_matches_slab_formula(self, n):
        mesh = rectangle_mesh(np.linspace(0.0, 1.0, n + 1),
                              [0.0, 0.3, 0.65, 1.0], [0.0, 0.4, 1.0])
        u = np.zeros((mesh.n_nodes, 2))
        u[:, 0] = mesh.nodes[:, 0] ** 2

        def grad(x, t):
            g = np.zeros((len(x), 2, 2))
            g[:, 0, 0] = 2.0 * x[:, 0]
            return g

        err = h1_seminorm_error(mesh, u, grad)
        assert err == pytest.approx(np.sqrt(1.0 / (3 * n * n)), rel=1e-13)

    def test_halving_h_halves_the_error_exactly(self):
        errs = []
        for n in (2, 4):
            mesh = rectangle_mesh(np.linspace(0.0, 1.0, n + 1),
                                  [0.0, 0.3, 0.65, 1.0], [0.0, 0.4, 1.0])
            u = np.zeros((mesh.n_nodes, 2))
            u[:, 0] = mesh.nodes[:, 0] ** 2

            def grad(x, t):
                g = np.zeros((len(x), 2, 2))
                g[:, 0, 0] = 2.0 * x[:, 0]
                return g

            errs.append(h1_seminorm_error(mesh, u, grad))
        assert np.log2(errs[0] / errs[1]) == pytest.approx(1.0, rel=1e-12)

    def test_interval_extruded_mesh_uses_triangle_rule(self):
        n = 4
        st = msh.extrude(msh.interval_mesh(0.0, 1.0, n),
                         np.array([0.0, 0.4, 1.0]))
        u = (st.nodes[:, 0] ** 2).reshape(-1, 1)
        err = h1_seminorm_error(st, u, lambda x, t: (2.0 * x).reshape(-1, 1, 1))
        assert err == pytest.approx(np.sqrt(1.0 / (3 * n * n)), rel=1e-13)


class TestOfflineBuild:
    def test_package_dimensions_are_consistent(self, duct):
        _, _, samples, pipe = duct
        assert pipe.pkg.n_lifts == 2
        assert pipe.pkg.n_u >= pipe.pkg.n_lifts + 1
        assert pipe.pkg.n_p >= 1
        assert len(pipe.solutions) == samples.training.shape[0]
        assert set(pipe.timings) == {"grams_s", "training_s", "pod_s", "eim_s",
                                     "projection_s", "start_s"}

    def test_training_sample_is_reproduced(self, duct):
        cfg, _, samples, pipe = duct
        mu = samples.training[0]
        red = solve_rom(pipe.pkg, mu=mu, picard_tol=1e-10)
        from stmor.rom import reconstruct
        u_rom, p_rom = reconstruct(pipe.pkg, red)
        assert error_velocity(pipe.u_fulls[0].ravel(), u_rom,
                              pipe.grams["K_u"]) < 1e-6
        assert error_pressure(pipe.solutions[0].p, p_rom,
                              pipe.grams["M_p"]) < 1e-6

    def test_prebuilt_solutions_give_same_basis(self, duct):
        _, _, _, pipe = duct
        rebuilt = offline_build(pipe.mesh, pipe.problem,
                                solutions=pipe.solutions,
                                tol_eim_eta=1e-13, tol_eim_tau=1e-13,
                                energy_threshold=1.0, rank_cutoff=1e-14)
        assert rebuilt.pkg.n_u == pipe.pkg.n_u
        assert rebuilt.pkg.n_p == pipe.pkg.n_p
        np.testing.assert_allclose(rebuilt.basis.spectrum_v,
                                   pipe.basis.spectrum_v, rtol=1e-12)

    @staticmethod
    def build_from_solutions(pipe, mesh, monkeypatch):
        """offline_build(solutions=...) on mesh, and the patterns it built."""
        built = []
        real = fom.SystemPattern
        monkeypatch.setattr(fom, "SystemPattern", lambda *a: built.append(a) or real(*a))
        return offline_build(mesh, pipe.problem, solutions=pipe.solutions,
                             tol_eim_eta=1e-13, tol_eim_tau=1e-13,
                             energy_threshold=1.0, rank_cutoff=1e-14), built

    def test_build_from_solutions_builds_no_system_pattern(self, duct, monkeypatch):
        # the projection works element by element; only a Picard loop needs
        # the pattern.  No assembler lives on a rebuilt mesh object, so the
        # build makes its own
        cfg, _, _, pipe = duct
        fresh, built = self.build_from_solutions(pipe, cases.build_mesh(cfg), monkeypatch)
        assert fresh.assembler is not pipe.assembler
        assert fresh.assembler._pattern is None and built == []

    def test_build_from_solutions_reuses_the_live_assembler(self, duct, monkeypatch):
        # so no second geometry and Gram matrices are built beside its factor
        cfg, _, _, pipe = duct
        mesh = cases.build_mesh(cfg)
        asm = fom.FomAssembler(mesh)
        fresh, built = self.build_from_solutions(pipe, mesh, monkeypatch)
        assert fresh.assembler is asm and asm._pattern is None and built == []
        assert self.build_from_solutions(pipe, pipe.mesh, monkeypatch)[0].assembler \
            is pipe.assembler

    def test_given_assembler_is_reused(self, duct, monkeypatch):
        _, _, _, pipe = duct
        opts = dict(solutions=pipe.solutions, tol_eim_eta=1e-13,
                    tol_eim_tau=1e-13, energy_threshold=1.0, rank_cutoff=1e-14)
        default = offline_build(pipe.mesh, pipe.problem, **opts)
        built = []
        real = fom.SystemPattern

        def counted(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(fom, "SystemPattern", counted)
        asm = default.assembler
        reused = offline_build(pipe.mesh, pipe.problem, assembler=asm, **opts)
        assert reused.assembler is asm
        assert built == []
        assert np.array_equal(reused.pkg.K, default.pkg.K)
        assert np.array_equal(reused.pkg.R, default.pkg.R)

    @pytest.mark.parametrize("option, error", [("tol_eim_eta", EimError),
                                               ("rank_cutoff", PodError)])
    def test_nan_option_is_refused(self, duct, option, error):
        _, _, _, pipe = duct
        opts = dict(tol_eim_eta=1e-13, tol_eim_tau=1e-13, energy_threshold=1.0,
                    rank_cutoff=1e-14)
        opts[option] = np.nan
        with pytest.raises(error):
            offline_build(pipe.mesh, pipe.problem, solutions=pipe.solutions, **opts)

    @pytest.mark.parametrize("option, value, error", [
        ("tol_eim_eta", "1e-12", EimError), ("tol_eim_tau", [1e-12], EimError),
        ("energy_threshold", "1.0", PodError), ("energy_threshold", True, PodError),
        ("rank_cutoff", "1e-14", PodError), ("rank_cutoff", False, PodError)])
    def test_non_number_option_is_refused(self, duct, option, value, error):
        _, _, _, pipe = duct
        opts = dict(tol_eim_eta=1e-13, tol_eim_tau=1e-13, energy_threshold=1.0,
                    rank_cutoff=1e-14)
        opts[option] = value
        with pytest.raises(error, match="must lie in"):
            offline_build(pipe.mesh, pipe.problem, solutions=pipe.solutions, **opts)

    def test_nonconverged_training_solve_aborts(self, duct):
        _, _, samples, pipe = duct
        with pytest.raises(AnalysisError, match="did not converge"):
            offline_build(pipe.mesh, pipe.problem, samples.training[:1],
                          picard_max=1)

    def test_requires_parameters_or_solutions(self, duct):
        _, _, _, pipe = duct
        with pytest.raises(AnalysisError, match="train_mus or solutions"):
            offline_build(pipe.mesh, pipe.problem)


class TestStudy:
    def test_report_identity_and_metadata(self, duct, duct_report):
        cfg, plan, _, pipe = duct
        sweep, report = duct_report
        assert report["schema_version"] == 3
        assert report["kind"] == "study_report"
        assert report["case_id"] == cfg.case_id
        assert report["mesh_hash"] == pipe.mesh.content_hash()
        assert report["rng"] == {"name": "pcg64", "seed": plan.seed}
        assert "wall time" in report["timing_convention"]
        env = report["environment"]
        assert set(env) == {"python", "numpy", "scipy", "platform"}
        assert report["parameters"]["names"] == ["u_in"]

    def test_every_sample_and_cell_is_recorded(self, duct, duct_report):
        _, plan, _, _ = duct
        sweep, report = duct_report
        n_cells = len(sweep["n_u"]) * len(sweep["n_p"])
        assert len(report["tests"]) == plan.n_test
        assert all(len(t["results"]) == n_cells for t in report["tests"])
        assert len(report["cells"]) == n_cells
        for cell in report["cells"]:
            assert cell["n_samples"] == plan.n_test
            assert cell["n_flagged"] == 0

    def test_every_result_records_its_start_gap(self, duct, duct_report):
        """start_gap is the first step's relative update, which measures how
        far the cut's first iterate was from its solution."""
        cfg, _, _, pipe = duct
        _, report = duct_report
        for t in report["tests"]:
            for r in t["results"]:
                red = solve_rom(truncate(pipe.pkg, r["n_u"], r["n_p"]), mu=np.array(t["mu"]),
                                strict=False, **cfg.picard_options())
                assert r["start_gap"] == red.iterations[0]["rel_update"]
                assert np.isfinite(r["start_gap"]) or not r["rom_converged"]

    def test_cell_max_never_below_mean(self, duct_report):
        _, report = duct_report
        for cell in report["cells"]:
            assert cell["max_eps_u"] >= cell["mean_eps_u"]
            assert cell["max_eps_p"] >= cell["mean_eps_p"]

    def test_full_basis_cell_has_smallest_row_and_column_error(self, duct,
                                                               duct_report):
        _, _, _, pipe = duct
        _, report = duct_report
        full = {(c["n_u"], c["n_p"]): c for c in report["cells"]}
        best = full[(pipe.pkg.n_u, pipe.pkg.n_p)]
        for cell in report["cells"]:
            same_row = cell["n_u"] == pipe.pkg.n_u
            same_col = cell["n_p"] == pipe.pkg.n_p
            if (same_row or same_col) and cell is not best:
                assert best["max_eps_u"] <= cell["max_eps_u"]

    def test_full_basis_reproduces_tests_to_solver_tolerance(self, duct,
                                                             duct_report):
        _, _, _, pipe = duct
        _, report = duct_report
        full = {(c["n_u"], c["n_p"]): c for c in report["cells"]}
        best = full[(pipe.pkg.n_u, pipe.pkg.n_p)]
        assert best["max_eps_u"] < 1e-5
        assert best["max_eps_p"] < 1e-4

    def test_rerun_with_shared_pipeline_is_deterministic(self, duct,
                                                         duct_report):
        cfg, plan, _, pipe = duct
        sweep, report = duct_report
        again = run_study(cfg, sweep=sweep, plan=plan, pipeline=pipe)
        for t1, t2 in zip(report["tests"], again["tests"]):
            assert t1["mu"] == t2["mu"]
            for r1, r2 in zip(t1["results"], t2["results"]):
                assert r1["eps_u"] == r2["eps_u"]
                assert r1["eps_p"] == r2["eps_p"]

    def test_speedup_summary_is_positive(self, duct_report):
        _, report = duct_report
        assert report["speedup"]["mean"] > 0.0
        assert report["speedup"]["max"] >= report["speedup"]["mean"]

    def test_nonconverged_tests_are_flagged_not_dropped(self, duct):
        cfg, plan, samples, pipe = duct
        pairs = [(pipe.pkg.n_u, pipe.pkg.n_p)]
        tests = evaluate_tests(pipe, samples.testing[:2], pairs,
                               picard_tol=1e-10, picard_max=1)
        assert len(tests) == 2
        assert all(not t["fom_converged"] for t in tests)
        assert all(r["eps_u"] is None
                   for t in tests for r in t["results"])
        report = make_report(cfg, pipe, plan, samples, tests, pairs)
        cell = report["cells"][0]
        assert cell["n_samples"] == 2
        assert cell["n_flagged"] == 2
        assert cell["max_eps_u"] is None
        assert len(report["tests"]) == 2

    def test_sweep_bounds_are_validated(self, duct):
        _, _, _, pipe = duct
        with pytest.raises(AnalysisError, match="n_u=99"):
            sweep_pairs({"n_u": [99], "n_p": [1]}, pipe.pkg)
        with pytest.raises(AnalysisError, match="n_u=1"):
            sweep_pairs({"n_u": [1], "n_p": [1]}, pipe.pkg)
        with pytest.raises(AnalysisError, match="n_p=0"):
            sweep_pairs({"n_u": [pipe.pkg.n_u], "n_p": [0]}, pipe.pkg)
        assert sweep_pairs(None, pipe.pkg) == [(pipe.pkg.n_u, pipe.pkg.n_p)]

    def test_study_requires_a_parameter_space(self):
        with pytest.raises(AnalysisError, match="parameter space"):
            run_study(cases.couette_config(n=2), pipeline=None, plan=None)

    def test_recomputed_reference_hashes_identically(self, duct):
        _, _, samples, pipe = duct
        mu = samples.testing[0]
        first = solve_fom(pipe.mesh, pipe.problem, mu=mu, picard_tol=1e-10,
                          assembler=pipe.assembler, dof_map=pipe.dof_map)
        second = solve_fom(pipe.mesh, pipe.problem, mu=mu, picard_tol=1e-10,
                           assembler=pipe.assembler, dof_map=pipe.dof_map)
        assert solution_digest(first) == solution_digest(second)
        other = solve_fom(pipe.mesh, pipe.problem, mu=samples.testing[1],
                          picard_tol=1e-10, assembler=pipe.assembler,
                          dof_map=pipe.dof_map)
        assert solution_digest(other) != solution_digest(first)


class TestReportFiles:
    def test_json_round_trip(self, duct_report, tmp_path):
        _, report = duct_report
        path = tmp_path / "report.json"
        write_study_report(report, path)
        assert read_study_report(path) == json.loads(json.dumps(report))

    def test_wrong_schema_version_rejected(self, duct_report, tmp_path):
        _, report = duct_report
        bad = dict(report, schema_version=99)
        path = tmp_path / "bad.json"
        write_study_report(bad, path)
        with pytest.raises(AnalysisError, match="schema_version"):
            read_study_report(path)

    def test_csv_has_one_row_per_sample_and_cell(self, duct, duct_report,
                                                 tmp_path):
        _, plan, _, _ = duct
        sweep, report = duct_report
        path = tmp_path / "report.csv"
        write_study_csv(report, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        n_cells = len(sweep["n_u"]) * len(sweep["n_p"])
        assert len(rows) == 1 + plan.n_test * n_cells
        header = rows[0]
        assert header[:2] == ["case_id", "mu_u_in"]
        i_eps, i_speed = header.index("eps_u"), header.index("speedup")
        gaps = [r["start_gap"] for t in report["tests"] for r in t["results"]]
        for row, gap in zip(rows[1:], gaps):
            assert float(row[i_eps]) >= 0.0
            assert float(row[i_speed]) > 0.0
            assert row[header.index("start_gap")] == "%.6e" % gap

    def test_summary_prints_error_and_speedup_tables(self, duct_report):
        _, report = duct_report
        text = summarize_report(report)
        assert "duct-study" in text
        assert "n_u" in text and "max_eps_u" in text
        assert "speedup" in text


FUZZ_VALUES = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, True, False, None]),
                        st.text(max_size=3), st.lists(st.floats(), max_size=2),
                        st.dictionaries(st.text(max_size=2), st.floats(), max_size=2))


def header_paths(header):
    """Paths to a header's values, one level into its objects, but for the
    two keys write_artifact sets itself."""
    for key, value in header.items():
        if key not in ("schema_version", "kind"):
            yield (key,)
            yield from ((key, sub) for sub in (value if isinstance(value, dict) else ()))


class TestReadBack:
    def test_every_writer_reads_back(self, duct, duct_report, tmp_path):
        cfg, _, _, pipe = duct
        sol = pipe.solutions[0]
        write_snapshot(tmp_path / "s.stm", sol)
        _, back = read_snapshot(tmp_path / "s.stm", mesh_hash=sol.mesh_hash)
        assert back.v.tobytes() == sol.v.tobytes() and back.p.tobytes() == sol.p.tobytes()
        assert (back.mu.tolist(), back.converged) == (sol.mu.tolist(), sol.converged)
        for pkg in (pipe.pkg, truncate(pipe.pkg, pipe.pkg.n_lifts + 1, 1)):
            write_rom(tmp_path / "p.rom", pkg)
            _, back = read_rom(tmp_path / "p.rom", mesh_hash=pkg.mesh_hash)
            assert rom_info(back) == rom_info(pkg)
            for name in ("K", "R", "strain_op", "start"):
                assert np.array_equal(getattr(back, name), getattr(pkg, name))
        _, report = duct_report
        write_study_report(report, tmp_path / "r.json")
        assert read_study_report(tmp_path / "r.json") == json.loads(json.dumps(report))
        data = cfg.to_dict()
        assert cases.config_from_dict(data).to_dict() == data

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_header_value_reads_back_or_is_an_artifact_error(self, duct, data):
        """One header key of a snapshot or rom file set to another JSON value:
        the read returns that value or raises ArtifactError, nothing else."""
        pipe = duct[3]
        kind = data.draw(st.sampled_from(["snapshot", "rom"]))
        write, read = ((write_snapshot, read_snapshot) if kind == "snapshot"
                       else (write_rom, read_rom))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "file.stm"
            write(path, pipe.solutions[0] if kind == "snapshot" else pipe.pkg)
            header, arrays = read_artifact(path, expect_kind=kind)
            at = data.draw(st.sampled_from(sorted(header_paths(header))))
            value = data.draw(FUZZ_VALUES)
            node = header
            for key in at[:-1]:
                node = node[key]
            node[at[-1]] = value
            write_artifact(path, kind, header, arrays)
            try:
                got, _ = read(path)
            except ArtifactError:
                return
        for key in at:
            got = got[key]
        assert json.dumps(got, sort_keys=True) == json.dumps(value, sort_keys=True)
