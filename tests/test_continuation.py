"""Continuation over training mu: solve_fom's x0 and factor, and the one
training loop built on them (analysis.solve_chain), which offline_build and
``stmor snapshots`` both run."""

import json
import logging
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from stmor import analysis, cases, fom
from stmor.analysis import (SamplePlan, generate_samples, offline_build,
                            solve_chain)
from stmor.cli import main
from stmor.constitutive import (SEMANTICS_MATERIAL, ParameterSpace,
                                relative_box)
from stmor.fom import (FomAssembler, SolverError, build_dof_map, build_lifting,
                       combine_liftings, read_snapshot, solve_fom)
from stmor.rom import fit_monomials

from test_analysis import duct_config

TIMINGS = ("assemble_s", "factor_s", "solve_s")
# continued and cold solves both stop at rel update <= picard_tol, each from
# its own side of the fixed point; they may differ by a few times that
CHAIN_TOL_FACTOR = 10.0


def setting(cfg):
    mesh = cases.build_mesh(cfg)
    problem = cases.build_problem(cfg, mesh)
    return dict(mesh=mesh, problem=problem, assembler=FomAssembler(mesh),
                dof_map=build_dof_map(mesh, problem.dirichlet))


def grid(cfg, counts=None):
    counts = tuple(cfg.plan["train_counts"]) if counts is None else counts
    plan = SamplePlan(box=cfg.space.box, train_counts=counts, n_test=1, seed=1)
    return generate_samples(plan).training


def duct_2d_config():
    """The duct with a 2-D material box (lambda, n) and a 2x3 training grid."""
    space = ParameterSpace(box=relative_box(("lambda", "n"), (1.0, 0.5), 0.05),
                           semantics=SEMANTICS_MATERIAL)
    return replace(duct_config(), case_id="duct-2d", space=space,
                   plan={"train_counts": [2, 3], "n_test": 1, "seed": 5})


def stacked(sols):
    return np.stack([np.concatenate([s.v, s.p]) for s in sols])


def untimed(records, skip=()):
    return [{k: v for k, v in r.items() if k not in TIMINGS + skip} for r in records]


def assert_bitwise(a, b, skip=()):
    """Equal solutions and records, apart from timings and the keys in skip."""
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(x.v, y.v) and np.array_equal(x.p, y.p)
        assert np.array_equal(x.mu, y.mu)
        assert untimed(x.iterations, skip) == untimed(y.iterations, skip)


@pytest.fixture(scope="module")
def duct():
    cfg = duct_config()
    return cfg, setting(cfg)


@pytest.fixture(scope="module")
def artery():
    cfg = cases.artery_analog_config(n_x=12, n_y=5, n_levels=6)
    return cfg, setting(cfg)


@pytest.fixture(scope="module")
def duct_2d():
    cfg = duct_2d_config()
    return cfg, setting(cfg)


class TestTypedErrors:
    @pytest.mark.parametrize("x0, match", [
        (np.zeros(5), "shape"),
        ("zeros", "numeric"),
        (np.full(3, np.nan), "shape"),
    ])
    def test_bad_x0(self, duct, x0, match):
        _, s = duct
        with pytest.raises(SolverError, match=match):
            solve_fom(s["mesh"], s["problem"], mu=[1.0], x0=x0, dof_map=s["dof_map"],
                      assembler=s["assembler"])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_x0(self, duct, bad):
        _, s = duct
        x0 = np.zeros(s["dof_map"].n_total)
        x0[7] = bad
        with pytest.raises(SolverError, match="non-finite"):
            solve_fom(s["mesh"], s["problem"], mu=[1.0], x0=x0, dof_map=s["dof_map"],
                      assembler=s["assembler"])

    @pytest.mark.parametrize("factor", [(None,), [], [None, None], "lu", 0])
    def test_factor_must_be_a_one_item_list(self, duct, factor):
        _, s = duct
        with pytest.raises(SolverError, match="one-item list"):
            solve_fom(s["mesh"], s["problem"], mu=[1.0], factor=factor,
                      dof_map=s["dof_map"], assembler=s["assembler"])

    def test_factor_of_another_system_is_refused(self, duct):
        _, s = duct
        small = splu(sp.identity(3, format="csc"))
        with pytest.raises(SolverError, match="factor of shape"):
            solve_fom(s["mesh"], s["problem"], mu=[1.0], factor=[small],
                      dof_map=s["dof_map"], assembler=s["assembler"])


def rest_factor(s):
    """The factor that the pattern of setting s keeps, or None."""
    rest = s["assembler"].system_pattern(s["dof_map"]).rest
    return None if rest is None else rest[1]


class TestColdSolve:
    def test_cold_solve_depends_on_its_mu_alone(self, duct_2d):
        # the material box leaves the system at rest the same for every mu,
        # so the cold solves on one pattern share the factor of the first
        cfg, _ = duct_2d
        opts = cfg.picard_options()
        mu, others = cfg.space.box.center(), cfg.space.box.corners()[:2]
        s = setting(cfg)
        first = solve_fom(mu=mu, **s, **opts)
        after_others = [solve_fom(mu=m, **s, **opts) for m in others][-1:]
        after_others.append(solve_fom(mu=mu, **s, **opts))
        solve_chain(mus=grid(cfg), **s, **opts)
        after_chain = solve_fom(mu=mu, **s, **opts)
        fresh = solve_fom(mu=mu, **setting(cfg), **opts)
        for sol in (after_others[-1], after_chain, fresh):
            assert_bitwise([sol], [first], skip=("factorized",))
        # only the step that built the kept factor records it
        assert first.iterations[0]["factorized"] and fresh.iterations[0]["factorized"]
        assert not any(r["factorized"] for sol in after_others for r in sol.iterations)
        assert first.iterations[0]["factor_s"] > 0.0
        assert after_others[-1].iterations[0]["factor_s"] == 0.0
        # the chain factors at the lifting, which releases the kept factor
        assert after_chain.iterations[0]["factorized"]

    def test_cold_call_replaces_the_callers_factor(self, duct):
        cfg, _ = duct
        s = setting(cfg)
        opts = dict(mu=cfg.space.box.center(), **s, **cfg.picard_options())
        default = solve_fom(**opts)
        factor = [rest_factor(s)]
        assert factor[0] is not None
        again = solve_fom(factor=factor, **opts)
        assert_bitwise([again], [default], skip=("factorized",))
        assert factor[0] is rest_factor(s)

    @pytest.mark.parametrize("change", [{"rho": 2.6}, {"eta_0": 0.7}])
    def test_kept_factor_follows_the_rest_state(self, duct, change):
        cfg, _ = duct
        s = setting(cfg)
        opts = dict(mu=cfg.space.box.center(), **cfg.picard_options())
        solve_fom(**s, **opts)
        kept = rest_factor(s)
        other = replace(s["problem"], material=replace(s["problem"].material, **change))
        sol = solve_fom(**dict(s, problem=other), **opts)
        assert sol.iterations[0]["factorized"]
        assert rest_factor(s) is not kept       # one factor per pattern, rebuilt
        fresh = solve_fom(**dict(setting(cfg), problem=other), **opts)
        assert_bitwise([sol], [fresh])
        back = solve_fom(**s, **opts)
        assert back.iterations[0]["factorized"]

    def test_refactor_releases_the_kept_factor_first(self, duct, monkeypatch):
        cfg, _ = duct
        s = setting(cfg)
        opts = dict(mu=cfg.space.box.center(), **s, **cfg.picard_options())
        solve_fom(**opts)
        ref = weakref.ref(rest_factor(s))
        alive, real = [], fom.splu
        monkeypatch.setattr(fom, "splu", lambda *a, **k: alive.append(ref() is not None)
                            or real(*a, **k))
        monkeypatch.setattr(fom, "KRYLOV_MAX_ITS", 0)   # every lagged step refactors
        sol = solve_fom(**opts)
        assert [r["factorized"] for r in sol.iterations[:2]] == [False, True]
        assert alive and not any(alive)
        assert ref() is None and rest_factor(s) is None


class TestContinuation:
    @pytest.mark.parametrize("name", ["artery", "duct", "duct_2d"])
    def test_chain_agrees_with_cold_solves(self, name, request):
        # duct_2d runs its 2x3 grid as one chain, across the end of its first line
        cfg, s = request.getfixturevalue(name)
        opts = cfg.picard_options()
        mus = grid(cfg)
        chain, _ = solve_chain(mus=mus, **s, **opts)
        cold = [solve_fom(mu=mu, **s, **opts) for mu in mus]
        a, b = stacked(chain), stacked(cold)
        rel = np.linalg.norm(a - b, axis=1) / np.linalg.norm(b, axis=1)
        assert rel.max() <= CHAIN_TOL_FACTOR * opts["picard_tol"]
        assert all(sol.converged for sol in chain)
        # a chain starts from zero at the lifting, with a factor of its own
        start = solve_fom(mu=mus[0], x0=np.zeros(s["dof_map"].n_total), factor=[None],
                          **s, **opts)
        assert_bitwise(chain[:1], [start])
        n_chain = [sum(r["factorized"] for r in sol.iterations) for sol in chain]
        n_cold = [sum(r["factorized"] for r in sol.iterations) for sol in cold]
        # cold solves share the factor at rest of their pattern, so on the
        # duct they factor no more than the chain; they take more steps
        assert sum(n_chain[1:]) <= sum(n_cold[1:])
        assert sum(map(len, (c.iterations for c in chain))) \
            < sum(map(len, (c.iterations for c in cold)))
        if name == "artery":
            # the factor of the first solve serves (nearly) all later ones
            assert 4 * sum(n_chain[1:]) < sum(n_cold[1:])

    def test_coarse_artery_chain_takes_at_most_60_steps(self, artery):
        # 132 from the predecessors alone: 12 for the cold solve, then 8 each
        cfg, s = artery
        chain, _ = solve_chain(mus=grid(cfg), **s, **cfg.picard_options())
        assert all(sol.converged for sol in chain)
        assert sum(len(sol.iterations) for sol in chain) <= 60

    def test_fit_only_on_a_full_rank_affine_design(self, duct_2d, monkeypatch):
        # the 2x3 grid in ij order: its first line is collinear, so solves 2-4
        # start from their predecessors and only solves 5 and 6 from a fit
        cfg, s = duct_2d
        sizes = []

        def spy(T, X):
            sizes.append(len(T))
            return fit_monomials(T, X)

        monkeypatch.setattr(analysis, "fit_monomials", spy)
        mus = grid(cfg)
        chain, _ = solve_chain(mus=mus, **s, **cfg.picard_options())
        assert sizes == [4, 5] and all(sol.converged for sol in chain)
        # without parameters every solve starts from its predecessor
        sizes.clear()
        free = dict(s, problem=replace(s["problem"], space=None))
        chain, _ = solve_chain(mus=[None] * 3, **free, **cfg.picard_options())
        assert sizes == [] and all(sol.converged for sol in chain)

    def test_rerun_is_bitwise(self, duct):
        cfg, s = duct
        mus = grid(cfg, (5,))
        first, _ = solve_chain(mus=mus, **s, **cfg.picard_options())
        again, _ = solve_chain(mus=mus, **s, **cfg.picard_options())
        assert_bitwise(first, again)

    def test_dirichlet_values_are_exact(self, duct):
        # the duct's inflow amplitude is mu, so each solve of the chain has
        # other Dirichlet data than the solution it starts from
        cfg, s = duct
        mesh, problem, dof_map = s["mesh"], s["problem"], s["dof_map"]
        mus = grid(cfg, (4,))
        sols, _ = solve_chain(mus=mus, **s, **cfg.picard_options())
        con = dof_map.constrained
        for mu, sol in zip(mus, sols):
            _, amps = problem.effective(mu)
            lifts = build_lifting(mesh, problem.dirichlet, amps)
            u = sol.velocity_field(dof_map, lifts)
            want = combine_liftings(lifts, mesh.n_nodes, mesh.d)
            assert np.array_equal(u[con], want[con])
            assert np.abs(want[con]).max() > 0.0

    def test_failed_solve_hands_nothing_on(self, duct):
        cfg, s = duct
        mus = grid(cfg)
        sols, times = solve_chain(mus=mus, picard_tol=1e-10, picard_max=1,
                                  strict=False, **s)
        assert len(times) == len(mus) and not any(sol.converged for sol in sols)
        # every solve started cold, so each factored its one system
        assert all(sol.iterations[0]["factorized"] for sol in sols)


class TestTrainingLoops:
    def test_offline_build_logs_the_training_loop(self, duct, caplog):
        cfg, s = duct
        with caplog.at_level(logging.INFO, logger="stmor.analysis"):
            pipe = offline_build(s["mesh"], s["problem"], grid(cfg), assembler=s["assembler"],
                                 **cfg.picard_options(), **cfg.offline_options())
        records = [r for sol in pipe.solutions for r in sol.iterations]
        line = ("offline_build: 3 training solves, %d Picard iterations, "
                "%d factorizations" % (len(records), sum(r["factorized"] for r in records)))
        assert line in caplog.messages

    def test_snapshots_are_offline_build_solutions(self, duct_2d, tmp_path):
        cfg, s = duct_2d
        pipe = offline_build(s["mesh"], s["problem"], grid(cfg), assembler=s["assembler"],
                             **cfg.picard_options(), **cfg.offline_options())
        case = tmp_path / "duct_2d.json"
        case.write_text(json.dumps(cfg.to_dict()))
        assert main(["snapshots", "--case", str(case), "--out-dir", str(tmp_path)]) == 0
        paths = sorted((tmp_path / "snapshots").glob("snap_*.stm"))
        assert len(paths) == len(pipe.solutions) == 6
        for path, want in zip(paths, pipe.solutions):
            header, sol = read_snapshot(path)
            assert np.array_equal(sol.v, want.v) and np.array_equal(sol.p, want.p)
            assert np.array_equal(sol.mu, want.mu)
            assert header["wall_time_s"] > 0.0
