"""Assembly, boundary data handling, and the nonlinear full-order solve."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import gmres

from stmor import fom
from stmor.cases import artery_analog_config, build_mesh, build_problem
from stmor.constitutive import BodyForce, CarreauYasudaParams
from stmor.fom import (
    KRYLOV_MAX_ITS,
    LINEAR_RESIDUAL_TOL,
    DirichletSpec,
    FomAssembler,
    FomProblem,
    SolverError,
    assemble_fom,
    build_dof_map,
    build_lifting,
    combine_liftings,
    direct_solve,
    fom_inner_products,
    pressure_pins,
    read_snapshot,
    solve_fom,
    write_snapshot,
)
from stmor.io import ArtifactError, write_artifact
from stmor.mesh import extrude, interval_mesh, rectangle_mesh

NEWTONIAN = CarreauYasudaParams(eta_0=270.0, eta_inf=0.0, lam=1.2e-3, a=1.0,
                                n=1.0, rho=1200.0)
SHEAR_THINNING = CarreauYasudaParams(eta_0=270.0, eta_inf=0.0, lam=1.2e-3, a=1.0,
                                     n=0.775, rho=1200.0)
INVISCID = CarreauYasudaParams(eta_0=0.0, eta_inf=0.0, lam=1.0, a=1.0,
                               n=0.5, rho=1.0)

WALLS = ("dirichlet:left", "dirichlet:right", "dirichlet:bottom", "dirichlet:top")


def channel_mesh(n=3, levels=4, T=1.0):
    spatial = rectangle_mesh(np.linspace(0, 1, n + 1), np.linspace(0, 1, n + 1),
                             *WALLS)
    return extrude(spatial, np.linspace(0.0, T, levels))


def couette_specs(scale=1.0):
    def shear(x, t):
        return np.column_stack([scale * x[:, 1], np.zeros(len(x))])

    return tuple(DirichletSpec(tag=t, components=(0, 1), profile=shear)
                 for t in WALLS + ("initial",))


def couette_problem(material=NEWTONIAN):
    return FomProblem(name="couette", material=material, dirichlet=couette_specs(),
                      amplitudes={})


class TestDofMap:
    def test_counts_on_small_channel(self):
        # 3x3 spatial grid: 1 interior node; free at levels 1 and 2 only
        mesh = channel_mesh(n=2, levels=3)
        dm = build_dof_map(mesh, couette_specs())
        assert dm.n_pressure == 9 * 3
        assert dm.n_velocity == 1 * 2 * 2
        assert dm.n_total == dm.n_velocity + dm.n_pressure

    def test_partial_component_constraint(self):
        mesh = channel_mesh(n=2, levels=3)
        specs = list(couette_specs())
        # constrain only the x-component on the right wall
        specs[1] = DirichletSpec(tag="dirichlet:right", components=(0,),
                                 profile=lambda x, t: np.zeros((len(x), 1)))
        dm = build_dof_map(mesh, specs)
        right = mesh.nodes_of_tag("dirichlet:right")
        assert np.all(dm.vdof[right, 0] == -1)
        # y-component free except at the shared corners and the initial cap
        interior_right = [n for n in right
                          if 0.0 < mesh.nodes[n, 1] < 1.0 and mesh.nodes[n, 2] > 0.0]
        assert np.all(dm.vdof[interior_right, 1] >= 0)

    def test_missing_data_rejected(self):
        mesh = channel_mesh()
        with pytest.raises(SolverError, match="initial"):
            build_dof_map(mesh, couette_specs()[:4])
        bogus = (DirichletSpec(tag="dirichlet:nowhere", components=(0,),
                               profile=lambda x, t: np.zeros((len(x), 1))),)
        with pytest.raises(SolverError, match="unknown"):
            build_dof_map(mesh, couette_specs() + bogus)

    def test_expand_restrict_roundtrip(self):
        mesh = channel_mesh(n=2, levels=3)
        dm = build_dof_map(mesh, couette_specs())
        v = np.arange(1.0, dm.n_velocity + 1)
        np.testing.assert_array_equal(dm.restrict(dm.expand(v)), v)


class TestLifting:
    def test_interpolates_data_and_vanishes_inside(self):
        mesh = channel_mesh(n=3, levels=3)
        lifts = build_lifting(mesh, couette_specs(), {})
        assert len(lifts) == 1 and lifts[0].group == "fixed"
        dm = build_dof_map(mesh, couette_specs())
        l = combine_liftings(lifts, mesh.n_nodes, 2)
        exact = np.column_stack([mesh.nodes[:, 1], np.zeros(mesh.n_nodes)])
        con = dm.constrained
        np.testing.assert_allclose(l[con], exact[con], atol=1e-15)
        assert np.all(l[~con] == 0.0)

    def test_zero_walls_give_single_zero_lifting(self):
        mesh = channel_mesh(n=2, levels=3)
        zero = lambda x, t: np.zeros((len(x), 2))
        specs = tuple(DirichletSpec(tag=t, components=(0, 1), profile=zero)
                      for t in WALLS + ("initial",))
        lifts = build_lifting(mesh, specs, {})
        assert len(lifts) == 1
        assert np.all(lifts[0].vector == 0.0)

    def test_conflict_within_group(self):
        mesh = channel_mesh(n=2, levels=3)
        specs = list(couette_specs())
        specs[2] = DirichletSpec(tag="dirichlet:bottom", components=(0, 1),
                                 profile=lambda x, t: np.column_stack(
                                     [np.ones(len(x)), np.zeros(len(x))]))
        with pytest.raises(SolverError, match="conflicting"):
            build_lifting(mesh, specs, {})

    def test_conflict_across_groups(self):
        mesh = channel_mesh(n=2, levels=3)
        one = lambda x, t: np.ones((len(x), 1))
        specs = (DirichletSpec(tag="dirichlet:left", components=(0,), profile=one,
                               group="inlet"),
                 DirichletSpec(tag="dirichlet:bottom", components=(0,),
                               profile=lambda x, t: np.zeros((len(x), 1))))
        with pytest.raises(SolverError, match="groups"):
            build_lifting(mesh, specs, {"inlet": 2.0})

    def test_group_amplitude_scales(self):
        mesh = channel_mesh(n=2, levels=3)
        ramp = lambda x, t: (x[:, 1] * (1 - x[:, 1]))[:, None]
        specs = (DirichletSpec(tag="dirichlet:left", components=(0,), profile=ramp,
                               group="inlet"),)
        lifts = build_lifting(mesh, specs, {"inlet": 3.0})
        inlet_lift = [lf for lf in lifts if lf.group == "inlet"]
        assert inlet_lift and inlet_lift[0].coefficient == 3.0
        with pytest.raises(SolverError, match="amplitude"):
            build_lifting(mesh, specs, {})


def tau_of(mesh, u, params):
    """tau of element 0 from the assembler's element-field kernel."""
    return FomAssembler(mesh).element_fields(u, params)[2][0]


class TestTau:
    def test_inviscid_rest_limit(self):
        # u = 0, nu = 0 leaves only the temporal scale: tau = h_t / 2
        mesh = extrude(interval_mesh(0.0, 1.0, 1), [0.0, 1.0])
        u = np.zeros((mesh.n_nodes, 1))
        assert tau_of(mesh, u, INVISCID) == pytest.approx(0.5, rel=1e-14)

    def test_doubling_scales_doubles_tau(self):
        small = extrude(interval_mesh(0.0, 1.0, 1), [0.0, 1.0])
        big = extrude(interval_mesh(0.0, 2.0, 1), [0.0, 2.0])
        t1 = tau_of(small, np.zeros((small.n_nodes, 1)), INVISCID)
        t2 = tau_of(big, np.zeros((big.n_nodes, 1)), INVISCID)
        assert t2 == pytest.approx(2.0 * t1, rel=1e-14)

    def test_monotone_in_viscosity(self):
        mesh = extrude(interval_mesh(0.0, 1.0, 1), [0.0, 1.0])
        u = np.zeros((mesh.n_nodes, 1))
        taus = [tau_of(mesh, u,
                       CarreauYasudaParams(eta_0=eta, eta_inf=0.0, lam=1.0,
                                           a=1.0, n=1.0, rho=1.0))
                for eta in (0.1, 1.0, 10.0, 100.0)]
        assert all(a > b for a, b in zip(taus, taus[1:]))
        assert all(t > 0 for t in taus)
        # dominant-viscosity limit: tau -> h_s^2/(4 nu)
        eta = 1e8
        t = tau_of(mesh, u, CarreauYasudaParams(eta_0=eta, eta_inf=0.0,
                                                lam=1.0, a=1.0, n=1.0, rho=1.0))
        assert t == pytest.approx(1.0 / (4.0 * eta), rel=1e-6)

    def test_velocity_enters(self):
        mesh = extrude(interval_mesh(0.0, 1.0, 1), [0.0, 1.0])
        t0 = tau_of(mesh, np.zeros((mesh.n_nodes, 1)), INVISCID)
        t1 = tau_of(mesh, np.full((mesh.n_nodes, 1), 10.0), INVISCID)
        assert t1 < t0


class TestAssembly:
    def test_block_dimensions(self):
        mesh = channel_mesh(n=2, levels=3)
        dm = build_dof_map(mesh, couette_specs())
        lifts = build_lifting(mesh, couette_specs(), {})
        u = combine_liftings(lifts, mesh.n_nodes, 2)
        sys = assemble_fom(mesh, dm, lifts, u, SHEAR_THINNING)
        nv, npr = dm.n_velocity, dm.n_pressure
        assert sys.E.shape == (nv, nv) and sys.A.shape == (nv, nv)
        assert sys.B.shape == (npr, nv) and sys.C.shape == (npr, nv)
        assert sys.S.shape == (npr, npr)
        assert sys.H.shape == (nv,) and sys.F.shape == (nv,) and sys.L.shape == (nv,)
        assert sys.G.shape == (npr,) and sys.D.shape == (npr,)
        assert sys.matrix().shape == (dm.n_total, dm.n_total)

    def test_viscous_block_symmetric_psd(self):
        mesh = channel_mesh(n=3, levels=4)
        dm = build_dof_map(mesh, couette_specs())
        lifts = build_lifting(mesh, couette_specs(), {})
        rng = np.random.default_rng(0)
        u = rng.standard_normal((mesh.n_nodes, 2))
        sys = assemble_fom(mesh, dm, lifts, u, SHEAR_THINNING)
        gap = abs(sys.A - sys.A.T).max()
        assert gap <= 1e-12 * abs(sys.A).max()
        for _ in range(10):
            x = rng.standard_normal(dm.n_velocity)
            assert x @ (sys.A @ x) >= -1e-12 * (x @ x)

    def test_zero_data_zero_solution(self):
        mesh = channel_mesh(n=2, levels=3)
        zero = lambda x, t: np.zeros((len(x), 2))
        specs = tuple(DirichletSpec(tag=t, components=(0, 1), profile=zero)
                      for t in WALLS + ("initial",))
        prob = FomProblem(name="rest", material=SHEAR_THINNING, dirichlet=specs,
                          amplitudes={})
        sol = solve_fom(mesh, prob)
        assert sol.converged
        np.testing.assert_array_equal(sol.v, 0.0)
        np.testing.assert_array_equal(sol.p, 0.0)

    def test_nan_iterate_names_element(self):
        mesh = channel_mesh(n=2, levels=3)
        asm = FomAssembler(mesh)
        u = np.zeros((mesh.n_nodes, 2))
        u[mesh.elements[5, 0], 0] = np.nan
        with pytest.raises(SolverError, match="element"):
            asm.element_fields(u, SHEAR_THINNING)

    def test_traction_rhs_total(self):
        mesh = extrude(interval_mesh(0.0, 1.0, 4, "dirichlet:left", "neumann:right"),
                       np.linspace(0.0, 2.0, 5))
        asm = FomAssembler(mesh)
        F = asm.traction_rhs({"neumann:right": (3.0,)})
        # sum over shape functions is the traction times the facet area (T = 2)
        assert F.sum() == pytest.approx(3.0 * 2.0, rel=1e-12)
        assert np.all(F.reshape(-1, 1)[mesh.nodes_of_tag("dirichlet:left")] == 0.0)


class TestPressureGauge:
    def test_all_dirichlet_pins_one_per_level(self):
        mesh = channel_mesh(n=2, levels=4)
        dm = build_dof_map(mesh, couette_specs())
        pins = pressure_pins(mesh, dm)
        assert pins.size == 4
        np.testing.assert_array_equal(pins, np.arange(4) * 9)

    def test_partially_free_boundary_needs_no_pin(self):
        mesh = channel_mesh(n=2, levels=3)
        specs = list(couette_specs())
        specs[1] = DirichletSpec(tag="dirichlet:right", components=(0,),
                                 profile=lambda x, t: np.zeros((len(x), 1)))
        dm = build_dof_map(mesh, specs)
        assert pressure_pins(mesh, dm).size == 0

    def test_singular_factorization_reports_constraint_hint(self):
        import scipy.sparse as sp
        K = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(SolverError, match="singular|constraint"):
            direct_solve(K, np.array([1.0, 1.0]))

    def test_pinned_solve_matches_zero_gauge(self):
        # pinning picks the zero gauge; Couette pressure is then exactly zero
        mesh = channel_mesh(n=2, levels=3)
        sol = solve_fom(mesh, couette_problem())
        assert np.abs(sol.p).max() <= 1e-9


class TestCouette:
    def test_exact_reproduction(self):
        mesh = channel_mesh(n=4, levels=5)
        sol = solve_fom(mesh, couette_problem())
        dm = build_dof_map(mesh, couette_specs())
        lifts = build_lifting(mesh, couette_specs(), {})
        u = sol.velocity_field(dm, lifts)
        exact = np.column_stack([mesh.nodes[:, 1], np.zeros(mesh.n_nodes)])
        ips = fom_inner_products(mesh)
        diff = (u - exact).ravel()
        err = np.sqrt(diff @ (ips["K_u"] @ diff))
        ref = np.sqrt(exact.ravel() @ (ips["K_u"] @ exact.ravel()))
        assert err / ref <= 1e-9
        p_norm = np.sqrt(sol.p @ (ips["M_p"] @ sol.p))
        assert p_norm <= 1e-8 * NEWTONIAN.rho

    def test_newtonian_picard_takes_exactly_two_iterations(self):
        mesh = channel_mesh(n=3, levels=4)
        sol = solve_fom(mesh, couette_problem())
        assert sol.converged
        assert len(sol.iterations) == 2
        assert sol.iterations[0]["rel_update"] > 1e-3
        assert sol.iterations[1]["rel_update"] <= 1e-8

    def test_dirichlet_exactness_after_solve(self):
        mesh = channel_mesh(n=3, levels=4)
        prob = couette_problem(SHEAR_THINNING)
        sol = solve_fom(mesh, prob)
        dm = build_dof_map(mesh, prob.dirichlet)
        lifts = build_lifting(mesh, prob.dirichlet, {})
        u = sol.velocity_field(dm, lifts)
        exact = np.column_stack([mesh.nodes[:, 1], np.zeros(mesh.n_nodes)])
        con = dm.constrained
        assert np.max(np.abs(u[con] - exact[con])) <= 1e-12

    def test_shear_thinning_converges(self):
        mesh = channel_mesh(n=3, levels=4)
        sol = solve_fom(mesh, couette_problem(SHEAR_THINNING))
        assert sol.converged
        assert len(sol.iterations) <= 50

    def test_empty_picard_budget_rejected(self):
        with pytest.raises(SolverError, match="picard_max"):
            solve_fom(channel_mesh(n=2, levels=3), couette_problem(),
                      picard_max=0)

    def test_stall_raises_when_strict(self):
        with pytest.raises(SolverError, match="stalled"):
            solve_fom(channel_mesh(n=2, levels=3), couette_problem(SHEAR_THINNING),
                      picard_tol=1e-300, picard_max=1)

    def test_stall_returns_last_iterate_when_not_strict(self, caplog):
        with caplog.at_level("WARNING", logger="stmor.fom"):
            sol = solve_fom(channel_mesh(n=2, levels=3),
                            couette_problem(SHEAR_THINNING),
                            picard_tol=1e-300, picard_max=1, strict=False)
        assert not sol.converged
        assert len(sol.iterations) == 1
        assert "stalled" in caplog.text


class TestPicardDriver:
    @staticmethod
    def step(x):
        # x[0] flips sign forever; x[1:] contracts to the fixed point 2
        new = np.concatenate([-x[:1], 0.5 * x[1:] + 1.0])
        return new, {"pinned": float(new[0])}

    def test_skipped_entries_do_not_count(self):
        x0 = np.array([1.0, 0.0, 0.0])
        x, records, converged = fom.picard(self.step, x0, 1e-12, 100, True,
                                           SolverError, fom.logger, "test",
                                           skip=1)
        assert converged
        np.testing.assert_allclose(x[1:], 2.0, rtol=1e-11)
        prev = x0
        for it, rec in enumerate(records, start=1):
            new, _ = self.step(prev)
            rel = np.linalg.norm(new[1:] - prev[1:]) / np.linalg.norm(new[1:])
            assert rec == {"iteration": it, "rel_update": rel,
                           "pinned": float(new[0])}
            prev = new
        assert records[-1]["rel_update"] <= 1e-12 < records[-2]["rel_update"]

    def test_counted_entries_can_stall(self):
        with pytest.raises(SolverError, match="test stalled"):
            fom.picard(self.step, np.array([1.0, 0.0, 0.0]), 1e-12, 100, True,
                       SolverError, fom.logger, "test", skip=0)


def _relative_difference(a, b):
    xa, xb = np.concatenate([a.v, a.p]), np.concatenate([b.v, b.p])
    return np.linalg.norm(xa - xb) / np.linalg.norm(xb)


class TestLaggedFactor:
    @pytest.mark.parametrize("case", ["couette", "artery"])
    def test_matches_factor_every_iteration(self, case, monkeypatch):
        if case == "couette":
            mesh, opts = channel_mesh(n=3, levels=4), {}
            prob = couette_problem(SHEAR_THINNING)
        else:
            cfg = artery_analog_config(n_x=12, n_y=5, n_levels=6)
            mesh, opts = build_mesh(cfg), cfg.picard_options()
            prob = build_problem(cfg, mesh)
        lagged = solve_fom(mesh, prob, **opts)
        with monkeypatch.context() as m:
            # every Krylov re-solve misses the contract: each system is factored
            m.setattr(fom, "_krylov_resolve",
                      lambda K, rhs, lu, x0: (np.zeros_like(rhs), 0))
            factored = solve_fom(mesh, prob, **opts)
        assert all(rec["factorized"] for rec in factored.iterations)
        assert len(lagged.iterations) == len(factored.iterations) > 2
        assert _relative_difference(lagged, factored) <= 1e-10
        for rec in lagged.iterations:
            assert rec["linear_residual"] <= LINEAR_RESIDUAL_TOL
        recs = lagged.iterations
        assert recs[0]["factorized"] and recs[0]["krylov_its"] == 0
        assert not any(rec["factorized"] for rec in recs[-2:])
        assert all(0 < rec["krylov_its"] <= KRYLOV_MAX_ITS for rec in recs[1:])
        assert sum(rec["factorized"] for rec in recs) < len(recs) / 2

    def test_wrong_krylov_result_refactors(self, monkeypatch):
        mesh, prob = channel_mesh(n=3, levels=4), couette_problem(SHEAR_THINNING)
        reference = solve_fom(mesh, prob)
        calls = []

        def first_call_wrong(K, rhs, **kw):
            x, info = gmres(K, rhs, **kw)
            calls.append(info)
            return (x + 1.0 if len(calls) == 1 else x), info

        monkeypatch.setattr(fom, "gmres", first_call_wrong)
        sol = solve_fom(mesh, prob)
        assert sol.converged
        assert [rec["factorized"] for rec in sol.iterations[:3]] == [True, True, False]
        assert sol.iterations[1]["krylov_its"] > 0
        assert sol.iterations[1]["linear_residual"] <= LINEAR_RESIDUAL_TOL
        assert len(sol.iterations) == len(reference.iterations)
        assert _relative_difference(sol, reference) <= 1e-10

    def test_plain_call_factors(self):
        K = sp.csr_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
        x, rel, factorized, its = direct_solve(K, np.array([1.0, 2.0]))
        assert factorized and its == 0 and rel <= LINEAR_RESIDUAL_TOL
        np.testing.assert_allclose(K @ x, [1.0, 2.0], rtol=1e-14)


class TestInnerProducts:
    def test_constant_velocity_has_zero_seminorm(self):
        mesh = channel_mesh(n=3, levels=4)
        ips = fom_inner_products(mesh)
        u = np.ones(mesh.n_nodes * 2)
        assert abs(u @ (ips["K_u"] @ u)) <= 1e-12

    def test_constant_pressure_norm_is_volume(self):
        mesh = channel_mesh(n=3, levels=4, T=2.0)
        ips = fom_inner_products(mesh)
        p = np.ones(mesh.n_nodes)
        assert p @ (ips["M_p"] @ p) == pytest.approx(2.0, rel=1e-12)

    def test_couette_field_seminorm_on_unit_cube(self):
        mesh = channel_mesh(n=3, levels=4, T=1.0)
        ips = fom_inner_products(mesh)
        u = np.column_stack([mesh.nodes[:, 1], np.zeros(mesh.n_nodes)]).ravel()
        assert u @ (ips["K_u"] @ u) == pytest.approx(1.0, rel=1e-12)


class TestPoiseuille:
    def poiseuille_problem(self, eta=1.0, rho=1.0):
        material = CarreauYasudaParams(eta_0=eta, eta_inf=0.0, lam=1.0, a=1.0,
                                       n=1.0, rho=rho)

        def parabola(x, t):
            return np.column_stack([4.0 * x[:, 1] * (1.0 - x[:, 1]),
                                    np.zeros(len(x))])

        specs = tuple(DirichletSpec(tag=t, components=(0, 1), profile=parabola)
                      for t in WALLS + ("initial",))
        return FomProblem(name="poiseuille", material=material, dirichlet=specs,
                          amplitudes={}, body_force=BodyForce((8.0 * eta / rho, 0.0)))

    def test_converges_with_body_force(self):
        mesh = channel_mesh(n=4, levels=4)
        prob = self.poiseuille_problem()
        sol = solve_fom(mesh, prob)
        assert sol.converged
        dm = build_dof_map(mesh, prob.dirichlet)
        lifts = build_lifting(mesh, prob.dirichlet, {})
        u = sol.velocity_field(dm, lifts)
        # discrete solution should sit near the exact parabola at free nodes
        exact = np.column_stack([4.0 * mesh.nodes[:, 1] * (1.0 - mesh.nodes[:, 1]),
                                 np.zeros(mesh.n_nodes)])
        err = np.abs(u - exact).max()
        assert err < 0.05


class TestSnapshots:
    def test_roundtrip(self, tmp_path):
        mesh = channel_mesh(n=2, levels=3)
        sol = solve_fom(mesh, couette_problem())
        path = tmp_path / "snap.bin"
        write_snapshot(path, sol, extra_header={"sample_index": 7})
        header, back = read_snapshot(path, mesh_hash=mesh.content_hash())
        np.testing.assert_array_equal(back.v, sol.v)
        np.testing.assert_array_equal(back.p, sol.p)
        assert header["sample_index"] == 7
        assert back.case_id == "couette"

    def test_mesh_hash_mismatch_is_hard_error(self, tmp_path):
        mesh = channel_mesh(n=2, levels=3)
        sol = solve_fom(mesh, couette_problem())
        path = tmp_path / "snap.bin"
        write_snapshot(path, sol)
        with pytest.raises(ArtifactError, match="mesh"):
            read_snapshot(path, mesh_hash="deadbeef")

    def test_missing_array_or_bad_header_is_artifact_error(self, tmp_path):
        path = tmp_path / "snap.bin"
        head = {"case_id": "couette", "mesh_hash": "m", "mu": []}
        for header, arrays in ((head, {"p": np.zeros(3)}),
                               (head, {"v": np.zeros(3)}),
                               (dict(head, mu=["fast"]),
                                {"v": np.zeros(3), "p": np.zeros(3)})):
            write_artifact(path, "snapshot", header, arrays)
            with pytest.raises(ArtifactError, match="malformed snapshot"):
                read_snapshot(path)
