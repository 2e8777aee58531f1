"""Offline projection and online reduced solves, checked against the
full-order solver on a small duct with a parabolic inflow."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from stmor.constitutive import (SEMANTICS_BC_SCALE, BodyForce,
                                CarreauYasudaParams, ParameterError,
                                ParameterSpace, field_values, relative_box)
from stmor.eim import EimApproximation, FieldSampleSet, eim_greedy
from stmor.fom import (DirichletSpec, FomAssembler, FomProblem, build_dof_map,
                       build_lifting, combine_liftings, fom_inner_products,
                       solve_fom)
from stmor.io import ArtifactError, read_artifact, write_artifact
from stmor.mesh import extrude, interval_mesh, rectangle_mesh
from stmor.pod import assemble_basis, compute_pod
from stmor.rom import (MagicElementData, ReducedSolution, RomError,
                       RomPackage, assemble_rom, attach_basis, project_fields,
                       project_offline, read_rom, reconstruct, rom_info,
                       solve_rom, truncate, write_rom)

MAT = CarreauYasudaParams(eta_0=0.5, eta_inf=0.05, lam=1.0, a=2.0, n=0.5,
                          rho=1.3)
TRAIN_MUS = [np.array([0.95]), np.array([1.0]), np.array([1.05])]


def _inflow(x, t):
    y = x[:, 1]
    return np.column_stack([4.0 * y * (1.0 - y), np.zeros(y.size)])


def _zero2(x, t):
    return np.zeros((x.shape[0], 2))


def _zero1(x, t):
    return np.zeros((x.shape[0], 1))


def duct_specs():
    return (
        DirichletSpec("dirichlet:left", (0, 1), _inflow, group="inflow"),
        DirichletSpec("initial", (0, 1), _inflow, group="inflow"),
        DirichletSpec("dirichlet:top", (0, 1), _zero2),
        DirichletSpec("dirichlet:bottom", (0, 1), _zero2),
        DirichletSpec("dirichlet:right", (1,), _zero1),
    )


def gram_norm(M, x):
    return float(np.sqrt(abs(x @ (M @ x))))


@pytest.fixture(scope="module")
def duct():
    """Small flow case, its training snapshots, basis, and projected package.

    Break spacings are deliberately uneven: on a perfectly uniform grid the
    per-level outlet couplings become proportional and a decaying-in-time
    spatially constant pressure mode turns the system exactly singular.
    """
    spatial = rectangle_mesh(np.array([0.0, 0.35, 0.62, 1.0]),
                             np.array([0.0, 0.42, 0.71, 1.0]),
                             "dirichlet:left", "dirichlet:right",
                             "dirichlet:bottom", "dirichlet:top")
    mesh = extrude(spatial, np.array([0.0, 0.28, 0.61, 1.0]))
    specs = duct_specs()
    space = ParameterSpace(box=relative_box(("u_in",), (1.0,), 0.05),
                           semantics=SEMANTICS_BC_SCALE, targets=("inflow",))
    problem = FomProblem(name="mini-duct", material=MAT, dirichlet=specs,
                         amplitudes={"inflow": 1.0}, space=space)
    asm = FomAssembler(mesh)
    dof_map = build_dof_map(mesh, specs)
    grams = fom_inner_products(mesh, asm)

    sols, u_fulls, lifts_mu = [], [], []
    for mu in TRAIN_MUS:
        sol = solve_fom(mesh, problem, mu=mu, picard_tol=1e-12, picard_max=60,
                        assembler=asm, dof_map=dof_map)
        _, amps = problem.effective(mu)
        lf = build_lifting(mesh, specs, amps)
        sols.append(sol)
        lifts_mu.append(lf)
        u_fulls.append(sol.velocity_field(dof_map, lf))

    V = np.stack([dof_map.expand(s.v).ravel() for s in sols])
    P = np.stack([s.p for s in sols])
    modes_v, spec_v = compute_pod(V, gram=grams["K_u"], energy_threshold=1.0,
                                  rank_cutoff=1e-14)
    modes_p, spec_p = compute_pod(P, gram=grams["M_p"], energy_threshold=1.0,
                                  rank_cutoff=1e-14)
    liftings = build_lifting(mesh, specs, problem.amplitudes)
    basis = assemble_basis(modes_v, modes_p, liftings, gram_v=grams["K_u"],
                           spectrum_v=spec_v, spectrum_p=spec_p,
                           mesh_hash=mesh.content_hash(), case_id=problem.name)

    eims = {}
    for tag, col in (("eta", 1), ("tau", 2)):
        fields = np.column_stack(
            [asm.element_fields(u, problem.effective(mu)[0])[col]
             for u, mu in zip(u_fulls, TRAIN_MUS)])
        approx = eim_greedy(FieldSampleSet(tag, fields), tol=1e-14, q_max=16)
        approx.mesh_hash = mesh.content_hash()
        eims[tag] = approx

    pkg = project_offline(mesh, problem, basis, eims["eta"], eims["tau"],
                          dof_map=dof_map, assembler=asm)
    return SimpleNamespace(mesh=mesh, specs=specs, problem=problem, asm=asm,
                           dof_map=dof_map, grams=grams, sols=sols,
                           u_fulls=u_fulls, lifts_mu=lifts_mu, basis=basis,
                           modes_v=modes_v, modes_p=modes_p,
                           liftings=liftings, eims=eims, pkg=pkg)


def blocks(pkg):
    """The projected blocks, read back out of their slots of pkg.K and pkg.R."""
    n_u, nl, qe, qt = pkg.n_u, pkg.n_lifts, pkg.q_eta, pkg.q_tau
    K, R = pkg.K, pkg.R
    v, p = slice(0, n_u), slice(n_u, None)
    a, c, s = slice(2, 2 + qe), slice(2 + qe, 2 + qe + qt), slice(2 + qe + qt, None)
    return {"E": K[0, v, v], "A": K[a, v, v], "B": K[1, p, v],
            "C": K[c, p, v], "S": K[s, p, p], "H": R[0, :nl, v],
            "F_body": R[0, nl, v], "F_trac": R[1, nl, v], "G": R[1, :nl, p],
            "L": R[a, :nl, v], "D": R[c, :nl, p]}


def field_errors(basis, grams, reduced, u_ref_flat, p_ref):
    u_r, p_r = reconstruct(basis, reduced)
    eu = gram_norm(grams["K_u"], u_r - u_ref_flat) \
        / gram_norm(grams["K_u"], u_ref_flat)
    ep = gram_norm(grams["M_p"], p_r - p_ref) / gram_norm(grams["M_p"], p_ref)
    return eu, ep


class TestProjection:
    def test_block_dimension_contract(self, duct):
        pkg, basis = duct.pkg, duct.basis
        n_u, n_p, nl = basis.n_u, basis.n_p, basis.n_lifts
        qe = duct.eims["eta"].n_terms
        qt = duct.eims["tau"].n_terms
        assert pkg.n_u == n_u and pkg.n_p == n_p and pkg.n_lifts == nl
        q = 2 + qe + 2 * qt
        assert pkg.K.shape == (q, n_u + n_p, n_u + n_p)
        assert pkg.R.shape == (q, nl + 1, n_u + n_p)
        assert pkg.n_reduced == n_u + n_p < pkg.n_fom_dofs
        assert pkg.lift_groups == ("fixed", "inflow")

    def test_lift_rows_and_columns_vanish(self, duct):
        b, nl = blocks(duct.pkg), duct.pkg.n_lifts
        for blk in (b["E"], b["B"]) + tuple(b["A"]) + tuple(b["C"]):
            assert np.all(blk[..., :nl] == 0.0)
        for blk in (b["E"],) + tuple(b["A"]):
            assert np.all(blk[:nl, :] == 0.0)
        assert np.all(b["F_body"][:nl] == 0.0)
        assert np.all(b["F_trac"][:nl] == 0.0)

    def test_viscous_blocks_symmetric(self, duct):
        nl = duct.pkg.n_lifts
        for Aq in blocks(duct.pkg)["A"]:
            sub = Aq[nl:, nl:]
            assert np.max(np.abs(sub - sub.T)) <= 1e-12 * max(
                1.0, np.max(np.abs(sub)))

    def test_blocks_match_dense_restriction_oracle(self, duct):
        """Restrict-then-project computed densely must equal the stored blocks."""
        prob = replace(duct.problem, body_force=BodyForce((0.3, -0.1)),
                       neumann={"dirichlet:right": (0.2, 0.1)})
        pkg = project_offline(duct.mesh, prob, duct.basis,
                              duct.eims["eta"], duct.eims["tau"],
                              dof_map=duct.dof_map, assembler=duct.asm)
        b = blocks(pkg)
        asm, dof_map, basis = duct.asm, duct.dof_map, duct.basis
        free = dof_map.free_full
        nl = basis.n_lifts
        Zf = basis.Z_v[free, :]
        Zp = basis.Z_p
        lifts = basis.Z_v[:, :nl]

        def close(got, want):
            tol = 1e-11 * max(1.0, float(np.max(np.abs(want))) if want.size else 0.0)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=tol)

        Mt = asm.mass_time()
        close(b["E"], Zf.T @ Mt[free][:, free].toarray() @ Zf)
        close(b["H"], (-Zf.T @ (Mt @ lifts)[free]).T)
        Bf = asm.divergence()
        close(b["B"], Zp.T @ Bf[:, free].toarray() @ Zf)
        close(b["G"], (-Zp.T @ (Bf @ lifts)).T)
        for q in range(pkg.q_eta):
            Aq = asm.viscous(duct.eims["eta"].basis[:, q])
            close(b["A"][q], Zf.T @ Aq[free][:, free].toarray() @ Zf)
            close(b["L"][q], (-Zf.T @ (Aq @ lifts)[free]).T)
        for q in range(pkg.q_tau):
            Cq = asm.stab_pv(duct.eims["tau"].basis[:, q])
            close(b["C"][q], Zp.T @ Cq[:, free].toarray() @ Zf)
            close(b["D"][q], (-Zp.T @ (Cq @ lifts)).T)
            Sq = asm.stab_pp(duct.eims["tau"].basis[:, q])
            close(b["S"][q], Zp.T @ Sq.toarray() @ Zp)
        close(b["F_body"], Zf.T @ asm.body_rhs((0.3, -0.1), 1.0)[free])
        close(b["F_trac"],
              Zf.T @ asm.traction_rhs({"dirichlet:right": (0.2, 0.1)})[free])

    def test_scalar_blocks_on_two_element_strip(self):
        """Hand-derived loads on the 2-triangle extrusion of the unit interval.

        Lift = 1 at nodes (0,0),(1,0),(0,1); pressure test vector = e_0.
        Then -(B l)|_0 = 1/6, the unit-weight pressure stabilization gram
        gives S|_00 = 1/2, and -(C l)|_0 = 1/2 at unit weight.
        """
        spatial = interval_mesh(0.0, 1.0, 1)
        mesh = extrude(spatial, np.array([0.0, 1.0]))

        def one(x, t):
            return np.ones((x.shape[0], 1))

        def none(x, t):
            return np.zeros((x.shape[0], 0))

        specs = (DirichletSpec("dirichlet:left", (0,), one),
                 DirichletSpec("initial", (0,), one),
                 DirichletSpec("dirichlet:right", (), none))
        problem = FomProblem(name="strip", material=MAT, dirichlet=specs,
                             amplitudes={})
        liftings = build_lifting(mesh, specs, {})
        Z_p = np.zeros((4, 1))
        Z_p[0, 0] = 1.0
        basis = assemble_basis(np.zeros((4, 0)), Z_p, liftings,
                               mesh_hash=mesh.content_hash())
        ones_eim = {}
        for tag in ("eta", "tau"):
            ones_eim[tag] = EimApproximation(
                tag=tag, basis=np.ones((2, 1)), magic=np.array([0]),
                T=np.array([[1.0]]), history=np.array([1.0, 0.0]),
                mesh_hash=mesh.content_hash())
        pkg = project_offline(mesh, problem, basis,
                              ones_eim["eta"], ones_eim["tau"])
        assert pkg.n_u == 1 and pkg.n_p == 1 and pkg.n_lifts == 1
        b = blocks(pkg)
        np.testing.assert_allclose(b["G"], [[1.0 / 6.0]], atol=1e-15)
        np.testing.assert_allclose(b["S"][0], [[0.5]], atol=1e-15)
        np.testing.assert_allclose(b["D"][0], [[0.5]], atol=1e-15)
        for name in ("E", "B", "H", "F_body", "F_trac"):
            assert np.all(b[name] == 0.0)
        assert np.all(b["A"] == 0.0) and np.all(b["C"] == 0.0)
        assert np.all(b["L"] == 0.0)

    def test_rejects_mismatched_inputs(self, duct):
        bad_basis = assemble_basis(duct.modes_v, duct.modes_p,
                                   list(reversed(duct.liftings)),
                                   mesh_hash=duct.mesh.content_hash())
        with pytest.raises(RomError, match="lifting"):
            project_offline(duct.mesh, duct.problem, bad_basis,
                            duct.eims["eta"], duct.eims["tau"],
                            dof_map=duct.dof_map, assembler=duct.asm)
        stale = replace(duct.eims["eta"], mesh_hash="deadbeef")
        with pytest.raises(RomError, match="mesh"):
            project_offline(duct.mesh, duct.problem, duct.basis,
                            stale, duct.eims["tau"],
                            dof_map=duct.dof_map, assembler=duct.asm)
        with pytest.raises(RomError, match="eta"):
            project_offline(duct.mesh, duct.problem, duct.basis,
                            duct.eims["tau"], duct.eims["tau"],
                            dof_map=duct.dof_map, assembler=duct.asm)

    def test_rejects_magic_outside_mesh(self, duct):
        n_e = duct.mesh.n_elements
        for bad in (-1, n_e):
            eta = replace(duct.eims["eta"],
                          magic=np.r_[duct.eims["eta"].magic[:-1], bad])
            with pytest.raises(RomError, match="magic element outside"):
                project_offline(duct.mesh, duct.problem, duct.basis,
                                eta, duct.eims["tau"],
                                dof_map=duct.dof_map, assembler=duct.asm)

    def test_rejects_cases_without_natural_gauge(self):
        spatial = rectangle_mesh(np.linspace(0.0, 1.0, 3),
                                 np.linspace(0.0, 1.0, 3),
                                 "dirichlet:left", "dirichlet:right",
                                 "dirichlet:bottom", "dirichlet:top")
        mesh = extrude(spatial, np.array([0.0, 0.5, 1.0]))
        specs = tuple(DirichletSpec(tag, (0, 1), _zero2) for tag in
                      ("dirichlet:left", "dirichlet:right", "dirichlet:bottom",
                       "dirichlet:top", "initial"))
        problem = FomProblem(name="closed", material=MAT, dirichlet=specs,
                             amplitudes={})
        liftings = build_lifting(mesh, specs, {})
        Z_p = np.zeros((mesh.n_nodes, 1))
        Z_p[0, 0] = 1.0
        basis = assemble_basis(np.zeros((mesh.n_nodes * 2, 0)), Z_p, liftings,
                               mesh_hash=mesh.content_hash())
        eim = EimApproximation(tag="eta", basis=np.ones((mesh.n_elements, 1)),
                               magic=np.array([0]), T=np.array([[1.0]]),
                               history=np.array([1.0, 0.0]),
                               mesh_hash=mesh.content_hash())
        with pytest.raises(RomError, match="gauge"):
            project_offline(mesh, problem, basis, eim, replace(eim, tag="tau"))


class TestAssemble:
    def test_deterministic_and_finite(self, duct):
        pkg = duct.pkg
        s = pkg.lift_coefficients(pkg.effective(TRAIN_MUS[1])[1])
        v0 = np.zeros(pkg.n_u)
        v0[:pkg.n_lifts] = s
        K1, r1 = assemble_rom(pkg, v0, TRAIN_MUS[1])
        K2, r2 = assemble_rom(pkg, v0, TRAIN_MUS[1])
        assert np.array_equal(K1, K2) and np.array_equal(r1, r2)
        assert np.all(np.isfinite(K1)) and np.all(np.isfinite(r1))
        assert np.array_equal(r1[:pkg.n_lifts], s)
        nl = pkg.n_lifts
        assert np.array_equal(K1[:nl, :nl], np.eye(nl))
        assert np.all(K1[:nl, nl:] == 0.0)

    def test_projected_snapshot_nearly_solves_reduced_system(self, duct):
        pkg, grams = duct.pkg, duct.grams
        for sol, u_full, mu in zip(duct.sols, duct.u_fulls, TRAIN_MUS):
            s = pkg.lift_coefficients(pkg.effective(mu)[1])
            v_N, p_N = project_fields(duct.basis, u_full.ravel(), sol.p,
                                      grams["K_u"], grams["M_p"], s)
            K, rhs = assemble_rom(pkg, v_N, mu)
            x = np.concatenate([v_N, p_N])
            res = np.linalg.norm(K @ x - rhs) / np.linalg.norm(rhs)
            assert res <= 1e-6

    def test_stacks_match_blockwise_system(self, duct):
        """theta @ K and [s, 1] @ (theta @ R) equal the system written out
        block by block, with the lift rows replaced by the pins."""
        prob = replace(duct.problem, body_force=BodyForce((0.3, -0.1)),
                       neumann={"dirichlet:right": (0.2, 0.1)})
        pkg = project_offline(duct.mesh, prob, duct.basis,
                              duct.eims["eta"], duct.eims["tau"],
                              dof_map=duct.dof_map, assembler=duct.asm)
        b, nl, mu = blocks(pkg), pkg.n_lifts, TRAIN_MUS[2]
        v = solve_rom(duct.pkg, mu=mu).v_N
        params, amps = pkg.effective(mu)
        s, rho = pkg.lift_coefficients(amps), params.rho
        m = pkg.data_all
        _, eta, tau = field_values(m.gx, m.h_t, m.h_s, m.velocity(v), params)
        c_e = pkg.eim_eta.coefficients(eta[:pkg.q_eta])
        c_t = pkg.eim_tau.coefficients(tau[pkg.q_eta:])

        def term(c, name):
            return np.tensordot(c, b[name], axes=1)

        want_K = np.block([[rho * b["E"] + term(c_e, "A"), -b["B"].T],
                           [b["B"] + term(c_t, "C"), term(c_t, "S") / rho]])
        want_r = np.concatenate([
            rho * (s @ b["H"] + b["F_body"]) + b["F_trac"] + s @ term(c_e, "L"),
            s @ b["G"] + s @ term(c_t, "D")])
        want_K[:nl] = 0.0
        want_K[range(nl), range(nl)] = 1.0
        want_r[:nl] = s
        K, rhs = assemble_rom(pkg, v, mu)
        np.testing.assert_allclose(K, want_K, rtol=0.0,
                                   atol=1e-13 * np.abs(want_K).max())
        np.testing.assert_allclose(rhs, want_r, rtol=0.0,
                                   atol=1e-13 * np.abs(want_r).max())

    def test_bad_iterate_shape_rejected(self, duct):
        with pytest.raises(RomError, match="shape"):
            assemble_rom(duct.pkg, np.zeros(duct.pkg.n_u + 1), TRAIN_MUS[0])


class TestSolve:
    def test_reproduces_training_snapshots(self, duct):
        for sol, u_full, mu in zip(duct.sols, duct.u_fulls, TRAIN_MUS):
            red = solve_rom(duct.pkg, mu=mu, picard_tol=1e-10)
            assert red.converged
            eu, ep = field_errors(duct.basis, duct.grams, red,
                                  u_full.ravel(), sol.p)
            assert eu <= 1e-6
            assert ep <= 1e-6

    def test_identity_basis_reproduces_fom(self, duct):
        dof_map, mesh = duct.dof_map, duct.mesh
        n_free = dof_map.n_velocity
        modes = np.zeros((mesh.n_nodes * 2, n_free))
        modes[dof_map.free_full, np.arange(n_free)] = 1.0
        basis = assemble_basis(modes, np.eye(dof_map.n_pressure),
                               duct.liftings, mesh_hash=mesh.content_hash(),
                               case_id="mini-duct")
        pkg = project_offline(mesh, duct.problem, basis, duct.eims["eta"],
                              duct.eims["tau"], dof_map=dof_map,
                              assembler=duct.asm)
        mu = TRAIN_MUS[1]
        red = solve_rom(pkg, mu=mu, picard_tol=1e-12, picard_max=60)
        eu, ep = field_errors(basis, duct.grams, red,
                              duct.u_fulls[1].ravel(), duct.sols[1].p)
        assert eu <= 1e-8
        assert ep <= 1e-8

    def test_lift_coefficients_pinned(self, duct):
        mu = np.array([0.97])
        red = solve_rom(duct.pkg, mu=mu)
        s = duct.pkg.lift_coefficients(duct.pkg.effective(mu)[1])
        assert np.max(np.abs(red.v_N[:duct.pkg.n_lifts] - s)) <= 1e-13
        assert red.converged and red.iterations
        assert {"iteration", "rel_update"} <= set(red.iterations[0])

    def test_unseen_parameter_stays_accurate(self, duct):
        mu = np.array([0.975])
        red = solve_rom(duct.pkg, mu=mu, picard_tol=1e-10)
        sol = solve_fom(duct.mesh, duct.problem, mu=mu, picard_tol=1e-12,
                        assembler=duct.asm, dof_map=duct.dof_map)
        lf = build_lifting(duct.mesh, duct.specs,
                           duct.problem.effective(mu)[1])
        u_full = sol.velocity_field(duct.dof_map, lf)
        eu, ep = field_errors(duct.basis, duct.grams, red,
                              u_full.ravel(), sol.p)
        assert eu <= 1e-2
        assert ep <= 1e-2

    def test_empty_picard_budget_rejected(self, duct):
        with pytest.raises(RomError, match="picard_max"):
            solve_rom(duct.pkg, mu=TRAIN_MUS[0], picard_max=0)

    def test_stall_raises_when_strict(self, duct):
        with pytest.raises(RomError, match=r"N_u=%d, N_p=%d\) stalled"
                           % (duct.pkg.n_u, duct.pkg.n_p)):
            solve_rom(duct.pkg, mu=TRAIN_MUS[0], picard_tol=1e-300,
                      picard_max=1)

    def test_stall_returns_last_iterate_when_not_strict(self, duct, caplog):
        with caplog.at_level("WARNING", logger="stmor.rom"):
            red = solve_rom(duct.pkg, mu=TRAIN_MUS[0], picard_tol=1e-300,
                            picard_max=1, strict=False)
        assert not red.converged
        assert len(red.iterations) == 1
        assert [r.name for r in caplog.records] == ["stmor.rom"]
        assert "stalled" in caplog.text

    def test_mu_outside_box_rejected(self, duct):
        with pytest.raises(ParameterError, match="outside"):
            solve_rom(duct.pkg, mu=np.array([2.0]))

    def test_missing_lift_amplitude_rejected(self, duct):
        pkg = replace(duct.pkg, amplitudes={}, space=None)
        with pytest.raises(RomError, match="amplitude"):
            solve_rom(pkg)

    def test_singular_reduced_system_reports_sizes(self):
        mat = CarreauYasudaParams(eta_0=1.0, eta_inf=0.0, lam=1.0, a=2.0,
                                  n=1.0, rho=1.0)
        online = {tag: EimApproximation(tag=tag, basis=None, magic=np.array([0]),
                                        T=np.eye(1), history=np.array([1.0, 0.0]))
                  for tag in ("eta", "tau")}
        data = MagicElementData(gx=np.zeros((1, 3, 2)), h_t=np.ones(1),
                                h_s=np.ones(1), Z_rows=np.zeros((1, 3, 2, 1)))
        pkg = RomPackage(case_id="x", mesh_hash="", d=2, n_nodes=3,
                         n_fom_dofs=9, lift_groups=(), material=mat,
                         amplitudes={}, space=None,
                         K=np.zeros((5, 2, 2)), R=np.zeros((5, 1, 2)),
                         eim_eta=online["eta"], eim_tau=online["tau"],
                         data_eta=data, data_tau=data)
        with pytest.raises(RomError, match=r"N_u=1, N_p=1"):
            solve_rom(pkg)

    def test_dimension_validation(self, duct):
        with pytest.raises(RomError, match="dimension mismatch"):
            replace(duct.pkg, K=duct.pkg.K[:, :, 1:])
        with pytest.raises(RomError, match="dimension mismatch"):
            replace(duct.pkg, R=duct.pkg.R[1:])


class TestTruncate:
    def test_truncated_solve_and_ordering(self, duct):
        pkg = duct.pkg
        nl = pkg.n_lifts
        small = truncate(pkg, nl + 1, 1)
        assert small.n_u == nl + 1 and small.n_p == 1
        assert small.basis.Z_v.shape == (duct.basis.Z_v.shape[0], nl + 1)
        assert np.array_equal(small.basis.Z_v, duct.basis.Z_v[:, :nl + 1])
        assert small.data_eta.Z_rows.shape[-1] == nl + 1

        mu = TRAIN_MUS[0]
        red_small = solve_rom(small, mu=mu, picard_tol=1e-10, picard_max=80,
                              strict=False)
        red_full = solve_rom(pkg, mu=mu, picard_tol=1e-10)
        eu_small, _ = field_errors(small.basis, duct.grams, red_small,
                                   duct.u_fulls[0].ravel(), duct.sols[0].p)
        eu_full, _ = field_errors(duct.basis, duct.grams, red_full,
                                  duct.u_fulls[0].ravel(), duct.sols[0].p)
        assert eu_full <= eu_small + 1e-12

    def test_truncate_bounds(self, duct):
        pkg = duct.pkg
        with pytest.raises(RomError, match="n_u"):
            truncate(pkg, pkg.n_lifts - 1, 1)
        with pytest.raises(RomError, match="n_u"):
            truncate(pkg, pkg.n_u + 1, 1)
        with pytest.raises(RomError, match="n_p"):
            truncate(pkg, pkg.n_u, 0)


class TestReconstruct:
    def test_unit_lift_coefficient_returns_lifting(self, duct):
        pkg = duct.pkg
        v_N = np.zeros(pkg.n_u)
        v_N[1] = 1.0      # the inflow lifting column
        red = ReducedSolution(v_N=v_N, p_N=np.zeros(pkg.n_p),
                              mu=np.array([]), converged=True, iterations=[])
        u, p = reconstruct(duct.basis, red)
        np.testing.assert_array_equal(u, duct.basis.Z_v[:, 1])
        assert np.all(p == 0.0)

    def test_projection_matches_direct_projector(self, duct):
        from stmor.pod import projection_error
        basis_t = assemble_basis(duct.modes_v[:, :1], duct.modes_p[:, :1],
                                 duct.liftings,
                                 mesh_hash=duct.mesh.content_hash())
        K_u = duct.grams["K_u"]
        for sol, u_full, mu in zip(duct.sols, duct.u_fulls, TRAIN_MUS):
            s = duct.pkg.lift_coefficients(duct.pkg.effective(mu)[1])
            v_N, p_N = project_fields(basis_t, u_full.ravel(), sol.p,
                                      K_u, duct.grams["M_p"], s)
            red = ReducedSolution(v_N=v_N, p_N=p_N, mu=mu, converged=True,
                                  iterations=[])
            u_r, _ = reconstruct(basis_t, red)
            err = gram_norm(K_u, u_full.ravel() - u_r)
            u_hom = u_full.ravel() - basis_t.Z_v[:, :2] @ s
            want = projection_error(duct.modes_v[:, :1], K_u, u_hom)
            assert abs(err - want) <= 1e-12 * max(1.0, want)

    def test_dirichlet_data_exact_after_solve(self, duct):
        mu = np.array([1.02])
        red = solve_rom(duct.pkg, mu=mu)
        u, _ = reconstruct(duct.pkg, red)
        lf = build_lifting(duct.mesh, duct.specs,
                           duct.problem.effective(mu)[1])
        l_full = combine_liftings(lf, duct.mesh.n_nodes, 2).ravel()
        mask = duct.dof_map.constrained.ravel()
        assert np.max(np.abs(u[mask] - l_full[mask])) <= 1e-10

    def test_requires_basis(self, duct):
        red = solve_rom(duct.pkg, mu=TRAIN_MUS[0])
        bare = replace(duct.pkg, basis=None)
        with pytest.raises(RomError, match="basis"):
            reconstruct(bare, red)
        short = ReducedSolution(v_N=np.zeros(1), p_N=np.zeros(1),
                                mu=np.array([]), converged=True, iterations=[])
        with pytest.raises(RomError, match="match"):
            reconstruct(duct.basis, short)


class TestPersistence:
    def test_roundtrip_preserves_online_behavior(self, duct, tmp_path):
        path = tmp_path / "duct.rom"
        write_rom(path, duct.pkg)
        header, loaded = read_rom(path, mesh_hash=duct.mesh.content_hash())
        assert header["case_id"] == "mini-duct"
        assert loaded.n_u == duct.pkg.n_u and loaded.n_p == duct.pkg.n_p
        assert loaded.lift_groups == duct.pkg.lift_groups
        assert loaded.space.box.names == ("u_in",)
        assert loaded.material == duct.pkg.material
        assert np.array_equal(loaded.K, duct.pkg.K)
        assert np.array_equal(loaded.R, duct.pkg.R)
        for tag in ("eta", "tau"):
            eim = getattr(loaded, "eim_" + tag)
            assert eim.basis is None and eim.n_terms == duct.eims[tag].n_terms
            np.testing.assert_array_equal(eim.magic, duct.eims[tag].magic)
        mu = np.array([1.01])
        a = solve_rom(duct.pkg, mu=mu)
        b = solve_rom(loaded, mu=mu)
        assert np.array_equal(a.v_N, b.v_N)
        assert np.array_equal(a.p_N, b.p_N)

    def test_mesh_hash_mismatch_rejected(self, duct, tmp_path):
        path = tmp_path / "duct.rom"
        write_rom(path, duct.pkg)
        with pytest.raises(ArtifactError, match="mesh"):
            read_rom(path, mesh_hash="0" * 16)

    def test_malformed_header_rejected(self, duct, tmp_path):
        path = tmp_path / "bad.rom"
        for bad in ({"space": {"names": ["u_in"]}},
                    {"material": {"rho": 1.0}}, {"lift_groups": 3}):
            write_rom(path, duct.pkg, extra_header=bad)
            with pytest.raises(ArtifactError, match="malformed rom package"):
                read_rom(path)

    def test_eleven_block_layout_rejected(self, duct, tmp_path):
        """A package file holding the separate E, A, ..., D blocks is refused."""
        path = tmp_path / "duct.rom"
        write_rom(path, duct.pkg)
        header, arrays = read_artifact(path, expect_kind="rom")
        del header["schema_version"], header["kind"]
        old = dict(blocks(duct.pkg),
                   **{k: v for k, v in arrays.items() if k not in ("K", "R")})
        write_artifact(path, "rom", header, old)
        with pytest.raises(ArtifactError, match="malformed rom package"):
            read_rom(path)

    def test_attach_basis_after_load(self, duct, tmp_path):
        path = tmp_path / "trunc.rom"
        small = truncate(duct.pkg, duct.pkg.n_lifts + 1, 1)
        write_rom(path, small)
        _, loaded = read_rom(path)
        assert loaded.basis is None
        attach_basis(loaded, duct.basis)
        assert loaded.basis.Z_v.shape[1] == loaded.n_u
        red = solve_rom(loaded, mu=TRAIN_MUS[2], strict=False, picard_max=80)
        u, p = reconstruct(loaded, red)
        assert u.shape == (duct.mesh.n_nodes * 2,)
        wrong = replace(duct.basis, Z_p=duct.basis.Z_p[:, :0])
        with pytest.raises(RomError, match="cannot serve"):
            attach_basis(loaded, wrong)

    def test_rom_info_reports_dimensions(self, duct):
        info = rom_info(duct.pkg)
        assert info["n_u"] == duct.pkg.n_u
        assert info["n_p"] == duct.pkg.n_p
        assert info["q_eta"] == duct.eims["eta"].n_terms
        assert info["q_tau"] == duct.eims["tau"].n_terms
        assert info["n_reduced"] < info["n_fom_dofs"]
        assert info["parameters"]["names"] == ["u_in"]
        assert info["reduction_factor"] > 1.0
