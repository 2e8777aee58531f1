"""Offline projection and online reduced solves, checked against the
full-order solver on a small duct with a parabolic inflow."""

import re
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import block_diag

from stmor import cases, fom, rom
from stmor.analysis import error_pressure, error_velocity, offline_build
from stmor.constitutive import (SEMANTICS_BC_SCALE, SEMANTICS_MATERIAL, BodyForce,
                                CarreauYasudaParams, ParameterError,
                                ParameterSpace, field_values, relative_box,
                                shear_rate_squared, tau_scales)
from stmor.eim import EimApproximation, FieldSampleSet, eim_greedy
from stmor.fom import (DirichletSpec, FomAssembler, FomProblem, build_dof_map,
                       build_lifting, combine_liftings, fom_inner_products,
                       lift_coefficients, pressure_pins, solve_fom)
from stmor.io import ArtifactError, read_artifact, write_artifact
from stmor.mesh import extrude, interval_mesh, rectangle_mesh
from stmor.pod import assemble_basis, compute_pod, project_coefficients
from stmor.rom import (MagicElementData, ReducedSolution, RomError,
                       RomPackage, assemble_rom, fit_start, mu_terms, project_offline,
                       read_rom, reconstruct, rom_info, solve_rom,
                       strain_operator, truncate, write_rom)

from test_constitutive import shear_rate
from test_fom import (CountingNumpy, coo_operators, first_system_sv_ratio,
                      kernel_before_squares, plain_picard)

MAT = CarreauYasudaParams(eta_0=0.5, eta_inf=0.05, lam=1.0, a=2.0, n=0.5,
                          rho=1.3)
TRAIN_MUS = [np.array([0.95]), np.array([1.0]), np.array([1.05])]
# each array of a rom file, by its key, with the name read_rom's refusal of it
# gives; and three edits that leave an array of the wrong rank
ROM_ARRAY_NAMES = dict(K="K", R="R", start="start", **{
    tag + "_" + key: tag + " " + name for tag in ("eta", "tau")
    for key, name in (("magic", "magic"), ("history", "history"), ("gx", "gx"),
                      ("ht", "h_t"), ("hs", "h_s"), ("Z", "Z_rows"))})
WRONG_RANK = {"0-d": lambda a: a.reshape(-1)[:1].reshape(()),
              "first-axis-dropped": lambda a: a[0],
              "last-axis-dropped": lambda a: a[..., 0]}


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


def duct_mesh(x_breaks, y_breaks, levels):
    spatial = rectangle_mesh(np.array(x_breaks), np.array(y_breaks),
                             "dirichlet:left", "dirichlet:right",
                             "dirichlet:bottom", "dirichlet:top")
    return extrude(spatial, np.array(levels))


def duct_problem():
    space = ParameterSpace(box=relative_box(("u_in",), (1.0,), 0.05),
                           semantics=SEMANTICS_BC_SCALE, targets=("inflow",))
    return FomProblem(name="mini-duct", material=MAT, dirichlet=duct_specs(),
                      amplitudes={"inflow": 1.0}, space=space)


def test_uniform_duct_pins_its_mixed_level():
    """On uniform breaks the duct's outlet rows of -B^T are proportional on
    every level, so one mix of the levels is no equation's: it gets one pin,
    and its first system and its solve are those of a gauged system."""
    mesh = duct_mesh(*[np.linspace(0.0, 1.0, 4)] * 3)
    problem = duct_problem()
    np.testing.assert_array_equal(pressure_pins(mesh, build_dof_map(mesh, problem.dirichlet)),
                                  [16])
    assert first_system_sv_ratio(mesh, problem) >= 1e-10
    sol = solve_fom(mesh, problem, mu=TRAIN_MUS[1], picard_tol=1e-8, picard_max=60)
    assert sol.converged and len(sol.iterations) <= 8


@pytest.fixture(scope="module")
def duct():
    """Small flow case, its training snapshots, basis, and projected package.

    Break spacings are deliberately uneven: on a uniform grid the per-level
    outlet couplings become proportional, and a spatially constant pressure
    mode that mixes the time levels is left for a pin to fix
    (test_uniform_duct_pins_its_mixed_level).
    """
    mesh = duct_mesh([0.0, 0.35, 0.62, 1.0], [0.0, 0.42, 0.71, 1.0], [0.0, 0.28, 0.61, 1.0])
    specs = duct_specs()
    problem = duct_problem()
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


def coefficient_stacks(pkg, eims):
    """pkg.K and pkg.R over the interpolation coefficients: T^T of the
    pipeline's interpolations eims on the slots of each field undoes the
    fold of project_offline."""
    qe, qt = pkg.q_eta, pkg.q_tau
    out = []
    for stack in (pkg.K, pkg.R):
        stack = stack.copy()
        for approx, lo in ((eims["eta"], 2), (eims["tau"], 2 + qe),
                           (eims["tau"], 2 + qe + qt)):
            hi = lo + approx.n_terms
            stack[lo:hi] = np.tensordot(approx.T.T, stack[lo:hi], axes=1)
        out.append(stack)
    return out


def blocks(pkg, eims):
    """The projected blocks, read back out of their slots of the
    coefficient stacks."""
    n_u, nl, qe, qt = pkg.n_u, pkg.n_lifts, pkg.q_eta, pkg.q_tau
    K, R = coefficient_stacks(pkg, eims)
    v, p = slice(0, n_u), slice(n_u, None)
    a, c, s = slice(2, 2 + qe), slice(2 + qe, 2 + qe + qt), slice(2 + qe + qt, None)
    return {"E": K[0, v, v], "A": K[a, v, v], "B": K[1, p, v],
            "C": K[c, p, v], "S": K[s, p, p], "H": R[0, :nl, v],
            "F_body": R[0, nl, v], "F_trac": R[1, nl, v], "G": R[1, :nl, p],
            "L": R[a, :nl, v], "D": R[c, :nl, p]}


def project_fields(basis, u_full, p_full, gram_v, gram_p, s):
    """Reduced coefficients of full fields: the pinned lifts s plus the gram
    projections of the rest on the (gram-orthonormal) modes."""
    nl = basis.n_lifts
    u_hom = np.asarray(u_full, dtype=np.float64).ravel() - basis.Z_v[:, :nl] @ s
    v_N = np.concatenate([
        s, project_coefficients(basis.Z_v[:, nl:], gram_v, u_hom)])
    return v_N, project_coefficients(basis.Z_p, gram_p, np.asarray(p_full))


def magic_coefficients(pkg, v, params, eims):
    """Interpolation coefficients at v the way the stacks were written:
    nodal velocities at the magic elements, the element-field kernel on
    them, then one triangular solve per field of eims."""
    out = []
    for data, approx, col in ((pkg.data_eta, eims["eta"], 1),
                              (pkg.data_tau, eims["tau"], 2)):
        u = data.Z_rows @ v
        grad = np.einsum("eac,eaj->ecj", u, data.gx)
        values = field_values(shear_rate_squared(grad), (u.mean(axis=1) ** 2).sum(-1),
                              tau_scales(data.h_t, data.h_s), params)
        out.append(approx.coefficients(values[col]))
    return out


def assemble_before_squares(pkg, v, terms):
    """assemble_rom as it was before the kernel took squared invariants: the
    magic elements' gradients and means, reshaped, into the old kernel."""
    params, _, R_mu, theta = terms
    d, qe = pkg.d, pkg.q_eta
    y = (pkg.strain_op @ v).reshape(-1, d * (d + 1))
    _, eta, tau = kernel_before_squares(y[:, :d * d].reshape(-1, d, d), y[:, d * d:],
                                        pkg.tau_scales, params)
    q_t = len(tau) - qe
    theta = np.concatenate((theta[:2], eta[:qe], tau[qe:], tau[qe:] / params.rho))
    assert theta.size == 2 + qe + 2 * q_t
    q, n = pkg.K.shape[:2]
    return (theta @ pkg.K.reshape(q, n * n)).reshape(n, n), theta @ R_mu


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
        b, nl = blocks(duct.pkg, duct.eims), duct.pkg.n_lifts
        for blk in (b["E"], b["B"]) + tuple(b["A"]) + tuple(b["C"]):
            assert np.all(blk[..., :nl] == 0.0)
        for blk in (b["E"],) + tuple(b["A"]):
            assert np.all(blk[:nl, :] == 0.0)
        assert np.all(b["F_body"][:nl] == 0.0)
        assert np.all(b["F_trac"][:nl] == 0.0)

    def test_viscous_blocks_symmetric(self, duct):
        nl = duct.pkg.n_lifts
        for Aq in blocks(duct.pkg, duct.eims)["A"]:
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
        b = blocks(pkg, duct.eims)
        asm, dof_map, basis = duct.asm, duct.dof_map, duct.basis
        free = dof_map.free_full
        nl = basis.n_lifts
        Zf = basis.Z_v[free, :]
        Zp = basis.Z_p
        lifts = basis.Z_v[:, :nl]

        def close(got, want):
            tol = 1e-11 * max(1.0, float(np.max(np.abs(want))) if want.size else 0.0)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=tol)

        ops = coo_operators(asm)
        Mt, Bf = ops.E, ops.B
        close(b["E"], Zf.T @ Mt[free][:, free].toarray() @ Zf)
        close(b["H"], (-Zf.T @ (Mt @ lifts)[free]).T)
        close(b["B"], Zp.T @ Bf[:, free].toarray() @ Zf)
        close(b["G"], (-Zp.T @ (Bf @ lifts)).T)
        for q in range(pkg.q_eta):
            Aq = ops.A(duct.eims["eta"].basis[:, q])
            close(b["A"][q], Zf.T @ Aq[free][:, free].toarray() @ Zf)
            close(b["L"][q], (-Zf.T @ (Aq @ lifts)[free]).T)
        for q in range(pkg.q_tau):
            Cq = ops.C(duct.eims["tau"].basis[:, q])
            close(b["C"][q], Zp.T @ Cq[:, free].toarray() @ Zf)
            close(b["D"][q], (-Zp.T @ (Cq @ lifts)).T)
            Sq = ops.S(duct.eims["tau"].basis[:, q])
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
        b = blocks(pkg, ones_eim)
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

    def test_serves_a_pinned_case(self):
        # all-Dirichlet walls leave each level's pressure to a pin; the
        # reduced pressure basis holds the pinned zeros, so the projection
        # needs no gauge of its own
        cfg = cases.bundled_case("poiseuille-body", n=6)
        mesh = cases.build_mesh(cfg)
        space = ParameterSpace(box=relative_box(("n",), (0.6,), 0.1),
                               semantics=SEMANTICS_MATERIAL)
        problem = replace(cases.build_problem(cfg, mesh), space=space,
                          material=replace(cfg.material, n=0.6))
        mus = [np.array([v]) for v in np.linspace(0.54, 0.66, 5)]
        build = offline_build(mesh, problem, mus, picard_tol=1e-12)
        assert build.assembler.system_pattern(build.dof_map).pins.size == 7
        unseen = np.array([0.615])
        refs = build.solutions + [solve_fom(mesh, problem, mu=unseen, picard_tol=1e-12,
                                            assembler=build.assembler)]
        for mu, ref in zip(mus + [unseen], refs):
            red = solve_rom(build.pkg, mu=mu, picard_tol=1e-12)
            u_rom, p_rom = reconstruct(build.pkg, red)
            lifts = build_lifting(mesh, problem.dirichlet, problem.effective(mu)[1])
            u_ref = ref.velocity_field(build.dof_map, lifts).ravel()
            assert red.converged
            assert error_velocity(u_ref, u_rom, build.grams["K_u"]) <= 1e-6
            assert error_pressure(ref.p, p_rom, build.grams["M_p"]) <= 1e-5


class TestAssemble:
    def test_deterministic_and_finite(self, duct):
        pkg = duct.pkg
        s = lift_coefficients(pkg.lift_groups, pkg.effective(TRAIN_MUS[1])[1], RomError)
        v0 = np.zeros(pkg.n_u)
        v0[:pkg.n_lifts] = s
        K1, r1 = assemble_rom(pkg, v0, mu_terms(pkg, TRAIN_MUS[1]))
        K2, r2 = assemble_rom(pkg, v0, mu_terms(pkg, TRAIN_MUS[1]))
        assert np.array_equal(K1, K2) and np.array_equal(r1, r2)
        assert np.all(np.isfinite(K1)) and np.all(np.isfinite(r1))
        assert np.array_equal(r1[:pkg.n_lifts], s)
        nl = pkg.n_lifts
        assert np.array_equal(K1[:nl, :nl], np.eye(nl))
        assert np.all(K1[:nl, nl:] == 0.0)

    def test_projected_snapshot_nearly_solves_reduced_system(self, duct):
        pkg, grams = duct.pkg, duct.grams
        for sol, u_full, mu in zip(duct.sols, duct.u_fulls, TRAIN_MUS):
            s = lift_coefficients(pkg.lift_groups, pkg.effective(mu)[1], RomError)
            v_N, p_N = project_fields(duct.basis, u_full.ravel(), sol.p,
                                      grams["K_u"], grams["M_p"], s)
            K, rhs = assemble_rom(pkg, v_N, mu_terms(pkg, mu))
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
        b, nl, mu = blocks(pkg, duct.eims), pkg.n_lifts, TRAIN_MUS[2]
        v = solve_rom(duct.pkg, mu=mu).v_N
        params, amps = pkg.effective(mu)
        s, rho = lift_coefficients(pkg.lift_groups, amps, RomError), params.rho
        c_e, c_t = magic_coefficients(pkg, v, params, duct.eims)

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
        K, rhs = assemble_rom(pkg, v, mu_terms(pkg, mu))
        np.testing.assert_allclose(K, want_K, rtol=0.0,
                                   atol=1e-13 * np.abs(want_K).max())
        np.testing.assert_allclose(rhs, want_r, rtol=0.0,
                                   atol=1e-13 * np.abs(want_r).max())

    @pytest.mark.parametrize("name", ["duct", "coarse_artery_rom"])
    def test_within_round_off_of_the_kernel_of_gradients(self, name, request):
        pkg = request.getfixturevalue(name)
        pkg = pkg.pkg if name == "duct" else pkg[1].pkg
        rng = np.random.default_rng(5)
        for cut in (pkg, truncate(pkg, pkg.n_lifts + 1, 1)):
            for mu in query_mus(cut)[:8]:
                v = solve_rom(cut, mu=mu).v_N
                for it in (v, v * (1.0 + 0.2 * rng.standard_normal(v.size))):
                    want = assemble_before_squares(cut, it, mu_terms(cut, mu))
                    for got, w in zip(assemble_rom(cut, it, mu_terms(cut, mu)), want):
                        np.testing.assert_allclose(got, w, rtol=0.0,
                                                   atol=1e-13 * np.abs(w).max())

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_invariant_map_gives_the_squared_invariants(self, d):
        rng = np.random.default_rng(d)
        y = rng.standard_normal((30, d * d + d))
        w = y @ rom.invariant_map(d)
        grad, mean = y[:, :d * d].reshape(-1, d, d), y[:, d * d:]
        np.testing.assert_allclose((w[:, :-d] ** 2).sum(1), shear_rate(grad) ** 2,
                                   rtol=1e-14)
        np.testing.assert_allclose((w[:, -d:] ** 2).sum(1), (mean ** 2).sum(1), rtol=1e-14)

    def test_bad_iterate_shape_rejected(self, duct):
        with pytest.raises(RomError, match="shape"):
            assemble_rom(duct.pkg, np.zeros(duct.pkg.n_u + 1),
                         mu_terms(duct.pkg, TRAIN_MUS[0]))


class TestSolve:
    def test_one_step_query_allocates_no_history(self, coarse_artery_rom, monkeypatch):
        cfg, pipe = coarse_artery_rom
        counting = CountingNumpy()
        monkeypatch.setattr(fom, "np", counting)
        for mu in query_mus(pipe.pkg):
            red = solve_rom(pipe.pkg, mu=mu, **cfg.picard_options())
            assert red.converged and len(red.iterations) == 1
        assert counting.empty_calls == 0

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
        s = lift_coefficients(duct.pkg.lift_groups, duct.pkg.effective(mu)[1], RomError)
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

    @pytest.mark.parametrize("tol", [np.nan, 0.0, -1.0, 1.0, 1e308])
    def test_tolerance_outside_unit_interval_rejected(self, duct, tol):
        with pytest.raises(RomError, match=r"picard_tol must lie in \(0, 1\)"):
            solve_rom(duct.pkg, mu=TRAIN_MUS[0], picard_tol=tol)

    @pytest.mark.parametrize("option, value", [
        ("picard_max", True), ("picard_max", 7.9), ("picard_max", "3"),
        ("picard_tol", "3"), ("picard_tol", None)])
    def test_option_of_the_wrong_type_rejected(self, duct, option, value):
        """Options given in code, which no config key table has read."""
        with pytest.raises(RomError, match=option):
            solve_rom(duct.pkg, mu=TRAIN_MUS[0], **{option: value})

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

    def test_mu_for_a_package_without_parameters_rejected(self, duct):
        free = replace(duct.pkg, space=None, start=duct.pkg.start[..., -1:, :])
        with pytest.raises(ParameterError, match="no parameters"):
            solve_rom(free, mu=TRAIN_MUS[0])
        assert solve_rom(free, mu=np.array([])).converged

    def test_missing_lift_amplitude_rejected(self, duct):
        with pytest.raises(RomError, match="amplitude"):
            replace(duct.pkg, amplitudes={}, space=None, start=duct.pkg.start[..., -1:, :])

    def test_singular_reduced_system_reports_sizes(self):
        mat = CarreauYasudaParams(eta_0=1.0, eta_inf=0.0, lam=1.0, a=2.0,
                                  n=1.0, rho=1.0)
        data = MagicElementData(magic=np.array([0]), history=np.array([1.0, 0.0]),
                                gx=np.zeros((1, 4, 2)), h_t=np.ones(1),
                                h_s=np.ones(1), Z_rows=np.zeros((1, 4, 2, 1)))
        pkg = RomPackage(case_id="x", mesh_hash="", d=2, n_nodes=4,
                         n_fom_dofs=9, lift_groups=(), material=mat,
                         amplitudes={}, space=None,
                         K=np.zeros((5, 2, 2)), R=np.zeros((5, 1, 2)),
                         data_eta=data, data_tau=data, start=np.zeros((2, 1, 1, 2)))
        with pytest.raises(RomError, match=r"N_u=1, N_p=1"):
            solve_rom(pkg)

    def test_dimension_validation(self, duct):
        with pytest.raises(RomError, match="dimension mismatch"):
            replace(duct.pkg, K=duct.pkg.K[:, :, 1:])
        with pytest.raises(RomError, match="dimension mismatch"):
            replace(duct.pkg, R=duct.pkg.R[1:])
        start = duct.pkg.start
        for bad in (start[..., 1:], start[:, :, 1:], start[1:], start[:, 1:], start[-1, -1],
                    start[:, :, 0]):
            with pytest.raises(RomError, match="dimension mismatch: start"):
                replace(duct.pkg, start=bad)
        # one entry per cut (n_u, n_p) with n_lifts <= n_u and 1 <= n_p, its
        # rows the term count: 3 at degree 2 in one parameter, and 1 without
        # parameters whatever the degree
        cuts, n = start.shape[:2], duct.pkg.n_reduced
        assert cuts == (duct.pkg.n_u - duct.pkg.n_lifts + 1, duct.pkg.n_p)
        table = np.zeros(cuts + (3, n))
        assert replace(duct.pkg, start=table, start_degree=2).start.shape == cuts + (3, n)
        for bad, degree in ((np.zeros(cuts + (2, n)), 2), (np.zeros(cuts + (1, n)), 1)):
            with pytest.raises(RomError, match="dimension mismatch: start"):
                replace(duct.pkg, start=bad, start_degree=degree)
        for bad in (np.zeros(cuts + (2, n)), np.zeros(cuts + (5, n))):
            with pytest.raises(RomError, match="dimension mismatch: start"):
                replace(duct.pkg, space=None, start=bad, start_degree=3)
        with pytest.raises(RomError, match="dimension mismatch: start"):
            replace(duct.pkg, start_degree=-1)


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

    def test_truncate_of_a_truncate_is_the_direct_cut(self, coarse_artery_rom):
        """Bit for bit, the fitted start table included."""
        _, pipe = coarse_artery_rom
        pkg = pipe.pkg
        assert pkg.start.any()

        def arrays(p):
            records = [getattr(r, f.name) for r in (p.data_eta, p.data_tau)
                       for f in fields(MagicElementData)]
            return [p.K, p.R, p.strain_op, p.start, *p.tau_scales, *records]

        cuts = [(a, b) for a in range(pkg.n_lifts, pkg.n_u + 1) for b in range(1, pkg.n_p + 1)]
        for a, b in cuts:
            mid = truncate(pkg, a, b)
            for c, e in cuts:
                if c <= a and e <= b:
                    got, want = truncate(mid, c, e), truncate(pkg, c, e)
                    for x, y in zip(arrays(got), arrays(want), strict=True):
                        assert x.shape == y.shape and np.array_equal(x, y)
                    assert (got.start_degree, got.start_loo_error) == \
                        (want.start_degree, want.start_loo_error)

    def test_truncate_bounds(self, duct):
        pkg = duct.pkg
        with pytest.raises(RomError, match="n_u"):
            truncate(pkg, pkg.n_lifts - 1, 1)
        with pytest.raises(RomError, match="n_u"):
            truncate(pkg, pkg.n_u + 1, 1)
        with pytest.raises(RomError, match="n_p"):
            truncate(pkg, pkg.n_u, 0)

    def test_cut_shares_what_it_leaves_whole(self, duct):
        pkg = duct.pkg
        cut = truncate(pkg, pkg.n_lifts + 1, 1)
        assert cut.tau_scales is pkg.tau_scales and cut._frame is pkg._frame
        assert cut._exponents is pkg._exponents
        for got, want in ((cut.data_eta, pkg.data_eta), (cut.data_tau, pkg.data_tau)):
            assert all(getattr(got, f.name) is getattr(want, f.name)
                       for f in fields(MagicElementData) if f.name != "Z_rows")
            assert np.shares_memory(got.Z_rows, want.Z_rows)

    def test_writing_into_a_cut_leaves_the_parent(self, coarse_artery_rom):
        pkg = coarse_artery_rom[1].pkg
        before = [a.copy() for a in (pkg.K, pkg.R, pkg.start)]
        for n_u, n_p in ((pkg.n_u, pkg.n_p), (pkg.n_lifts, 1)):
            cut = truncate(pkg, n_u, n_p)
            for a in (cut.K, cut.R, cut.start):
                assert a.flags.c_contiguous
                a[...] = np.nan
        for got, want in zip((pkg.K, pkg.R, pkg.start), before, strict=True):
            assert np.array_equal(got, want)

    def test_cut_runs_no_post_init(self, duct, monkeypatch):
        """A cut is checked and derived nothing again, and solves the same."""
        want = solve_rom(truncate(duct.pkg, 3, 1), mu=TRAIN_MUS[0])

        def refuse(self):
            raise AssertionError("RomPackage.__post_init__ ran")

        monkeypatch.setattr(RomPackage, "__post_init__", refuse)
        got = solve_rom(truncate(truncate(duct.pkg, 4, 2), 3, 1), mu=TRAIN_MUS[0])
        assert np.array_equal(got.v_N, want.v_N) and np.array_equal(got.p_N, want.p_N)


def oracle_solve(pkg, eims, mu, tol, max_it):
    """Reduced Picard loop with every iterate formed as the stacks were
    projected: magic_coefficients, then theta @ K over the coefficient
    stacks and np.linalg.solve."""
    params, amps = pkg.effective(mu)
    s = lift_coefficients(pkg.lift_groups, amps, RomError)
    K_c, R_c = coefficient_stacks(pkg, eims)
    R_mu = np.append(s, 1.0) @ R_c
    n_u, nl = pkg.n_u, pkg.n_lifts
    x = np.zeros(pkg.n_reduced)
    x[:nl] = s
    for it in range(1, max_it + 1):
        c_e, c_t = magic_coefficients(pkg, x[:n_u], params, eims)
        theta = np.concatenate(([params.rho, 1.0], c_e, c_t, c_t / params.rho))
        x_new = np.linalg.solve(np.tensordot(theta, K_c, axes=1), theta @ R_mu)
        rel = np.linalg.norm(x_new[nl:] - x[nl:]) / np.linalg.norm(x_new[nl:])
        x = x_new
        if rel <= tol:
            break
    return x, it


def query_mus(pkg):
    """The box corners and centre of a package, then 18 random points."""
    box = pkg.space.box
    rng = np.random.default_rng(11)
    lo, hi = np.asarray(box.lower), np.asarray(box.upper)
    return np.vstack([box.corners(), box.center()[None],
                      lo + (hi - lo) * rng.random((18, lo.size))])


class TestOnlineEquivalence:
    """The folded online path against the interpolation solves it replaces."""

    @pytest.mark.parametrize("cut", [None, (3, 1)])
    def test_matches_oracle_picard(self, duct, cut, monkeypatch):
        monkeypatch.setattr(fom, "MIXING_DEPTH", 0)     # the oracle's plain sequence
        pkg = duct.pkg if cut is None else truncate(duct.pkg, *cut)
        for mu in query_mus(pkg):
            red = solve_rom(pkg, mu=mu, picard_tol=1e-10, picard_max=80)
            want, its = oracle_solve(pkg, duct.eims, mu, 1e-10, 80)
            got = np.concatenate([red.v_N, red.p_N])
            assert len(red.iterations) == its
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_truncation_slices_derived_arrays(self, duct):
        small = truncate(duct.pkg, 3, 1)
        assert np.array_equal(small.strain_op,
                              strain_operator(small.data_eta, small.data_tau))
        for got, want in zip(small.tau_scales, duct.pkg.tau_scales):
            assert np.array_equal(got, want)

    def test_nan_in_system_raises(self, duct):
        K = duct.pkg.K.copy()
        K[1, -1, -1] = np.nan
        with pytest.raises(RomError, match="non-finite"):
            solve_rom(replace(duct.pkg, K=K), mu=TRAIN_MUS[0])


@pytest.fixture(scope="module")
def coarse_artery_rom():
    """The coarse artery's case and the package of its training grid."""
    cfg = cases.bundled_case("artery-analog", n_x=12, n_y=5, n_levels=6)
    mesh = cases.build_mesh(cfg)
    box = cfg.space.box
    axes = [np.linspace(box.lower[j], box.upper[j], int(c))
            for j, c in enumerate(cfg.plan["train_counts"])]
    train = np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])
    pipe = offline_build(mesh, cases.build_problem(cfg, mesh), train_mus=train,
                         **cfg.picard_options(), **cfg.offline_options())
    return cfg, pipe


def columnwise_stacks(mesh, problem, basis, eim_eta, eim_tau, dof_map, asm):
    """K and R over the interpolation coefficients, with their loads,
    projected one affine fill column of the FOM's SystemPattern at a time as
    Y^T (Theta_q Y + Theta_q^lift [Z_v, 0]), Y = blockdiag(Z_v|free, Z_p).
    The operator slots are summed in long double: in double, this route's
    own round-off reaches the 1e-13 of assert_slots_match on the coarse
    artery's late interpolation vectors, whose slots cancel."""
    pattern = asm.system_pattern(dof_map)
    Z_v, Z_p, nl = basis.Z_v, basis.Z_p, basis.n_lifts
    n_u, n = Z_v.shape[1], Z_v.shape[1] + Z_p.shape[1]
    Zf = Z_v[dof_map.free_full]
    Y = block_diag(Zf, Z_p).astype(np.longdouble)
    columns = list(pattern.base.T.toarray().astype(np.longdouble))
    for W, basis_q in zip(pattern.weights, (eim_eta.basis, eim_tau.basis, eim_tau.basis)):
        columns += [W @ b for b in basis_q.T.astype(np.longdouble)]
    K = np.zeros((len(columns), n, n))
    R = np.zeros((len(columns), nl + 1, n))
    for q, values in enumerate(columns):
        P = Y.T @ (pattern.matrix(values) @ Y)
        P[:, :n_u] += Y.T @ (pattern.lift_matrix(values) @ Z_v)
        K[q, :, nl:] = P[:, nl:]
        R[q, :nl] = -P[:, :nl].T
    K[1, range(nl), range(nl)] = 1.0
    R[1, range(nl), range(nl)] = 1.0
    if problem.body_force is not None:
        fb = asm.body_rhs(problem.body_force.vector(mesh.d), 1.0)
        R[0, nl, :n_u] = dof_map.restrict(fb) @ Zf
    R[1, nl, :n_u] = dof_map.restrict(asm.traction_rhs(problem.neumann or {})) @ Zf
    return K, R


def folded(K, R, eim_eta, eim_tau):
    """The stacks over the magic-element values, folded as project_offline does."""
    K, R = K.copy(), R.copy()
    qe, qt = eim_eta.n_terms, eim_tau.n_terms
    for approx, lo in ((eim_eta, 2), (eim_tau, 2 + qe), (eim_tau, 2 + qe + qt)):
        for stack in (K, R):
            stack[lo:lo + approx.n_terms] = approx.fold(stack[lo:lo + approx.n_terms])
    return K, R


def assert_slots_match(args, dof_map, asm, monkeypatch):
    """The slots P_q of project_offline, taken before the fold (which mixes a
    field's slots), equal the column-wise ones to 1e-13 relative per slot."""
    want = columnwise_stacks(*args, dof_map, asm)
    with monkeypatch.context() as m:
        m.setattr(EimApproximation, "fold", lambda self, stack: stack)
        pkg = project_offline(*args, dof_map=dof_map, assembler=asm)
    for got, wanted in zip((pkg.K, pkg.R), want):
        assert got.shape == wanted.shape
        for q, (g, w) in enumerate(zip(got, wanted)):
            np.testing.assert_allclose(g, w, rtol=0.0, atol=1e-13 * np.abs(w).max(),
                                       err_msg="slot %d" % q)
    return want


class TestElementwiseProjection:
    """The element-by-element projection against the column-wise one it
    replaced."""

    def test_duct_with_loads_matches_columnwise(self, duct, monkeypatch):
        prob = replace(duct.problem, body_force=BodyForce((0.3, -0.1)),
                       neumann={"dirichlet:right": (0.2, 0.1)})
        args = (duct.mesh, prob, duct.basis, duct.eims["eta"], duct.eims["tau"])
        _, R = assert_slots_match(args, duct.dof_map, duct.asm, monkeypatch)
        assert np.any(R[0, -1] != 0.0) and np.any(R[1, -1] != 0.0)

    def test_coarse_artery_stacks_and_solutions_match_columnwise(self, coarse_artery_rom,
                                                                monkeypatch):
        cfg, pipe = coarse_artery_rom
        eims = (pipe.eims["eta"], pipe.eims["tau"])
        args = (pipe.mesh, pipe.problem, pipe.basis) + eims
        K, R = assert_slots_match(args, pipe.dof_map, pipe.assembler, monkeypatch)
        K, R = folded(K, R, *eims)
        oracle = replace(pipe.pkg, K=K, R=R)
        box = cfg.space.box
        for mu in np.vstack([box.corners(), box.center()[None]]):
            got = solve_rom(pipe.pkg, mu=mu, **cfg.picard_options())
            want = solve_rom(oracle, mu=mu, **cfg.picard_options())
            assert len(got.iterations) == len(want.iterations)
            x, y = (np.concatenate([s.v_N, s.p_N]) for s in (got, want))
            assert np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y)


class TestChunkedProjection:
    @pytest.mark.parametrize("name", ["duct", "coarse_artery_rom"])
    def test_uneven_chunks_give_the_default_slots(self, name, request, monkeypatch):
        """Chunks of 7 elements, the last one short, against the default
        chunks: the slots before the fold agree to 1e-14 relative per slot."""
        built = request.getfixturevalue(name)
        pipe = built if name == "duct" else built[1]
        args = (pipe.mesh, pipe.problem, pipe.basis, pipe.eims["eta"], pipe.eims["tau"])
        kwargs = {"dof_map": pipe.dof_map}
        assert pipe.mesh.n_elements % 7
        monkeypatch.setattr(EimApproximation, "fold", lambda self, stack: stack)
        want = project_offline(*args, **kwargs)
        monkeypatch.setattr(rom, "MAP_CHUNK", 7)
        got = project_offline(*args, **kwargs)
        for stack in ("K", "R"):
            for q, (g, w) in enumerate(zip(getattr(got, stack), getattr(want, stack),
                                           strict=True)):
                np.testing.assert_allclose(g, w, rtol=0.0, atol=1e-14 * np.abs(w).max(),
                                           err_msg="%s slot %d" % (stack, q))


class TestAndersonMixing:
    @pytest.mark.parametrize("cut", [None, (3, 1)])
    def test_depth_zero_is_the_plain_loop(self, duct, cut, monkeypatch):
        pkg = duct.pkg if cut is None else truncate(duct.pkg, *cut)
        for mu in query_mus(pkg):
            with monkeypatch.context() as m:
                m.setattr(fom, "MIXING_DEPTH", 0)
                new = solve_rom(pkg, mu=mu, picard_tol=1e-10, picard_max=80)
            with monkeypatch.context() as m:
                m.setattr(rom, "picard", plain_picard)
                old = solve_rom(pkg, mu=mu, picard_tol=1e-10, picard_max=80)
            assert np.array_equal(new.v_N, old.v_N) and np.array_equal(new.p_N, old.p_N)
            assert [r.pop("mixing") for r in new.iterations] == [0] * len(old.iterations)
            assert new.iterations == old.iterations

    def test_same_fixed_point_in_fewer_iterations(self, coarse_artery_rom, monkeypatch):
        cfg, pipe = coarse_artery_rom
        # from the lifting alone: a fitted start brings the plain loop under
        # 10 iterations as well
        pkg = replace(pipe.pkg, start=np.zeros_like(pipe.pkg.start))
        box = cfg.space.box
        opts = cfg.picard_options()
        for mu in np.vstack([box.corners(), box.center()[None]]):
            mixed = solve_rom(pkg, mu=mu, **opts)
            tight = solve_rom(pkg, mu=mu, picard_tol=1e-12, picard_max=60)
            with monkeypatch.context() as m:
                m.setattr(fom, "MIXING_DEPTH", 0)
                plain = solve_rom(pkg, mu=mu, **opts)
                plain_tight = solve_rom(pkg, mu=mu, picard_tol=1e-12, picard_max=60)
            got = np.concatenate([tight.v_N, tight.p_N])
            want = np.concatenate([plain_tight.v_N, plain_tight.p_N])
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
            assert len(mixed.iterations) <= 10 < len(plain.iterations)
            # the pinned lift coefficients stay exact through the mixing
            np.testing.assert_array_equal(tight.v_N[:pkg.n_lifts],
                                          plain_tight.v_N[:pkg.n_lifts])


class TestFittedStart:
    """The first iterate fit_start fits, against the lifting alone."""

    def test_projection_stores_a_zero_start(self, duct):
        pkg = duct.pkg
        assert pkg.start.shape == (pkg.n_u - pkg.n_lifts + 1, pkg.n_p, 1, pkg.n_reduced)
        assert duct.pkg.start_degree == 0 and duct.pkg.start_loo_error is None
        assert not duct.pkg.start.any()

    def test_same_solution_in_fewer_iterations(self, coarse_artery_rom):
        cfg, pipe = coarse_artery_rom
        pkg = pipe.pkg
        zero = replace(pkg, start=np.zeros_like(pkg.start))
        its = []
        for mu in query_mus(pkg):
            a, b = (solve_rom(p, mu=mu, picard_tol=1e-12, picard_max=60) for p in (pkg, zero))
            got, want = (np.concatenate([s.v_N, s.p_N]) for s in (a, b))
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
            its.append([len(solve_rom(p, mu=mu, **cfg.picard_options()).iterations)
                        for p in (pkg, zero)])
        fitted, plain = np.array(its).T
        assert fitted.mean() < plain.mean() and np.all(fitted <= plain + 1)
        # 16 points on one axis support a fit above degree 1, which brings
        # a query down to one or two steps
        assert pkg.start_degree > 1 and pkg.start_loo_error < 1e-6
        assert fitted.mean() <= 1.5

    def test_full_cell_is_the_fit_of_the_full_solutions(self, coarse_artery_rom):
        """The package's own entry, its first iterate and its solves are those
        of fit_monomials over the full training solutions, bit for bit."""
        cfg, pipe = coarse_artery_rom
        pkg, opts = pipe.pkg, cfg.picard_options()
        zero = replace(pkg, start=np.zeros(pkg.start.shape[:2] + (1, pkg.n_reduced)),
                       start_degree=0)
        reds = [solve_rom(zero, mu=mu, strict=False, **opts) for mu in pipe.train_mus]
        assert all(red.converged for red in reds)
        centre, half = pkg._frame
        T = np.array([(mu - centre) / half for mu in pipe.train_mus])
        loo, degree, C = rom.fit_monomials(T, np.array([np.concatenate((r.v_N, r.p_N))
                                                        for r in reds]))
        assert (pkg.start_degree, pkg.start_loo_error) == (degree, loo)
        assert np.array_equal(pkg.start[-1, -1], C)
        # every other entry is another cut's: the full solve never reads it
        alone = replace(pkg, start=np.broadcast_to(C, pkg.start.shape).copy())
        for mu in query_mus(pkg):
            t = (mu - centre) / half
            E = rom.monomial_exponents(len(centre), degree)
            want = np.dot(np.multiply.reduce(t ** E, -1), C)
            assert np.array_equal(pkg.start_at(mu), want)
            a, b = (solve_rom(p, mu=mu, **opts) for p in (pkg, alone))
            assert np.array_equal(a.v_N, b.v_N) and np.array_equal(a.p_N, b.p_N)
            assert a.iterations == b.iterations

    def test_each_cut_starts_from_its_own_fit(self, coarse_artery_rom):
        """A cut's entry is the least-squares fit, at the table's degree, of
        that cut's own converged solutions at the training mus, solved from
        the full fit's slice.  The full cut's is fit_monomials' (above)."""
        cfg, pipe = coarse_artery_rom
        pkg, opts = pipe.pkg, cfg.picard_options()
        centre, half = pkg._frame
        E = rom.monomial_exponents(len(centre), pkg.start_degree)
        A = (((pipe.train_mus - centre) / half)[:, None] ** E).prod(-1)
        for n_u in range(pkg.n_lifts, pkg.n_u + 1):
            for n_p in range(1, pkg.n_p + 1 - (n_u == pkg.n_u)):
                cut = truncate(pkg, n_u, n_p)
                keep = np.r_[:n_u, pkg.n_u:pkg.n_u + n_p]
                # zero in the columns the cut leaves out
                table = pkg.start[n_u - pkg.n_lifts, n_p - 1]
                assert not np.delete(table, keep, axis=1).any()
                sliced = replace(cut, start=np.broadcast_to(pkg.start[-1, -1][:, keep],
                                                            cut.start.shape).copy())
                reds = [solve_rom(sliced, mu=mu, strict=False, **opts) for mu in pipe.train_mus]
                ok = [red.converged for red in reds]
                assert any(ok)
                X = np.array([np.concatenate((r.v_N, r.p_N)) for r in reds if r.converged])
                coef = np.linalg.lstsq(A[ok], X, rcond=None)[0]
                for mu in query_mus(pkg):
                    t = ((mu - centre) / half)[None]
                    want = (t[:, None] ** E).prod(-1)[0] @ coef
                    got = cut.start_at(mu)
                    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_every_cut_converges_in_about_one_step(self, coarse_artery_rom):
        cfg, pipe = coarse_artery_rom
        pkg = pipe.pkg
        rng = np.random.default_rng(8)
        lo, hi = np.asarray(cfg.space.box.lower), np.asarray(cfg.space.box.upper)
        mus = lo + (hi - lo) * rng.random((30, lo.size))
        for n_u in range(pkg.n_lifts, pkg.n_u + 1):
            for n_p in range(1, pkg.n_p + 1):
                cut = truncate(pkg, n_u, n_p)
                steps = [len(solve_rom(cut, mu=mu, **cfg.picard_options()).iterations)
                         for mu in mus]
                assert np.mean(steps) <= 1.5, (n_u, n_p, np.mean(steps))

    def test_two_points_are_interpolated_in_raw_mu(self, duct):
        # two points fix an affine fit in one parameter: the start at each
        # is its solution, and a solve from there converges in one step
        pkg = fit_start(duct.pkg, TRAIN_MUS[::2])
        for mu in TRAIN_MUS[::2]:
            want = solve_rom(duct.pkg, mu=mu)
            x = np.concatenate([want.v_N, want.p_N])
            start = pkg.start_at(mu)
            assert np.linalg.norm(start - x) <= 1e-12 * np.linalg.norm(x)
            assert len(solve_rom(pkg, mu=mu).iterations) == 1

    def test_leave_one_out_error_equals_explicit_refits(self):
        rng = np.random.default_rng(5)
        T = rng.uniform(-1.0, 1.0, (14, 2))
        X = np.column_stack([np.exp(T[:, 0]) * np.cos(2.0 * T[:, 1]), 1.0 + T.sum(1) ** 3,
                             rng.normal(size=14)])
        loo, degree, C = rom.fit_monomials(T, X)
        for k in range(1, 5):                       # 15 terms at degree 4
            A = (T[:, None] ** rom.monomial_exponents(2, k)).prod(-1)
            errors = []
            for i in range(len(T)):
                rest = np.arange(len(T)) != i
                c = np.linalg.lstsq(A[rest], X[rest], rcond=None)[0]
                errors.append(np.linalg.norm(A[i] @ c - X[i]) / np.linalg.norm(X[i]))
            if k == degree:
                assert abs(max(errors) - loo) <= 1e-12 * loo
                np.testing.assert_allclose(A @ C, A @ np.linalg.lstsq(A, X, rcond=None)[0],
                                           rtol=0.0, atol=1e-12 * np.abs(X).max())
            else:
                assert max(errors) >= loo * (1.0 - 1e-12)

    @pytest.mark.parametrize("n_mu", [1, 2, 3])
    def test_degree_has_fewer_terms_than_points(self, n_mu):
        rng = np.random.default_rng(n_mu)
        for m in range(1, 13):
            T = rng.uniform(-1.0, 1.0, (m, n_mu))
            X = np.column_stack([np.cos(T.sum(1)), np.ones(m)])
            loo, degree, C = rom.fit_monomials(T, X)
            terms = len(rom.monomial_exponents(n_mu, degree))
            assert C.shape == (terms, 2)
            assert degree == 1 or terms < m
        # three points in two parameters fill the affine terms exactly: the
        # leave-one-out error is undefined, and the fit stays affine
        loo, degree, _ = rom.fit_monomials(rng.uniform(-1.0, 1.0, (3, 2)), X[:3])
        assert (loo, degree) == (np.inf, 1)

    def test_rank_deficient_degree_is_not_chosen(self):
        """On a 4x4 grid the 15 quartic terms span 13 dimensions: the hat
        matrix's leave-one-out error says nothing there, and the
        minimum-norm quartic is far off between the grid points."""
        g = np.linspace(-1.0, 1.0, 4)
        T = np.array([(a, b) for a in g for b in g])
        f = lambda t: np.column_stack([np.exp(0.4 * t[:, 0]) * np.cos(0.5 * t[:, 1]),
                                       1.0 / (5.0 + t[:, 0] - t[:, 1])])
        loo, degree, C = rom.fit_monomials(T, f(T))
        assert degree == 3 and np.isfinite(loo)
        off = np.random.default_rng(4).uniform(-1.0, 1.0, (50, 2))
        errors = []
        for k, coef in ((degree, C), (1, np.linalg.lstsq(
                (T[:, None] ** rom.monomial_exponents(2, 1)).prod(-1), f(T), rcond=None)[0])):
            got = (off[:, None] ** rom.monomial_exponents(2, k)).prod(-1) @ coef
            errors.append(np.abs(got - f(off)).max())
        assert errors[0] < 0.05 * errors[1]

    def test_exact_quadratic_is_recovered(self):
        rng = np.random.default_rng(2)
        T = rng.uniform(-1.0, 1.0, (9, 2))
        X = np.column_stack([1.0 + T[:, 0] - 2.0 * T[:, 0] * T[:, 1], T[:, 1] ** 2])
        loo, degree, C = rom.fit_monomials(T, X)
        assert degree == 2 and loo <= 1e-12
        exps = [tuple(e) for e in rom.monomial_exponents(2, 2)]
        want = np.zeros((6, 2))
        want[exps.index((0, 0)), 0], want[exps.index((1, 0)), 0] = 1.0, 1.0
        want[exps.index((1, 1)), 0], want[exps.index((0, 2)), 1] = -2.0, 1.0
        np.testing.assert_allclose(C, want, atol=1e-12)

    @pytest.mark.parametrize("points", ["one", "repeated", "collinear"])
    def test_degenerate_training_points_give_a_finite_start(self, coarse_artery_rom, points):
        cfg, pipe = coarse_artery_rom
        box = cfg.space.box
        lo, hi = np.asarray(box.lower), np.asarray(box.upper)
        mus = {"one": [box.center()], "repeated": [lo, lo, lo],
               "collinear": [lo + f * (hi - lo) for f in (0.0, 0.3, 1.0)]}[points]
        pkg = fit_start(replace(pipe.pkg, start=np.zeros_like(pipe.pkg.start)), mus,
                        **cfg.picard_options())
        assert np.isfinite(pkg.start).all() and pkg.start.any()
        for mu in query_mus(pkg):
            assert solve_rom(pkg, mu=mu, **cfg.picard_options()).converged

    def test_no_mu_starts_from_the_lifting(self, coarse_artery_rom):
        # mu None solves at the base data, which need not lie in the box the
        # start was fitted over: the fit is not extrapolated there
        _, pipe = coarse_artery_rom
        pkg = pipe.pkg
        assert pkg.start.any()
        got = solve_rom(pkg)
        want = solve_rom(replace(pkg, start=np.zeros_like(pkg.start)))
        assert got.converged and got.iterations == want.iterations
        assert np.array_equal(got.v_N, want.v_N) and np.array_equal(got.p_N, want.p_N)

    def test_fit_leaves_solve_rom_to_queries(self, duct, monkeypatch):
        # the fit's training solves do not pass through the online entry
        # point, so a wrapper of solve_rom counts queries only
        want = fit_start(duct.pkg, TRAIN_MUS)

        def refuse(*args, **kwargs):
            raise AssertionError("fit_start called solve_rom")

        monkeypatch.setattr(rom, "solve_rom", refuse)
        assert np.array_equal(fit_start(duct.pkg, TRAIN_MUS).start, want.start)

    def test_unconverged_solves_are_left_out(self, duct):
        assert fit_start(duct.pkg, TRAIN_MUS, picard_max=1) is duct.pkg
        # mu None places no point in the box either
        assert fit_start(duct.pkg, [None]) is duct.pkg

    def test_parameter_free_package_starts_from_its_solution(self, duct):
        free = replace(duct.pkg, space=None, start=duct.pkg.start[..., -1:, :])
        fitted = fit_start(free, [None, None])
        want = solve_rom(free)
        assert fitted.start.shape == free.start.shape[:2] + (1, free.n_reduced)
        np.testing.assert_allclose(fitted.start[-1, -1, 0], np.concatenate([want.v_N, want.p_N]),
                                   rtol=1e-14, atol=1e-14)
        got = solve_rom(fitted)
        assert len(got.iterations) == 1
        x, y = (np.concatenate([s.v_N, s.p_N]) for s in (got, want))
        assert np.linalg.norm(x - y) <= 1e-8 * np.linalg.norm(y)


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
            s = lift_coefficients(duct.pkg.lift_groups, duct.pkg.effective(mu)[1], RomError)
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
            data = getattr(loaded, "data_" + tag)
            np.testing.assert_array_equal(data.magic, duct.eims[tag].magic)
            np.testing.assert_array_equal(data.history, duct.eims[tag].history)
        # the loaded package derives strain_op from the same records
        for mu in ([1.01], [0.95], [1.05], [0.9731]):
            a = solve_rom(duct.pkg, mu=np.array(mu))
            b = solve_rom(loaded, mu=np.array(mu))
            assert np.array_equal(a.v_N, b.v_N)
            assert np.array_equal(a.p_N, b.p_N)
            assert a.iterations == b.iterations

    def test_mesh_hash_mismatch_rejected(self, duct, tmp_path):
        path = tmp_path / "duct.rom"
        write_rom(path, duct.pkg)
        with pytest.raises(ArtifactError, match="mesh"):
            read_rom(path, mesh_hash="0" * 16)

    def test_malformed_header_rejected(self, duct, tmp_path):
        path = tmp_path / "bad.rom"
        write_rom(path, duct.pkg)
        header, arrays = read_artifact(path, expect_kind="rom")
        del header["schema_version"], header["kind"]
        for bad in ({"space": {"names": ["u_in"]}},
                    {"material": {"rho": 1.0}}, {"lift_groups": 3}):
            write_artifact(path, "rom", dict(header, **bad), arrays)
            with pytest.raises(ArtifactError, match="malformed rom package"):
                read_rom(path)

    @pytest.mark.parametrize("bad", [{"note": "x"}, {"space": {"names": ["u_in"]}},
                                     {"material": {"rho": 1.0}}, {"lift_groups": 3}])
    def test_header_that_read_rom_refuses_is_not_written(self, duct, tmp_path, bad):
        path = tmp_path / "bad.rom"
        with pytest.raises(ArtifactError, match="rom header for .*bad.rom"):
            write_rom(path, duct.pkg, extra_header=bad)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("path, value", [
        (("amplitudes", "inflow"), True), (("material", "rho"), True), (("d",), 2.0),
        (("start_loo_error",), "0.5"), (("n_u",), "five")])
    def test_header_value_of_the_wrong_type_names_its_key(self, duct, tmp_path, path, value):
        """Values that float() and int() read as 1.0, 1.0, 2 and 0.5, and an
        n_u that was never read."""
        file = tmp_path / "duct.rom"
        write_rom(file, duct.pkg)
        header, arrays = read_artifact(file, expect_kind="rom")
        del header["schema_version"], header["kind"]
        node = header
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        write_artifact(file, "rom", header, arrays)
        match = "malformed rom package .* at %s \\(%s is %s" % tuple(
            re.escape(text) for text in (".".join(path), repr(path[-1]), repr(value)))
        with pytest.raises(ArtifactError, match=match):
            read_rom(file)

    def rewritten(self, pkg, path, edit):
        """Write pkg to path, then write the file again with edit(arrays)."""
        write_rom(path, pkg)
        header, arrays = read_artifact(path, expect_kind="rom")
        del header["schema_version"], header["kind"]
        edit(arrays)
        write_artifact(path, "rom", header, arrays)
        return path

    def test_eleven_block_layout_rejected(self, duct, tmp_path):
        """A package file holding the separate E, A, ..., D blocks is refused."""
        def edit(arrays):
            del arrays["K"], arrays["R"]
            arrays.update(blocks(duct.pkg, duct.eims))

        path = self.rewritten(duct.pkg, tmp_path / "duct.rom", edit)
        with pytest.raises(ArtifactError, match="malformed rom package"):
            read_rom(path)

    def test_layout_without_start_rejected(self, duct, tmp_path):
        def edit(arrays):
            del arrays["start"]

        path = self.rewritten(duct.pkg, tmp_path / "duct.rom", edit)
        with pytest.raises(ArtifactError, match="'start'.*rebuild it with build-rom"):
            read_rom(path)

    def test_layout_without_start_degree_rejected(self, duct, tmp_path):
        """A file of the affine start in raw mu, which carries no degree."""
        path = tmp_path / "duct.rom"
        write_rom(path, duct.pkg)
        header, arrays = read_artifact(path, expect_kind="rom")
        for key in ("schema_version", "kind", "start_degree"):
            del header[key]
        write_artifact(path, "rom", header, arrays)
        with pytest.raises(ArtifactError, match=r"'start_degree'\] missing.*rebuild"):
            read_rom(path)

    def test_layout_with_one_start_for_all_cuts_rejected(self, duct, tmp_path):
        """A file of the earlier layout, whose start was the full package's
        (terms, N) fit alone."""
        def edit(arrays):
            arrays["start"] = arrays["start"][-1, -1]

        path = self.rewritten(duct.pkg, tmp_path / "duct.rom", edit)
        with pytest.raises(ArtifactError, match="start has 2 of 4 axes.*rebuild it with "):
            read_rom(path)

    def test_coefficient_layout_rejected(self, duct, tmp_path):
        """A package file holding the coefficient stacks and the EIM T is
        refused: its K and R have the shapes of the folded ones."""
        def edit(arrays):
            arrays["K"], arrays["R"] = coefficient_stacks(duct.pkg, duct.eims)
            arrays["eta_T"], arrays["tau_T"] = duct.eims["eta"].T, duct.eims["tau"].T

        path = self.rewritten(duct.pkg, tmp_path / "duct.rom", edit)
        with pytest.raises(ArtifactError, match="rebuild"):
            read_rom(path)

    @pytest.mark.parametrize("name, cut", [("eta_history", slice(0, 0)),
                                           ("tau_history", slice(1, None)),
                                           ("eta_magic", slice(1, None))])
    def test_eim_data_of_wrong_length_rejected(self, duct, tmp_path, name, cut):
        def edit(arrays):
            arrays[name] = arrays[name][cut]

        path = self.rewritten(duct.pkg, tmp_path / "duct.rom", edit)
        with pytest.raises(ArtifactError, match="malformed rom package"):
            read_rom(path)

    @pytest.mark.parametrize("name", ["magic", "history", "h_t", "gx"])
    def test_record_of_wrong_length_rejected(self, duct, tmp_path, name):
        """The message names the short array, in a construction, a replace
        and read_rom."""
        pkg = duct.pkg
        bad = replace(pkg.data_tau, **{name: getattr(pkg.data_tau, name)[1:]})
        given = {f.name: getattr(pkg, f.name) for f in fields(pkg) if f.init}
        message = "dimension mismatch: tau %s has shape" % name
        with pytest.raises(RomError, match=message):
            RomPackage(**dict(given, data_tau=bad))
        with pytest.raises(RomError, match=message):
            replace(pkg, data_tau=bad)

        def edit(arrays):
            key = "tau_" + name.replace("_", "")
            arrays[key] = arrays[key][1:]

        path = self.rewritten(pkg, tmp_path / "duct.rom", edit)
        with pytest.raises(ArtifactError, match="malformed rom package .RomError: " + message):
            read_rom(path)

    @pytest.mark.parametrize("edit", sorted(WRONG_RANK))
    @pytest.mark.parametrize("key", sorted(ROM_ARRAY_NAMES))
    def test_array_of_wrong_rank_rejected(self, duct, tmp_path, key, edit):
        """Each array as a 0-d array or with an axis dropped is refused with an
        ArtifactError that names it."""
        def rewrite(arrays):
            arrays[key] = WRONG_RANK[edit](arrays[key])

        path = self.rewritten(duct.pkg, tmp_path / "duct.rom", rewrite)
        with pytest.raises(ArtifactError, match="malformed rom package") as info:
            read_rom(path)
        assert "%s has " % ROM_ARRAY_NAMES[key] in str(info.value)

    @pytest.mark.parametrize("key", sorted(ROM_ARRAY_NAMES))
    def test_array_of_the_other_dtype_rejected(self, duct, tmp_path, key):
        """Each array re-coded to the other dtype an artifact holds is refused
        by name: int64 magic ids, float64 for the rest."""
        def rewrite(arrays):
            other = np.float64 if arrays[key].dtype == np.int64 else np.int64
            arrays[key] = arrays[key].astype(other)

        path = self.rewritten(duct.pkg, tmp_path / "duct.rom", rewrite)
        with pytest.raises(ArtifactError, match="array '%s' is stored as" % key):
            read_rom(path)

    @pytest.mark.parametrize("rewrite, match", [
        (lambda magic: magic + 0.5, "'eta_magic' is stored as float64, stmor writes it as int64"),
        (lambda magic: -magic - 1, "RomError: eta magic must hold element ids")],
        ids=["fraction", "negative"])
    def test_magic_that_are_not_element_ids_rejected(self, coarse_artery_rom, tmp_path,
                                                     rewrite, match):
        """Read back, magic + 0.5 was truncated to ids and -magic - 1 kept as
        negative ones; a package in memory is held to the same ids."""
        pkg = coarse_artery_rom[1].pkg

        def edit(arrays):
            arrays["eta_magic"] = rewrite(arrays["eta_magic"])

        path = self.rewritten(pkg, tmp_path / "artery.rom", edit)
        with pytest.raises(ArtifactError, match=re.escape(match)):
            read_rom(path)
        with pytest.raises(RomError, match="eta magic must hold element ids"):
            replace(pkg, data_eta=replace(pkg.data_eta, magic=rewrite(pkg.data_eta.magic)))

    @pytest.mark.parametrize("n_u, n_p", [(99, 42), (None, 1), (1, None)])
    def test_header_sizes_that_disagree_with_the_arrays_rejected(self, duct, tmp_path,
                                                                 n_u, n_p):
        path = tmp_path / "duct.rom"
        write_rom(path, duct.pkg)
        header, arrays = read_artifact(path, expect_kind="rom")
        del header["schema_version"], header["kind"]
        header["n_u"] = duct.pkg.n_u + 1 if n_u is None else n_u
        header["n_p"] = duct.pkg.n_p + 1 if n_p is None else n_p
        write_artifact(path, "rom", header, arrays)
        with pytest.raises(ArtifactError, match="malformed rom package .*header gives "
                                                "N_u=%d, N_p=%d" % (header["n_u"],
                                                                   header["n_p"])):
            read_rom(path)

    def test_amplitudes_without_a_lift_group_rejected(self, duct, tmp_path):
        """A package whose amplitudes lack one of its lift groups is refused
        when read, not at its first query."""
        assert "inflow" in duct.pkg.lift_groups
        path = tmp_path / "duct.rom"
        write_rom(path, duct.pkg)
        header, arrays = read_artifact(path, expect_kind="rom")
        del header["schema_version"], header["kind"]
        header["amplitudes"] = {"other": 1.0}
        write_artifact(path, "rom", header, arrays)
        with pytest.raises(ArtifactError, match="no amplitude for lifting group 'inflow'"):
            read_rom(path)

    @pytest.mark.parametrize("cut", [None, (4, 2)])
    def test_coarse_artery_round_trip_is_bitwise(self, coarse_artery_rom, tmp_path, cut):
        """A package read back, full or truncated, holds the same arrays as
        the one written, its fitted start included, and solves to the same
        bits."""
        cfg, pipe = coarse_artery_rom
        pkg = pipe.pkg if cut is None else truncate(pipe.pkg, *cut)
        assert pkg.start.any()
        write_rom(tmp_path / "artery.rom", pkg)
        _, loaded = read_rom(tmp_path / "artery.rom", mesh_hash=pipe.mesh.content_hash())
        assert (loaded.n_u, loaded.n_p) == (pkg.n_u, pkg.n_p)
        pairs = [(loaded.K, pkg.K), (loaded.R, pkg.R), (loaded.strain_op, pkg.strain_op),
                 (loaded.start, pkg.start)]
        pairs += zip(loaded.tau_scales, pkg.tau_scales)
        for got, want in ((loaded.data_eta, pkg.data_eta), (loaded.data_tau, pkg.data_tau)):
            pairs += [(getattr(got, f.name), getattr(want, f.name))
                      for f in fields(MagicElementData)]
        for got, want in pairs:
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert (loaded.start_degree, loaded.start_loo_error) == \
            (pkg.start_degree, pkg.start_loo_error)
        box = cfg.space.box
        # every cut of the package read back solves as the same cut in memory
        subs = [(truncate(pkg, a, b), truncate(loaded, a, b))
                for a in range(pkg.n_lifts, pkg.n_u + 1) for b in range(1, pkg.n_p + 1)]
        for mu in np.vstack([box.corners(), box.center()[None]]):
            for sub in [(pkg, loaded)] + subs:
                a, b = (solve_rom(p, mu=mu, **cfg.picard_options()) for p in sub)
                assert np.array_equal(a.v_N, b.v_N) and np.array_equal(a.p_N, b.p_N)
                assert a.iterations == b.iterations

    def test_rom_info_reports_dimensions(self, duct):
        info = rom_info(duct.pkg)
        assert info["n_u"] == duct.pkg.n_u
        assert info["n_p"] == duct.pkg.n_p
        assert info["q_eta"] == duct.eims["eta"].n_terms
        assert info["q_tau"] == duct.eims["tau"].n_terms
        assert info["n_reduced"] < info["n_fom_dofs"]
        assert info["parameters"]["names"] == ["u_in"]
        assert info["reduction_factor"] > 1.0
