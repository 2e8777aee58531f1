"""Assembly, boundary data handling, and the nonlinear full-order solve."""

import gc
import itertools
import math
import re
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, splu
from scipy.sparse.linalg import gmres as scipy_gmres

from stmor import fom
from stmor.analysis import AnalysisError, offline_build
from stmor.cases import (artery_analog_config, build_mesh, build_problem, bundled_case,
                         bundled_case_ids)
from stmor.constitutive import (BodyForce, CarreauYasudaParams, ParameterError, tau_scales,
                                viscosity)
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
    fixed_load,
    fom_inner_products,
    gmres,
    lift_coefficients,
    pressure_pins,
    read_snapshot,
    solve_fom,
    write_snapshot,
)
from stmor.io import ArtifactError, read_artifact, write_artifact
from stmor.mesh import SpaceTimeMesh, extrude, interval_mesh, rectangle_mesh
from stmor.rom import RomError, project_offline

NEWTONIAN = CarreauYasudaParams(eta_0=270.0, eta_inf=0.0, lam=1.2e-3, a=1.0,
                                n=1.0, rho=1200.0)
SHEAR_THINNING = CarreauYasudaParams(eta_0=270.0, eta_inf=0.0, lam=1.2e-3, a=1.0,
                                     n=0.775, rho=1200.0)
INVISCID = CarreauYasudaParams(eta_0=0.0, eta_inf=0.0, lam=1.0, a=1.0,
                               n=0.5, rho=1.0)

WALLS = ("dirichlet:left", "dirichlet:right", "dirichlet:bottom", "dirichlet:top")


# edits that leave a snapshot's v or p of rank 0 or 2
SNAPSHOT_WRONG_RANK = {"0-d": lambda a: a[:1].reshape(()), "row": lambda a: a[None, :],
                       "column": lambda a: a[:, None]}


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


def loop_lifting(mesh, specs, amplitudes):
    """build_lifting as one loop over every prescribed (node, component),
    first prescription kept: the reference for the array version."""
    d = mesh.d
    groups = sorted({s.group for s in specs}, key=lambda g: (g != "fixed", g))
    vec = {g: np.zeros((mesh.n_nodes, d)) for g in groups}
    owner = {}
    for s in specs:
        nodes = mesh.nodes_of_tag(s.tag)
        if nodes.size == 0:
            continue
        ref = mesh.reference_nodes[nodes]
        vals = np.atleast_2d(np.asarray(s.profile(ref[:, :d], ref[:, d]),
                                        dtype=np.float64))
        for j, c in enumerate(s.components):
            for node, val in zip(nodes, vals[:, j]):
                key = (int(node), int(c))
                if key in owner:
                    g0, v0 = owner[key]
                    if g0 == s.group:
                        if abs(v0 - val) > fom.CONFLICT_TOL * max(1.0, abs(v0)):
                            raise SolverError(
                                "conflicting Dirichlet data at node %d component %d:"
                                " %g vs %g (tag %s)" % (node, c, v0, val, s.tag))
                    elif abs(v0) > fom.CONFLICT_TOL or abs(val) > fom.CONFLICT_TOL:
                        raise SolverError(
                            "node %d component %d prescribed by groups %s and %s "
                            "with non-zero data; amplitudes cannot both hold"
                            % (node, c, g0, s.group))
                    continue
                owner[key] = (s.group, val)
                vec[s.group][node, c] = val
    return [(g, vec[g]) for g in groups]


def lifting_errors(mesh, specs):
    """The messages build_lifting and loop_lifting raise for specs."""
    messages = []
    for build in (build_lifting, loop_lifting):
        with pytest.raises(SolverError) as info:
            build(mesh, specs, {"inlet": 1.0})
        messages.append(str(info.value))
    return messages


class TestLifting:
    @pytest.mark.parametrize("case_id", bundled_case_ids())
    def test_matches_loop_on_bundled_cases(self, case_id):
        cfg = bundled_case(case_id)
        mesh = build_mesh(cfg)
        problem = build_problem(cfg, mesh)
        got = build_lifting(mesh, problem.dirichlet, problem.amplitudes)
        want = loop_lifting(mesh, problem.dirichlet, problem.amplitudes)
        assert [lf.group for lf in got] == [g for g, _ in want]
        for lf, (_, vec) in zip(got, want):
            assert vec.any() or lf.group == "fixed"
            assert lf.vector.tobytes() == vec.tobytes()

    def test_first_conflict_matches_loop(self):
        """The same first conflict, values and groups as the loop, with
        conflicts at several shared nodes and in both components."""
        mesh = channel_mesh(n=3, levels=3)
        up = lambda x, t: np.column_stack([1.0 + x[:, 0], x[:, 1] - 2.0])
        base = list(couette_specs())
        within = base[:2] + [DirichletSpec(tag="dirichlet:bottom", components=(0, 1),
                                           profile=up)] + base[3:]
        got, want = lifting_errors(mesh, within)
        assert got == want and got.startswith("conflicting Dirichlet data")
        # a later component only: the x data agree, the y data do not
        y_only = lambda x, t: np.column_stack([x[:, 1], np.full(len(x), 3.0)])
        later = base[:1] + [DirichletSpec(tag="dirichlet:right", components=(0, 1),
                                          profile=y_only)] + base[2:]
        got, want = lifting_errors(mesh, later)
        assert got == want and "component 1" in got
        across = [DirichletSpec(tag="dirichlet:left", components=(1, 0), profile=up,
                                group="inlet")] + base[1:]
        got, want = lifting_errors(mesh, across)
        assert got == want and "groups inlet and fixed" in got

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

    def test_lift_coefficients_rule(self):
        """fixed gets 1 and any other group its amplitude, as Python floats
        whatever the amplitude's type; a group without one raises the error
        class given."""
        amps = {"inlet": np.float64(3.0), "wall": 2}
        got = lift_coefficients(("fixed", "inlet", "wall"), amps, SolverError)
        assert got == [1.0, 3.0, 2.0] and all(type(c) is float for c in got)
        assert lift_coefficients((), {}, SolverError) == []
        with pytest.raises(RomError, match="no amplitude for lifting group 'outlet'"):
            lift_coefficients(("fixed", "outlet"), amps, RomError)


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


def kernel_before_squares(grad, mean_u, scales, params):
    """The element-field kernel as it was before it took squared invariants:
    (shear rate, viscosity, tau) from gradients (m, d, d) and means (m, d)."""
    temporal, h_s, h_s2 = scales
    eps = 0.5 * (grad + grad.swapaxes(-1, -2))
    gd = np.sqrt(2.0 * np.einsum("...ij,...ij->...", eps, eps))
    eta = viscosity(gd, params)
    speed = np.sqrt(np.add.reduce(mean_u * mean_u, -1))
    nu = eta / params.rho
    tau = 1.0 / np.sqrt(temporal + (2.0 * speed / h_s) ** 2 + (4.0 * nu / h_s2) ** 2)
    return gd, eta, tau


class TestElementFields:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bitwise_the_kernel_of_gradients_and_means(self, d):
        # element_fields on a stand-in of its assembler: random elements,
        # shape-function gradients and scales for a d-dimensional space
        rng = np.random.default_rng(d)
        m, n_nodes = 60, 40
        asm = SimpleNamespace(elems=rng.integers(0, n_nodes, (m, d + 2)),
                              gx=rng.standard_normal((m, d + 2, d)),
                              tau_scales=tau_scales(rng.uniform(0.01, 1.0, m),
                                                    rng.uniform(0.01, 1.0, m)),
                              _cache={})
        assert_kernel(lambda u_full, params: FomAssembler.element_fields(asm, u_full, params),
                      asm, rng.standard_normal((n_nodes, d)))

    @pytest.mark.parametrize("geometry", ["artery", "interval"])
    def test_bitwise_the_kernel_on_an_assembler(self, geometry):
        # the benchmark's 12x5x6 artery (d = 2), and an interval (d = 1),
        # whose gradients take the einsum path; the second call reads the
        # component-major copies the first one built
        if geometry == "artery":
            mesh = coarse_artery()[1]
        else:
            mesh = extrude(interval_mesh(0.0, 1.0, 7), np.linspace(0.0, 1.0, 5))
        asm = FomAssembler(mesh)
        rng = np.random.default_rng(7)
        for _ in range(2):
            assert_kernel(asm.element_fields, asm, rng.standard_normal((mesh.n_nodes, mesh.d)))
        assert "fields" in asm._cache


def assert_kernel(element_fields, asm, u_full):
    """element_fields(u_full, params) equals, bit for bit, the kernel from
    einsum gradients and node means of asm's elements, for four materials."""
    u = u_full[asm.elems]
    strong = CarreauYasudaParams(eta_0=1.0, eta_inf=0.1, lam=3.0, a=2.0, n=0.5, rho=2.0)
    for params in (SHEAR_THINNING, INVISCID, NEWTONIAN, strong):
        want = kernel_before_squares(np.einsum("eac,eaj->ecj", u, asm.gx),
                                     u.mean(axis=1), asm.tau_scales, params)
        for g, w in zip(element_fields(u_full, params), want, strict=True):
            assert np.array_equal(g, w)


def coo_operators(asm):
    """Full-index operators summed from the element blocks through COO, with
    rows and columns taken from the element nodes (no node adjacency); A, C
    and S scale the unit-weight blocks by the element weights w."""
    e, n, d = asm.elems, asm.mesh.n_nodes, asm.d
    v = d * e[:, :, None] + np.arange(d)        # (e, a, c) full velocity index
    p = e[:, :, None, None]                     # (e, k, 1, 1) pressure row

    def coo(blk, rows, cols, shape):
        rows, cols, vals = np.broadcast_arrays(rows, cols, blk)
        return sp.coo_matrix((vals.ravel(), (rows.ravel(), cols.ravel())),
                             shape=shape).tocsr()

    return SimpleNamespace(
        E=coo(asm.mass(), v[:, :, None], v[:, None], (n * d, n * d)),
        A=lambda w: coo(asm.viscous() * w[:, None, None, None, None], v[..., None, None],
                        v[:, None, None], (n * d, n * d)),
        B=coo(asm.divergence(), p, v[:, None], (n, n * d)),
        C=lambda w: coo(asm.stab_pv() * w[:, None, None, None], p, v[:, None], (n, n * d)),
        S=lambda w: coo(asm.stab_pp() * w[:, None, None], e[:, :, None], e[:, None], (n, n)))


def reference_blocks(asm, dof_map, liftings, u, params, problem):
    """Free-restricted blocks and loads built from the COO operators."""
    _, eta, tau = asm.element_fields(u, params)
    rho = params.rho
    ops = coo_operators(asm)
    E_full, A_full = rho * ops.E, ops.A(eta)
    B_full, C_full = ops.B, ops.C(tau)
    free = dof_map.free_full
    l_flat = combine_liftings(liftings, dof_map.n_nodes, dof_map.d).ravel()
    fb = asm.traction_rhs(problem.neumann or {})
    if problem.body_force is not None:
        fb = fb + asm.body_rhs(problem.body_force.vector(asm.d), rho)
    return SimpleNamespace(
        E=E_full[free][:, free], A=A_full[free][:, free], B=B_full[:, free],
        C=C_full[:, free], S=ops.S(tau / rho), H=-(E_full @ l_flat)[free],
        F=fb[free], L=-(A_full @ l_flat)[free], G=-(B_full @ l_flat),
        D=-(C_full @ l_flat))


def reference_system(asm, dof_map, liftings, u, params, problem, pins):
    """The monolithic system assembled block by block, then pinned: rows of
    pinned pressure nodes become unit rows with a zero load."""
    b = reference_blocks(asm, dof_map, liftings, u, params, problem)
    K = sp.bmat([[b.E + b.A, -b.B.T], [b.B + b.C, b.S]], format="csr")
    rhs = np.concatenate([b.H + b.F + b.L, b.G + b.D])
    rows = dof_map.n_velocity + pins
    keep = np.ones(K.shape[0])
    keep[rows] = 0.0
    K = sp.diags(keep) @ K + sp.coo_matrix((np.ones(rows.size), (rows, rows)),
                                           shape=K.shape)
    rhs[rows] = 0.0
    return K.tocsr(), rhs


def fixed_pattern_system(asm, dof_map, liftings, u, params, problem):
    pattern = asm.system_pattern(dof_map)
    lift = combine_liftings(liftings, dof_map.n_nodes, dof_map.d).ravel()
    sys = assemble_fom(asm, pattern, u, params, lift,
                       fixed_load(asm, dof_map, problem, params.rho))
    return sys.matrix(), sys.rhs()


class TestAssembly:
    def test_block_dimensions(self):
        mesh = channel_mesh(n=2, levels=3)
        dm = build_dof_map(mesh, couette_specs())
        lifts = build_lifting(mesh, couette_specs(), {})
        u = combine_liftings(lifts, mesh.n_nodes, 2)
        asm = FomAssembler(mesh)
        sys = reference_blocks(asm, dm, lifts, u, SHEAR_THINNING, couette_problem())
        nv, npr = dm.n_velocity, dm.n_pressure
        assert sys.E.shape == (nv, nv) and sys.A.shape == (nv, nv)
        assert sys.B.shape == (npr, nv) and sys.C.shape == (npr, nv)
        assert sys.S.shape == (npr, npr)
        assert sys.H.shape == (nv,) and sys.F.shape == (nv,) and sys.L.shape == (nv,)
        assert sys.G.shape == (npr,) and sys.D.shape == (npr,)
        K, rhs = fixed_pattern_system(asm, dm, lifts, u, SHEAR_THINNING,
                                      couette_problem())
        assert K.shape == (dm.n_total, dm.n_total) and rhs.shape == (dm.n_total,)

    def test_viscous_block_symmetric_psd(self):
        mesh = channel_mesh(n=3, levels=4)
        dm = build_dof_map(mesh, couette_specs())
        lifts = build_lifting(mesh, couette_specs(), {})
        rng = np.random.default_rng(0)
        u = rng.standard_normal((mesh.n_nodes, 2))
        asm = FomAssembler(mesh)
        A = reference_blocks(asm, dm, lifts, u, SHEAR_THINNING, couette_problem()).A
        gap = abs(A - A.T).max()
        assert gap <= 1e-12 * abs(A).max()
        for _ in range(10):
            x = rng.standard_normal(dm.n_velocity)
            assert x @ (A @ x) >= -1e-12 * (x @ x)

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


def open_couette_problem(material=SHEAR_THINNING):
    """Couette data with the y-velocity left free on the right wall, a free
    slip that fixes no pressure level: every level is pinned."""
    specs = list(couette_specs())
    specs[1] = DirichletSpec(tag="dirichlet:right", components=(0,),
                             profile=lambda x, t: x[:, 1:2])
    return FomProblem(name="couette-open", material=material,
                      dirichlet=tuple(specs), amplitudes={})


def coarse_artery():
    cfg = artery_analog_config(n_x=12, n_y=5, n_levels=6)
    mesh = build_mesh(cfg)
    return cfg, mesh, build_problem(cfg, mesh)


def random_iterate(mesh, problem, dof_map, seed):
    """A full velocity with the problem's lifts and random free values."""
    _, amps = problem.effective(None)
    lifts = build_lifting(mesh, problem.dirichlet, amps)
    rng = np.random.default_rng(seed)
    u = combine_liftings(lifts, mesh.n_nodes, mesh.d)
    return lifts, u + dof_map.expand(rng.standard_normal(dof_map.n_velocity))


def loop_traction(mesh, neumann_data):
    """The traction load facet by facet, each facet's measure the norm of
    its edges' cross product in exact arithmetic on its float coordinates.
    (A Gram determinant |a|^2 |b|^2 - (a.b)^2 in floats would lose up to
    1.4e-11 of a valve outlet facet, whose edges run 0.2 s in time but
    2.5 mm in space, by cancellation.)"""
    from fractions import Fraction

    F = np.zeros((mesh.n_nodes, mesh.d))
    for facet, tag in zip(mesh.facets.tolist(), mesh.facet_tags):
        h = neumann_data.get(tag)
        if h is None:
            continue
        x = [[Fraction(float(c)) for c in mesh.nodes[i]] for i in facet]
        e = [[p[c] - x[0][c] for c in range(mesh.dimension)] for p in x[1:]]
        if mesh.dimension == 2:
            normal = e[0]
        else:
            normal = [e[0][k] * e[1][m] - e[0][m] * e[1][k] for k, m in ((1, 2), (2, 0), (0, 1))]
        w = float(sum(c * c for c in normal)) ** 0.5 / math.factorial(mesh.dimension - 1) \
            / mesh.dimension
        for node in facet:
            F[node, :] += w * np.asarray(h)
    return F.ravel()


class TestTraction:
    """traction_rhs on D = 3 meshes, against the tagged area and the facet
    loop, and its refusals."""

    @pytest.mark.parametrize("case, traction, total", [
        ("artery", (1.5, -0.5), (0.015, -0.005)),      # outlet 0.01 m x 1.0 s
        ("valve", (2.0, -1.0), (0.36, -0.18))])         # outlet 0.1 m x 1.8 s
    def test_load_is_traction_times_area(self, case, traction, total):
        mesh = coarse_artery()[1] if case == "artery" else build_mesh(bundled_case("valve-analog"))
        F = FomAssembler(mesh).traction_rhs({"outlet": traction})
        np.testing.assert_allclose(F.reshape(-1, 2).sum(axis=0), total, rtol=1e-12)
        ref = loop_traction(mesh, {"outlet": traction})
        assert np.abs(F - ref).max() <= 1e-15 * np.abs(ref).max()
        outlet = np.zeros(mesh.n_nodes, dtype=bool)
        outlet[mesh.nodes_of_tag("outlet")] = True
        assert np.all(F.reshape(-1, 2)[~outlet] == 0.0)

    def test_two_tags_sum_their_loads(self):
        _, mesh, _ = coarse_artery()
        asm = FomAssembler(mesh)
        both = asm.traction_rhs({"outlet": (1.5, -0.5), "inlet": (0.0, 2.0)})
        np.testing.assert_array_equal(both, asm.traction_rhs({"outlet": (1.5, -0.5)})
                                      + asm.traction_rhs({"inlet": (0.0, 2.0)}))
        ref = loop_traction(mesh, {"outlet": (1.5, -0.5), "inlet": (0.0, 2.0)})
        assert np.abs(both - ref).max() <= 1e-15 * np.abs(ref).max()

    @pytest.mark.parametrize("traction", [(1.5,), (1.5, -0.5, 0.2), 1.5])
    def test_traction_of_another_length_is_refused(self, traction):
        asm = FomAssembler(coarse_artery()[1])
        with pytest.raises(SolverError, match=r"traction on 'outlet' has shape \(\d?,?\), "
                                              r"not \(2,\)"):
            asm.traction_rhs({"outlet": traction})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_traction_is_refused(self, bad):
        asm = FomAssembler(coarse_artery()[1])
        with pytest.raises(SolverError, match="traction on 'outlet' is not finite"):
            asm.traction_rhs({"outlet": (1.5, bad)})

    def test_traction_on_a_tag_the_mesh_lacks_is_refused(self):
        asm = FomAssembler(coarse_artery()[1])
        with pytest.raises(SolverError, match="traction on 'outlt', a tag the mesh does not carry"):
            asm.traction_rhs({"outlet": (1.5, -0.5), "outlt": (1.5, -0.5)})


class TestFixedPattern:
    @staticmethod
    def case(name):
        if name == "artery":
            # the outlet is a natural boundary; give it a non-zero traction
            _, mesh, prob = coarse_artery()
            return mesh, replace(prob, neumann={"outlet": (1.5, -0.5)})
        mesh = channel_mesh(n=3, levels=4)
        if name == "couette":
            return mesh, open_couette_problem()
        if name == "pinned":
            return mesh, couette_problem(SHEAR_THINNING)
        return mesh, FomProblem(name="forced", material=SHEAR_THINNING,
                                dirichlet=couette_specs(), amplitudes={},
                                body_force=BodyForce((0.3, -0.1)))

    @staticmethod
    def assert_matches_reference(asm, mesh, prob, dm, seed):
        lifts, u = random_iterate(mesh, prob, dm, seed)
        params = prob.effective(None)[0]
        K, rhs = fixed_pattern_system(asm, dm, lifts, u, params, prob)
        K_ref, rhs_ref = reference_system(asm, dm, lifts, u, params, prob,
                                          pressure_pins(mesh, dm))
        assert K.shape == K_ref.shape == (dm.n_total, dm.n_total)
        assert abs(K - K_ref).max() <= 1e-13 * abs(K_ref).max()
        assert np.abs(rhs - rhs_ref).max() <= 1e-13 * np.abs(rhs_ref).max()

    @pytest.mark.parametrize("name", ["couette", "artery", "pinned", "forced"])
    def test_matches_block_assembly(self, name):
        mesh, prob = self.case(name)
        asm = FomAssembler(mesh)
        dm = build_dof_map(mesh, prob.dirichlet)
        pins = pressure_pins(mesh, dm)
        load = fixed_load(asm, dm, prob, prob.material.rho)
        # each case covers what its name says
        assert {"couette": pins.size == 4 and np.any(dm.vdof[mesh.lateral_nodes()] >= 0),
                "artery": pins.size == 0 and np.any(load != 0.0),
                "pinned": pins.size > 0,
                "forced": pins.size > 0 and np.any(load != 0.0)}[name]
        self.assert_matches_reference(asm, mesh, prob, dm, seed=1)

    def test_one_assembler_serves_two_dof_maps(self):
        mesh = channel_mesh(n=3, levels=4)
        asm = FomAssembler(mesh)
        sizes = []
        for seed, prob in enumerate((couette_problem(SHEAR_THINNING),
                                     open_couette_problem(),
                                     couette_problem(SHEAR_THINNING))):
            dm = build_dof_map(mesh, prob.dirichlet)
            self.assert_matches_reference(asm, mesh, prob, dm, seed)
            sizes.append(dm.n_total)
        assert sizes[0] == sizes[2] != sizes[1]

    @pytest.mark.parametrize("name", ["artery", "pinned"])
    def test_maps_do_not_depend_on_the_chunk(self, name, monkeypatch):
        mesh, prob = self.case(name)
        dm = build_dof_map(mesh, prob.dirichlet)
        built = []
        for chunk in (7, fom.MAP_CHUNK, mesh.n_elements):
            monkeypatch.setattr(fom, "MAP_CHUNK", chunk)
            pattern = FomAssembler(mesh).system_pattern(dm)
            built.append((pattern.base,) + pattern.weights)
        for got in built[1:]:
            for a, b in zip(got, built[0]):
                assert a.shape == b.shape
                for x, y in ((a.data, b.data), (a.indices, b.indices),
                             (a.indptr, b.indptr)):
                    assert x.dtype == y.dtype and np.array_equal(x, y)


def uneven_channel_mesh():
    """A 3x3 channel on uneven breaks and levels: no two of its wall rows
    of -B^T are proportional, so a free normal component fixes every level."""
    spatial = rectangle_mesh(np.array([0.0, 0.35, 0.62, 1.0]), np.array([0.0, 0.42, 0.71, 1.0]),
                             *WALLS)
    return extrude(spatial, np.array([0.0, 0.28, 0.61, 1.0]))


def first_system_sv_ratio(mesh, prob, monkeypatch=None):
    """Smallest over largest singular value of the first Picard system of
    prob; with monkeypatch, of the system without pressure pins."""
    if monkeypatch is not None:
        monkeypatch.setattr(fom, "pressure_pins", lambda *a: np.empty(0, dtype=np.int64))
    dm = build_dof_map(mesh, prob.dirichlet)
    asm = FomAssembler(mesh)
    pattern = asm.system_pattern(dm)
    params, amps = prob.effective(None)
    lift = combine_liftings(build_lifting(mesh, prob.dirichlet, amps),
                            mesh.n_nodes, mesh.d).ravel()
    K = assemble_fom(asm, pattern, None, params, lift,
                     fixed_load(asm, dm, prob, params.rho)).matrix()
    if monkeypatch is not None:
        monkeypatch.undo()
    s = np.linalg.svd(K.toarray(), compute_uv=False)
    return s[-1] / s[0]


def couette_with(index, free_comp):
    """couette_problem with wall index of WALLS prescribing only the other
    component than free_comp, to its Couette value."""
    specs = list(couette_specs())
    specs[index] = DirichletSpec(tag=WALLS[index], components=(1 - free_comp,),
                                 profile=lambda x, t: x[:, 1:2] if free_comp else 0.0 * x[:, :1])
    return FomProblem(name="couette-free", material=NEWTONIAN, dirichlet=tuple(specs),
                      amplitudes={})


class TestPressureGauge:
    """One rule: one level is pinned, at its first node, per pressure null
    vector that is constant on each level, from the null space of -B^T on the
    level indicators over the free lateral rows.  A level no row fixes (no
    free lateral component, or only tangential ones) is such a vector, and
    so is a mix of levels whose wall rows cancel, as on uniform breaks."""

    def test_all_dirichlet_pins_one_per_level(self):
        mesh = channel_mesh(n=2, levels=4)
        dm = build_dof_map(mesh, couette_specs())
        pins = pressure_pins(mesh, dm)
        assert pins.size == 4
        np.testing.assert_array_equal(pins, np.arange(4) * 9)

    def test_partially_free_boundary_needs_no_pin(self):
        # the top wall is y = const: its free y-velocity is normal to it
        mesh = uneven_channel_mesh()
        specs = list(couette_specs())
        specs[3] = DirichletSpec(tag="dirichlet:top", components=(0,),
                                 profile=lambda x, t: np.ones((len(x), 1)))
        dm = build_dof_map(mesh, specs)
        assert pressure_pins(mesh, dm).size == 0

    @pytest.mark.parametrize("free_comp, pinned", [(1, True), (0, False)])
    def test_only_a_free_normal_component_gauges_the_levels(self, free_comp, pinned):
        # the right wall is x = const: its free y-velocity is tangential and
        # leaves every level's pressure undetermined, a free x-velocity not
        mesh = uneven_channel_mesh()
        specs = list(couette_specs())
        specs[1] = DirichletSpec(tag="dirichlet:right", components=(1 - free_comp,),
                                 profile=lambda x, t: np.zeros((len(x), 1)))
        dm = build_dof_map(mesh, specs)
        np.testing.assert_array_equal(pressure_pins(mesh, dm),
                                      np.arange(4) * 16 if pinned else [])

    def test_gauge_is_decided_once_per_dof_map(self, monkeypatch):
        mesh = channel_mesh(n=3, levels=4)
        asm, calls = FomAssembler(mesh), []
        monkeypatch.setattr(fom, "pressure_pins", lambda *a, f=fom.pressure_pins:
                            calls.append("pins") or f(*a))
        for prob in (open_couette_problem(), open_couette_problem(), couette_problem()):
            dm = build_dof_map(mesh, prob.dirichlet)
            assert solve_fom(mesh, prob, assembler=asm, dof_map=dm).converged
            np.testing.assert_array_equal(asm.system_pattern(dm).pins, np.arange(4) * 16)
        # the second open solve reuses the first one's pattern and pins
        assert calls == ["pins", "pins"]

    def test_outflow_gauges_every_level(self):
        _, mesh, prob = coarse_artery()
        dm = build_dof_map(mesh, prob.dirichlet)
        assert pressure_pins(mesh, dm).size == 0

    def test_free_slip_system_is_nonsingular(self):
        # every level pinned, the free-slip system has full rank
        mesh = channel_mesh(n=3, levels=4)
        prob = open_couette_problem()
        dm = build_dof_map(mesh, prob.dirichlet)
        asm = FomAssembler(mesh)
        pattern = asm.system_pattern(dm)
        np.testing.assert_array_equal(pattern.pins, [0, 16, 32, 48])
        assert first_system_sv_ratio(mesh, prob) >= 1e-10
        sol = solve_fom(mesh, prob, assembler=asm, dof_map=dm)
        assert sol.converged and len(sol.iterations) <= 6
        np.testing.assert_array_equal(sol.p[pattern.pins], 0.0)

    @pytest.mark.parametrize("n, index, free_comp, pins", [(2, 3, 1, [9]), (3, 1, 0, [16])])
    def test_uniform_breaks_pin_one_mixed_level(self, monkeypatch, n, index, free_comp, pins):
        # a free normal component on one wall of a uniform channel: the wall
        # rows of every level are proportional, so one mix of the levels no
        # row fixes, and the system without a pin is singular
        mesh = channel_mesh(n=n, levels=n + 1)
        prob = couette_with(index, free_comp)
        np.testing.assert_array_equal(
            pressure_pins(mesh, build_dof_map(mesh, prob.dirichlet)), pins)
        assert first_system_sv_ratio(mesh, prob, monkeypatch) <= 1e-18
        assert first_system_sv_ratio(mesh, prob) >= 1e-12
        sol = solve_fom(mesh, prob)
        assert sol.converged and len(sol.iterations) <= 2
        np.testing.assert_array_equal(sol.p[pins], 0.0)

    @pytest.mark.parametrize("case", ["couette", "open", "artery"])
    def test_mesh_without_levels_takes_them_from_node_times(self, case, caplog):
        # the same meshes without time_levels or n_spatial: the levels are
        # the distinct node times, so the pins are the leveled mesh's
        if case == "artery":
            _, mesh, prob = coarse_artery()
        else:
            mesh = channel_mesh(n=3, levels=4)
            prob = couette_problem() if case == "couette" else open_couette_problem()
        bare = SpaceTimeMesh(mesh.dimension, mesh.nodes, mesh.elements, mesh.facets,
                             mesh.facet_tags)
        assert bare.time_levels.size == 0 and not bare.n_spatial
        with caplog.at_level("WARNING", logger="stmor.fom"):
            pins = pressure_pins(bare, build_dof_map(bare, prob.dirichlet))
        np.testing.assert_array_equal(pins, [] if case == "artery" else [0, 16, 32, 48])
        np.testing.assert_array_equal(pins, pressure_pins(mesh, build_dof_map(mesh,
                                                                              prob.dirichlet)))
        assert caplog.messages == []

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


def bulge(x, t):
    """Non-affine deformation of the unit square that moves its right and top
    walls: (x, y) -> (x (1 + 0.2 t y), y (1 + 0.1 t x^2))."""
    out = np.empty_like(x)
    out[:, 0] = x[:, 0] * (1.0 + 0.2 * t * x[:, 1])
    out[:, 1] = x[:, 1] * (1.0 + 0.1 * t * x[:, 0] ** 2)
    return out


LINEAR_FLOWS = {"couette": lambda x: np.column_stack([x[:, 1], np.zeros(len(x))]),
                "strain": lambda x: np.column_stack([x[:, 0], -x[:, 1]])}


class TestDeformingDomain:
    """A linear, divergence-free velocity with zero pressure solves the
    problem on any domain, and P1 holds it exactly on straight-sided
    simplices, so the solve must reproduce it on a deforming mesh too.  Each
    reference point's Dirichlet data is the exact field at its mapped point."""

    @pytest.mark.parametrize("n", [4, 8])
    @pytest.mark.parametrize("flow", sorted(LINEAR_FLOWS))
    @pytest.mark.parametrize("power", [1.0, 0.5])
    def test_linear_flow_is_exact(self, n, flow, power):
        exact = LINEAR_FLOWS[flow]
        breaks = np.linspace(0.0, 1.0, n + 1)
        mesh = extrude(rectangle_mesh(breaks, breaks, *WALLS), breaks, bulge)
        specs = tuple(DirichletSpec(tag=tag, components=(0, 1),
                                    profile=lambda x, t: exact(bulge(x, t)))
                      for tag in WALLS + ("initial",))
        material = CarreauYasudaParams(eta_0=1.0, eta_inf=0.0, lam=1.0, a=2.0, n=power,
                                       rho=1.0)
        problem = FomProblem(name="bulge", material=material, dirichlet=specs, amplitudes={})
        sol = solve_fom(mesh, problem)
        assert sol.converged and len(sol.iterations) == 2
        u = sol.velocity_field(build_dof_map(mesh, specs), build_lifting(mesh, specs, {}))
        want = exact(mesh.nodes[:, :2])
        assert np.abs(u - want).max() <= 1e-12 * np.abs(want).max()
        assert np.abs(sol.p).max() <= 1e-10


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

    def test_mu_without_parameters_is_refused(self):
        # a case without parameters has no mu to solve at or to record; an
        # empty mu, as a snapshot without parameters reads back, is none
        mesh = channel_mesh(n=2, levels=3)
        with pytest.raises(ParameterError, match="no parameters"):
            solve_fom(mesh, couette_problem(), mu=[5.0, 7.0])
        sol = solve_fom(mesh, couette_problem(), mu=np.array([]))
        assert sol.converged and sol.mu.size == 0

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

    @pytest.mark.parametrize("tol", [np.nan, 0.0, -1.0, 1.0, 1e308])
    def test_tolerance_outside_unit_interval_rejected(self, tol):
        with pytest.raises(SolverError, match=r"picard_tol must lie in \(0, 1\)"):
            solve_fom(channel_mesh(n=2, levels=3), couette_problem(), picard_tol=tol)

    @pytest.mark.parametrize("option, value", [
        ("picard_max", True), ("picard_max", 7.9), ("picard_max", "3"),
        ("picard_tol", "3"), ("picard_tol", None)])
    def test_option_of_the_wrong_type_rejected(self, option, value):
        """Options given in code, which no config key table has read: a
        picard_max of True ran one iteration and reported a stall."""
        kw = {"picard_tol": 1e-12, option: value}
        with pytest.raises(SolverError, match=option):
            solve_fom(channel_mesh(n=2, levels=3), couette_problem(), **kw)

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


class CountingNumpy:
    """numpy with its ``empty`` calls counted, a stand-in for fom's ``np``."""

    def __init__(self):
        self.empty_calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def empty(self, *args, **kwargs):
        self.empty_calls += 1
        return np.empty(*args, **kwargs)


class TestPicardDriver:
    @staticmethod
    def step(x):
        # x[0] flips sign forever; x[1:] contracts to the fixed point 2
        new = np.concatenate([-x[:1], 0.5 * x[1:] + 1.0])
        return new, {"pinned": float(new[0])}

    def test_skipped_entries_do_not_count(self, monkeypatch):
        monkeypatch.setattr(fom, "MIXING_DEPTH", 0)     # the plain sequence
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
            assert rec == {"iteration": it, "rel_update": rel, "mixing": 0,
                           "pinned": float(new[0])}
            prev = new
        assert records[-1]["rel_update"] <= 1e-12 < records[-2]["rel_update"]

    def test_history_is_allocated_at_the_first_pair(self, monkeypatch):
        counting = CountingNumpy()
        monkeypatch.setattr(fom, "np", counting)
        fixed = np.array([1.0, 2.0, 2.0])
        _, records, _ = fom.picard(lambda x: (fixed, {}), fixed, 1e-12, 5, True,
                                   SolverError, fom.logger, "test", skip=1)
        assert len(records) == 1 and counting.empty_calls == 0     # no history
        _, records, _ = fom.picard(self.step, np.array([1.0, 0.0, 0.0]), 1e-12, 100, True,
                                   SolverError, fom.logger, "test", skip=1)
        assert len(records) == 3 and counting.empty_calls == 2     # dF and dG, once

    def test_counted_entries_can_stall(self, monkeypatch):
        monkeypatch.setattr(fom, "MIXING_DEPTH", 0)
        with pytest.raises(SolverError, match="test stalled"):
            fom.picard(self.step, np.array([1.0, 0.0, 0.0]), 1e-12, 100, True,
                       SolverError, fom.logger, "test", skip=0)


def plain_picard(step, x0, tol, max_it, strict, error, logger, what, skip=0):
    """The Picard driver as it was before Anderson mixing: x <- step(x)."""
    if max_it < 1:
        raise error("picard_max must be at least 1")
    x, records = x0, []
    for it in range(1, max_it + 1):
        x_new, extra = step(x)
        dx = np.linalg.norm(x_new[skip:] - x[skip:])
        nx = np.linalg.norm(x_new[skip:])
        rel = dx / nx if nx > 0 else (0.0 if dx == 0.0 else np.inf)
        records.append({"iteration": it, "rel_update": float(rel), **extra})
        x = x_new
        if rel <= tol:
            return x, records, True
    msg = "%s stalled at rel update %.3e after %d iterations" % (what, rel, max_it)
    if strict:
        raise error(msg)
    logger.warning(msg)
    return x, records, False


TIMINGS = ("assemble_s", "factor_s", "solve_s")


class TestAndersonMixing:
    def test_depth_zero_is_the_plain_loop(self, monkeypatch):
        cfg, mesh, prob = coarse_artery()
        opts = cfg.picard_options()
        box = cfg.space.box
        for mu in (np.asarray(box.lower), box.center()):
            with monkeypatch.context() as m:
                m.setattr(fom, "MIXING_DEPTH", 0)
                new = solve_fom(mesh, prob, mu=mu, **opts)
            with monkeypatch.context() as m:
                m.setattr(fom, "picard", plain_picard)
                old = solve_fom(mesh, prob, mu=mu, **opts)
            assert np.array_equal(new.v, old.v) and np.array_equal(new.p, old.p)
            assert len(new.iterations) == len(old.iterations) > 2
            for a, b in zip(new.iterations, old.iterations):
                assert a.pop("mixing") == 0
                for key in TIMINGS:
                    a.pop(key), b.pop(key)
                assert a == b

    def test_same_fixed_point_in_fewer_iterations(self, monkeypatch):
        cfg, mesh, prob = coarse_artery()
        opts = cfg.picard_options()
        mixed = solve_fom(mesh, prob, **opts)
        tight = solve_fom(mesh, prob, picard_tol=1e-12, picard_max=60)
        with monkeypatch.context() as m:
            m.setattr(fom, "MIXING_DEPTH", 0)
            plain = solve_fom(mesh, prob, **opts)
            plain_tight = solve_fom(mesh, prob, picard_tol=1e-12, picard_max=60)
        assert _relative_difference(tight, plain_tight) <= 1e-10
        assert len(mixed.iterations) <= 13 < len(plain.iterations)
        assert sum(r["factorized"] for r in mixed.iterations) \
            == sum(r["factorized"] for r in plain.iterations)
        assert all(r["linear_residual"] <= LINEAR_RESIDUAL_TOL for r in mixed.iterations)
        assert max(r["mixing"] for r in mixed.iterations) == fom.MIXING_DEPTH

    def test_linear_contraction_converges_like_gmres(self):
        # a linear map with spectral radius 0.95: plain steps need hundreds of
        # iterations, a full mixing history solves it in a handful
        rng = np.random.default_rng(4)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        A = Q @ np.diag([0.95, -0.6, 0.3]) @ Q.T
        b = rng.standard_normal(3)
        x, records, converged = fom.picard(lambda x: (A @ x + b, {}), np.zeros(3),
                                           1e-12, 50, True, SolverError,
                                           fom.logger, "test")
        assert converged and len(records) <= 8
        want = np.linalg.solve(np.eye(3) - A, b)
        assert np.linalg.norm(x - want) <= 1e-11 * np.linalg.norm(want)

    @pytest.mark.parametrize("start", [0.0, 0.1])
    def test_no_fixed_point_empties_the_history(self, start, monkeypatch):
        # x -> x + 1: every residual difference is zero or round-off, so each
        # least-squares problem is rank-deficient and no mixed iterate forms
        lstsq = []

        def spy(a, b):
            out = fom_dgels(a, b)
            lstsq.append(a.shape[1])
            return out

        fom_dgels = fom.dgels
        monkeypatch.setattr(fom, "dgels", spy)
        step = lambda x: (x + 1.0, {})     # noqa: E731
        x0 = np.full(4, start)
        with pytest.raises(SolverError, match="test stalled"):
            fom.picard(step, x0, 1e-12, 30, True, SolverError, fom.logger, "test")
        # one pair at a time, dropped every time (or the history restarts on
        # a residual that grew by round-off before any least squares)
        assert lstsq and set(lstsq) == {1}
        lstsq.clear()
        x, records, converged = fom.picard(step, x0, 1e-12, 30, False, SolverError,
                                           fom.logger, "test")
        assert not converged and np.all(np.isfinite(x))
        assert all(r["mixing"] == 0 for r in records)
        np.testing.assert_allclose(x, start + 30.0, rtol=1e-14)


def _relative_difference(a, b):
    xa, xb = np.concatenate([a.v, a.p]), np.concatenate([b.v, b.p])
    return np.linalg.norm(xa - xb) / np.linalg.norm(xb)


class TestLaggedFactor:
    @pytest.mark.parametrize("case", ["couette", "artery"])
    def test_matches_factor_every_iteration(self, case, monkeypatch):
        if case == "couette":
            # started at the lifting: from rest the Newtonian first step hits
            # the linear shear, and the solve stops after two steps
            mesh = channel_mesh(n=3, levels=4)
            prob = couette_problem(SHEAR_THINNING)
            opts = {"x0": np.zeros(build_dof_map(mesh, prob.dirichlet).n_total)}
        else:
            cfg = artery_analog_config(n_x=12, n_y=5, n_levels=6)
            mesh, opts = build_mesh(cfg), cfg.picard_options()
            prob = build_problem(cfg, mesh)
        lagged = solve_fom(mesh, prob, **opts)
        with monkeypatch.context() as m:
            # every Krylov re-solve misses the contract: each system is factored
            m.setattr(fom, "gmres",
                      lambda K, rhs, psolve, x0: (np.zeros_like(rhs), 0))
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
        # started at the lifting, for more than two steps (see above)
        x0 = np.zeros(build_dof_map(mesh, prob.dirichlet).n_total)
        reference = solve_fom(mesh, prob, x0=x0)
        calls = []

        def first_call_wrong(K, rhs, psolve, x0):
            x, its = gmres(K, rhs, psolve, x0)
            calls.append(its)
            return (x + 1.0 if len(calls) == 1 else x), its

        monkeypatch.setattr(fom, "gmres", first_call_wrong)
        sol = solve_fom(mesh, prob, x0=x0)
        assert sol.converged
        assert [rec["factorized"] for rec in sol.iterations[:3]] == [True, True, False]
        assert sol.iterations[1]["krylov_its"] > 0
        assert sol.iterations[1]["linear_residual"] <= LINEAR_RESIDUAL_TOL
        assert len(sol.iterations) == len(reference.iterations)
        assert _relative_difference(sol, reference) <= 1e-10

    def test_plain_call_factors(self):
        K = sp.csr_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
        x, rel, factorized, its, factor_s = direct_solve(K, np.array([1.0, 2.0]))
        assert factorized and its == 0 and rel <= LINEAR_RESIDUAL_TOL
        np.testing.assert_allclose(K @ x, [1.0, 2.0], rtol=1e-14)


    def test_hopeless_cycles_stop_early(self, monkeypatch):
        # coarse artery: systems 2 and 3 cannot meet the contract on the first
        # factor; their cycles stop early and the system is refactored
        monkeypatch.setattr(fom, "MIXING_DEPTH", 0)     # the plain sequence
        cfg, mesh, prob = coarse_artery()
        recs = solve_fom(mesh, prob, **cfg.picard_options()).iterations
        assert [rec["factorized"] for rec in recs[:3]] == [True, True, True]
        assert sum(rec["factorized"] for rec in recs) == 3
        assert all(0 < rec["krylov_its"] < KRYLOV_MAX_ITS for rec in recs[1:3])

    def test_records_carry_step_timings(self):
        mesh, prob = channel_mesh(n=3, levels=4), couette_problem(SHEAR_THINNING)
        x0 = np.zeros(build_dof_map(mesh, prob.dirichlet).n_total)
        sol = solve_fom(mesh, prob, x0=x0)
        assert len(sol.iterations) > 2
        for rec in sol.iterations:
            assert rec["assemble_s"] >= 0.0 and rec["solve_s"] >= 0.0
            # factorization and refinement time, none on an accepted Krylov step
            if rec["factorized"]:
                assert 0.0 < rec["factor_s"] <= rec["solve_s"]
            else:
                assert rec["factor_s"] == 0.0
        assert not all(rec["factorized"] for rec in sol.iterations)


def counting_splu(ordered_failure=None):
    """A stand-in for fom.splu that records each call's column ordering.

    ordered_failure, if given, replaces the result of the first call, the
    ordered (diagonal-pivot) one: "raise" makes it break down, "miss" returns
    a factor whose solves miss the residual contract.
    """
    calls = []

    def call(A, **kwargs):
        calls.append(kwargs.get("permc_spec"))
        if ordered_failure and calls == ["MMD_AT_PLUS_A"]:
            if ordered_failure == "raise":
                raise RuntimeError("Factor is exactly singular")
            return SimpleNamespace(solve=np.zeros_like)
        return splu(A, **kwargs)

    return call, calls


def partial_pivot_only(A, **kwargs):
    """fom.splu with every ordered call broken: each factor is splu(K.tocsc())."""
    if kwargs:
        raise RuntimeError("Factor is exactly singular")
    return splu(A)


class TestOrderedFactor:
    @pytest.mark.parametrize("name", ["couette", "artery", "pinned", "forced"])
    def test_matches_partial_pivot_factor(self, name, monkeypatch):
        mesh, prob = TestFixedPattern.case(name)
        ordered = solve_fom(mesh, prob, picard_max=60)
        with monkeypatch.context() as m:
            m.setattr(fom, "splu", partial_pivot_only)
            plain = solve_fom(mesh, prob, picard_max=60)
        assert ordered.converged and plain.converged
        assert len(ordered.iterations) == len(plain.iterations) > 1
        assert [r["factorized"] for r in ordered.iterations] \
            == [r["factorized"] for r in plain.iterations]
        assert all(r["linear_residual"] <= LINEAR_RESIDUAL_TOL
                   for r in ordered.iterations + plain.iterations)
        assert _relative_difference(ordered, plain) <= 1e-10

    @pytest.mark.parametrize("name", ["couette", "artery"])
    def test_order_is_a_node_blocked_permutation(self, name, monkeypatch):
        mesh, prob = TestFixedPattern.case(name)
        asm = FomAssembler(mesh)
        dm = build_dof_map(mesh, prob.dirichlet)
        builds = []
        dissect = fom.nested_dissection
        monkeypatch.setattr(fom, "nested_dissection",
                            lambda *a: builds.append(1) or dissect(*a))
        pattern = asm.system_pattern(dm)
        assert not builds           # built on first use, not with the pattern
        order = pattern.order(asm)
        np.testing.assert_array_equal(np.sort(order), np.arange(dm.n_total))
        # node and kind (velocity component, or d for pressure) of each DOF
        d = mesh.d
        node_of = np.empty(dm.n_total, dtype=np.int64)
        kind_of = np.empty(dm.n_total, dtype=np.int64)
        free = dm.vdof >= 0
        node_of[dm.vdof[free]] = np.nonzero(free)[0]
        kind_of[dm.vdof[free]] = np.nonzero(free)[1]
        node_of[dm.n_velocity:] = np.arange(mesh.n_nodes)
        kind_of[dm.n_velocity:] = d
        nodes, kinds = node_of[order], kind_of[order]
        first = np.r_[True, nodes[1:] != nodes[:-1]]
        assert np.count_nonzero(first) == mesh.n_nodes     # each node contiguous
        assert np.all(kinds[1:][~first[1:]] > kinds[:-1][~first[1:]])
        assert np.all(kinds[np.r_[first[1:], True]] == d)  # pressure last
        if name == "couette":
            assert np.any(free[:, 0] != free[:, 1])     # one free component
        assert pattern.order(asm) is order and len(builds) == 1

    @pytest.mark.parametrize("failure", ["raise", "miss"])
    def test_failed_ordered_factor_falls_back(self, failure, monkeypatch):
        mesh, prob = TestFixedPattern.case("pinned")
        ref_splu, ref_calls = counting_splu()
        monkeypatch.setattr(fom, "splu", ref_splu)
        reference = solve_fom(mesh, prob)
        patched, calls = counting_splu(failure)
        monkeypatch.setattr(fom, "splu", patched)
        sol = solve_fom(mesh, prob)
        assert sol.converged
        assert len(calls) == len(ref_calls) + 1
        assert calls[:2] == ["MMD_AT_PLUS_A", None]     # the fallback factor
        assert [r["factorized"] for r in sol.iterations] \
            == [r["factorized"] for r in reference.iterations]
        assert all(r["linear_residual"] <= LINEAR_RESIDUAL_TOL for r in sol.iterations)
        assert _relative_difference(sol, reference) <= 1e-10

    def test_missing_pressure_pins_still_report_constraint_hint(self, monkeypatch):
        # all-Dirichlet Couette data leaves the pressure free per time level
        mesh = channel_mesh(n=1, levels=2)
        assert pressure_pins(mesh, build_dof_map(mesh, couette_specs())).size
        patched, calls = counting_splu()
        monkeypatch.setattr(fom, "splu", patched)
        monkeypatch.setattr(fom, "pressure_pins",
                            lambda mesh, dm: np.empty(0, dtype=np.int64))
        with pytest.raises(SolverError, match="pressure constraint"):
            solve_fom(mesh, couette_problem())
        assert calls == ["MMD_AT_PLUS_A", None]

    def test_pattern_does_not_keep_its_assembler(self):
        # a pattern -> assembler reference would be a cycle through
        # asm._pattern, kept until the cyclic collector ran
        mesh, prob = TestFixedPattern.case("pinned")
        gc.disable()
        try:
            asm = FomAssembler(mesh)
            dm = build_dof_map(mesh, prob.dirichlet)
            solve_fom(mesh, prob, assembler=asm, dof_map=dm)
            pattern = asm.system_pattern(dm)
            assert pattern.order(asm).size == dm.n_total
            ref = weakref.ref(asm)
            del asm
            assert ref() is None
        finally:
            gc.enable()


def block_gmres(K, rhs, psolve, x0):
    """scipy's GMRES cycle as the block-assembly solver ran it: it stops on
    the preconditioned residual 1e-14."""
    its = 0

    def count(_):
        nonlocal its
        its += 1

    M = LinearOperator(K.shape, matvec=psolve, dtype=np.float64)
    x, _ = scipy_gmres(K, rhs, x0=x0, rtol=1e-14, atol=0.0,
                       restart=KRYLOV_MAX_ITS, maxiter=1, M=M,
                       callback=count, callback_type="pr_norm")
    return x, its


def block_assembly(mesh, problem, mu):
    """An assemble_fom stand-in that builds reference_system at mu."""
    params, amps = problem.effective(mu)
    dm = build_dof_map(mesh, problem.dirichlet)
    lifts = build_lifting(mesh, problem.dirichlet, amps)
    pins = pressure_pins(mesh, dm)

    def assemble(asm, pattern, u, params, lift, load):
        if u is None:       # the first step of a cold solve: at rest
            u = np.zeros((mesh.n_nodes, mesh.d))
        K, rhs = reference_system(asm, dm, lifts, u, params, problem, pins)
        return SimpleNamespace(matrix=lambda: K, rhs=lambda: rhs)

    return assemble


class TestMatchesBlockSolver:
    @pytest.mark.parametrize("case", ["couette", "artery"])
    def test_same_solutions_and_counts(self, case, monkeypatch):
        if case == "couette":
            mesh, prob, opts = channel_mesh(n=3, levels=4), couette_problem(SHEAR_THINNING), {}
            mus = [None]
        else:
            cfg, mesh, prob = coarse_artery()
            opts = cfg.picard_options()
            lo, hi = np.asarray(cfg.space.box.lower), np.asarray(cfg.space.box.upper)
            mus = [lo, 0.5 * (lo + hi), hi]
        # cold, from rest, and started at the lifting
        starts = (None, np.zeros(build_dof_map(mesh, prob.dirichlet).n_total))
        for mu, x0 in itertools.product(mus, starts):
            new = solve_fom(mesh, prob, mu=mu, x0=x0, **opts)
            with monkeypatch.context() as m:
                m.setattr(fom, "assemble_fom", block_assembly(mesh, prob, mu))
                m.setattr(fom, "gmres", block_gmres)
                old = solve_fom(mesh, prob, mu=mu, x0=x0, **opts)
            # couette from rest: a Newtonian step, then the converged one
            assert len(new.iterations) == len(old.iterations) > (1 if x0 is None else 2)
            assert sum(r["factorized"] for r in new.iterations) \
                <= sum(r["factorized"] for r in old.iterations)
            assert all(r["linear_residual"] <= LINEAR_RESIDUAL_TOL
                       for r in new.iterations)
            assert _relative_difference(new, old) <= 1e-10


class TestGmres:
    def test_exact_preconditioner_converges_in_one_iteration(self):
        rng = np.random.default_rng(2)
        K = sp.csr_matrix(4.0 * np.eye(30) + rng.standard_normal((30, 30)))
        rhs = rng.standard_normal(30)
        x, its = gmres(K, rhs, splu(K.tocsc()).solve, np.zeros(30))
        assert its == 1
        assert np.linalg.norm(rhs - K @ x) <= 1e-13 * np.linalg.norm(rhs)

    def test_identity_preconditioner_matches_dense_solve(self):
        rng = np.random.default_rng(3)
        n = 12
        A = 2.0 * np.eye(n) + 0.1 * rng.standard_normal((n, n))
        rhs = rng.standard_normal(n)
        x, its = gmres(sp.csr_matrix(A), rhs, lambda v: v, np.zeros(n))
        assert 0 < its <= n
        want = np.linalg.solve(A, rhs)
        assert np.linalg.norm(x - want) <= 1e-11 * np.linalg.norm(want)

    def test_slow_convergence_stops_before_the_cap(self):
        # a spread spectrum and no preconditioner: the contract is out of reach
        n = 400
        K = sp.diags(np.logspace(0, 6, n)).tocsr()
        rhs = np.ones(n)
        x, its = gmres(K, rhs, lambda v: v, np.zeros(n))
        assert 0 < its < KRYLOV_MAX_ITS
        assert np.linalg.norm(rhs - K @ x) > LINEAR_RESIDUAL_TOL * np.linalg.norm(rhs)


class TestForeignAssembler:
    def test_assembler_of_another_mesh_is_refused(self):
        # both coarse artery meshes have the same node count; a solve on the
        # wider narrowing's assembler would carry the other mesh's hash
        cfg, mesh, prob = coarse_artery()
        other = build_mesh(replace(cfg, geometry={**cfg.geometry, "narrow_halfwidth_m": 10e-3}))
        assert other.n_nodes == mesh.n_nodes and other.content_hash() != mesh.content_hash()
        asm = FomAssembler(other)
        match = "assembler was built on mesh %s, not on mesh %s" % (other.content_hash(),
                                                                   mesh.content_hash())
        with pytest.raises(SolverError, match=match):
            solve_fom(mesh, prob, assembler=asm)
        with pytest.raises(SolverError, match=match):
            fom_inner_products(mesh, asm)
        with pytest.raises(AnalysisError, match=match):
            offline_build(mesh, prob, [[0.1]], assembler=asm)
        with pytest.raises(RomError, match=match):
            project_offline(mesh, prob, None, SimpleNamespace(tag="eta"),
                            SimpleNamespace(tag="tau"), assembler=asm)
        # an equal mesh built again is the same mesh
        assert fom_inner_products(build_mesh(cfg), FomAssembler(mesh))["M_p"].shape \
            == (mesh.n_nodes, mesh.n_nodes)


class TestLiveAssembler:
    def test_calls_without_assembler_share_the_live_one(self, monkeypatch):
        mesh, prob = TestFixedPattern.case("pinned")
        asm = FomAssembler(mesh)
        built = []
        monkeypatch.setattr(fom, "FomAssembler", lambda *a: built.append(a))
        assert fom.assembler_for(mesh, None, SolverError) is asm
        solve_fom(mesh, prob)
        assert fom_inner_products(mesh)["M_p"] is asm.mass_pressure()
        assert built == [] and asm._pattern is not None
        # another mesh object of equal content has no live assembler
        other, _ = TestFixedPattern.case("pinned")
        assert fom.assembler_for(other, None, SolverError) is None and len(built) == 1

    def test_registry_keeps_no_assembler_alive(self):
        # without the cyclic collector: the registry holds weak references
        mesh, prob = TestFixedPattern.case("pinned")
        gc.disable()
        try:
            asm = FomAssembler(mesh)
            solve_fom(mesh, prob)
            ref = weakref.ref(asm)
            del asm
            assert ref() is None
            assert fom.assembler_for(mesh, None, SolverError) is not None
        finally:
            gc.enable()


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

    @pytest.mark.parametrize("extra", [{"note": "x"}, {"sample_index": -1},
                                       {"converged": "false"}, {"mu": [True]}])
    def test_header_that_read_snapshot_refuses_is_not_written(self, tmp_path, extra):
        sol = solve_fom(channel_mesh(n=2, levels=3), couette_problem())
        with pytest.raises(ArtifactError, match="snapshot header for .*snap.bin"):
            write_snapshot(tmp_path / "snap.bin", sol, extra_header=extra)
        assert list(tmp_path.iterdir()) == []

    def test_mesh_hash_mismatch_is_hard_error(self, tmp_path):
        mesh = channel_mesh(n=2, levels=3)
        sol = solve_fom(mesh, couette_problem())
        path = tmp_path / "snap.bin"
        write_snapshot(path, sol)
        with pytest.raises(ArtifactError, match="mesh"):
            read_snapshot(path, mesh_hash="deadbeef")

    @pytest.mark.parametrize("edit", sorted(SNAPSHOT_WRONG_RANK))
    @pytest.mark.parametrize("name", ["v", "p"])
    def test_array_of_wrong_rank_rejected(self, tmp_path, name, edit):
        """A v or p of rank 0 or 2 is refused with an ArtifactError that
        names it."""
        path = tmp_path / "snap.bin"
        write_snapshot(path, solve_fom(channel_mesh(n=2, levels=3), couette_problem()))
        header, arrays = read_artifact(path, expect_kind="snapshot")
        del header["schema_version"], header["kind"]
        arrays[name] = SNAPSHOT_WRONG_RANK[edit](arrays[name])
        write_artifact(path, "snapshot", header, arrays)
        with pytest.raises(ArtifactError, match=r"malformed snapshot \(%s has shape %s, the "
                                                r"header gives" % (name, re.escape(
                                                    str(arrays[name].shape)))):
            read_snapshot(path)

    @pytest.mark.parametrize("name", ["v", "p"])
    def test_array_of_the_other_dtype_rejected(self, tmp_path, name):
        """An int64 v or p, which stmor never writes, is refused by name."""
        path = tmp_path / "snap.bin"
        write_snapshot(path, solve_fom(channel_mesh(n=2, levels=3), couette_problem()))
        header, arrays = read_artifact(path, expect_kind="snapshot")
        del header["schema_version"], header["kind"]
        arrays[name] = arrays[name].astype(np.int64)
        write_artifact(path, "snapshot", header, arrays)
        with pytest.raises(ArtifactError, match="array '%s' is stored as int64" % name):
            read_snapshot(path)

    def test_missing_array_or_bad_header_is_artifact_error(self, tmp_path):
        path = tmp_path / "snap.bin"
        head = {"case_id": "couette", "mesh_hash": "m", "mu": [], "n_velocity": 3,
                "n_pressure": 3}
        for header, arrays in ((head, {"p": np.zeros(3)}),
                               (head, {"v": np.zeros(3)}),
                               (head, {"v": np.zeros(2), "p": np.zeros(3)}),
                               (dict(head, mu=["fast"]),
                                {"v": np.zeros(3), "p": np.zeros(3)})):
            write_artifact(path, "snapshot", header, arrays)
            with pytest.raises(ArtifactError, match="malformed snapshot"):
                read_snapshot(path)
