"""Acceptance criteria for the reduction pipeline, one test per criterion.

Each test prints a single PASS/FAIL line with the measured numbers (stream
them with pytest -s).  The valve-analog desk pipeline (16 training solves,
full retained basis) is built once and shared by the reproduction,
generalization, speedup, and invariant criteria, and by the check that its
package, written and read back, solves to the same bits.
"""

import logging
import time
from types import SimpleNamespace

import numpy as np
import pytest

from stmor import analysis, cases
from stmor.analysis import (SamplePlan, error_pressure, error_velocity,
                            evaluate_tests, generate_samples,
                            h1_seminorm_error, offline_build)
from stmor.eim import FieldSampleSet, eim_greedy
from stmor.fom import (FomAssembler, build_dof_map, build_lifting,
                       combine_liftings, fom_inner_products, solve_fom)
from stmor.mesh import SpaceTimeMesh
from stmor.pod import assemble_basis, compute_pod, projection_error
from stmor.rom import project_offline, read_rom, reconstruct, solve_rom, write_rom


def verdict(num, name, ok, detail):
    print("ACCEPTANCE %d %-32s %s  (%s)"
          % (num, name, "PASS" if ok else "FAIL", detail))


# ---------------------------------------------------------------------------
# shared valve-analog desk pipeline (criteria 5, 6, 8, 9)

@pytest.fixture(scope="module")
def valve():
    cfg = cases.valve_analog_config()
    mesh = cases.build_mesh(cfg)
    problem = cases.build_problem(cfg, mesh)
    plan = SamplePlan(box=cfg.space.box,
                      train_counts=tuple(cfg.plan["train_counts"]),
                      n_test=int(cfg.plan["n_test"]),
                      seed=int(cfg.plan["seed"]))
    samples = generate_samples(plan)
    t0 = time.perf_counter()
    pipe = offline_build(mesh, problem, samples.training,
                         tol_eim_eta=1e-12, tol_eim_tau=1e-12,
                         energy_threshold=1.0, rank_cutoff=1e-14,
                         picard_tol=float(cfg.solver["picard_tol"]),
                         picard_max=int(cfg.solver["picard_max"]))
    offline_s = time.perf_counter() - t0
    return SimpleNamespace(cfg=cfg, plan=plan, samples=samples, pipe=pipe,
                           offline_s=offline_s)


@pytest.fixture(scope="module")
def valve_tests(valve):
    """Reference and online solves at the 10 random test samples."""
    pipe = valve.pipe
    pairs = [(2, 1), (pipe.pkg.n_u, pipe.pkg.n_p)]
    records = evaluate_tests(pipe, valve.samples.testing, pairs,
                             picard_tol=1e-10, picard_max=60)
    return pairs, records


# ---------------------------------------------------------------------------

def test_criterion_1_fom_exactness_couette():
    cfg = cases.couette_config(n=16)
    mesh = cases.build_mesh(cfg)
    problem = cases.build_problem(cfg, mesh)
    t0 = time.perf_counter()
    sol = solve_fom(mesh, problem,
                    picard_tol=float(cfg.solver["picard_tol"]),
                    picard_max=int(cfg.solver["picard_max"]))
    elapsed = time.perf_counter() - t0
    dof_map = build_dof_map(mesh, problem.dirichlet)
    lifts = build_lifting(mesh, problem.dirichlet, problem.amplitudes)
    u_full = sol.velocity_field(dof_map, lifts)
    u_exact = np.zeros_like(u_full)
    u_exact[:, 0] = mesh.nodes[:, 1]
    grams = fom_inner_products(mesh)
    eps_u = error_velocity(u_exact, u_full, grams["K_u"])
    p_norm = float(np.sqrt(sol.p @ (grams["M_p"] @ sol.p)))
    rho = cfg.material.rho
    ok = eps_u <= 1e-9 and p_norm <= 1e-8 * rho and elapsed < 10.0
    verdict(1, "FOM exactness (Couette)", ok,
            "eps_u=%.2e, |p|=%.2e, %d nodes, %.1fs"
            % (eps_u, p_norm, mesh.n_nodes, elapsed))
    assert 4000 <= mesh.n_nodes <= 6000
    assert eps_u <= 1e-9
    assert p_norm <= 1e-8 * rho
    assert elapsed < 10.0


def test_criterion_2_fom_convergence_rate():
    t0 = time.perf_counter()
    errs, hs = [], []
    for n in (4, 8, 16):
        cfg = cases.poiseuille_body_config(n=n)
        mesh = cases.build_mesh(cfg)
        problem = cases.build_problem(cfg, mesh)
        sol = solve_fom(mesh, problem,
                        picard_tol=float(cfg.solver["picard_tol"]),
                        picard_max=int(cfg.solver["picard_max"]))
        dof_map = build_dof_map(mesh, problem.dirichlet)
        lifts = build_lifting(mesh, problem.dirichlet, problem.amplitudes)
        u_full = sol.velocity_field(dof_map, lifts)

        def grad(x, t):
            g = np.zeros((len(x), 2, 2))
            g[:, 0, 1] = 4.0 - 8.0 * x[:, 1]
            return g

        errs.append(h1_seminorm_error(mesh, u_full, grad))
        hs.append(1.0 / n)
    elapsed = time.perf_counter() - t0
    rates = [np.log(errs[i] / errs[i + 1]) / np.log(hs[i] / hs[i + 1])
             for i in range(2)]
    ok = min(rates) >= 0.9 and elapsed < 120.0
    verdict(2, "FOM convergence rate", ok,
            "errors %s, rates %s, %.1fs"
            % (["%.3e" % e for e in errs], ["%.3f" % r for r in rates],
               elapsed))
    assert min(rates) >= 0.9
    assert elapsed < 120.0


def test_criterion_3_pod_rank_recovery():
    rng = np.random.Generator(np.random.PCG64(314))
    directions = rng.standard_normal((3, 60))
    snapshots = rng.standard_normal((10, 3)) @ directions
    modes, spectrum = compute_pod(snapshots, gram=None, energy_threshold=1.0,
                                  rank_cutoff=1e-10)
    n_above = int(np.sum(spectrum > 1e-10))
    perr = max(projection_error(modes, None, s) for s in snapshots)
    ok = n_above == 3 and modes.shape[1] == 3 and perr <= 1e-8
    verdict(3, "POD rank recovery", ok,
            "%d eigenvalues above 1e-10, max projection error %.2e"
            % (n_above, perr))
    assert n_above == 3
    assert modes.shape[1] == 3
    assert perr <= 1e-8


def test_criterion_4_eim_rank_termination(valve):
    rng = np.random.Generator(np.random.PCG64(314))
    fields = rng.standard_normal((200, 5)) @ rng.standard_normal((5, 20))
    approx = eim_greedy(FieldSampleSet("eta", fields), tol=1e-13, q_max=10)
    history = approx.history
    # Random rank-5 fields have no decay structure: the history sits at O(1)
    # until the rank-exhaustion cliff.  Interpolatory deflation is not an
    # orthogonal projection, so step-wise monotonicity is not guaranteed
    # there; the monotone multi-order decay is a property of the smooth
    # viscosity families and is asserted on the valve pipeline's histories.
    cliff = bool(history[-1] <= 1e-13 * history[:-1].min())
    decay = {tag: bool(np.all(np.diff(a.history) <= 0.0)
                       and a.history[-1] <= 1e-12 * a.history[0])
             for tag, a in valve.pipe.eims.items()}
    monotone = decay["eta"] and decay["tau"]
    ok = (approx.n_terms == 5 and history[0] == 1.0
          and history[-1] <= 1e-13 and cliff and monotone)
    verdict(4, "EIM rank termination", ok,
            "terms=%d, history 1.0 -> %.2e, viscosity decay monotone=%s"
            % (approx.n_terms, history[-1], monotone))
    assert approx.n_terms == 5
    assert history[0] == 1.0
    assert history[-1] <= 1e-13
    assert cliff
    assert monotone


def test_criterion_5_rom_training_reproduction(valve):
    pipe = valve.pipe
    t0 = time.perf_counter()
    worst_u = worst_p = 0.0
    for i, mu in enumerate(valve.samples.training):
        red = solve_rom(pipe.pkg, mu=mu, picard_tol=1e-10, picard_max=60)
        u_rom, p_rom = reconstruct(pipe.pkg, red)
        worst_u = max(worst_u, error_velocity(pipe.u_fulls[i].ravel(), u_rom,
                                              pipe.grams["K_u"]))
        worst_p = max(worst_p, error_pressure(pipe.solutions[i].p, p_rom,
                                              pipe.grams["M_p"]))
    total_s = valve.offline_s + (time.perf_counter() - t0)
    n_dofs = pipe.pkg.n_fom_dofs
    ok = (worst_u <= 1e-6 and worst_p <= 1e-6 and total_s < 900.0
          and 10_000 <= n_dofs <= 30_000)
    verdict(5, "ROM training reproduction", ok,
            "%d training samples, %d dofs, max eps_u=%.2e eps_p=%.2e, %.0fs"
            % (len(valve.samples.training), n_dofs, worst_u, worst_p,
               total_s))
    assert len(valve.samples.training) == 16
    assert 10_000 <= n_dofs <= 30_000
    assert worst_u <= 1e-6
    assert worst_p <= 1e-6
    assert total_s < 900.0


def test_criterion_6_rom_generalization_trend(valve, valve_tests):
    pairs, records = valve_tests
    assert pairs[0] == (2, 1)
    small = max(r["eps_u"] for t in records for r in t["results"]
                if (r["n_u"], r["n_p"]) == (2, 1))
    full = max(r["eps_u"] for t in records for r in t["results"]
               if (r["n_u"], r["n_p"]) == pairs[1])
    ratio = small / full
    ok = len(records) == 10 and ratio >= 100.0
    verdict(6, "ROM generalization trend", ok,
            "max eps_u %.2e at (2,1) vs %.2e at (%d,%d), ratio %.0f"
            % (small, full, pairs[1][0], pairs[1][1], ratio))
    assert len(records) == 10
    assert all(t["fom_converged"] for t in records)
    assert ratio >= 100.0


def _fixed_size_artery(n_x, n_y, n_levels, n_modes=3, q_terms=3):
    """Reduction pipeline with pinned basis and interpolation sizes."""
    cfg = cases.artery_analog_config(n_x=n_x, n_y=n_y, n_levels=n_levels)
    mesh = cases.build_mesh(cfg)
    problem = cases.build_problem(cfg, mesh)
    asm = FomAssembler(mesh)
    dof_map = build_dof_map(mesh, problem.dirichlet)
    grams = fom_inner_products(mesh, asm)
    mus = generate_samples(SamplePlan(box=cfg.space.box, train_counts=(4,),
                                      n_test=1, seed=1)).training
    sols, u_fulls, mats = [], [], []
    for mu in mus:
        sol = solve_fom(mesh, problem, mu=mu, picard_tol=1e-8, picard_max=60,
                        assembler=asm, dof_map=dof_map)
        params, amps = problem.effective(mu)
        sols.append(sol)
        u_fulls.append(sol.velocity_field(
            dof_map, build_lifting(mesh, problem.dirichlet, amps)))
        mats.append(params)
    V = np.stack([dof_map.expand(s.v).ravel() for s in sols])
    P = np.stack([s.p for s in sols])
    modes_v, spec_v = compute_pod(V, gram=grams["K_u"], n_modes=n_modes)
    modes_p, spec_p = compute_pod(P, gram=grams["M_p"], n_modes=n_modes)
    lifts = build_lifting(mesh, problem.dirichlet, problem.amplitudes)
    basis = assemble_basis(modes_v, modes_p, lifts, gram_v=grams["K_u"],
                           spectrum_v=spec_v, spectrum_p=spec_p,
                           mesh_hash=mesh.content_hash(),
                           case_id=problem.name)
    eims = {}
    for tag, col in (("eta", 1), ("tau", 2)):
        fields = np.column_stack([asm.element_fields(u, m)[col]
                                  for u, m in zip(u_fulls, mats)])
        approx = eim_greedy(FieldSampleSet(tag, fields), tol=1e-300,
                            q_max=q_terms)
        approx.mesh_hash = mesh.content_hash()
        eims[tag] = approx
    pkg = project_offline(mesh, problem, basis, eims["eta"], eims["tau"],
                          dof_map=dof_map, assembler=asm)
    return pkg, dof_map.n_total


def _online_times(pkgs, mu, iters=12, repeats=200, warmup=10):
    """Online solve wall time of each package at a pinned Picard budget:
    min over repeats.

    Packages built from different meshes converge in different natural
    iteration counts (the snapshot content differs), which is a property
    of the reduced operators' values, not of their sizes; pinning the
    budget keeps the measured work identical across packages.  The
    packages take turns inside one loop, so a slowdown of the machine
    during the measurement hits all of them alike, and the minimum strips
    scheduler spikes from the deterministic per-solve cost.  The
    unattainable tolerance makes every solve run the full budget; the
    stall warning is silenced around the timed region."""
    kw = dict(mu=mu, picard_tol=1e-300, picard_max=iters, strict=False)
    rom_logger = logging.getLogger("stmor.rom")
    level = rom_logger.level
    rom_logger.setLevel(logging.ERROR)
    try:
        for pkg in pkgs:
            assert len(solve_rom(pkg, **kw).iterations) == iters
            for _ in range(warmup):
                solve_rom(pkg, **kw)
        times = [[] for _ in pkgs]
        for _ in range(repeats):
            for pkg, ts in zip(pkgs, times):
                t0 = time.perf_counter()
                solve_rom(pkg, **kw)
                ts.append(time.perf_counter() - t0)
    finally:
        rom_logger.setLevel(level)
    return [float(np.min(ts)) for ts in times]


def test_criterion_7_online_mesh_independence():
    coarse, n_coarse = _fixed_size_artery(12, 5, 11)
    fine, n_fine = _fixed_size_artery(24, 10, 11)
    assert (coarse.n_u, coarse.n_p, coarse.q_eta, coarse.q_tau) \
        == (fine.n_u, fine.n_p, fine.q_eta, fine.q_tau)
    mu = np.array([0.1])
    t_coarse, t_fine = _online_times([coarse, fine], mu)
    change = abs(t_fine - t_coarse) / t_coarse
    ratio = n_fine / n_coarse
    ok = change <= 0.20 and ratio >= 3.5
    verdict(7, "online mesh independence", ok,
            "dofs %d -> %d (%.1fx), online %.3f -> %.3f ms, change %.0f%%"
            % (n_coarse, n_fine, ratio, t_coarse * 1e3, t_fine * 1e3,
               100 * change))
    assert ratio >= 3.5
    assert change <= 0.20


def test_criterion_8_desk_speedup(valve_tests):
    _, records = valve_tests
    speedups = [t["fom_time_s"] / r["rom_time_s"]
                for t in records for r in t["results"]]
    ok = min(speedups) >= 10.0
    verdict(8, "desk-scale speedup", ok,
            "FOM median %.2fs, speedup min=%.0f mean=%.0f"
            % (float(np.median([t["fom_time_s"] for t in records])),
               min(speedups), float(np.mean(speedups))))
    assert min(speedups) >= 10.0


def test_criterion_9_invariant_suites(valve):
    t0 = time.perf_counter()
    pipe = valve.pipe
    mesh, pkg = pipe.mesh, pipe.pkg
    checks = {}

    # mesh conformity and measure conservation: the deformed cylinder volume
    # is the base planform over 1.8 s plus the gate sweep volume; the
    # constructor checks the orientation and the boundary tags again
    SpaceTimeMesh(dimension=mesh.dimension, nodes=mesh.nodes, elements=mesh.elements,
                  facets=mesh.facets, facet_tags=mesh.facet_tags, time_levels=mesh.time_levels)
    measures, _ = mesh.all_element_geometry()
    volume = float(measures.sum())
    want = 0.0081375 * 1.8 + 0.0005
    checks["mesh"] = (np.all(measures > 0)
                      and abs(volume - want) <= 1e-12 * want)

    # basis orthonormality in the solver inner products
    K_u, M_p = pipe.grams["K_u"], pipe.grams["M_p"]
    mv = pipe.basis.Z_v[:, pkg.n_lifts:]
    mp = pipe.basis.Z_p
    dev_v = np.abs(mv.T @ (K_u @ mv) - np.eye(mv.shape[1])).max()
    dev_p = np.abs(mp.T @ (M_p @ mp) - np.eye(mp.shape[1])).max()
    checks["orthonormal"] = dev_v <= 1e-10 and dev_p <= 1e-10

    # magic-element interpolation is exact on every training field
    dev_eim = 0.0
    for tag in ("eta", "tau"):
        approx = pipe.eims[tag]
        fields = np.column_stack(
            [pipe.assembler.element_fields(u, m)[1 if tag == "eta" else 2]
             for u, m in zip(pipe.u_fulls,
                             [pipe.problem.effective(mu)[0]
                              for mu in pipe.train_mus])])
        interp = approx.basis @ approx.coefficients(fields[approx.magic])
        dev_eim = max(dev_eim,
                      np.abs(interp[approx.magic] - fields[approx.magic]).max()
                      / np.abs(fields).max())
    checks["eim_magic"] = dev_eim <= 1e-13

    # reconstructed online solutions satisfy the Dirichlet data exactly
    mu0 = valve.samples.training[0]
    red = solve_rom(pkg, mu=mu0, picard_tol=1e-10, picard_max=60)
    u_rom = reconstruct(pkg, red)[0].reshape(mesh.n_nodes, pipe.assembler.d)
    _, amps = pipe.problem.effective(mu0)
    l_full = combine_liftings(
        build_lifting(mesh, pipe.problem.dirichlet, amps),
        mesh.n_nodes, pipe.assembler.d)
    mask = pipe.dof_map.constrained
    dev_bc = np.abs(u_rom[mask] - l_full[mask]).max()
    checks["dirichlet"] = dev_bc <= 1e-10

    # operator stack dimensions of the package and the full-order map
    n_u, n_p, n_l = pkg.n_u, pkg.n_p, pkg.n_lifts
    q_e, q_t = pkg.q_eta, pkg.q_tau
    dm = pipe.dof_map
    checks["dimensions"] = (
        pkg.K.shape == (2 + q_e + 2 * q_t, n_u + n_p, n_u + n_p)
        and pkg.R.shape == (2 + q_e + 2 * q_t, n_l + 1, n_u + n_p)
        and dm.n_velocity == pipe.assembler.d * mesh.n_nodes
        - int(dm.constrained.sum())
        and dm.n_pressure == mesh.n_nodes
        and dm.n_total == dm.n_velocity + dm.n_pressure)

    elapsed = time.perf_counter() - t0
    ok = all(checks.values()) and elapsed < 300.0
    verdict(9, "invariant suites", ok,
            "%s, orth dev %.1e, eim dev %.1e, bc dev %.1e, %.0fs"
            % ({k: bool(v) for k, v in checks.items()}, max(dev_v, dev_p),
               dev_eim, dev_bc, elapsed))
    assert checks == {k: True for k in checks}
    assert elapsed < 300.0


def test_valve_package_read_back_solves_bitwise(valve, tmp_path):
    """A cold query (the package read from its file) gives the bits of a
    warm one on the valve's full-size package."""
    pipe = valve.pipe
    write_rom(tmp_path / "valve.rom", pipe.pkg)
    _, loaded = read_rom(tmp_path / "valve.rom", mesh_hash=pipe.mesh.content_hash())
    for mu in np.vstack([valve.samples.training[:3], valve.samples.testing[:3]]):
        warm, cold = (solve_rom(pkg, mu=mu, **valve.cfg.picard_options())
                      for pkg in (pipe.pkg, loaded))
        assert warm.v_N.tobytes() == cold.v_N.tobytes()
        assert warm.p_N.tobytes() == cold.p_N.tobytes()
        assert warm.iterations == cold.iterations
