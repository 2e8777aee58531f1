"""The benchmark workloads and the checks on their outputs.

Both workloads run in one process, one call at a time (a closed loop with a
single caller).  Inputs come only from the seed: the library sees the drawn
``mu`` values, never the seed.  Every end-to-end metric is measured on both
workloads:

``valve-fom``
    Full-order solves of the bundled ``valve-analog`` case (16,416 unknowns,
    about 6 Picard iterations, sparse LU dominant), then a reduced model
    rebuilt from those solves (``offline_build(solutions=...)``: POD, EIM and
    projection on the large mesh, no training solves) and queried online.
``artery-rom``
    The paper's whole pipeline on a coarsened ``artery-analog``: the offline
    build over the case's 16-point training grid (about 16 Picard iterations
    per solve), warm, truncated and cold online queries, and full-order
    reference solves at the test points.
"""

import os
import resource
import statistics
import time

import numpy as np

from stmor import analysis, cases, fom, rom

ROM_ERROR_TOL = 1e-4
COLD_EQUAL_TOL = 1e-14
N_TEST = 10
VALVE_BLOCK = 3              # full-order solves per Latin-hypercube block
VALVE_MODES = 2              # POD modes per field of the valve's online ROM
# online rounds that also rebuild the reduced model (on valve-fom, and repeat
# the set-up), spreading offline_s and setup_s samples over the run
VALVE_REBUILD_ROUNDS = (1, 3, 5, 7)
ARTERY_REBUILD_ROUNDS = (5,)
ARTERY_ROUND_SETUPS = 2      # set-ups repeated at the end of every round
ARTERY_OVERRIDES = {"n_x": 12, "n_y": 5, "n_levels": 6}


class Tally:
    """Operations attempted and failed, with the first few failures named."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok


class Run:
    """State of one benchmark run: inputs, checks and measured samples."""

    def __init__(self, seed, seconds, out_dir, label):
        self.rng = np.random.Generator(np.random.PCG64(int(seed)))
        self.seconds = seconds
        self.out_dir = out_dir
        self.label = label
        self.tally = Tally()
        self.samples = {}        # metric -> number of samples it summarizes
        self.metrics = {}        # metric -> (value, unit)
        self.info = {}           # reported but not bounded
        self.setup_times = []

    def n_warm(self, per_second):
        # at least 1000 samples, so the p99 has 10 beyond it
        return max(1000, per_second * self.seconds)

    def n_cold(self):
        return max(20, 10 * self.seconds)

    def n_valve_blocks(self):
        return max(1, round(self.seconds / 45))

    def put(self, name, value, unit, samples=None):
        self.metrics[name] = (float(value), unit)
        if samples is not None:
            self.samples[name] = len(samples)


class Case:
    def __init__(self, config, mesh, problem, assembler, dof_map):
        self.config = config
        self.mesh = mesh
        self.problem = problem
        self.assembler = assembler
        self.dof_map = dof_map
        solver = config.solver
        self.picard = {"picard_tol": float(solver.get("picard_tol", 1e-8)),
                       "picard_max": int(solver.get("picard_max", 50))}
        opts = config.rom
        self.rom_options = {
            "tol_eim_eta": float(opts.get("tol_eim_eta", 1e-12)),
            "tol_eim_tau": float(opts.get("tol_eim_tau", 1e-12)),
            "energy_threshold": float(opts.get("energy_threshold", 1.0)),
            "rank_cutoff": opts.get("rank_cutoff")}

    @property
    def box(self):
        return self.config.space.box


# ---------------------------------------------------------------------------
# inputs

def uniform(rng, box, n):
    lo = np.asarray(box.lower, dtype=np.float64)
    hi = np.asarray(box.upper, dtype=np.float64)
    return lo + (hi - lo) * rng.random((n, lo.size))


def latin_hypercube(rng, box, n):
    """n points, one in each of n equal slices of every parameter axis.

    Picard counts change across the box, so stratifying keeps the mix of
    cheap and expensive solves alike from one seed to the next.
    """
    lo = np.asarray(box.lower, dtype=np.float64)
    hi = np.asarray(box.upper, dtype=np.float64)
    u = np.column_stack([(rng.permutation(n) + rng.random(n)) / n
                         for _ in range(lo.size)])
    return lo + (hi - lo) * u


# ---------------------------------------------------------------------------
# phases

def setup(run, case_id, overrides):
    """Case, mesh, problem, assembler and DOF map, timed into ``setup_s``."""
    t0 = time.perf_counter()
    config = cases.bundled_case(case_id, **overrides)
    mesh = cases.build_mesh(config)
    problem = cases.build_problem(config, mesh)
    assembler = fom.FomAssembler(mesh)
    dof_map = fom.build_dof_map(mesh, problem.dirichlet)
    run.setup_times.append(time.perf_counter() - t0)
    return Case(config, mesh, problem, assembler, dof_map)


def check_fom(run, sol, where):
    ok = sol.converged and all(rec["linear_residual"] <= fom.LINEAR_RESIDUAL_TOL
                               for rec in sol.iterations)
    return run.tally.check(ok, "%s: FOM solve at mu=%s" % (where, sol.mu))


def fom_solve(run, case, mu, times, where):
    t0 = time.perf_counter()
    sol = fom.solve_fom(case.mesh, case.problem, mu=mu, strict=False,
                        assembler=case.assembler, dof_map=case.dof_map,
                        **case.picard)
    times.append(time.perf_counter() - t0)
    check_fom(run, sol, where)
    return sol


def offline(run, case, times, **inputs):
    """One offline build, timed into ``times``."""
    t0 = time.perf_counter()
    pipe = analysis.offline_build(case.mesh, case.problem, **inputs,
                                  **case.picard, **case.rom_options)
    times.append(time.perf_counter() - t0)
    for sol in pipe.solutions:
        check_fom(run, sol, "offline training")
    return pipe


def full_velocity(case, sol):
    _, amps = case.problem.effective(sol.mu)
    lifts = fom.build_lifting(case.mesh, case.problem.dirichlet, amps)
    return sol.velocity_field(case.dof_map, lifts).ravel()


def check_rom_errors(run, case, pipe, sols, where):
    """ROM against FOM in the H1-seminorm and L2 norms at each solved mu."""
    K_u, M_p = pipe.grams["K_u"], pipe.grams["M_p"]
    for sol in sols:
        red = rom.solve_rom(pipe.pkg, mu=sol.mu, strict=False, **case.picard)
        u_rom, p_rom = rom.reconstruct(pipe.pkg, red)
        e_u = analysis.error_velocity(full_velocity(case, sol), u_rom, K_u)
        e_p = analysis.error_pressure(sol.p, p_rom, M_p)
        run.tally.check(red.converged and e_u <= ROM_ERROR_TOL
                        and e_p <= ROM_ERROR_TOL,
                        "%s: ROM error u=%.2e p=%.2e at mu=%s"
                        % (where, e_u, e_p, sol.mu))


def rom_online(run, case, pkg, warm_mus, test_mus, per_round):
    """Warm queries, truncation sweeps and cold queries, finely interleaved.

    The machine's speed drifts by tens of percent over a few seconds.  Each
    of ``len(test_mus)`` rounds therefore visits every test point, doing a
    slice of the warm queries, the sweep at that point and a slice of the
    cold queries, and ends with ``per_round(r)``, the workload's other
    repeated work.  Every metric then samples the whole run instead of one
    short stretch of it.
    """
    picard = case.picard
    path = os.path.join(run.out_dir, run.label + ".rom")
    rom.write_rom(path, pkg)
    warm_ms, cold_ms, sweep_ms = [], [], []
    cells = [(n_u, n_p) for n_u in range(pkg.n_lifts, pkg.n_u + 1)
             for n_p in range(1, pkg.n_p + 1)]
    steps = len(test_mus) ** 2
    warm_slices = np.array_split(np.arange(len(warm_mus)), steps)
    cold_counts = [len(c) for c in np.array_split(np.arange(run.n_cold()), steps)]
    try:
        for step, (chunk, n_cold) in enumerate(zip(warm_slices, cold_counts)):
            r, mu_test = divmod(step, len(test_mus))
            warm = []
            for mu in warm_mus[chunk]:
                t0 = time.perf_counter()
                red = rom.solve_rom(pkg, mu=mu, strict=False, **picard)
                warm_ms.append(1e3 * (time.perf_counter() - t0))
                run.tally.check(red.converged, "warm ROM query at mu=%s" % mu)
                warm.append((mu, red))

            mu = test_mus[mu_test]
            for n_u, n_p in cells:
                t0 = time.perf_counter()
                red = rom.solve_rom(rom.truncate(pkg, n_u, n_p), mu=mu,
                                    strict=False, **picard)
                sweep_ms.append(1e3 * (time.perf_counter() - t0))
                run.tally.check(red.converged, "sweep cell (%d, %d) at mu=%s"
                                % (n_u, n_p, mu))

            for mu, ref in warm[:n_cold]:
                t0 = time.perf_counter()
                _, loaded = rom.read_rom(path)
                red = rom.solve_rom(loaded, mu=mu, strict=False, **picard)
                cold_ms.append(1e3 * (time.perf_counter() - t0))
                want = np.concatenate([ref.v_N, ref.p_N])
                got = np.concatenate([red.v_N, red.p_N])
                gap = np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1.0)
                run.tally.check(red.converged and gap <= COLD_EQUAL_TOL,
                                "cold query differs from warm by %.2e at mu=%s"
                                % (gap, mu))

            if mu_test == len(test_mus) - 1:
                per_round(r)
    finally:
        os.remove(path)
    # Medians flip between the machine's fast and slow spells from run to
    # run, so the bounded metrics are means over the whole online window;
    # the median and p99 of single warm queries are reported, not bounded.
    run.put("rom_queries_per_s", 1e3 * len(warm_ms) / np.sum(warm_ms), "1/s",
            warm_ms)
    run.put("sweep_cell_ms_mean", statistics.fmean(sweep_ms), "ms", sweep_ms)
    run.put("cold_query_ms_mean", statistics.fmean(cold_ms), "ms", cold_ms)
    p99 = np.percentile(warm_ms, 99)
    run.info["rom_query_ms_p50"] = {"value": np.median(warm_ms), "unit": "ms",
                                    "n": len(warm_ms)}
    run.info["rom_query_ms_p99"] = {"value": p99, "unit": "ms",
                                    "n": len(warm_ms),
                                    "beyond": int(np.sum(np.array(warm_ms) > p99))}


def finish(run):
    """The run's last metrics: median set-up time and peak memory."""
    run.put("setup_s", statistics.median(run.setup_times), "s", run.setup_times)
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    run.put("peak_rss_mb", kib / 1024.0, "MB")


# ---------------------------------------------------------------------------
# workloads

def valve_fom(run):
    case = setup(run, "valve-analog", {})
    fom_mus = np.vstack([latin_hypercube(run.rng, case.box, VALVE_BLOCK)
                         for _ in range(run.n_valve_blocks())])
    warm_mus = uniform(run.rng, case.box, run.n_warm(200))
    test_mus = uniform(run.rng, case.box, N_TEST)

    times = []
    sols = [fom_solve(run, case, mu, times, "valve") for mu in fom_mus]
    run.put("fom_solve_s", statistics.fmean(times), "s", times)
    offline_times = []
    pipe = offline(run, case, offline_times, solutions=sols)
    check_rom_errors(run, case, pipe, sols, "valve training")
    # the POD rank of three snapshots is 2 or 3 depending on the draw; a
    # fixed size keeps the online cost comparable from seed to seed
    pkg = rom.truncate(pipe.pkg, pipe.pkg.n_lifts + VALVE_MODES, VALVE_MODES)

    def per_round(r):
        if r in VALVE_REBUILD_ROUNDS:
            setup(run, "valve-analog", {})
            offline(run, case, offline_times, solutions=sols)

    rom_online(run, case, pkg, warm_mus, test_mus, per_round)
    run.put("offline_s", statistics.fmean(offline_times), "s", offline_times)
    finish(run)


def artery_rom(run):
    case = setup(run, "artery-analog", ARTERY_OVERRIDES)
    box = case.box
    counts = case.config.plan["train_counts"]
    axes = [np.linspace(box.lower[j], box.upper[j], int(c))
            for j, c in enumerate(counts)]
    train_mus = np.column_stack([g.ravel() for g in
                                 np.meshgrid(*axes, indexing="ij")])
    warm_mus = uniform(run.rng, box, run.n_warm(50))
    test_mus = uniform(run.rng, box, N_TEST)

    offline_times = []
    pipe = offline(run, case, offline_times, train_mus=train_mus)
    times, refs = [], []

    def per_round(r):
        refs.append(fom_solve(run, case, test_mus[r], times, "artery reference"))
        for _ in range(ARTERY_ROUND_SETUPS):
            setup(run, "artery-analog", ARTERY_OVERRIDES)
        if r in ARTERY_REBUILD_ROUNDS:
            offline(run, case, offline_times, train_mus=train_mus)

    rom_online(run, case, pipe.pkg, warm_mus, test_mus, per_round)
    run.put("offline_s", statistics.fmean(offline_times), "s", offline_times)
    run.put("fom_solve_s", statistics.fmean(times), "s", times)
    check_rom_errors(run, case, pipe, pipe.solutions, "artery training")
    check_rom_errors(run, case, pipe, refs, "artery test")
    finish(run)


WORKLOADS = {"valve-fom": valve_fom, "artery-rom": artery_rom}
