"""Same-process A/B timing of one operation on two stmor checkouts.

    python3 tools/inproc_ab.py --base ../parent --rom artery.rom --op cold
    python3 tools/inproc_ab.py --base ../parent --op fom --case valve
    python3 tools/inproc_ab.py --base ../parent --op offline --case artery
    python3 tools/inproc_ab.py --base ../parent --op setup --case valve

stmor is imported from the base checkout's ``src/`` as ``stmor_base`` and
from the checkout holding this script as ``stmor_head``.  Each repetition
draws one mu from the package's box and runs the operation once on each
side, alternating which side goes first, so both see the same machine state;
a run-to-run drift of the machine's speed moves both alike.  The first
WARMUP repetitions are not timed.  The two sides' results must be equal bit
for bit, unless --max-gap G > 0 is given: then the largest relative gap
between their v_N and p_N, max |head - base| / max |base| over each
solution, is printed, and only a gap above G, or a different convergence
flag or step count, stops the run.  A change that reorders the online
arithmetic is measured that way on one package read by both sides.

Operations:
    read_rom   rom.read_rom of the file
    warm       rom.solve_rom on a package read once before timing
    cold       rom.read_rom of the file, then rom.solve_rom
    sweep      rom.truncate, then rom.solve_rom, for every (N_u, N_p) cut of a
               package read once before timing, as the benchmark's sweep does
    fom        a cold fom.solve_fom of --case (the bundled valve, or the
               12x5x6 artery of the benchmark) on an assembler each side
               holds; the first repetition is the warm-up.  --max-gap
               defaults to the case's picard_tol, and only the convergence
               flags must agree: a change of the FOM iteration may change
               its step count.  Each side's mean step count is printed.
    offline    ``analysis.offline_build(solutions=...)`` of --case from
               snapshots the base side solves once before timing: cold
               solves at the first block of Latin-hypercube mu the
               benchmark's valve-fom workload draws at seed 1 on the valve
               (``perfbench.workloads.latin_hypercube``, which imports this
               checkout's stmor once more under its own name), and the
               case's training grid (``analysis.solve_chain``) on the artery.  The
               ratios head/base of the total and of every stage of
               ``timings`` that both sides record (``grams_s``, ``training_s``,
               ``pod_s``, ``eim_s``, ``projection_s``, ``start_s``) are printed
               with a bootstrap interval over the repetitions; ``training_s``
               times only the check of the given snapshots there.  The
               builds need not agree bit for bit: the largest relative gap
               of a slot of the packages' K and R, max |head - base| /
               max |base| over each slot, and of their solve_rom at the box
               centre and corners are printed, and --max-gap (default 1e-13)
               bounds the slot gap.
    setup      one full set-up of --case, as the benchmark's ``setup_s`` times
               it: ``cases.bundled_case``, ``build_mesh``, ``build_problem``,
               ``fom.FomAssembler`` and ``fom.build_dof_map``; the first
               repetition is the warm-up.  The ratio head/base is printed with
               a bootstrap interval.  The meshes' ``content_hash`` must be
               equal, and the largest relative gap of the assemblers' V,
               shape-function gradients, G, h_t and h_s, max |head - base| /
               max |base| over each array, is printed and bounded by
               --max-gap (default 1e-13).

The package comes from ``stmor build-rom`` (or ``rom.write_rom``).  BLAS is
pinned to one thread, as in perfbench.  Both checkouts must read the same rom
layout, so a change of layout is measured by perfbench pairs only.  This
checkout refuses a file whose ``start`` is not the per-cut table of four axes,
or that has no ``start_degree`` header key.  A base checkout from before the
table refuses this checkout's files, and one from before the key misreads a
file of degree 1; the fingerprints then differ and the run stops.
"""

import argparse
import importlib
import importlib.util
import os
import sys
import time
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import numpy as np  # noqa: E402  (after the BLAS thread pinning)

HEAD = Path(__file__).resolve().parent.parent
WARMUP = 100
FOM_WARMUP = 1
SEED = 1
BOOTSTRAP = 2000
FOM_CASES = {"valve": ("valve-analog", {}),
             "artery": ("artery-analog", {"n_x": 12, "n_y": 5, "n_levels": 6})}


def load_package(name, checkout):
    """stmor of checkout/src, imported under the package name ``name``."""
    pkg_dir = Path(checkout).resolve() / "src" / "stmor"
    if not (pkg_dir / "__init__.py").is_file():
        raise SystemExit("%s holds no src/stmor package" % checkout)
    spec = importlib.util.spec_from_file_location(
        name, pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return name


def draw_mus(space, n, seed):
    """n points uniform in the box of space, or n times None without one."""
    if space is None:
        return [None] * n
    lo = np.asarray(space.box.lower, dtype=np.float64)
    hi = np.asarray(space.box.upper, dtype=np.float64)
    rng = np.random.Generator(np.random.PCG64(seed))
    return list(lo + (hi - lo) * rng.random((n, lo.size)))


def load_case(stmor, case):
    """(config, mesh, problem) of --case on one side."""
    cases = importlib.import_module(stmor + ".cases")
    case_id, overrides = FOM_CASES[case]
    config = cases.bundled_case(case_id, **overrides)
    mesh = cases.build_mesh(config)
    return config, mesh, cases.build_problem(config, mesh)


def fom_operation(stmor, case):
    """(f(mu) -> a cold solve_fom on an assembler f holds, the case config)."""
    fom = importlib.import_module(stmor + ".fom")
    config, mesh, problem = load_case(stmor, case)
    asm = fom.FomAssembler(mesh)
    dof_map = fom.build_dof_map(mesh, problem.dirichlet)
    opts = config.picard_options()
    return (lambda mu: fom.solve_fom(mesh, problem, mu=mu, strict=False, assembler=asm,
                                     dof_map=dof_map, **opts)), config


def offline_inputs(stmor, case):
    """The snapshots offline_build starts from on --op offline."""
    analysis = importlib.import_module(stmor + ".analysis")
    fom = importlib.import_module(stmor + ".fom")
    config, mesh, problem = load_case(stmor, case)
    box, opts, asm = config.space.box, config.picard_options(), fom.FomAssembler(mesh)
    if case == "valve":
        sys.path[:0] = [str(HEAD / "src"), str(HEAD)]
        from perfbench.workloads import VALVE_BLOCK, latin_hypercube
        return [fom.solve_fom(mesh, problem, mu=mu, assembler=asm, **opts)
                for mu in latin_hypercube(np.random.default_rng(SEED), box, VALVE_BLOCK)]
    plan = analysis.SamplePlan(box=box, **config.plan_options())
    dof_map = fom.build_dof_map(mesh, problem.dirichlet)
    return analysis.solve_chain(mesh, problem, analysis.generate_samples(plan).training,
                                assembler=asm, dof_map=dof_map, **opts)[0]


def offline_operation(stmor, case, solutions):
    """(f(mu) -> offline_build(solutions=...) of case on one side, the case config)."""
    analysis = importlib.import_module(stmor + ".analysis")
    fom = importlib.import_module(stmor + ".fom")
    config, mesh, problem = load_case(stmor, case)
    sols = [fom.FieldSolution(**vars(sol)) for sol in solutions]
    # a held assembler, as the benchmark's case holds one
    opts = dict(config.picard_options(), **config.offline_options(),
                assembler=fom.FomAssembler(mesh))
    return (lambda mu: analysis.offline_build(mesh, problem, solutions=sols, **opts)), config


def setup_operation(stmor, case):
    """(f(mu) -> the FomAssembler of one full set-up of case on one side, the
    case config); mu is not used."""
    cases = importlib.import_module(stmor + ".cases")
    fom = importlib.import_module(stmor + ".fom")
    case_id, overrides = FOM_CASES[case]

    def setup(mu):
        config = cases.bundled_case(case_id, **overrides)
        mesh = cases.build_mesh(config)
        problem = cases.build_problem(config, mesh)
        asm = fom.FomAssembler(mesh)
        fom.build_dof_map(mesh, problem.dirichlet)
        return asm
    return setup, cases.bundled_case(case_id, **overrides)


def setup_gaps(base, head):
    """name -> the relative gap max |head - base| / max |base| of the two
    assemblers' geometry, G and scales."""
    def arrays(asm):
        return {"V": asm.V, "gradients": asm.mesh.all_element_geometry()[1], "G": asm.G,
                "h_t": asm.h_t, "h_s": asm.h_s}
    return {name: float(np.abs(h - b).max() / max(np.abs(b).max(), 1e-300))
            for (name, b), h in zip(arrays(base).items(), arrays(head).values(), strict=True)}


def slot_gap(base, head):
    """The largest relative gap of a slot of two packages' K and R."""
    return max(float(np.abs(h - b).max() / max(np.abs(b).max(), 1e-300))
               for stack in ("K", "R")
               for b, h in zip(getattr(base, stack), getattr(head, stack), strict=True))


def bootstrap(base, head):
    """The ratio of the medians head/base and its 95% bootstrap interval over
    the paired repetitions."""
    rng = np.random.default_rng(SEED)
    picks = rng.integers(0, len(base), (BOOTSTRAP, len(base)))
    ratios = np.median(head[picks], axis=1) / np.median(base[picks], axis=1)
    return np.median(head) / np.median(base), *np.percentile(ratios, [2.5, 97.5])


def operation(stmor, op, path):
    """f(mu) -> result of the timed online operation on one side."""
    rom = importlib.import_module(stmor + ".rom")
    if op == "read_rom":
        return lambda mu: rom.read_rom(path)[1]
    if op == "cold":
        return lambda mu: rom.solve_rom(rom.read_rom(path)[1], mu=mu, strict=False)
    _, pkg = rom.read_rom(path)
    if op == "sweep":
        cuts = [(n_u, n_p) for n_u in range(pkg.n_lifts, pkg.n_u + 1)
                for n_p in range(1, pkg.n_p + 1)]
        return lambda mu: [rom.solve_rom(rom.truncate(pkg, *cut), mu=mu, strict=False)
                           for cut in cuts]
    return lambda mu: rom.solve_rom(pkg, mu=mu, strict=False)


def fingerprint(out):
    """Bytes that two equal results share: a package's arrays, its whole start
    table with its shape, or a solution (a FOM one without its timings), or a
    list of solutions."""
    if isinstance(out, list):
        return [fingerprint(red) for red in out]
    if hasattr(out, "K"):
        arrays = [out.K, out.R, out.strain_op, out.start, *out.tau_scales]
        table = repr((out.start.shape, getattr(out, "start_degree", None))).encode()
        return b"".join(a.tobytes() for a in arrays) + table
    if hasattr(out, "v_N"):
        return (out.v_N.tobytes(), out.p_N.tobytes(), out.converged, repr(out.iterations))
    untimed = [{k: v for k, v in rec.items() if not k.endswith("_s")} for rec in out.iterations]
    return (out.v.tobytes(), out.p.tobytes(), out.converged, repr(untimed))


def gap(base, head):
    """The largest relative gap of the solutions' (v_N, p_N), or (v, p) of a
    FOM solution, and whether their flags agree, and for reduced solutions
    their step counts; a package (read_rom) gives 0 and its bytes."""
    if isinstance(base, list):
        pairs = [gap(b, h) for b, h in zip(base, head, strict=True)]
        return max(g for g, _ in pairs), all(ok for _, ok in pairs)
    if hasattr(base, "K"):
        return 0.0, fingerprint(base) == fingerprint(head)
    same = base.converged == head.converged
    if hasattr(base, "v_N"):
        b, h = (np.concatenate((red.v_N, red.p_N)) for red in (base, head))
        same = same and len(base.iterations) == len(head.iterations)
    else:
        b, h = (np.concatenate((sol.v, sol.p)) for sol in (base, head))
    return float(np.abs(h - b).max() / np.abs(b).max()), same


def summary(us):
    q1, med, q3 = np.percentile(us, [25, 50, 75])
    return "median %8.1f us  quartiles [%.1f, %.1f]  mean %.1f" % (med, q1, q3, np.mean(us))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="checkout timed as the base")
    parser.add_argument("--rom", help="rom package file (every operation but fom)")
    parser.add_argument("--op", choices=("read_rom", "warm", "cold", "sweep", "fom",
                                         "offline", "setup"), default="cold")
    parser.add_argument("--case", choices=sorted(FOM_CASES), default="valve",
                        help="the case of --op fom, --op offline and --op setup")
    parser.add_argument("--reps", type=int,
                        help="timed repetitions (default 2000, 10 for --op fom, 20 "
                             "for --op offline and 60 for --op setup)")
    parser.add_argument("--max-gap", type=float,
                        help="largest relative gap of the solutions allowed (default 0: "
                             "bitwise, the case's picard_tol for --op fom, and 1e-13 of "
                             "a slot for --op offline and of an array for --op setup)")
    args = parser.parse_args(argv)
    fom, offline, setup = args.op == "fom", args.op == "offline", args.op == "setup"
    if args.rom is None and not (fom or offline or setup):
        parser.error("--op %s needs --rom" % args.op)
    if args.reps is None:
        args.reps = 10 if fom else 20 if offline else 60 if setup else 2000
    if args.reps < 1:
        parser.error("--reps must be at least 1")

    stmors = {name: load_package("stmor_" + name, where)
              for name, where in (("base", args.base), ("head", HEAD))}
    if fom or offline or setup:
        if fom or setup:
            make = fom_operation if fom else setup_operation
            built = {name: make(stmor, args.case) for name, stmor in stmors.items()}
        else:
            sols = offline_inputs(stmors["base"], args.case)
            built = {name: offline_operation(stmor, args.case, sols)
                     for name, stmor in stmors.items()}
        sides = {name: f for name, (f, _) in built.items()}
        config = built["head"][1]
        space, warmup, subject = config.space, FOM_WARMUP, args.case
        default_gap = config.picard_options()["picard_tol"] if fom else 1e-13
    else:
        sides = {name: operation(stmor, args.op, args.rom) for name, stmor in stmors.items()}
        space = sys.modules["stmor_head.rom"].read_rom(args.rom)[1].space
        warmup, subject, default_gap = WARMUP, args.rom, 0.0
    args.max_gap = default_gap if args.max_gap is None else args.max_gap
    if not args.max_gap >= 0.0:
        parser.error("--max-gap must be at least 0")
    mus = draw_mus(space, warmup + args.reps, SEED)
    times = {"base": [], "head": []}
    steps = {"base": [], "head": []}
    stages = {"base": [], "head": []}
    largest = 0.0
    largest_of = {}
    for i, mu in enumerate(mus):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        out = {}
        for name in order:
            t0 = time.perf_counter()
            out[name] = sides[name](mu)
            elapsed = time.perf_counter() - t0
            if i >= warmup:
                times[name].append(1e6 * elapsed)
                steps[name].append(len(getattr(out[name], "iterations", ())))
                if offline:
                    stages[name].append(out[name].timings)
        if setup:
            if out["base"].mesh.content_hash() != out["head"].mesh.content_hash():
                raise SystemExit("the meshes' content hashes differ at repetition %d" % i)
            for name, g in setup_gaps(out["base"], out["head"]).items():
                largest_of[name] = max(largest_of.get(name, 0.0), g)
            if max(largest_of.values()) > args.max_gap:
                raise SystemExit("the assemblers' arrays differ at repetition %d: %s"
                                 % (i, largest_of))
            continue
        if offline:
            largest = max(largest, slot_gap(out["base"].pkg, out["head"].pkg))
            if largest > args.max_gap:
                raise SystemExit("the packages' slots differ by %.3e at repetition %d"
                                 % (largest, i))
            continue
        if args.max_gap == 0.0:
            if fingerprint(out["base"]) != fingerprint(out["head"]):
                raise SystemExit("results differ at repetition %d, mu=%s" % (i, mu))
            continue
        rel, same = gap(out["base"], out["head"])
        largest = max(largest, rel)
        if rel > args.max_gap or not same:
            raise SystemExit("results differ at repetition %d, mu=%s: relative gap %.3e, flags "
                             "and step counts %s" % (i, mu, rel, "equal" if same else "differ"))

    base, head = (np.array(times[name]) for name in ("base", "head"))
    if setup:
        print("setup of %s, %d repetitions, content hashes equal, largest relative gaps "
              "(allowed %.1e): %s" % (subject, args.reps, args.max_gap, ", ".join(
                  "%s %.3e" % item for item in largest_of.items())))
        print("base  " + summary(base))
        print("head  " + summary(head))
        print("head/base: median %.3f, 95%% bootstrap interval [%.3f, %.3f]; head faster "
              "in %d of %d repetitions" % (bootstrap(base, head) + (int(np.sum(head < base)),
                                                                    args.reps)))
        return
    if offline:
        # the last builds' packages, solved at the box centre and corners
        rom = importlib.import_module(stmors["head"] + ".rom")
        points = np.vstack([space.box.corners(), space.box.center()[None]])
        solved = [gap(*(rom.solve_rom(out[name].pkg, mu=mu, **config.picard_options())
                        for name in ("base", "head"))) for mu in points]
        print("offline on %s, %d repetitions, largest relative gap of a slot of K and R "
              "%.3e (allowed %.1e), of solve_rom at %d points %.3e%s"
              % (subject, args.reps, largest, args.max_gap, len(points),
                 max(g for g, _ in solved), "" if all(ok for _, ok in solved)
                 else ", with differing flags or step counts"))
        ratios = {"total": (base, head)}
        for stage in (k for k in stages["head"][0] if k in stages["base"][0]):
            ratios[stage] = tuple(1e6 * np.array([t[stage] for t in stages[name]])
                                  for name in ("base", "head"))
        for label, (b, h) in ratios.items():
            print("%-13s base %s" % (label, summary(b)))
            print("%-13s head %s" % ("", summary(h)))
            print("%-13s head/base: median %.3f, 95%% bootstrap interval [%.3f, %.3f]; head "
                  "faster in %d of %d" % (("",) + bootstrap(b, h) + (int(np.sum(h < b)), len(b))))
        return
    print("%s on %s, %d repetitions, %s" % (
        args.op, subject, args.reps, "results bitwise equal" if args.max_gap == 0.0 else
        "largest relative gap of the solutions %.3e (allowed %.1e)" % (largest, args.max_gap)))
    print("base  " + summary(base))
    print("head  " + summary(head))
    if fom:
        print("mean Picard steps: base %.2f, head %.2f"
              % (np.mean(steps["base"]), np.mean(steps["head"])))
    print("head/base: median %.3f, mean %.3f; head faster in %d of %d repetitions"
          % (np.median(head) / np.median(base), head.mean() / base.mean(),
             int(np.sum(head < base)), args.reps))


if __name__ == "__main__":
    main()
