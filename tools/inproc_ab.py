"""Same-process A/B timing of one online operation on two stmor checkouts.

    python3 tools/inproc_ab.py --base ../parent --rom artery.rom --op cold

stmor is imported from the base checkout's ``src/`` as ``stmor_base`` and
from the checkout holding this script as ``stmor_head``.  Each repetition
draws one mu from the package's box and runs the operation once on each
side, alternating which side goes first, so both see the same machine state;
a run-to-run drift of the machine's speed moves both alike.  The first
WARMUP repetitions are not timed.  The two sides' results must be equal bit
for bit.

Operations:
    read_rom   rom.read_rom of the file
    warm       rom.solve_rom on a package read once before timing
    cold       rom.read_rom of the file, then rom.solve_rom

The package comes from ``stmor build-rom`` (or ``rom.write_rom``).  BLAS is
pinned to one thread, as in perfbench.  Both checkouts must read the same rom
layout: a base checkout from before the fitted ``start`` array refuses the
file, so a change of layout is measured by perfbench pairs only.
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
SEED = 1


def load_rom_module(name, checkout):
    """stmor.rom of checkout/src, imported under the package name ``name``."""
    pkg_dir = Path(checkout).resolve() / "src" / "stmor"
    if not (pkg_dir / "__init__.py").is_file():
        raise SystemExit("%s holds no src/stmor package" % checkout)
    spec = importlib.util.spec_from_file_location(
        name, pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(name + ".rom")


def draw_mus(pkg, n, seed):
    """n points uniform in the package's box, or n times None without one."""
    if pkg.space is None:
        return [None] * n
    lo = np.asarray(pkg.space.box.lower, dtype=np.float64)
    hi = np.asarray(pkg.space.box.upper, dtype=np.float64)
    rng = np.random.Generator(np.random.PCG64(seed))
    return list(lo + (hi - lo) * rng.random((n, lo.size)))


def operation(rom, op, path):
    """f(mu) -> result of the timed operation on one side."""
    if op == "read_rom":
        return lambda mu: rom.read_rom(path)[1]
    if op == "cold":
        return lambda mu: rom.solve_rom(rom.read_rom(path)[1], mu=mu, strict=False)
    _, pkg = rom.read_rom(path)
    return lambda mu: rom.solve_rom(pkg, mu=mu, strict=False)


def fingerprint(out):
    """Bytes that two equal results share: a package's arrays, or a solution."""
    if hasattr(out, "K"):
        arrays = [out.K, out.R, out.strain_op, out.start, *out.tau_scales]
        return b"".join(a.tobytes() for a in arrays)
    return (out.v_N.tobytes(), out.p_N.tobytes(), out.converged, repr(out.iterations))


def summary(us):
    q1, med, q3 = np.percentile(us, [25, 50, 75])
    return "median %8.1f us  quartiles [%.1f, %.1f]  mean %.1f" % (med, q1, q3, np.mean(us))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="checkout timed as the base")
    parser.add_argument("--rom", required=True, help="rom package file")
    parser.add_argument("--op", choices=("read_rom", "warm", "cold"), default="cold")
    parser.add_argument("--reps", type=int, default=2000)
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")

    sides = {name: operation(load_rom_module("stmor_" + name, where), args.op, args.rom)
             for name, where in (("base", args.base), ("head", HEAD))}
    _, pkg = sys.modules["stmor_head.rom"].read_rom(args.rom)
    mus = draw_mus(pkg, WARMUP + args.reps, SEED)
    times = {"base": [], "head": []}
    for i, mu in enumerate(mus):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        out = {}
        for name in order:
            t0 = time.perf_counter()
            out[name] = sides[name](mu)
            elapsed = time.perf_counter() - t0
            if i >= WARMUP:
                times[name].append(1e6 * elapsed)
        if fingerprint(out["base"]) != fingerprint(out["head"]):
            raise SystemExit("results differ at repetition %d, mu=%s" % (i, mu))

    base, head = (np.array(times[name]) for name in ("base", "head"))
    print("%s on %s, %d repetitions, results bitwise equal" % (args.op, args.rom, args.reps))
    print("base  " + summary(base))
    print("head  " + summary(head))
    print("head/base: median %.3f, mean %.3f; head faster in %d of %d repetitions"
          % (np.median(head) / np.median(base), head.mean() / base.mean(),
             int(np.sum(head < base)), args.reps))


if __name__ == "__main__":
    main()
