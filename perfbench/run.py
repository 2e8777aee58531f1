"""Benchmark entry point for stmor.

    python3 perfbench/run.py --workload valve-fom --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory and nowhere else.  With ``--trace 0`` the last line of
standard output is a JSON object holding the end-to-end metrics; with
``--trace 1`` every library call site listed in ``layers.py`` is wrapped and
the last line holds the per-layer metrics instead.  A full record of each run
(provenance, sample counts, failed checks, and for a traced run the spans and
the tracing overhead against an untraced run of the same seed) is written
under ``.perfbench_out/`` in the checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def import_library():
    """Import stmor from this checkout's src/, or return None."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import stmor
    except ImportError:
        return None
    if Path(stmor.__file__).resolve().parent.parent != src:
        return None
    return stmor


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_rev():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(seed):
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"git_rev": git_rev(), "src_sha256": source_digest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "cpu_model": cpu_model(), "seed": seed}


def result_path(args, trace):
    return OUT_DIR / ("result-%s-seed%d-s%d-trace%d.json"
                      % (args.workload, args.seed, args.seconds, trace))


def overhead(args, traced):
    """Traced minus untraced end-to-end values, when an untraced run exists."""
    try:
        with open(result_path(args, 0), encoding="utf-8") as fh:
            plain = json.load(fh)["metrics"]
    except (OSError, ValueError, KeyError):
        return None
    return {name: {"value": traced[name]["value"] - plain[name]["value"],
                   "unit": traced[name]["unit"]}
            for name in traced if name in plain}


def main(argv=None):
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if import_library() is None:
        print("perfbench: no stmor package under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2

    import layers
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r (known: %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    label = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    run = workloads.Run(args.seed, args.seconds, str(OUT_DIR), label)
    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.install(tracer)
    try:
        workloads.WORKLOADS[args.workload](run)
    finally:
        if tracer is not None:
            tracer.restore()

    end_to_end = {name: {"value": v, "unit": u}
                  for name, (v, u) in run.metrics.items()}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "provenance": provenance(args.seed),
              "samples": run.samples, "failures": run.tally.notes,
              "end_to_end": end_to_end, "unbounded": run.info}
    if tracer is not None:
        per_layer = {name: {"value": v, "unit": u}
                     for name, (v, u) in layers.metrics(tracer).items()}
        record["per_layer"] = per_layer
        record["tracing_overhead"] = overhead(args, end_to_end)
        trace_file = OUT_DIR / ("trace-%s.json" % label)
        tracer.write(trace_file)
        record["trace_file"] = str(trace_file.relative_to(ROOT))
    result = {"correct": run.tally.failed == 0,
              "attempted": run.tally.attempted, "failed": run.tally.failed,
              "metrics": record["per_layer"] if tracer else end_to_end}
    record.update(result)
    with open(result_path(args, args.trace), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print("provenance %s" % json.dumps(record["provenance"], sort_keys=True))
    print("failed_frac %.6g (%d of %d operations)"
          % (run.tally.failed / run.tally.attempted, run.tally.failed,
             run.tally.attempted))
    for note in run.tally.notes:
        print("FAILED %s" % note)
    for name, m in sorted(end_to_end.items()):
        print("%-24s %14.6g %-4s n=%s" % (name, m["value"], m["unit"],
                                          run.samples.get(name, 1)))
    for name, m in sorted(run.info.items()):
        print("%-24s %14.6g %-4s n=%d%s (not bounded)"
              % (name, m["value"], m["unit"], m["n"],
                 ", %d beyond" % m["beyond"] if "beyond" in m else ""))
    if tracer is not None:
        for name, m in sorted(record["per_layer"].items()):
            print("  %-38s %14.6g %s" % (name, m["value"], m["unit"]))
        for name, m in sorted((record["tracing_overhead"] or {}).items()):
            print("overhead %-24s %+12.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
