"""Self-test of the benchmark at its shortest length.

    python3 perfbench/selftest.py

Runs every workload for one second, untraced and traced, and checks that each
run ends with the result line, emits every metric BENCHMARK.json names with
its unit, and passes its own checks.  It then checks that a deliberately
perturbed ROM result is counted as failed, and that the benchmark refuses to
run without the library sources.  Exits 0 when every check holds.
"""

import json
import shutil
import subprocess
import sys

import run as bench

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def require(ok, message):
    if not ok:
        raise AssertionError(message)


def result_line(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check_run(spec, workload, trace):
    cmd = [sys.executable, str(bench.ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900,
                          cwd=bench.ROOT)
    where = "%s --trace %d" % (workload, trace)
    require(proc.returncode == 0, "%s exited %d:\n%s"
            % (where, proc.returncode, proc.stderr))
    res = result_line(proc.stdout)
    require(set(res) == RESULT_KEYS, "%s: result keys %s" % (where, sorted(res)))
    require(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
            "%s: checks failed:\n%s" % (where, proc.stdout))
    wanted = spec["per_layer" if trace else "end_to_end"]
    for metric in wanted:
        got = res["metrics"].get(metric["name"])
        require(got is not None, "%s: metric %s missing" % (where, metric["name"]))
        require(got["unit"] == metric["unit"], "%s: %s has unit %r, not %r"
                % (where, metric["name"], got["unit"], metric["unit"]))
        require(isinstance(got["value"], (int, float)),
                "%s: %s is not a number" % (where, metric["name"]))
        if not trace:
            require(got["value"] > 0, "%s: %s is %r"
                    % (where, metric["name"], got["value"]))
    print("ok   %s: %d metrics, %d operations checked"
          % (where, len(wanted), res["attempted"]))


def check_perturbed_rom_fails():
    """The first ROM query returns a perturbed result; the run must see it."""
    require(bench.import_library() is not None, "stmor not importable")
    from stmor import rom

    import workloads

    solve_rom = rom.solve_rom
    calls = []

    def perturbed(*args, **kwargs):
        red = solve_rom(*args, **kwargs)
        if not calls:
            red.v_N = red.v_N * (1.0 + 1e-6)
        calls.append(1)
        return red

    run = workloads.Run(1, 1, str(bench.OUT_DIR), "selftest-perturbed")
    rom.solve_rom = perturbed
    try:
        workloads.artery_rom(run)
    finally:
        rom.solve_rom = solve_rom
    require(run.tally.failed >= 1, "perturbed ROM result was not counted")
    print("ok   perturbed ROM result: %d of %d operations failed"
          % (run.tally.failed, run.tally.attempted))


def check_refuses_without_sources(spec):
    bare = bench.OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(bench.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        cmd = [sys.executable] + spec["command"][1:] + [
            "--workload", spec["workloads"][0]["name"], "--seed", "1",
            "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180,
                              cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    require(proc.returncode != 0 and not proc.stdout.strip(),
            "benchmark ran without the library sources:\n%s" % proc.stdout)
    print("ok   refuses to run without src/ (exit %d)" % proc.returncode)


def main():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bench.OUT_DIR.mkdir(exist_ok=True)
    check_refuses_without_sources(spec)
    for workload in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, workload["name"], trace)
    check_perturbed_rom_fails()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
