"""sha256 digests of stmor's results on a fixed list of inputs.

    python3 tools/digests.py                     # this checkout's digests, as JSON
    python3 tools/digests.py --base ../parent    # and a diff against another checkout

The list:
    mesh/<case>, lifting/<case>
        the mesh's ``content_hash`` and the lifting vectors (group,
        coefficient, values) of every bundled case, of the 12x5x6 artery the
        benchmark's ``artery-rom`` workload runs, each built both from the
        factory and from the factory's ``to_dict`` read back by
        ``config_from_dict`` (``<case>@json``);
    load/valve-traction, load/artery-traction
        ``fom.fixed_load`` of the valve and of the 12x5x6 artery with a
        constant outlet traction, (2, -1) and (1.5, -0.5), the problem built
        by ``dataclasses.replace(problem, neumann=...)``;
    fom/<case>
        ``solve_fom`` v, p, convergence flag, iteration count and the
        iteration records without their timings, on couette, poiseuille-body
        and the 12x5x6 artery, with the case's solver options;
    fom/valve
        the same of the valve's cold solve at its box centre;
    snapshot/<case>
        the bytes of ``fom.write_snapshot`` of each of the four solutions
        above (couette, poiseuille-body, artery-analog, valve);
    fom/artery-after-others
        the same of the 12x5x6 artery's cold solve at its box centre, run
        after the solves at its lower and upper bounds on the same assembler;
        the run stops unless it equals that solve on a fresh assembler;
    train/chain
        the 16 training solutions of the 12x5x6 artery's offline build over
        its 16-point training grid, one ``analysis.solve_chain``: v, p,
        convergence flags and iteration records without their timings;
    rom/package, rom/<point>
        the bytes of ``rom.write_rom`` of that build, and ``solve_rom`` (v_N,
        p_N, flag, records without timings) at the box centre and corners;
    rom/cut-<n_u>x<n_p>
        for every cut ``rom.truncate(pkg, n_u, n_p)`` of that package, the
        cut's ``solve_rom`` at the box centre (as above) and the bytes of its
        ``rom.write_rom``;
    rom/read-back
        ``rom.read_rom`` of that package's file: its K, R, strain_op, start
        and tau_scales, and its ``solve_rom`` at the box centre;
    rom/info
        ``json.dumps(rom.rom_info(pkg), sort_keys=True)`` of the package;
    rom/random-<case>, rom/random-<case>-cut
        ``solve_rom`` (as above) at 8 uniform random mu in the box, seed 7,
        of that package and of its cut one velocity and one pressure column
        short; for the valve, of the package below;
    eim/artery-chain
        the magic elements, greedy history and basis of both interpolations
        (eta, tau) of that build;
    eim/valve, rom/valve-package
        the same of the valve's build from cold solves at the first block of
        Latin-hypercube mu the benchmark's ``valve-fom`` workload draws at
        seed 1 (``perfbench.workloads.latin_hypercube``), built by
        ``offline_build(solutions=...)`` as that workload builds it, and the
        bytes of ``rom.write_rom`` of its package.

With --base, the same list runs on both checkouts' ``src/``, each in a
subprocess, side by side, and any differing or missing entry is printed;
the exit status is 1 then, else 0.  Beside each differing entry stands the
largest relative gap of the float arrays it covers, max |head - base| /
max |base| over each array, and whether its parts without floats (counts,
flags, names) are equal, so that a change that moves results by round-off
can state by how much.  BLAS is pinned to one thread, as in perfbench, so
that both sides sum in the same order.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import numpy as np  # noqa: E402  (after the BLAS thread pinning)

HEAD = Path(__file__).resolve().parent.parent
ARTERY_ROM = {"n_x": 12, "n_y": 5, "n_levels": 6}
FOM_CASES = (("couette", {}), ("poiseuille-body", {}), ("artery-analog", ARTERY_ROM))


class Digest(str):
    """A hex digest that keeps the float arrays it covers and its parts
    without their floats, for the gaps --base prints."""


def without_floats(part):
    """part with every float and float array left out: its counts, flags
    and names."""
    if isinstance(part, Digest):
        return part.exact
    if isinstance(part, (float, bytes)):
        return None
    if hasattr(part, "tobytes"):
        return None if part.dtype == "float64" else part.tobytes()
    if isinstance(part, dict):
        return {k: without_floats(v) for k, v in part.items()}
    if isinstance(part, (list, tuple)):
        return [without_floats(p) for p in part]
    return part


def sha(*parts, keep=()):
    """The digest of parts, each an array (its bytes), bytes, a digest, a
    dict (its sorted JSON) or a value (its repr).  It keeps the float arrays
    among parts and in the digests among them, and those in keep, which are
    not hashed."""
    h = hashlib.sha256()
    arrays = []
    for part in parts:
        if isinstance(part, Digest):
            arrays += part.arrays
        elif hasattr(part, "tobytes"):
            arrays += [part] if part.dtype == "float64" else []
            part = part.tobytes()
        elif isinstance(part, dict):
            part = json.dumps(part, sort_keys=True).encode()
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    out = Digest(h.hexdigest())
    out.arrays, out.exact = arrays + list(keep), repr(without_floats(parts))
    return out


def records(log):
    """Iteration records without their wall-clock entries."""
    return [{k: v for k, v in rec.items() if not k.endswith("_s")} for rec in log]


def fom_digest(sol):
    return sha(sol.v, sol.p, sol.converged, len(sol.iterations), records(sol.iterations))


def valve_mus(box):
    """The first block of Latin-hypercube mu that valve-fom draws at seed 1."""
    from perfbench.workloads import VALVE_BLOCK, latin_hypercube
    return latin_hypercube(np.random.default_rng(1), box, VALVE_BLOCK)


def rom_digest(red):
    return sha(red.v_N, red.p_N, red.converged, records(red.iterations))


def package_arrays(pkg):
    """The float arrays of a reduced package."""
    return [pkg.K, pkg.R, pkg.start, pkg.strain_op] + list(pkg.tau_scales)


def random_rom_digest(pkg, box, options):
    """(full, cut): solve_rom of pkg and of one cut at 8 seeded mu in box."""
    from stmor import rom
    lo, hi = np.asarray(box.lower), np.asarray(box.upper)
    mus = lo + (hi - lo) * np.random.default_rng(7).random((8, lo.size))
    cut = rom.truncate(pkg, max(pkg.n_lifts, pkg.n_u - 1), max(1, pkg.n_p - 1))
    return [sha(*[rom_digest(rom.solve_rom(p, mu=mu, strict=False, **options)) for mu in mus])
            for p in (pkg, cut)]


def eim_digest(eims):
    return sha(*[x for tag, a in sorted(eims.items()) for x in (tag, a.magic, a.history, a.basis)])


def compute():
    """name -> hex digest for every entry of the list."""
    from stmor import analysis, cases, fom, rom

    out = {}
    built = {}
    for case_id, overrides in ([(c, {}) for c in cases.bundled_case_ids()]
                               + [("artery-analog", ARTERY_ROM)]):
        name = case_id + ("-%(n_x)dx%(n_y)dx%(n_levels)d" % overrides if overrides else "")
        config = cases.bundled_case(case_id, **overrides)
        for label, cfg in ((name, config),
                           (name + "@json", cases.config_from_dict(config.to_dict()))):
            mesh = cases.build_mesh(cfg)
            problem = cases.build_problem(cfg, mesh)
            lifts = fom.build_lifting(mesh, problem.dirichlet, problem.amplitudes)
            out["mesh/" + label] = sha(mesh.content_hash(), keep=[mesh.nodes])
            out["lifting/" + label] = sha(*[x for l in lifts
                                            for x in (l.group, l.coefficient, l.vector)])
        built[(case_id, tuple(sorted(overrides.items())))] = (config, mesh, problem)

    for name, key, traction in (("valve", ("valve-analog", ()), (2.0, -1.0)),
                                ("artery", ("artery-analog", tuple(sorted(ARTERY_ROM.items()))),
                                 (1.5, -0.5))):
        _, mesh, problem = built[key]
        loaded = dataclasses.replace(problem, neumann={"outlet": traction})
        out["load/%s-traction" % name] = sha(fom.fixed_load(
            fom.FomAssembler(mesh), fom.build_dof_map(mesh, loaded.dirichlet), loaded,
            loaded.material.rho))

    def file_bytes(write, item):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "file.stm"
            write(path, item)
            return path.read_bytes()

    for case_id, overrides in FOM_CASES:
        config, mesh, problem = built[(case_id, tuple(sorted(overrides.items())))]
        sol = fom.solve_fom(mesh, problem, **config.picard_options())
        out["fom/" + case_id] = fom_digest(sol)
        out["snapshot/" + case_id] = sha(file_bytes(fom.write_snapshot, sol),
                                         keep=[sol.v, sol.p])
    config, mesh, problem = built[("valve-analog", ())]
    sol = fom.solve_fom(mesh, problem, mu=config.space.box.center(), **config.picard_options())
    out["fom/valve"] = fom_digest(sol)
    out["snapshot/valve"] = sha(file_bytes(fom.write_snapshot, sol), keep=[sol.v, sol.p])

    config, mesh, problem = built[("artery-analog", tuple(sorted(ARTERY_ROM.items())))]
    box = config.space.box
    asm = fom.FomAssembler(mesh)
    for mu in (box.lower, box.upper, box.center()):
        sol = fom.solve_fom(mesh, problem, mu=np.asarray(mu), assembler=asm,
                            **config.picard_options())
    out["fom/artery-after-others"] = fom_digest(sol)
    fresh = fom.solve_fom(mesh, problem, mu=box.center(), assembler=fom.FomAssembler(mesh),
                          **config.picard_options())
    if fom_digest(fresh) != out["fom/artery-after-others"]:
        raise SystemExit("the artery's cold solve after others differs from a fresh one")

    train = analysis.generate_samples(analysis.SamplePlan(box=box, **config.plan_options()))
    pipe = analysis.offline_build(mesh, problem, train.training, **config.picard_options(),
                                  **config.offline_options())

    out["train/chain"] = sha(*[fom_digest(sol) for sol in pipe.solutions])
    out["rom/package"] = sha(file_bytes(rom.write_rom, pipe.pkg), keep=package_arrays(pipe.pkg))
    lo, hi = np.asarray(box.lower), np.asarray(box.upper)
    points = {"centre": 0.5 * (lo + hi)}
    for corner in np.ndindex(*(2,) * lo.size):
        points["corner" + "".join(map(str, corner))] = np.where(np.array(corner) == 1, hi, lo)
    for label, mu in points.items():
        out["rom/" + label] = rom_digest(rom.solve_rom(pipe.pkg, mu=mu,
                                                       **config.picard_options()))
    pkg = pipe.pkg
    for n_u in range(pkg.n_lifts, pkg.n_u + 1):
        for n_p in range(1, pkg.n_p + 1):
            cut = rom.truncate(pkg, n_u, n_p)
            red = rom.solve_rom(cut, mu=points["centre"], **config.picard_options())
            out["rom/cut-%dx%d" % (n_u, n_p)] = sha(red.v_N, red.p_N, red.converged,
                                                    records(red.iterations),
                                                    file_bytes(rom.write_rom, cut),
                                                    keep=package_arrays(cut))
    with tempfile.TemporaryDirectory() as tmp:
        rom.write_rom(Path(tmp) / "artery.rom", pkg)
        _, back = rom.read_rom(Path(tmp) / "artery.rom")
    red = rom.solve_rom(back, mu=points["centre"], **config.picard_options())
    out["rom/read-back"] = sha(back.K, back.R, back.strain_op, back.start, *back.tau_scales,
                               red.v_N, red.p_N, red.converged, records(red.iterations))
    out["rom/info"] = sha(rom.rom_info(pkg))
    out["rom/random-artery"], out["rom/random-artery-cut"] = random_rom_digest(
        pkg, box, config.picard_options())
    out["eim/artery-chain"] = eim_digest(pipe.eims)

    config, mesh, problem = built[("valve-analog", ())]
    asm = fom.FomAssembler(mesh)
    sols = [fom.solve_fom(mesh, problem, mu=mu, assembler=asm, **config.picard_options())
            for mu in valve_mus(config.space.box)]
    pipe = analysis.offline_build(mesh, problem, solutions=sols, assembler=asm,
                                  **config.picard_options(), **config.offline_options())
    out["eim/valve"] = eim_digest(pipe.eims)
    out["rom/valve-package"] = sha(file_bytes(rom.write_rom, pipe.pkg),
                                   keep=package_arrays(pipe.pkg))
    out["rom/random-valve"], out["rom/random-valve-cut"] = random_rom_digest(
        pipe.pkg, config.space.box, config.picard_options())
    return out


def largest_gaps(base, head):
    """(max |h - b| / max |b| of the worst array, max |h - b| over max |b|
    over all arrays) of the paired arrays of one entry, or None when their
    number or shapes differ.  The second is the gap in the max norm of the
    entry as one vector, as of a solution's v and p together."""
    if len(base) != len(head) or any(b.shape != h.shape for b, h in zip(base, head)):
        return None
    pairs = [(float(np.abs(h - b).max()), float(np.abs(b).max()))
             for b, h in zip(base, head) if b.size]
    if not pairs:
        return 0.0, 0.0
    worst = max(gap / max(scale, 1e-300) for gap, scale in pairs)
    return worst, max(g for g, _ in pairs) / max(max(s for _, s in pairs), 1e-300)


def describe(base, head):
    """The gaps of one differing entry, from each side's (arrays, parts
    without floats)."""
    if base is None or head is None:
        return "missing on one side"
    gaps = largest_gaps(base[0], head[0])
    return "%s, %d arrays, counts and flags %s" % (
        "arrays of other shapes" if gaps is None else
        "relative gap %.1e (worst array), %.1e (entry)" % gaps,
        len(head[0]), "equal" if base[1] == head[1] else "differ")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="checkout to compare with")
    parser.add_argument("--src", default=str(HEAD / "src"),
                        help="the src/ directory whose stmor is digested "
                             "(default: this checkout's)")
    parser.add_argument("--arrays", help="file to pickle each entry's float arrays and "
                                         "parts without floats to")
    args = parser.parse_args(argv)
    if args.base is None:
        sys.path[:0] = [args.src, str(HEAD)]
        out = compute()
        if args.arrays:
            with open(args.arrays, "wb") as fh:
                pickle.dump({k: (v.arrays, v.exact) for k, v in out.items()}, fh)
        json.dump(out, sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
        return 0

    base_src = Path(args.base).resolve() / "src"
    if not (base_src / "stmor" / "__init__.py").is_file():
        raise SystemExit("%s holds no src/stmor package" % args.base)
    digests, kept = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        sides = {name: subprocess.Popen([sys.executable, __file__, "--src", str(src),
                                         "--arrays", str(Path(tmp) / name)],
                                        stdout=subprocess.PIPE, text=True)
                 for name, src in (("base", base_src), ("head", Path(args.src)))}
        for name, proc in sides.items():
            text, _ = proc.communicate()
            if proc.returncode != 0:
                raise SystemExit("the %s side failed (exit %d)" % (name, proc.returncode))
            digests[name] = json.loads(text)
            with open(Path(tmp) / name, "rb") as fh:
                kept[name] = pickle.load(fh)
    base, head = digests["base"], digests["head"]
    differ = sorted(k for k in set(base) | set(head) if base.get(k) != head.get(k))
    for key in differ:
        print("differs: %s (base %s, head %s): %s"
              % (key, base.get(key, "-")[:12], head.get(key, "-")[:12],
                 describe(kept["base"].get(key), kept["head"].get(key))))
    print("%d of %d digests equal" % (len(set(base) | set(head)) - len(differ),
                                      len(set(base) | set(head))))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
