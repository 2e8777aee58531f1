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
the exit status is 1 then, else 0.  BLAS is pinned to one thread, as in
perfbench, so that both sides sum in the same order.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

HEAD = Path(__file__).resolve().parent.parent
ARTERY_ROM = {"n_x": 12, "n_y": 5, "n_levels": 6}
FOM_CASES = (("couette", {}), ("poiseuille-body", {}), ("artery-analog", ARTERY_ROM))


def sha(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def records(log):
    """Iteration records without their wall-clock entries."""
    return [{k: v for k, v in rec.items() if not k.endswith("_s")} for rec in log]


def fom_digest(sol):
    return sha(sol.v.tobytes(), sol.p.tobytes(), sol.converged, len(sol.iterations),
               records(sol.iterations))


def valve_mus(box):
    """The first block of Latin-hypercube mu that valve-fom draws at seed 1."""
    import numpy as np
    from perfbench.workloads import VALVE_BLOCK, latin_hypercube
    return latin_hypercube(np.random.default_rng(1), box, VALVE_BLOCK)


def rom_digest(red):
    return sha(red.v_N.tobytes(), red.p_N.tobytes(), red.converged, records(red.iterations))


def random_rom_digest(pkg, box, options):
    """(full, cut): solve_rom of pkg and of one cut at 8 seeded mu in box."""
    import numpy as np
    from stmor import rom
    lo, hi = np.asarray(box.lower), np.asarray(box.upper)
    mus = lo + (hi - lo) * np.random.default_rng(7).random((8, lo.size))
    cut = rom.truncate(pkg, max(pkg.n_lifts, pkg.n_u - 1), max(1, pkg.n_p - 1))
    return [sha(*[rom_digest(rom.solve_rom(p, mu=mu, strict=False, **options)) for mu in mus])
            for p in (pkg, cut)]


def eim_digest(eims):
    return sha(*[(tag, a.magic.tobytes(), a.history.tobytes(), a.basis.tobytes())
                 for tag, a in sorted(eims.items())])


def compute():
    """name -> hex digest for every entry of the list."""
    import numpy as np
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
            out["mesh/" + label] = sha(mesh.content_hash())
            out["lifting/" + label] = sha(*[(l.group, l.coefficient, l.vector.tobytes())
                                            for l in lifts])
        built[(case_id, tuple(sorted(overrides.items())))] = (config, mesh, problem)

    def file_bytes(write, item):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "file.stm"
            write(path, item)
            return path.read_bytes()

    for case_id, overrides in FOM_CASES:
        config, mesh, problem = built[(case_id, tuple(sorted(overrides.items())))]
        sol = fom.solve_fom(mesh, problem, **config.picard_options())
        out["fom/" + case_id] = fom_digest(sol)
        out["snapshot/" + case_id] = sha(file_bytes(fom.write_snapshot, sol))
    config, mesh, problem = built[("valve-analog", ())]
    sol = fom.solve_fom(mesh, problem, mu=config.space.box.center(), **config.picard_options())
    out["fom/valve"] = fom_digest(sol)
    out["snapshot/valve"] = sha(file_bytes(fom.write_snapshot, sol))

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

    out["train/chain"] = sha(*[(sol.v.tobytes(), sol.p.tobytes(), sol.converged,
                                records(sol.iterations)) for sol in pipe.solutions])
    out["rom/package"] = sha(file_bytes(rom.write_rom, pipe.pkg))
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
            out["rom/cut-%dx%d" % (n_u, n_p)] = sha(red.v_N.tobytes(), red.p_N.tobytes(),
                                                    red.converged, records(red.iterations),
                                                    file_bytes(rom.write_rom, cut))
    with tempfile.TemporaryDirectory() as tmp:
        rom.write_rom(Path(tmp) / "artery.rom", pkg)
        _, back = rom.read_rom(Path(tmp) / "artery.rom")
    red = rom.solve_rom(back, mu=points["centre"], **config.picard_options())
    out["rom/read-back"] = sha(*[a.tobytes() for a in (back.K, back.R, back.strain_op, back.start)
                                 + tuple(back.tau_scales)],
                               red.v_N.tobytes(), red.p_N.tobytes(), red.converged,
                               records(red.iterations))
    out["rom/info"] = sha(json.dumps(rom.rom_info(pkg), sort_keys=True).encode())
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
    out["rom/valve-package"] = sha(file_bytes(rom.write_rom, pipe.pkg))
    out["rom/random-valve"], out["rom/random-valve-cut"] = random_rom_digest(
        pipe.pkg, config.space.box, config.picard_options())
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="checkout to compare with")
    parser.add_argument("--src", default=str(HEAD / "src"),
                        help="the src/ directory whose stmor is digested "
                             "(default: this checkout's)")
    args = parser.parse_args(argv)
    if args.base is None:
        sys.path[:0] = [args.src, str(HEAD)]
        json.dump(compute(), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
        return 0

    base_src = Path(args.base).resolve() / "src"
    if not (base_src / "stmor" / "__init__.py").is_file():
        raise SystemExit("%s holds no src/stmor package" % args.base)
    sides = {name: subprocess.Popen([sys.executable, __file__, "--src", str(src)],
                                    stdout=subprocess.PIPE, text=True)
             for name, src in (("base", base_src), ("head", Path(args.src)))}
    digests = {}
    for name, proc in sides.items():
        text, _ = proc.communicate()
        if proc.returncode != 0:
            raise SystemExit("the %s side failed (exit %d)" % (name, proc.returncode))
        digests[name] = json.loads(text)
    base, head = digests["base"], digests["head"]
    differ = sorted(k for k in set(base) | set(head) if base.get(k) != head.get(k))
    for key in differ:
        print("differs: %s (base %s, head %s)" % (key, base.get(key, "-")[:12],
                                                  head.get(key, "-")[:12]))
    print("%d of %d digests equal" % (len(set(base) | set(head)) - len(differ),
                                      len(set(base) | set(head))))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
