"""Command-line front end for the whole pipeline.

Every stage reads a case configuration (a bundled id or a config file),
writes versioned artifacts into --out-dir, and refuses inputs whose mesh
hash does not match the mesh rebuilt from the configuration, so stale
intermediate files fail hard instead of producing silently wrong output.
Failures print one machine-readable JSON line to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
import time
from pathlib import Path

import numpy as np

from . import analysis, cases
from .analysis import (AnalysisError, SamplePlan, generate_samples,
                       offline_build, run_study, solution_digest,
                       summarize_report, write_study_csv, write_study_report)
from .cases import CaseError
from .constitutive import ParameterError
from .eim import EimError
from .fom import (FomAssembler, SolverError, build_dof_map, build_lifting,
                  read_snapshot, solve_fom, write_snapshot)
from .io import ArtifactError, write_artifact
from .mesh import MeshError, write_vtk
from .pod import PodError
from .rom import RomError, read_rom, rom_info, solve_rom, write_rom


class CliError(Exception):
    """Malformed command-line flag values."""


LOG_LEVELS = ("debug", "info", "warning", "error")

_ERRORS = (CliError, CaseError, AnalysisError, ParameterError, EimError,
           SolverError, ArtifactError, MeshError, PodError, RomError,
           OSError)


# ---------------------------------------------------------------------------
# flag parsing helpers

def resolve_case(ident):
    """A bundled case id or a path to a case-config file."""
    if ident in cases.bundled_case_ids():
        return cases.bundled_case(ident)
    path = Path(ident)
    if path.exists():
        return cases.load_case(path)
    raise CliError("unknown case %r: not a bundled id %s and no such file"
                   % (ident, cases.bundled_case_ids()))


def parse_mu(text):
    if text is None:
        return None
    try:
        return np.array([float(v) for v in text.split(",")], dtype=np.float64)
    except ValueError:
        raise CliError("cannot parse --mu %r: expected comma-separated "
                       "numbers" % text) from None


def parse_train_grid(text):
    """'4x4' -> (4, 4); '16' -> (16,)."""
    try:
        counts = tuple(int(v) for v in text.lower().split("x"))
    except ValueError:
        raise CliError("cannot parse --train-grid %r: expected e.g. 4x4"
                       % text) from None
    if not counts or any(c < 2 for c in counts):
        raise CliError("--train-grid counts must all be >= 2")
    return counts


def parse_sweep(text):
    """'Nu=2..6,Np=1..4' -> {'n_u': [2..6], 'n_p': [1..4]}."""
    out = {}
    for part in text.split(","):
        key, sep, val = part.partition("=")
        key = key.strip().lower()
        if not sep or key not in ("nu", "np"):
            raise CliError("cannot parse --sweep %r: expected Nu=a..b,Np=c..d"
                           % text)
        try:
            if ".." in val:
                a, b = val.split("..")
                values = list(range(int(a), int(b) + 1))
            else:
                values = [int(val)]
        except ValueError:
            raise CliError("cannot parse --sweep range %r" % val) from None
        if not values:
            raise CliError("--sweep range %r is empty" % val)
        out.setdefault("n_u" if key == "nu" else "n_p", []).extend(values)
    if set(out) != {"n_u", "n_p"}:
        raise CliError("--sweep needs both Nu= and Np= ranges")
    return out


def _plan_from(config, args):
    """Sample plan of the config with --train-grid / --seed overrides."""
    if config.space is None:
        raise CliError("case %r has no parameter space" % config.case_id)
    plan = config.plan_options()
    counts = (parse_train_grid(args.train_grid) if args.train_grid
              else plan["train_counts"])
    seed = args.seed if args.seed is not None else plan["seed"]
    return SamplePlan(box=config.space.box, train_counts=counts,
                      n_test=plan["n_test"], seed=seed)


def _offline_options(config, args):
    """offline_build options of the config with the command-line overrides."""
    return config.offline_options(tol_eim_eta=args.tol_eim_eta,
                                  tol_eim_tau=args.tol_eim_tau,
                                  energy_threshold=args.energy_threshold)


def _out_dir(args):
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands

def cmd_mesh(args):
    config = resolve_case(args.case)
    out = _out_dir(args)
    mesh = cases.build_mesh(config)
    vtk_path = out / "mesh.vtk"
    write_vtk(mesh, vtk_path)
    print("case %s: %d nodes, %d elements, %d time levels, hash %s"
          % (config.case_id, mesh.n_nodes, mesh.n_elements,
             mesh.time_levels.size, mesh.content_hash()[:12]))
    print("wrote %s" % vtk_path)
    return 0


def cmd_fom(args):
    config = resolve_case(args.case)
    out = _out_dir(args)
    mesh = cases.build_mesh(config)
    problem = cases.build_problem(config, mesh)
    mu = parse_mu(args.mu)
    t0 = time.perf_counter()
    sol = solve_fom(mesh, problem, mu=mu, **config.picard_options())
    elapsed = time.perf_counter() - t0
    path = out / "fom_solution.stm"
    write_snapshot(path, sol, extra_header={"wall_time_s": elapsed})
    print("case %s: %d iterations, %d factorizations, rel update %.3e, %.2f s"
          % (config.case_id, len(sol.iterations),
             sum(rec["factorized"] for rec in sol.iterations),
             sol.iterations[-1]["rel_update"], elapsed))
    print("wrote %s" % path)
    return 0


def cmd_snapshots(args):
    config = resolve_case(args.case)
    out = _out_dir(args)
    plan = _plan_from(config, args)
    samples = generate_samples(plan)
    mesh = cases.build_mesh(config)
    problem = cases.build_problem(config, mesh)
    snap_dir = out / "snapshots"
    snap_dir.mkdir(exist_ok=True)
    sols, times = analysis.solve_chain(
        mesh, problem, samples.training, assembler=FomAssembler(mesh),
        dof_map=build_dof_map(mesh, problem.dirichlet),
        **config.picard_options())
    files = []
    for i, sol in enumerate(sols):
        path = snap_dir / ("snap_%04d.stm" % i)
        write_snapshot(path, sol, extra_header={"sample_index": i,
                                                "wall_time_s": times[i]})
        files.append(path.name)
    manifest = {"schema_version": 1, "kind": "snapshot_manifest",
                "case_id": config.case_id, "mesh_hash": mesh.content_hash(),
                "train_counts": list(plan.train_counts),
                "seed": plan.seed, "files": files,
                "mus": samples.training.tolist()}
    with open(snap_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    print("case %s: %d training snapshots (grid %s) in %s"
          % (config.case_id, len(files),
             "x".join(str(c) for c in plan.train_counts), snap_dir))
    return 0


def _read_training(snap_dir, mesh_hash, case_id):
    paths = sorted(snap_dir.glob("snap_*.stm"))
    if not paths:
        raise ArtifactError("no snapshots under %s; run the snapshots stage "
                            "first" % snap_dir)
    sols = []
    for path in paths:
        header, sol = read_snapshot(path, mesh_hash=mesh_hash)
        if header.get("case_id") != case_id:
            raise ArtifactError("%s belongs to case %r, expected %r"
                                % (path, header.get("case_id"), case_id))
        sols.append(sol)
    return sols


def cmd_build_rom(args):
    config = resolve_case(args.case)
    out = _out_dir(args)
    mesh = cases.build_mesh(config)
    problem = cases.build_problem(config, mesh)
    sols = _read_training(out / "snapshots", mesh.content_hash(),
                          config.case_id)
    pipe = offline_build(mesh, problem, solutions=sols,
                         **_offline_options(config, args))
    digest = hashlib.sha256("".join(solution_digest(s)
                                    for s in sols).encode()).hexdigest()
    path = out / "rom_package.stm"
    write_rom(path, pipe.pkg, extra_header={"n_training": len(sols),
                                            "training_digest": digest})
    info = rom_info(pipe.pkg)
    print(json.dumps(info, indent=2))
    print("wrote %s" % path)
    return 0


def cmd_eval_rom(args):
    config = resolve_case(args.case)
    out = _out_dir(args)
    mesh = cases.build_mesh(config)
    _, pkg = read_rom(out / "rom_package.stm", mesh_hash=mesh.content_hash())
    if pkg.case_id != config.case_id:
        raise ArtifactError("rom package belongs to case %r, expected %r"
                            % (pkg.case_id, config.case_id))
    mu = parse_mu(args.mu)
    t0 = time.perf_counter()
    red = solve_rom(pkg, mu=mu, **config.picard_options())
    elapsed = time.perf_counter() - t0
    gap = red.iterations[0]["rel_update"]      # how far the first iterate was off
    path = out / "rom_solution.stm"
    write_artifact(path, "rom_solution",
                   {"case_id": pkg.case_id, "mesh_hash": pkg.mesh_hash,
                    "mu": list(map(float, red.mu)),
                    "n_u": pkg.n_u, "n_p": pkg.n_p,
                    "wall_time_s": elapsed, "start_gap": gap},
                   {"v_N": red.v_N, "p_N": red.p_N})
    print("case %s: reduced solve (%d+%d dofs), %d iterations, start_gap %.3e, %.4f s"
          % (config.case_id, pkg.n_u, pkg.n_p, len(red.iterations), gap, elapsed))
    print("wrote %s" % path)
    return 0


def cmd_study(args):
    config = resolve_case(args.case)
    out = _out_dir(args)
    plan = _plan_from(config, args)
    sweep = parse_sweep(args.sweep) if args.sweep else None
    mesh = cases.build_mesh(config)
    problem = cases.build_problem(config, mesh)
    samples = generate_samples(plan)
    pipeline = offline_build(mesh, problem, train_mus=samples.training,
                             **config.picard_options(),
                             **_offline_options(config, args))
    report = run_study(config, sweep=sweep, plan=plan, pipeline=pipeline)
    json_path = out / "study_report.json"
    csv_path = out / "study_report.csv"
    write_study_report(report, json_path)
    write_study_csv(report, csv_path)
    print(summarize_report(report))
    print("wrote %s" % json_path)
    print("wrote %s" % csv_path)
    return 0


def cmd_rom_info(args):
    path = Path(args.path) if args.path else Path(args.out_dir) / "rom_package.stm"
    _, pkg = read_rom(path)
    print(json.dumps(rom_info(pkg), indent=2))
    return 0


def cmd_export_vtk(args):
    config = resolve_case(args.case)
    out = _out_dir(args)
    mesh = cases.build_mesh(config)
    snap_path = out / "fom_solution.stm"
    if snap_path.exists():
        _, sol = read_snapshot(snap_path, mesh_hash=mesh.content_hash())
        problem = cases.build_problem(config, mesh)
        dof_map = build_dof_map(mesh, problem.dirichlet)
        mu = sol.mu if sol.mu.size else None
        _, amps = problem.effective(mu)
        lifts = build_lifting(mesh, problem.dirichlet, amps)
        u_full = sol.velocity_field(dof_map, lifts)
        path = out / "solution.vtk"
        write_vtk(mesh, path, point_data={"velocity": u_full,
                                          "pressure": sol.p})
    else:
        path = out / "mesh.vtk"
        write_vtk(mesh, path)
    print("wrote %s" % path)
    return 0


def cmd_report(args):
    if args.action != "summarize":
        raise CliError("unknown report action %r (only 'summarize')"
                       % args.action)
    report = analysis.read_study_report(args.path)
    print(summarize_report(report))
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser():
    parser = argparse.ArgumentParser(
        prog="stmor",
        description="Projection-based model order reduction for "
                    "shear-thinning Stokes flow on space-time meshes.")
    parser.add_argument("--log-level", default="warning", choices=LOG_LEVELS,
                        help="level of the library's log lines on stderr "
                             "(default: warning)")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--case", required=True,
                        help="bundled case id %s or config file path"
                             % (cases.bundled_case_ids(),))
    common.add_argument("--out-dir", default=".", help="artifact directory")

    p = sub.add_parser("mesh", parents=[common],
                       help="build, deform, and export the space-time mesh")
    p.set_defaults(func=cmd_mesh)

    p = sub.add_parser("fom", parents=[common], help="single full-order solve")
    p.add_argument("--mu", help="comma-separated parameter values")
    p.set_defaults(func=cmd_fom)

    p = sub.add_parser("snapshots", parents=[common],
                       help="training sweep over the parameter grid")
    p.add_argument("--train-grid", help="per-axis counts, e.g. 4x4")
    p.add_argument("--seed", type=int, help="sample plan seed override")
    p.set_defaults(func=cmd_snapshots)

    p = sub.add_parser("build-rom", parents=[common],
                       help="POD + interpolation + projection from snapshots")
    p.add_argument("--tol-eim-eta", type=float)
    p.add_argument("--tol-eim-tau", type=float)
    p.add_argument("--energy-threshold", type=float)
    p.set_defaults(func=cmd_build_rom)

    p = sub.add_parser("eval-rom", parents=[common],
                       help="single reduced online solve")
    p.add_argument("--mu", help="comma-separated parameter values")
    p.set_defaults(func=cmd_eval_rom)

    p = sub.add_parser("study", parents=[common],
                       help="full error/performance sweep with report")
    p.add_argument("--train-grid", help="per-axis counts, e.g. 4x4")
    p.add_argument("--seed", type=int, help="sample plan seed override")
    p.add_argument("--sweep", help="basis-size grid, e.g. Nu=2..6,Np=1..4")
    p.add_argument("--tol-eim-eta", type=float)
    p.add_argument("--tol-eim-tau", type=float)
    p.add_argument("--energy-threshold", type=float)
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("rom-info", help="print package dimensions and build metadata")
    p.add_argument("path", nargs="?", help="package file (default: "
                                           "<out-dir>/rom_package.stm)")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_rom_info)

    p = sub.add_parser("export-vtk", parents=[common],
                       help="export mesh (and solution, if present) to VTK")
    p.set_defaults(func=cmd_export_vtk)

    p = sub.add_parser("report", help="operate on a study report file")
    p.add_argument("action", help="summarize")
    p.add_argument("path", help="study report JSON file")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    # the library's log lines go to stderr, so stdout keeps the result lines
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    log = logging.getLogger("stmor")
    level = log.level
    log.addHandler(handler)
    log.setLevel(args.log_level.upper())
    try:
        return args.func(args)
    except _ERRORS as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)},
                  sys.stderr)
        sys.stderr.write("\n")
        return 1
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
