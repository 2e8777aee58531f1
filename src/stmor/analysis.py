"""Parameter sampling, error metrics, and the error/performance study.

The offline build runs the training solves and the reduction; the study
runner takes its result to reference solves at random test parameters,
truncated online solves over a basis-size sweep, and a versioned report
with flat CSV tables for external plotting.  Wall times exclude file I/O and include assembly
plus the nonlinear solve on both sides; that convention is written into the
report so the numbers cannot be misread.
"""

from __future__ import annotations

import csv
import hashlib
import json
import platform
import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import scipy

from .constitutive import ParameterBox
from .eim import FieldSampleSet, eim_greedy
from .fom import (FomAssembler, build_dof_map, build_lifting,
                  fom_inner_products, solve_fom)
from .pod import RANK_CUTOFF, assemble_basis, compute_pod
from .rom import project_offline, reconstruct, solve_rom, truncate

REPORT_SCHEMA_VERSION = 1
TIMING_CONVENTION = ("wall time excludes file I/O and includes assembly plus "
                     "the nonlinear solve, for both the full and the reduced model")
RNG_NAME = "pcg64"


class AnalysisError(Exception):
    """Invalid sampling plan, degenerate error metric, or study misuse."""


# ---------------------------------------------------------------------------
# sampling

@dataclass(frozen=True)
class SamplePlan:
    """Training grid counts and the random testing draw for one study."""

    box: ParameterBox
    train_counts: tuple
    n_test: int
    seed: int
    rng: str = RNG_NAME


@dataclass(frozen=True)
class SampleSet:
    training: np.ndarray        # (N_train, k), tensor grid including corners
    testing: np.ndarray         # (N_test, k), uniform in the box


def generate_samples(plan):
    """Deterministic training grid and seeded uniform test samples."""
    box = plan.box
    k = len(box.names)
    counts = tuple(int(c) for c in plan.train_counts)
    if len(counts) != k:
        raise AnalysisError("need one training count per parameter axis "
                            "(%d axes, got %d counts)" % (k, len(counts)))
    if any(c < 2 for c in counts):
        raise AnalysisError("training grid needs at least 2 points per axis")
    axes = [np.linspace(box.lower[j], box.upper[j], counts[j]) for j in range(k)]
    grids = np.meshgrid(*axes, indexing="ij")
    training = np.column_stack([g.ravel() for g in grids])
    if plan.rng != RNG_NAME:
        raise AnalysisError("unknown rng %r; sample sets are pinned to %r for "
                            "portability" % (plan.rng, RNG_NAME))
    gen = np.random.Generator(np.random.PCG64(int(plan.seed)))
    lower = np.asarray(box.lower, dtype=np.float64)
    upper = np.asarray(box.upper, dtype=np.float64)
    testing = lower + (upper - lower) * gen.random((int(plan.n_test), k))
    return SampleSet(training=training, testing=testing)


# ---------------------------------------------------------------------------
# error metrics

def _quad_sq(gram, x):
    return float(x @ (gram @ x))


def _relative_error(ref, approx, gram, what):
    ref = np.asarray(ref, dtype=np.float64).ravel()
    approx = np.asarray(approx, dtype=np.float64).ravel()
    if ref.shape != approx.shape:
        raise AnalysisError("%s fields differ in size: %d vs %d"
                            % (what, ref.size, approx.size))
    denom_sq = _quad_sq(gram, ref)
    # magnitude of the terms that were summed; if the quadratic form cancelled
    # them to roundoff the reference has no usable norm (constant field)
    floor = float(np.abs(ref) @ (abs(gram) @ np.abs(ref)))
    if not denom_sq > 1e-12 * floor:
        raise AnalysisError("%s error denominator vanishes: the reference "
                            "field has zero norm" % what)
    diff = approx - ref
    return float(np.sqrt(max(_quad_sq(gram, diff), 0.0) / denom_sq))


def error_velocity(u_fom, u_rom, K_u):
    """Relative discrete H1-seminorm distance of two full velocity fields.

    Both arguments are flat node-major nodal fields with the Dirichlet data
    included, e.g. from FieldSolution.velocity_field and reconstruct.
    """
    return _relative_error(u_fom, u_rom, K_u, "velocity")


def error_pressure(p_fom, p_rom, M_p):
    """Relative L2 distance of two nodal pressure fields."""
    return _relative_error(p_fom, p_rom, M_p, "pressure")


# degree-2 simplex rules (midedge for triangles, the symmetric 4-point rule
# for tetrahedra); exact whenever the integrand is elementwise quadratic
_TET_A = 0.5854101966249685
_TET_B = 0.1381966011250105
_QUAD_DEG2 = {
    2: (np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]),
        np.full(3, 1.0 / 3.0)),
    3: (np.array([[_TET_A, _TET_B, _TET_B, _TET_B],
                  [_TET_B, _TET_A, _TET_B, _TET_B],
                  [_TET_B, _TET_B, _TET_A, _TET_B],
                  [_TET_B, _TET_B, _TET_B, _TET_A]]),
        np.full(4, 0.25)),
}


def h1_seminorm_error(mesh, u_full, grad_exact):
    """Spatial H1-seminorm of (u_h - u) over the whole space-time cylinder.

    grad_exact(x, t) returns the exact spatial gradients du_i/dx_j with
    shape (n, d, d).  The P1 gradient is elementwise constant, so the
    degree-2 rule integrates the mismatch exactly for quadratic solutions.
    """
    D, d = mesh.dimension, mesh.d
    if D not in _QUAD_DEG2:
        raise AnalysisError("no quadrature rule for dimension %d" % D)
    measures, grads = mesh.all_element_geometry()
    conn = mesh.elements
    u = np.asarray(u_full, dtype=np.float64).reshape(mesh.n_nodes, d)
    gu = np.einsum("mik,mij->mkj", u[conn], grads[:, :, :d])
    bary, weights = _QUAD_DEG2[D]
    x = mesh.nodes[conn]
    total = 0.0
    for q in range(weights.size):
        pts = np.einsum("i,mij->mj", bary[q], x)
        ge = np.asarray(grad_exact(pts[:, :d], pts[:, d]), dtype=np.float64)
        diff = gu - ge
        total += weights[q] * float(measures @ (diff * diff).sum(axis=(1, 2)))
    return float(np.sqrt(total))


def solution_digest(solution):
    """Content hash of one solve, for cache-correctness checks."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(solution.v).tobytes())
    h.update(np.ascontiguousarray(solution.p).tobytes())
    h.update(np.ascontiguousarray(np.asarray(solution.mu, dtype=np.float64)).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# offline pipeline

def offline_build(mesh, problem, train_mus=None, *, solutions=None,
                  tol_eim_eta=1e-12, tol_eim_tau=1e-12, energy_threshold=1.0,
                  rank_cutoff=None, q_max=None, picard_tol=1e-8, picard_max=50):
    """Training solves, POD, EIM, and Galerkin projection in one sweep.

    Either train_mus (parameters to solve for) or solutions (already solved
    training snapshots carrying their mu) must be given.  A training solve
    that fails to converge aborts the build: a basis built from an untrusted
    snapshot would poison everything downstream.

    Returns a namespace holding every intermediate: mesh, problem, dof_map,
    assembler, grams, train_mus, solutions, u_fulls, basis, eims, pkg, and
    stage timings.
    """
    asm = FomAssembler(mesh)
    dof_map = build_dof_map(mesh, problem.dirichlet)
    grams = fom_inner_products(mesh, asm)
    timings = {}

    t0 = time.perf_counter()
    if solutions is not None:
        sols = list(solutions)
        mus = [np.asarray(s.mu, dtype=np.float64) for s in sols]
        for s in sols:
            if not s.converged:
                raise AnalysisError("training snapshot at mu=%s is flagged as "
                                    "not converged" % (np.asarray(s.mu),))
    else:
        if train_mus is None:
            raise AnalysisError("offline_build needs train_mus or solutions")
        mus = [None if m is None else np.asarray(m, dtype=np.float64)
               for m in train_mus]
        sols = []
        for mu in mus:
            sol = solve_fom(mesh, problem, mu=mu, picard_tol=picard_tol,
                            picard_max=picard_max, assembler=asm,
                            dof_map=dof_map, strict=False)
            if not sol.converged:
                raise AnalysisError("training solve at mu=%s did not converge "
                                    "within %d iterations" % (mu, picard_max))
            sols.append(sol)
    timings["training_s"] = time.perf_counter() - t0

    u_fulls, materials = [], []
    for sol, mu in zip(sols, mus):
        params, amps = problem.effective(mu)
        lifts_mu = build_lifting(mesh, problem.dirichlet, amps)
        u_fulls.append(sol.velocity_field(dof_map, lifts_mu))
        materials.append(params)

    t0 = time.perf_counter()
    V = np.stack([dof_map.expand(s.v).ravel() for s in sols])
    P = np.stack([s.p for s in sols])
    cutoff = RANK_CUTOFF if rank_cutoff is None else float(rank_cutoff)
    modes_v, spec_v = compute_pod(V, gram=grams["K_u"],
                                  energy_threshold=energy_threshold,
                                  rank_cutoff=cutoff)
    modes_p, spec_p = compute_pod(P, gram=grams["M_p"],
                                  energy_threshold=energy_threshold,
                                  rank_cutoff=cutoff)
    liftings = build_lifting(mesh, problem.dirichlet, problem.amplitudes)
    basis = assemble_basis(modes_v, modes_p, liftings, gram_v=grams["K_u"],
                           spectrum_v=spec_v, spectrum_p=spec_p,
                           mesh_hash=mesh.content_hash(), case_id=problem.name)
    timings["pod_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    q_cap = len(sols) if q_max is None else int(q_max)
    _, etas, taus = zip(*(asm.element_fields(u, params)
                          for u, params in zip(u_fulls, materials)))
    eims = {}
    for tag, cols, tol in (("eta", etas, tol_eim_eta), ("tau", taus, tol_eim_tau)):
        approx = eim_greedy(FieldSampleSet(tag, np.column_stack(cols)),
                            tol=tol, q_max=q_cap)
        approx.mesh_hash = mesh.content_hash()
        eims[tag] = approx
    timings["eim_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    pkg = project_offline(mesh, problem, basis, eims["eta"], eims["tau"],
                          dof_map=dof_map, assembler=asm)
    timings["projection_s"] = time.perf_counter() - t0

    return SimpleNamespace(mesh=mesh, problem=problem, dof_map=dof_map,
                           assembler=asm, grams=grams, train_mus=mus,
                           solutions=sols, u_fulls=u_fulls, basis=basis,
                           eims=eims, pkg=pkg, timings=timings)


# ---------------------------------------------------------------------------
# study runner

def sweep_pairs(sweep, pkg):
    """Cartesian (n_u, n_p) cells of a sweep table, checked against the basis."""
    if sweep is None:
        return [(pkg.n_u, pkg.n_p)]
    n_us = sorted({int(n) for n in sweep["n_u"]})
    n_ps = sorted({int(n) for n in sweep["n_p"]})
    for n in n_us:
        if not pkg.n_lifts <= n <= pkg.n_u:
            raise AnalysisError("sweep n_u=%d outside [%d, %d]"
                                % (n, pkg.n_lifts, pkg.n_u))
    for n in n_ps:
        if not 1 <= n <= pkg.n_p:
            raise AnalysisError("sweep n_p=%d outside [1, %d]" % (n, pkg.n_p))
    return [(nu, np_) for nu in n_us for np_ in n_ps]


def evaluate_tests(pipeline, test_mus, pairs, *, picard_tol=1e-8,
                   picard_max=50):
    """Reference FOM once per test sample, then every truncated online solve.

    The FOM reference is solved exactly once per sample and kept in memory;
    error denominators are computed once from it.  Non-converged solves are
    recorded with their flag and leave the error cells empty, they are never
    dropped from the raw records.
    """
    mesh, problem = pipeline.mesh, pipeline.problem
    grams, dof_map = pipeline.grams, pipeline.dof_map
    K_u, M_p = grams["K_u"], grams["M_p"]
    records = []
    for mu in test_mus:
        mu = np.asarray(mu, dtype=np.float64)
        t0 = time.perf_counter()
        sol = solve_fom(mesh, problem, mu=mu, picard_tol=picard_tol,
                        picard_max=picard_max, assembler=pipeline.assembler,
                        dof_map=dof_map, strict=False)
        fom_time = time.perf_counter() - t0
        _, amps = problem.effective(mu)
        lifts_mu = build_lifting(mesh, problem.dirichlet, amps)
        u_ref = sol.velocity_field(dof_map, lifts_mu).ravel()
        record = {"mu": [float(v) for v in mu], "fom_time_s": fom_time,
                  "fom_iterations": len(sol.iterations),
                  "fom_converged": bool(sol.converged), "results": []}
        for n_u, n_p in pairs:
            trunc = truncate(pipeline.pkg, n_u, n_p)
            t0 = time.perf_counter()
            red = solve_rom(trunc, mu=mu, picard_tol=picard_tol,
                            picard_max=picard_max, strict=False)
            rom_time = time.perf_counter() - t0
            eps_u = eps_p = None
            if sol.converged:
                u_rom, p_rom = reconstruct(trunc, red)
                eps_u = error_velocity(u_ref, u_rom, K_u)
                eps_p = error_pressure(sol.p, p_rom, M_p)
            record["results"].append({
                "n_u": n_u, "n_p": n_p, "eps_u": eps_u, "eps_p": eps_p,
                "rom_time_s": rom_time, "rom_iterations": len(red.iterations),
                "rom_converged": bool(red.converged)})
        records.append(record)
    return records


def _aggregate_cells(tests, pairs):
    cells = []
    for n_u, n_p in pairs:
        rows = [(t, r) for t in tests for r in t["results"]
                if r["n_u"] == n_u and r["n_p"] == n_p]
        ok = [(t, r) for t, r in rows
              if t["fom_converged"] and r["rom_converged"] and r["eps_u"] is not None]
        cell = {"n_u": n_u, "n_p": n_p, "n_samples": len(rows),
                "n_flagged": len(rows) - len(ok)}
        if ok:
            eu = [r["eps_u"] for _, r in ok]
            ep = [r["eps_p"] for _, r in ok]
            sp = [t["fom_time_s"] / r["rom_time_s"] for t, r in ok]
            cell.update(max_eps_u=max(eu), mean_eps_u=float(np.mean(eu)),
                        max_eps_p=max(ep), mean_eps_p=float(np.mean(ep)),
                        mean_speedup=float(np.mean(sp)), max_speedup=max(sp))
        else:
            cell.update(max_eps_u=None, mean_eps_u=None, max_eps_p=None,
                        mean_eps_p=None, mean_speedup=None, max_speedup=None)
        cells.append(cell)
    return cells


def make_report(config, pipeline, plan, samples, tests, pairs, fom_workers=1):
    """Versioned study report; every cell is backed by the raw records."""
    pkg = pipeline.pkg
    box = plan.box
    cells = _aggregate_cells(tests, pairs)
    speedups = [t["fom_time_s"] / r["rom_time_s"] for t in tests
                for r in t["results"]
                if t["fom_converged"] and r["rom_converged"]]
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "kind": "study_report",
        "case_id": config.case_id,
        "mesh_hash": pipeline.mesh.content_hash(),
        "environment": {"python": platform.python_version(),
                        "numpy": np.__version__, "scipy": scipy.__version__,
                        "platform": platform.platform(),
                        "fom_workers": int(fom_workers), "rom_workers": 1},
        "timing_convention": TIMING_CONVENTION,
        "rng": {"name": plan.rng, "seed": int(plan.seed)},
        "parameters": {"names": list(box.names),
                       "lower": [float(v) for v in box.lower],
                       "upper": [float(v) for v in box.upper]},
        "basis": {"n_u": pkg.n_u, "n_p": pkg.n_p, "n_lifts": pkg.n_lifts,
                  "q_eta": pkg.eim_eta.n_terms, "q_tau": pkg.eim_tau.n_terms},
        "training": {"count": int(samples.training.shape[0]),
                     "counts_per_axis": [int(c) for c in plan.train_counts],
                     "mus": samples.training.tolist()},
        "sweep": [[n_u, n_p] for n_u, n_p in pairs],
        "tests": tests,
        "cells": cells,
        "speedup": {"mean": float(np.mean(speedups)) if speedups else None,
                    "max": float(max(speedups)) if speedups else None},
        "offline_timings": {k: float(v) for k, v in pipeline.timings.items()},
    }


def run_study(config, *, pipeline, plan, sweep=None, fom_workers=1):
    """Error/performance sweep of one case over a built reduction pipeline.

    Draws the samples of plan, solves the full and reduced models at its
    test points over the basis-size sweep, and returns the report dict.
    """
    if config.space is None:
        raise AnalysisError("case %r has no parameter space; a study needs "
                            "one" % config.case_id)
    samples = generate_samples(plan)
    pairs = sweep_pairs(sweep, pipeline.pkg)
    tests = evaluate_tests(pipeline, samples.testing, pairs,
                           **config.picard_options())
    return make_report(config, pipeline, plan, samples, tests, pairs,
                       fom_workers=fom_workers)


# ---------------------------------------------------------------------------
# report output

def write_study_report(report, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_study_report(path):
    with open(path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    if report.get("schema_version") != REPORT_SCHEMA_VERSION:
        raise AnalysisError("unsupported report schema_version %r"
                            % report.get("schema_version"))
    return report


def write_study_csv(report, path):
    """Flat table, one row per (test sample, n_u, n_p)."""
    names = report["parameters"]["names"]
    header = (["case_id"] + ["mu_%s" % n for n in names]
              + ["n_u", "n_p", "eps_u", "eps_p", "fom_time_s", "rom_time_s",
                 "speedup", "fom_converged", "rom_converged",
                 "fom_iterations", "rom_iterations"])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t in report["tests"]:
            for r in t["results"]:
                speedup = (t["fom_time_s"] / r["rom_time_s"]
                           if r["rom_time_s"] > 0 else "")
                writer.writerow(
                    [report["case_id"]] + list(t["mu"])
                    + [r["n_u"], r["n_p"],
                       "" if r["eps_u"] is None else "%.16e" % r["eps_u"],
                       "" if r["eps_p"] is None else "%.16e" % r["eps_p"],
                       "%.6e" % t["fom_time_s"], "%.6e" % r["rom_time_s"],
                       "" if speedup == "" else "%.3f" % speedup,
                       t["fom_converged"], r["rom_converged"],
                       t["fom_iterations"], r["rom_iterations"]])


def summarize_report(report):
    """Plain-text max-error and speedup tables of one report."""
    lines = ["case %s  (basis n_u=%d, n_p=%d; %d test samples)"
             % (report["case_id"], report["basis"]["n_u"],
                report["basis"]["n_p"], len(report["tests"])),
             "%6s %6s %12s %12s %10s %9s" % ("n_u", "n_p", "max_eps_u",
                                             "max_eps_p", "speedup", "flagged")]
    for cell in report["cells"]:
        eu = "-" if cell["max_eps_u"] is None else "%.3e" % cell["max_eps_u"]
        ep = "-" if cell["max_eps_p"] is None else "%.3e" % cell["max_eps_p"]
        sp = "-" if cell["mean_speedup"] is None else "%.1f" % cell["mean_speedup"]
        lines.append("%6d %6d %12s %12s %10s %9d"
                     % (cell["n_u"], cell["n_p"], eu, ep, sp, cell["n_flagged"]))
    sp = report["speedup"]
    if sp["mean"] is not None:
        lines.append("speedup mean %.1f  max %.1f" % (sp["mean"], sp["max"]))
    return "\n".join(lines)
