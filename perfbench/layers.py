"""Per-layer spans and counters for the traced run.

Every wrap sits at the attribute the caller resolves at call time: the
benchmark calls ``stmor.fom.solve_fom`` while ``offline_build`` calls
``stmor.analysis.solve_fom``, ``solve_fom`` calls the ``assemble_fom``,
``direct_solve`` and ``splu`` globals of ``stmor.fom``, and so on.  Per-layer
values are totals over the whole traced run; each comment names the
end-to-end metric the layer should move.
"""

import os

from stmor import analysis, cases, fom, rom


def _count_fom(tracer, args, kwargs, sol):
    tracer.add("fom.picard_its", len(sol.iterations))


def _count_lu(tracer, args, kwargs, lu):
    # exporting L and U copies the factors, which is why it is traced only
    K = args[0]
    L, U = lu.L, lu.U
    nbytes = sum(a.nbytes for m in (L, U) for a in (m.data, m.indices, m.indptr))
    nbytes += lu.perm_r.nbytes + lu.perm_c.nbytes
    tracer.peak("fom.lu_nnz", L.nnz + U.nnz)
    tracer.peak("fom.lu_bytes_computed", nbytes)
    tracer.peak("fom.n_unknowns", K.shape[0])
    tracer.peak("fom.matrix_nnz", K.nnz)


def _count_offline(tracer, args, kwargs, pipe):
    for key, value in pipe.timings.items():
        tracer.add("analysis.offline_build." + key, value)
    pkg = pipe.pkg
    tracer.peak("pod.n_modes_u", pipe.basis.n_velocity_modes)
    tracer.peak("pod.n_modes_p", pipe.basis.n_p)
    tracer.peak("eim.q_eta", pkg.q_eta)
    tracer.peak("eim.q_tau", pkg.q_tau)
    tracer.peak("rom.online_flops_computed", online_flops(pkg))


def _count_rom(tracer, args, kwargs, red):
    tracer.add("rom.picard_its", len(red.iterations))


def _count_read(tracer, args, kwargs, out):
    tracer.add("io.read_artifact.bytes", os.path.getsize(args[0]))


def online_flops(pkg):
    """Floating-point operations of one ``assemble_rom`` call, from its shapes.

    Counts the magic-element velocity reconstruction, the two triangular
    interpolation solves and the affine sums over the Q_eta + Q_tau terms.
    """
    n_u, n_p, nl = pkg.n_u, pkg.n_p, pkg.n_lifts
    qe, qt = pkg.q_eta, pkg.q_tau
    _, corners, d, _ = pkg.data_eta.Z_rows.shape
    recon = 2 * (qe + qt) * corners * d * n_u
    interp = qe * qe + qt * qt
    affine = 2 * (qe * (n_u * n_u + nl * n_u)
                  + qt * (n_p * n_u + n_p * n_p + nl * n_p))
    return recon + interp + affine


def install(tracer):
    """Wrap every traced call site of the library."""
    w = tracer.wrap
    # -> setup_s
    w(cases, "build_mesh", "cases.build_mesh")
    w(cases, "build_problem", "cases.build_problem")
    w(fom.FomAssembler, "__init__", "fom.FomAssembler.init")
    # -> fom_solve_s (both workloads) and offline_s (artery-rom)
    w(fom, "solve_fom", "fom.solve_fom", _count_fom)
    w(analysis, "solve_fom", "fom.solve_fom", _count_fom)
    w(fom, "assemble_fom", "fom.assemble_fom")
    w(fom.FomAssembler, "element_fields", "fom.element_fields")
    w(fom.FomAssembler, "viscous", "fom.viscous")
    w(fom.FomAssembler, "stab_pv", "fom.stab_pv")
    w(fom.FomAssembler, "stab_pp", "fom.stab_pp")
    w(fom.FomSystem, "matrix", "fom.system_matrix")
    w(fom, "direct_solve", "fom.direct_solve")
    w(fom, "splu", "fom.splu", _count_lu)
    # -> offline_s
    w(analysis, "offline_build", "analysis.offline_build", _count_offline)
    w(analysis, "compute_pod", "pod.compute_pod")
    w(analysis, "eim_greedy", "eim.eim_greedy")
    w(analysis, "project_offline", "rom.project_offline")
    # -> rom_query_ms_p50, rom_queries_per_s
    w(rom, "solve_rom", "rom.solve_rom", _count_rom)
    w(rom, "assemble_rom", "rom.assemble_rom")
    w(rom, "field_values", "rom.field_values")
    # -> sweep_cell_ms_p50
    w(rom, "truncate", "rom.truncate")
    # -> cold_query_ms_p50
    w(rom, "read_artifact", "io.read_artifact", _count_read)
    w(rom, "write_artifact", "io.write_artifact")


# (metric, span name, field of Tracer.layer_times)
_SPAN_METRICS = (
    ("cases.build_mesh.s", "cases.build_mesh", "s"),
    ("cases.build_problem.s", "cases.build_problem", "s"),
    ("fom.FomAssembler.init_s", "fom.FomAssembler.init", "s"),
    ("fom.solve_fom.calls", "fom.solve_fom", "calls"),
    ("fom.solve_fom.s", "fom.solve_fom", "s"),
    ("fom.solve_fom.self_s", "fom.solve_fom", "self_s"),
    ("fom.splu.calls", "fom.splu", "calls"),
    ("fom.splu.s", "fom.splu", "s"),
    ("fom.direct_solve.self_s", "fom.direct_solve", "self_s"),
    ("fom.assemble_fom.self_s", "fom.assemble_fom", "self_s"),
    ("fom.element_fields.s", "fom.element_fields", "s"),
    ("fom.viscous.s", "fom.viscous", "s"),
    ("fom.stab_pv.s", "fom.stab_pv", "s"),
    ("fom.stab_pp.s", "fom.stab_pp", "s"),
    ("fom.system_matrix.s", "fom.system_matrix", "s"),
    ("analysis.offline_build.s", "analysis.offline_build", "s"),
    ("analysis.offline_build.self_s", "analysis.offline_build", "self_s"),
    ("pod.compute_pod.s", "pod.compute_pod", "s"),
    ("eim.eim_greedy.s", "eim.eim_greedy", "s"),
    ("rom.project_offline.self_s", "rom.project_offline", "self_s"),
    ("rom.solve_rom.calls", "rom.solve_rom", "calls"),
    ("rom.solve_rom.self_s", "rom.solve_rom", "self_s"),
    ("rom.assemble_rom.calls", "rom.assemble_rom", "calls"),
    ("rom.assemble_rom.self_s", "rom.assemble_rom", "self_s"),
    ("rom.field_values.s", "rom.field_values", "s"),
    ("rom.truncate.s", "rom.truncate", "s"),
    ("io.read_artifact.s", "io.read_artifact", "s"),
    ("io.write_artifact.s", "io.write_artifact", "s"),
    ("trace.hook.s", "trace.hook", "s"),
)

_COUNTERS = (
    ("fom.picard_its", "count"),
    ("fom.lu_nnz", "count"),
    ("fom.lu_bytes_computed", "B"),
    ("fom.n_unknowns", "count"),
    ("fom.matrix_nnz", "count"),
    ("analysis.offline_build.training_s", "s"),
    ("analysis.offline_build.pod_s", "s"),
    ("analysis.offline_build.eim_s", "s"),
    ("analysis.offline_build.projection_s", "s"),
    ("pod.n_modes_u", "count"),
    ("pod.n_modes_p", "count"),
    ("eim.q_eta", "count"),
    ("eim.q_tau", "count"),
    ("rom.picard_its", "count"),
    ("rom.online_flops_computed", "flop"),
    ("io.read_artifact.bytes", "B"),
)


def metrics(tracer):
    """Per-layer metrics of a finished traced run, {name: (value, unit)}."""
    times = tracer.layer_times()
    out = {}
    for name, span, field in _SPAN_METRICS:
        value = times.get(span, {}).get(field, 0)
        out[name] = (value, "count" if field == "calls" else "s")
    for name, unit in _COUNTERS:
        value = tracer.maxima[name] if name in tracer.maxima else tracer.counts[name]
        out[name] = (value, unit)
    out["trace.spans"] = (len(tracer.spans), "count")
    return out
