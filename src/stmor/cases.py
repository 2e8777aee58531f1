"""Bundled flow cases: geometry builders, named boundary profiles, and the
JSON case-configuration format.

A case configuration ties together a geometry recipe, a shear-thinning
material, boundary conditions drawn from a small library of named analytic
profiles, and the solver/sampling/reduction settings used by the command
line driver.  Every numeric field of the on-disk format carries its unit in
the key name (``eta0_pa_s``, ``dt_s``), so a config with silently wrong
units cannot round-trip.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import mesh as msh
from .constitutive import (SEMANTICS_BC_SCALE, SEMANTICS_MATERIAL, SPACE_KEYS, BodyForce,
                           CarreauYasudaParams, ParameterError, ParameterSpace,
                           relative_box, space_from_dict, space_to_dict)
from .fom import DirichletSpec, FomProblem
from .io import (REQUIRED, count, finite, json_object, list_of, map_of, number, optional,
                 read_section, section, text)

SCHEMA_VERSION = 1
MAX_NODES = 10 ** 7         # mesh nodes a geometry may ask for, counted before building


class CaseError(Exception):
    """Invalid case configuration or geometry request."""


# ---------------------------------------------------------------------------
# named boundary-profile library
#
# Every profile is a key table and f(p, x, t) -> (n, k) of the read table p,
# the reference coordinates x of the boundary nodes and their times t; p["motion"]
# is the domain's deformation map.  Profiles are unit-amplitude shapes; parameter-
# dependent scaling happens through the lifting amplitude of their group.

def _in_component(x, k, values):
    """(n, 2) velocities at the n points x: values in component k, 0 in the other."""
    out = np.zeros((x.shape[0], 2))
    out[:, k] = values
    return out


def _noslip(p, x, t):
    return np.zeros((np.asarray(x).shape[0], p["n_components"]))


def _parallel_outflow(p, x, t):
    return np.zeros((np.asarray(x).shape[0], 1))


def _constant(p, x, t):
    return np.tile(p["value_m_s"], (np.asarray(x).shape[0], 1))


def _linear_shear(p, x, t):
    return _in_component(x, 0, p["rate_1_s"] * x[:, 1])


def _channel_parabola(p, x, t):
    umax, y0, y1 = p["u_max_m_s"], p["y0_m"], p["y1_m"]
    y = x[:, 1]
    return _in_component(x, 0, umax * 4.0 * (y - y0) * (y1 - y) / (y1 - y0) ** 2)


def _valve_inlet(p, x, t):
    """Downward parabolic inflow ramped like sqrt(t / t_end).

    The shape is coeff * xi (xi - width) with xi the offset from the left
    edge of the inlet, negative on (0, width), so the jet points in -y.
    """
    xi = x[:, 0] - p["x0_m"]
    ramp = np.sqrt(np.maximum(np.asarray(t, dtype=np.float64), 0.0) / p["t_end_s"])
    return _in_component(x, 1, p["coeff_1_m_s"] * xi * (xi - p["width_m"]) * ramp)


def _artery_inlet(p, x, t):
    """Unit-amplitude parabola 1 - (y/r0)^2 with a sqrt(t / t_ramp) ramp."""
    t_ramp = p["t_ramp_s"]
    ramp = np.sqrt(np.clip(np.asarray(t, dtype=np.float64), 0.0, t_ramp) / t_ramp)
    return _in_component(x, 0, (1.0 - (x[:, 1] / p["r0_m"]) ** 2) * ramp)


def _wall_motion(p, x, t):
    """Velocity of the domain's deformation map at the reference points x, so
    a no-slip wall moves with the mesh; zero on a fixed domain."""
    motion = p["motion"]
    return np.zeros_like(x) if motion is None else motion.velocity(x, t)


def _finite_keys(*keys):
    return {key: (finite, REQUIRED) for key in keys}


PROFILES = {
    "noslip": ({"n_components": (count, 2)}, _noslip),
    "parallel_outflow": ({}, _parallel_outflow),
    "constant": ({"value_m_s": (list_of(finite), REQUIRED)}, _constant),
    "linear_shear": ({"rate_1_s": (finite, 1.0)}, _linear_shear),
    "channel_parabola": (_finite_keys("u_max_m_s", "y0_m", "y1_m"), _channel_parabola),
    "valve_inlet": (_finite_keys("x0_m", "width_m", "coeff_1_m_s", "t_end_s"), _valve_inlet),
    "artery_inlet": (_finite_keys("r0_m", "t_ramp_s"), _artery_inlet),
    "wall_motion": ({}, _wall_motion),
}


def make_profile(name, params, motion=None):
    """Resolve a named profile to a callable profile(x, t); unknown names and
    parameters are errors.  motion is the domain's deformation map."""
    if name not in PROFILES:
        raise CaseError("unknown boundary profile %r (available: %s)"
                        % (name, ", ".join(sorted(PROFILES))))
    table, f = PROFILES[name]
    p = dict(read_section(params or {}, table, "profile parameter", CaseError), motion=motion)
    if name == "channel_parabola" and p["y1_m"] <= p["y0_m"]:
        raise CaseError("channel_parabola needs y1_m > y0_m")
    return lambda x, t: f(p, x, t)


# ---------------------------------------------------------------------------
# geometry builders

# gate-valve planform, all lengths in metres: a square casing with a solid
# band across the middle made of a sliding gate and a fixed block, leaving a
# narrow slot between them and an open passage at the right end
_VALVE = dict(size=0.1, band_lo=0.0375, band_hi=0.0625, gate_tip=0.0495,
              block_lo=0.05, block_hi=0.075, inlet_lo=0.0375, inlet_hi=0.0625,
              blend_len=0.03, speed=0.0625, schedule=(0.3, 0.7, 1.1, 1.5))

# break anchors land on every solid corner and inlet edge; the per-segment
# cell counts keep neighbouring zones comparable when scaled by refine
_VALVE_X_ANCHORS = (0.0, 0.0375, 0.0495, 0.05, 0.0625, 0.075, 0.1)
_VALVE_X_COUNTS = (3, 2, 1, 2, 1, 2)
_VALVE_Y_ANCHORS = (0.0, 0.0375, 0.05, 0.0625, 0.1)
_VALVE_Y_COUNTS = (3, 2, 2, 3)


def _graded_breaks(anchors, counts, refine):
    out = [anchors[0]]
    for a, b, c in zip(anchors[:-1], anchors[1:], counts):
        n = max(1, int(round(c * refine)))
        out.extend(np.linspace(a, b, n + 1)[1:].tolist())
    return np.asarray(out)


def _valve_keep(xc, yc):
    v = _VALVE
    in_band = v["band_lo"] < yc < v["band_hi"]
    in_solid = xc < v["gate_tip"] or v["block_lo"] < xc < v["block_hi"]
    return not (in_band and in_solid)


def _valve_classify(x, y):
    v = _VALVE
    tol = 1e-9
    if y < tol:
        return "outlet"
    if y > v["size"] - tol:
        if v["inlet_lo"] - tol <= x <= v["inlet_hi"] + tol:
            return "inlet"
        return "wall"
    if x < tol or x > v["size"] - tol:
        return "wall"
    # interior hole boundaries: gate surfaces left of the slot, block right
    return "gate" if x < 0.5 * (v["gate_tip"] + v["block_lo"]) else "wall"


def valve_spatial_mesh(refine=1.0):
    """Planform of the gate-valve casing with the solid cells removed."""
    xb = _graded_breaks(_VALVE_X_ANCHORS, _VALVE_X_COUNTS, refine)
    yb = _graded_breaks(_VALVE_Y_ANCHORS, _VALVE_Y_COUNTS, refine)
    nodes, tris = msh.triangulate_tensor_grid(xb, yb, keep=_valve_keep)
    facets = msh._boundary_facet_rows(tris, 2)
    tags = msh.tag_boundary_by_midpoint(nodes, facets, _valve_classify)
    return msh.SpatialMesh(dimension=2, nodes=nodes, elements=tris, facets=facets,
                           facet_tags=tags)


def channel_spatial_mesh(length, halfwidth, n_x, n_y):
    """Straight channel with wall-clustered (cosine) transverse spacing.

    The nonuniform spacing is deliberate: on a uniform grid the outlet
    coupling rows of the pressure block become mutually proportional, and
    a pressure mode that mixes the time levels is fixed only by the pin
    fom.pressure_pins gives it.
    """
    xb = np.linspace(0.0, length, int(n_x) + 1)
    yb = -halfwidth * np.cos(np.linspace(0.0, np.pi, int(n_y) + 1))
    yb[0], yb[-1] = -halfwidth, halfwidth
    return msh.rectangle_mesh(xb, yb, left="inlet", right="outlet",
                              bottom="wall", top="wall")


_GEOMETRY = {
    "valve": dict(refine=(finite, 1.0), **_finite_keys("dt_s", "t_end_s")),
    "channel": dict(_finite_keys("length_m", "halfwidth_m", "t_end_s"),
                    narrow_center_m=(optional(finite), None),
                    narrow_halfwidth_m=(optional(finite), None),
                    **{key: (count, REQUIRED) for key in ("n_x", "n_y", "n_levels")}),
    "rectangle": {key: (list_of(finite), REQUIRED)
                  for key in ("x_breaks_m", "y_breaks_m", "time_levels_s")},
}


def _read_geometry(geometry):
    kind = geometry.get("kind") if isinstance(geometry, dict) else None
    if not isinstance(kind, str) or kind not in _GEOMETRY:
        raise CaseError("unknown geometry kind %r" % (kind,))
    return read_section(geometry, dict(_GEOMETRY[kind], kind=(text, REQUIRED)), "geometry",
                        CaseError)


def _motion(g):
    """The deformation map of a read geometry section; None for a fixed domain."""
    if g["kind"] == "valve":
        v = _VALVE
        return msh.valve_plug_map(v["gate_tip"], v["block_lo"], v["speed"], v["schedule"],
                                  v["band_lo"], v["band_hi"], v["blend_len"])
    if g.get("narrow_center_m") is None:
        return None
    if g["narrow_halfwidth_m"] is None:
        raise CaseError("channel geometry with narrow_center_m needs narrow_halfwidth_m")
    return msh.channel_narrowing_map(g["narrow_center_m"], g["narrow_halfwidth_m"])


def _check_size(n_nodes, keys):
    if not n_nodes <= MAX_NODES:
        raise CaseError("geometry keys %s ask for more than MAX_NODES = %d mesh nodes"
                        % (keys, MAX_NODES))


def build_mesh(config):
    """Deformed space-time mesh of the configured geometry.

    A geometry asking for more than MAX_NODES nodes is refused before any
    array is built.
    """
    g = _read_geometry(config.geometry)
    if g["kind"] == "valve":
        dt, t_end = g["dt_s"], g["t_end_s"]
        steps = t_end / dt if dt > 0 else 0.0
        # an upper bound: the tensor grid of the breaks, before solid cells go
        breaks = [1.0 + sum(max(1.0, float(np.round(c * g["refine"]))) for c in counts)
                  for counts in (_VALVE_X_COUNTS, _VALVE_Y_COUNTS)]
        _check_size(breaks[0] * breaks[1] * (steps + 1.0), "refine, dt_s and t_end_s")
        n = round(steps)
        if n < 1 or abs(n * dt - t_end) > 1e-9 * t_end:
            raise CaseError("dt_s must divide t_end_s evenly")
        return msh.extrude(valve_spatial_mesh(g["refine"]), np.linspace(0.0, t_end, n + 1),
                           _motion(g))
    if g["kind"] == "channel":
        _check_size((g["n_x"] + 1) * (g["n_y"] + 1) * g["n_levels"], "n_x, n_y and n_levels")
        if g["n_levels"] < 2:
            raise CaseError("channel geometry needs n_levels >= 2")
        return msh.extrude(channel_spatial_mesh(g["length_m"], g["halfwidth_m"],
                                                g["n_x"], g["n_y"]),
                           np.linspace(0.0, g["t_end_s"], g["n_levels"]), _motion(g))
    _check_size(len(g["x_breaks_m"]) * len(g["y_breaks_m"]) * len(g["time_levels_s"]),
                "x_breaks_m, y_breaks_m and time_levels_s")
    sp = msh.rectangle_mesh(np.asarray(g["x_breaks_m"]), np.asarray(g["y_breaks_m"]),
                            left="left", right="right", bottom="bottom", top="top")
    return msh.extrude(sp, np.asarray(g["time_levels_s"]))


def _read_boundary(given, motion=None):
    """One boundary entry's checked values and its DirichletSpec under motion."""
    e = read_section(given, _BOUNDARY, "boundary", CaseError)
    return e, DirichletSpec(tag=e["tag"], components=tuple(e["components"]),
                            profile=make_profile(e["profile"], e["params"], motion),
                            group=e["group"])


def build_problem(config, mesh=None):
    """Resolve the configured boundary conditions into a FomProblem.

    With a mesh given, every referenced tag must exist on it.
    """
    motion = _motion(_read_geometry(config.geometry))
    specs = tuple(_read_boundary(entry, motion)[1] for entry in config.boundary)
    known = {spec.tag for spec in specs} if mesh is None else set(mesh.tags())
    for spec in specs:
        if spec.tag not in known:
            raise CaseError("boundary tag %r does not exist in the mesh "
                            "(tags: %s)" % (spec.tag, ", ".join(sorted(known))))
    body = BodyForce(tuple(config.body_force)) if config.body_force else None
    return FomProblem(name=config.case_id, material=config.material,
                      dirichlet=specs, amplitudes=dict(config.amplitudes),
                      space=config.space, body_force=body)


# ---------------------------------------------------------------------------
# configuration format

def _schema_version(value):
    if isinstance(value, bool) or value != SCHEMA_VERSION:
        raise CaseError("unsupported schema_version %r (this build reads %d)"
                        % (value, SCHEMA_VERSION))
    return value


_MATERIAL_KEYS = (("rho_kg_m3", "rho"), ("eta0_pa_s", "eta_0"),
                  ("etainf_pa_s", "eta_inf"), ("lambda_s", "lam"),
                  ("a", "a"), ("n", "n"))
_MATERIAL = {key: (number, REQUIRED) for key, _ in _MATERIAL_KEYS}
_BOUNDARY = {"tag": (text, REQUIRED), "profile": (text, REQUIRED),
             "components": (list_of(count), REQUIRED),
             "group": (text, "fixed"), "params": (json_object, {})}
_SOLVER = {"picard_tol": (number, 1e-8), "picard_max": (count, 50)}
_PLAN = {"train_counts": (list_of(count), (4, 4)), "n_test": (count, 10),
         "seed": (count, 1234)}
_ROM = {"tol_eim_eta": (number, 1e-12), "tol_eim_tau": (number, 1e-12),
        "energy_threshold": (number, 1.0), "rank_cutoff": (optional(number), None)}
_TOP = {
    "schema_version": (_schema_version, None),
    "case_id": (text, REQUIRED),
    "geometry": (_read_geometry, REQUIRED),
    "material": (section(_MATERIAL), REQUIRED),
    "boundary": (list_of(lambda e: _read_boundary(e)[0]), REQUIRED),
    "amplitudes": (map_of(finite), {}),
    "parameters": (optional(section(SPACE_KEYS)), None),
    "body_force_m_s2": (optional(list_of(number)), None),
    "solver": (section(_SOLVER), {}),
    "plan": (section(_PLAN), {}),
    "rom": (section(_ROM), {}),
}


def _given(overrides):
    return {key: value for key, value in overrides.items() if value is not None}


@dataclass(frozen=True)
class CaseConfig:
    """One fully specified reduction case."""

    case_id: str
    geometry: dict
    material: CarreauYasudaParams
    boundary: tuple
    amplitudes: dict = field(default_factory=dict)
    space: ParameterSpace = None
    body_force: tuple = None
    solver: dict = field(default_factory=lambda: section(_SOLVER)({}))
    plan: dict = field(default_factory=lambda: section(_PLAN)({}))
    rom: dict = field(default_factory=lambda: section(_ROM)({}))

    def to_dict(self):
        return json.loads(json.dumps({
            "schema_version": SCHEMA_VERSION,
            "case_id": self.case_id,
            "geometry": self.geometry,
            "material": {key: float(getattr(self.material, attr))
                         for key, attr in _MATERIAL_KEYS},
            "boundary": [read_section(e, _BOUNDARY, "boundary", CaseError)
                         for e in self.boundary],
            "amplitudes": {k: float(v) for k, v in self.amplitudes.items()},
            "parameters": space_to_dict(self.space),
            "body_force_m_s2": None if self.body_force is None
                               else [float(f) for f in self.body_force],
            "solver": self.solver,
            "plan": self.plan,
            "rom": self.rom,
        }))

    def picard_options(self):
        """solve_fom / solve_rom keyword arguments of the solver section."""
        return read_section(self.solver, _SOLVER, "solver", CaseError)

    def plan_options(self, **overrides):
        """Training grid counts, test count and seed of the plan section.

        Overrides (command-line flags) replace entries unless they are None.
        """
        plan = read_section(dict(self.plan, **_given(overrides)), _PLAN, "plan", CaseError)
        return dict(plan, train_counts=tuple(plan["train_counts"]))

    def offline_options(self, **overrides):
        """offline_build keyword arguments of the rom section.

        Overrides (command-line flags) replace entries unless they are None.
        """
        return read_section(dict(self.rom, **_given(overrides)), _ROM, "rom", CaseError)


def config_from_dict(data):
    c = read_section(data, _TOP, "configuration", CaseError)
    try:
        material = CarreauYasudaParams(**{attr: c["material"][key]
                                          for key, attr in _MATERIAL_KEYS})
        space = space_from_dict(c["parameters"])
    except ParameterError as exc:
        raise CaseError("malformed configuration (%s: %s)"
                        % (type(exc).__name__, exc)) from None
    body = c["body_force_m_s2"]
    return CaseConfig(case_id=c["case_id"], geometry=c["geometry"], material=material,
                      boundary=tuple(c["boundary"]), amplitudes=c["amplitudes"],
                      space=space, body_force=None if body is None else tuple(body),
                      solver=c["solver"], plan=c["plan"], rom=c["rom"])


def load_case(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CaseError("cannot parse %s: %s" % (path, exc)) from exc
    return config_from_dict(data)


# ---------------------------------------------------------------------------
# bundled cases

def valve_analog_config(refine=2.0, dt_s=0.1):
    """Gate valve flushed with a polycarbonate-like shear-thinning melt.

    The sliding gate opens a slot next to a fixed block; flow enters at the
    top, splits into a slot branch and a passage branch and leaves through
    the bottom.  Parameters vary the relaxation time and the power index.
    The default resolution keeps the slot gap at two cells (one free node)
    and lands the free-dof count in the mid five digits, the intended desk
    scale; refine below 1.5 seals the slot for P1 flux.
    """
    v = _VALVE
    material = CarreauYasudaParams(eta_0=270.0, eta_inf=0.0, lam=1.2e-3,
                                   a=1.0, n=0.775, rho=1200.0)
    space = ParameterSpace(box=relative_box(("lambda", "n"), (1.2e-3, 0.775), 0.05),
                           semantics=SEMANTICS_MATERIAL)
    boundary = (
        {"tag": "inlet", "profile": "valve_inlet", "components": [0, 1],
         "group": "fixed",
         "params": {"x0_m": v["inlet_lo"], "width_m": v["inlet_hi"] - v["inlet_lo"],
                    "coeff_1_m_s": 640.0, "t_end_s": 1.8}},
        {"tag": "gate", "profile": "wall_motion", "components": [0, 1],
         "group": "fixed", "params": {}},
        {"tag": "wall", "profile": "noslip", "components": [0, 1],
         "group": "fixed", "params": {}},
        {"tag": "outlet", "profile": "parallel_outflow", "components": [0],
         "group": "fixed", "params": {}},
        {"tag": "initial", "profile": "noslip", "components": [0, 1],
         "group": "fixed", "params": {}},
    )
    return CaseConfig(
        case_id="valve-analog",
        geometry={"kind": "valve", "refine": refine, "dt_s": dt_s, "t_end_s": 1.8},
        material=material, boundary=boundary, amplitudes={}, space=space,
        solver={"picard_tol": 1e-8, "picard_max": 60},
        plan={"train_counts": [4, 4], "n_test": 10, "seed": 7321},
    )


def artery_analog_config(n_x=24, n_y=10, n_levels=11):
    """Planar narrowing-channel stand-in for a constricting vessel.

    Blood-like Carreau-Yasuda material, a ramped parabolic inflow whose peak
    velocity is the single parameter, and walls that follow the narrowing
    law so the midsection closes over the cycle.
    """
    length, r0 = 60e-3, 5e-3
    material = CarreauYasudaParams(eta_0=0.056, eta_inf=0.00345, lam=1.902,
                                   a=1.25, n=0.22, rho=1058.0)
    space = ParameterSpace(box=relative_box(("u_in",), (0.1,), 0.05),
                           semantics=SEMANTICS_BC_SCALE, targets=("inflow",))
    boundary = (
        {"tag": "inlet", "profile": "artery_inlet", "components": [0, 1],
         "group": "inflow", "params": {"r0_m": r0, "t_ramp_s": 0.2}},
        {"tag": "wall", "profile": "wall_motion", "components": [0, 1],
         "group": "fixed", "params": {}},
        {"tag": "outlet", "profile": "parallel_outflow", "components": [1],
         "group": "fixed", "params": {}},
        {"tag": "initial", "profile": "noslip", "components": [0, 1],
         "group": "fixed", "params": {}},
    )
    return CaseConfig(
        case_id="artery-analog",
        geometry={"kind": "channel", "length_m": length, "halfwidth_m": r0,
                  "narrow_center_m": 30e-3, "narrow_halfwidth_m": 15e-3,
                  "n_x": n_x, "n_y": n_y, "n_levels": n_levels, "t_end_s": 1.0},
        material=material, boundary=boundary, amplitudes={"inflow": 0.1},
        space=space,
        solver={"picard_tol": 1e-8, "picard_max": 60},
        plan={"train_counts": [16], "n_test": 10, "seed": 4177},
    )


def couette_config(n=16):
    """Newtonian shear box whose exact solution u = (y, 0), p = 0 is nodal."""
    breaks = np.linspace(0.0, 1.0, n + 1).tolist()
    material = CarreauYasudaParams(eta_0=1.0, eta_inf=0.0, lam=1.0, a=2.0,
                                   n=1.0, rho=1.0)
    shear = {"profile": "linear_shear", "components": [0, 1],
             "group": "fixed", "params": {"rate_1_s": 1.0}}
    boundary = tuple(dict(shear, tag=tag)
                     for tag in ("left", "right", "bottom", "top", "initial"))
    return CaseConfig(
        case_id="couette",
        geometry={"kind": "rectangle", "x_breaks_m": breaks,
                  "y_breaks_m": breaks, "time_levels_s": breaks},
        material=material, boundary=boundary,
        solver={"picard_tol": 1e-12, "picard_max": 10},
        plan={"train_counts": [2], "n_test": 1, "seed": 1},
    )


def poiseuille_body_config(n=8):
    """Body-force driven channel with the exact profile u = (4y(1-y), 0).

    With unit density and viscosity the constant force (8, 0) balances the
    viscous term exactly, so the quadratic profile is the solution for all
    time and mesh refinement must converge to it at first order.
    """
    breaks = np.linspace(0.0, 1.0, n + 1).tolist()
    material = CarreauYasudaParams(eta_0=1.0, eta_inf=0.0, lam=1.0, a=2.0,
                                   n=1.0, rho=1.0)
    parabola = {"profile": "channel_parabola", "components": [0, 1],
                "group": "fixed",
                "params": {"u_max_m_s": 1.0, "y0_m": 0.0, "y1_m": 1.0}}
    boundary = tuple(dict(parabola, tag=tag)
                     for tag in ("left", "right", "bottom", "top", "initial"))
    return CaseConfig(
        case_id="poiseuille-body",
        geometry={"kind": "rectangle", "x_breaks_m": breaks,
                  "y_breaks_m": breaks, "time_levels_s": breaks},
        material=material, boundary=boundary, body_force=(8.0, 0.0),
        solver={"picard_tol": 1e-12, "picard_max": 10},
        plan={"train_counts": [2], "n_test": 1, "seed": 1},
    )


_BUNDLED = {
    "valve-analog": valve_analog_config,
    "artery-analog": artery_analog_config,
    "couette": couette_config,
    "poiseuille-body": poiseuille_body_config,
}


def bundled_case_ids():
    return sorted(_BUNDLED)


def bundled_case(case_id, **overrides):
    """Construct a bundled configuration by name."""
    try:
        factory = _BUNDLED[case_id]
    except KeyError:
        raise CaseError("unknown bundled case %r (available: %s)"
                        % (case_id, ", ".join(sorted(_BUNDLED)))) from None
    return factory(**overrides)
