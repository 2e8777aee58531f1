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
from .constitutive import (SEMANTICS_BC_SCALE, SEMANTICS_MATERIAL, BodyForce,
                           CarreauYasudaParams, ParameterError, ParameterSpace,
                           relative_box, space_from_dict, space_to_dict)
from .fom import DirichletSpec, FomProblem

SCHEMA_VERSION = 1


class CaseError(Exception):
    """Invalid case configuration or geometry request."""


def _take(params, required, optional=()):
    """Split a profile-parameter dict against its schema; reject strangers."""
    given = dict(params)
    out = {}
    for key in required:
        if key not in given:
            raise CaseError("profile parameter %r is missing" % key)
        out[key] = given.pop(key)
    for key, default in optional:
        out[key] = given.pop(key, default)
    if given:
        raise CaseError("unknown profile parameter %r" % sorted(given)[0])
    return out


# ---------------------------------------------------------------------------
# named boundary-profile library
#
# Every factory returns profile(x, t) -> (n, k) where x are reference spatial
# coordinates of the boundary nodes and t their time coordinates.  Profiles
# are unit-amplitude shapes; parameter-dependent scaling happens through the
# lifting amplitude of the group they are assigned to.

def _profile_noslip(params):
    p = _take(params, (), (("n_components", 2),))
    k = int(p["n_components"])

    def profile(x, t):
        return np.zeros((np.asarray(x).shape[0], k))

    return profile


def _profile_parallel_outflow(params):
    _take(params, ())

    def profile(x, t):
        return np.zeros((np.asarray(x).shape[0], 1))

    return profile


def _profile_constant(params):
    p = _take(params, ("value_m_s",))
    value = np.asarray(p["value_m_s"], dtype=np.float64).ravel()

    def profile(x, t):
        return np.tile(value, (np.asarray(x).shape[0], 1))

    return profile


def _profile_linear_shear(params):
    p = _take(params, (), (("rate_1_s", 1.0),))
    rate = float(p["rate_1_s"])

    def profile(x, t):
        out = np.zeros((x.shape[0], 2))
        out[:, 0] = rate * x[:, 1]
        return out

    return profile


def _profile_channel_parabola(params):
    p = _take(params, ("u_max_m_s", "y0_m", "y1_m"))
    umax, y0, y1 = float(p["u_max_m_s"]), float(p["y0_m"]), float(p["y1_m"])
    if y1 <= y0:
        raise CaseError("channel_parabola needs y1_m > y0_m")

    def profile(x, t):
        y = x[:, 1]
        out = np.zeros((x.shape[0], 2))
        out[:, 0] = umax * 4.0 * (y - y0) * (y1 - y) / (y1 - y0) ** 2
        return out

    return profile


def _profile_valve_inlet(params):
    """Downward parabolic inflow ramped like sqrt(t / t_end).

    The shape is coeff * xi (xi - width) with xi the offset from the left
    edge of the inlet, negative on (0, width), so the jet points in -y.
    """
    p = _take(params, ("x0_m", "width_m", "coeff_1_m_s", "t_end_s"))
    x0, width = float(p["x0_m"]), float(p["width_m"])
    coeff, t_end = float(p["coeff_1_m_s"]), float(p["t_end_s"])

    def profile(x, t):
        xi = x[:, 0] - x0
        ramp = np.sqrt(np.maximum(np.asarray(t, dtype=np.float64), 0.0) / t_end)
        out = np.zeros((x.shape[0], 2))
        out[:, 1] = coeff * xi * (xi - width) * ramp
        return out

    return profile


def _profile_gate_slide(params):
    """Horizontal velocity of the sliding gate surface.

    Matches the time derivative of the valve deformation map: full plug
    velocity at the gate tip, tapering linearly to zero at the attached end
    and across the slot toward the fixed block.
    """
    p = _take(params, ("x_gate_rest_m", "x_wall_m", "speed_m_s", "schedule_s"))
    rest, wall = float(p["x_gate_rest_m"]), float(p["x_wall_m"])
    speed = float(p["speed_m_s"])
    schedule = tuple(float(v) for v in p["schedule_s"])

    def profile(x, t):
        v = msh.plug_velocity(np.asarray(t, dtype=np.float64), speed, schedule)
        xc = x[:, 0]
        taper = np.where(xc <= rest, xc / rest,
                         np.clip((wall - xc) / (wall - rest), 0.0, 1.0))
        out = np.zeros((x.shape[0], 2))
        out[:, 0] = taper * v
        return out

    return profile


def _profile_artery_inlet(params):
    """Unit-amplitude parabola 1 - (y/r0)^2 with a sqrt(t / t_ramp) ramp."""
    p = _take(params, ("r0_m", "t_ramp_s"))
    r0, t_ramp = float(p["r0_m"]), float(p["t_ramp_s"])

    def profile(x, t):
        tt = np.asarray(t, dtype=np.float64)
        ramp = np.sqrt(np.clip(tt, 0.0, t_ramp) / t_ramp)
        out = np.zeros((x.shape[0], 2))
        out[:, 0] = (1.0 - (x[:, 1] / r0) ** 2) * ramp
        return out

    return profile


def _profile_artery_wall(params):
    """Wall-normal velocity of the narrowing channel walls.

    Exactly the time derivative of the narrowing deformation at reference
    height y, so the no-slip wall moves with the mesh.
    """
    p = _take(params, ("x_center_m", "x_halfwidth_m"))
    center, halfwidth = float(p["x_center_m"]), float(p["x_halfwidth_m"])

    def profile(x, t):
        g = msh.narrowing_blend(x[:, 0], center, halfwidth)
        out = np.zeros((x.shape[0], 2))
        out[:, 1] = x[:, 1] * g * msh.narrowing_rate(np.asarray(t, dtype=np.float64))
        return out

    return profile


PROFILES = {
    "noslip": _profile_noslip,
    "parallel_outflow": _profile_parallel_outflow,
    "constant": _profile_constant,
    "linear_shear": _profile_linear_shear,
    "channel_parabola": _profile_channel_parabola,
    "valve_inlet": _profile_valve_inlet,
    "gate_slide": _profile_gate_slide,
    "artery_inlet": _profile_artery_inlet,
    "artery_wall": _profile_artery_wall,
}


def make_profile(name, params):
    """Resolve a named profile to a callable; unknown names are errors."""
    try:
        factory = PROFILES[name]
    except KeyError:
        raise CaseError("unknown boundary profile %r (available: %s)"
                        % (name, ", ".join(sorted(PROFILES)))) from None
    return factory(params or {})


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
    markers = msh.tag_boundary_by_midpoint(nodes, msh._boundary_facets_of(tris, 2),
                                           _valve_classify)
    return msh.SpatialMesh(dimension=2, nodes=nodes, elements=tris,
                           boundary_markers=markers)


def valve_deformation():
    v = _VALVE
    return msh.valve_plug_map(v["gate_tip"], v["block_lo"], v["speed"],
                              v["schedule"], v["band_lo"], v["band_hi"],
                              v["blend_len"])


def channel_spatial_mesh(length, halfwidth, n_x, n_y):
    """Straight channel with wall-clustered (cosine) transverse spacing.

    The nonuniform spacing is deliberate: on a uniform grid the outlet
    coupling rows of the pressure block become mutually proportional and the
    system picks up an exactly singular per-level pressure mode.
    """
    xb = np.linspace(0.0, length, int(n_x) + 1)
    yb = -halfwidth * np.cos(np.linspace(0.0, np.pi, int(n_y) + 1))
    yb[0], yb[-1] = -halfwidth, halfwidth
    return msh.rectangle_mesh(xb, yb, left="inlet", right="outlet",
                              bottom="wall", top="wall")


def _reject_extra(given, where):
    if given:
        raise CaseError("unknown %s key %r" % (where, sorted(given)[0]))


def build_mesh(config):
    """Deformed space-time mesh of the configured geometry."""
    try:
        return _geometry_mesh(dict(config.geometry))
    except (KeyError, TypeError, ValueError) as exc:
        raise CaseError("malformed geometry (%s: %s)"
                        % (type(exc).__name__, exc)) from None


def _geometry_mesh(g):
    kind = g.pop("kind", None)
    if kind == "valve":
        refine = float(g.pop("refine", 1.0))
        dt = float(g.pop("dt_s"))
        t_end = float(g.pop("t_end_s"))
        _reject_extra(g, "geometry")
        n = int(round(t_end / dt))
        if n < 1 or abs(n * dt - t_end) > 1e-9 * t_end:
            raise CaseError("dt_s must divide t_end_s evenly")
        return msh.extrude(valve_spatial_mesh(refine), np.linspace(0.0, t_end, n + 1),
                           valve_deformation())
    if kind == "channel":
        length = float(g.pop("length_m"))
        halfwidth = float(g.pop("halfwidth_m"))
        center = g.pop("narrow_center_m", None)
        narrow_hw = g.pop("narrow_halfwidth_m", None)
        n_x, n_y = int(g.pop("n_x")), int(g.pop("n_y"))
        n_levels = int(g.pop("n_levels"))
        t_end = float(g.pop("t_end_s"))
        _reject_extra(g, "geometry")
        if n_levels < 2:
            raise CaseError("channel geometry needs n_levels >= 2")
        narrowing = (None if center is None
                     else msh.channel_narrowing_map(float(center), float(narrow_hw)))
        return msh.extrude(channel_spatial_mesh(length, halfwidth, n_x, n_y),
                           np.linspace(0.0, t_end, n_levels), narrowing)
    if kind == "rectangle":
        xb = np.asarray(g.pop("x_breaks_m"), dtype=np.float64)
        yb = np.asarray(g.pop("y_breaks_m"), dtype=np.float64)
        levels = np.asarray(g.pop("time_levels_s"), dtype=np.float64)
        _reject_extra(g, "geometry")
        sp = msh.rectangle_mesh(xb, yb, left="left", right="right",
                                bottom="bottom", top="top")
        return msh.extrude(sp, levels)
    raise CaseError("unknown geometry kind %r" % kind)


def build_problem(config, mesh=None):
    """Resolve the configured boundary conditions into a FomProblem.

    With a mesh given, every referenced tag must exist on it.
    """
    if mesh is not None:
        known = set(mesh.tags())
        for entry in config.boundary:
            if entry["tag"] not in known:
                raise CaseError("boundary tag %r does not exist in the mesh "
                                "(tags: %s)" % (entry["tag"], ", ".join(sorted(known))))
    specs = []
    for entry in config.boundary:
        profile = make_profile(entry["profile"], entry.get("params", {}))
        specs.append(DirichletSpec(tag=entry["tag"],
                                   components=tuple(int(c) for c in entry["components"]),
                                   profile=profile,
                                   group=entry.get("group", "fixed")))
    body = BodyForce(tuple(config.body_force)) if config.body_force else None
    return FomProblem(name=config.case_id, material=config.material,
                      dirichlet=tuple(specs), amplitudes=dict(config.amplitudes),
                      space=config.space, body_force=body)


# ---------------------------------------------------------------------------
# configuration format

_MATERIAL_KEYS = (("rho_kg_m3", "rho"), ("eta0_pa_s", "eta_0"),
                  ("etainf_pa_s", "eta_inf"), ("lambda_s", "lam"),
                  ("a", "a"), ("n", "n"))
_TOP_KEYS = {"schema_version", "case_id", "geometry", "material", "boundary",
             "amplitudes", "parameters", "body_force_m_s2", "solver", "plan",
             "rom"}
_BOUNDARY_KEYS = {"tag", "profile", "components", "group", "params"}
_SOLVER_KEYS = {"picard_tol", "picard_max"}
_PLAN_KEYS = {"train_counts", "n_test", "seed"}
_ROM_KEYS = {"tol_eim_eta", "tol_eim_tau", "energy_threshold", "rank_cutoff"}


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
    solver: dict = field(default_factory=lambda: {"picard_tol": 1e-8,
                                                  "picard_max": 50})
    plan: dict = field(default_factory=lambda: {"train_counts": [4, 4],
                                                "n_test": 10, "seed": 1234})
    rom: dict = field(default_factory=lambda: {"tol_eim_eta": 1e-12,
                                               "tol_eim_tau": 1e-12,
                                               "energy_threshold": 1.0})

    def to_dict(self):
        m = self.material
        out = {
            "schema_version": SCHEMA_VERSION,
            "case_id": self.case_id,
            "geometry": json.loads(json.dumps(self.geometry)),
            "material": {key: float(getattr(m, attr)) for key, attr in _MATERIAL_KEYS},
            "boundary": [
                {"tag": e["tag"], "profile": e["profile"],
                 "components": [int(c) for c in e["components"]],
                 "group": e.get("group", "fixed"),
                 "params": json.loads(json.dumps(e.get("params", {})))}
                for e in self.boundary
            ],
            "amplitudes": {k: float(v) for k, v in self.amplitudes.items()},
            "parameters": space_to_dict(self.space),
            "body_force_m_s2": None if self.body_force is None
                               else [float(f) for f in self.body_force],
            "solver": json.loads(json.dumps(self.solver)),
            "plan": json.loads(json.dumps(self.plan)),
            "rom": json.loads(json.dumps(self.rom)),
        }
        return out

    def picard_options(self):
        """solve_fom / solve_rom keyword arguments of the solver section."""
        return {"picard_tol": float(self.solver.get("picard_tol", 1e-8)),
                "picard_max": int(self.solver.get("picard_max", 50))}

    def plan_options(self):
        """Training grid counts, test count and seed of the plan section."""
        p = self.plan
        return {"train_counts": tuple(int(c) for c in p.get("train_counts", (4, 4))),
                "n_test": int(p.get("n_test", 10)), "seed": int(p.get("seed", 1234))}

    def offline_options(self, **overrides):
        """offline_build keyword arguments of the rom section.

        Overrides (command-line flags) replace entries unless they are None.
        """
        opts = dict(self.rom)
        opts.update((k, v) for k, v in overrides.items() if v is not None)
        return {"tol_eim_eta": float(opts.get("tol_eim_eta", 1e-12)),
                "tol_eim_tau": float(opts.get("tol_eim_tau", 1e-12)),
                "energy_threshold": float(opts.get("energy_threshold", 1.0)),
                "rank_cutoff": None if opts.get("rank_cutoff") is None
                               else float(opts["rank_cutoff"])}

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _material_from_dict(d):
    keys = {k for k, _ in _MATERIAL_KEYS}
    extra = set(d) - keys
    if extra:
        raise CaseError("unknown material key %r (the unit suffix is part of "
                        "the key)" % sorted(extra)[0])
    missing = keys - set(d)
    if missing:
        raise CaseError("material key %r is missing" % sorted(missing)[0])
    return CarreauYasudaParams(**{attr: float(d[key]) for key, attr in _MATERIAL_KEYS})


def _checked_section(d, allowed, where):
    out = dict(d or {})
    extra = set(out) - allowed
    if extra:
        raise CaseError("unknown %s key %r" % (where, sorted(extra)[0]))
    return out


def config_from_dict(data):
    if not isinstance(data, dict):
        raise CaseError("case configuration must be a JSON object")
    extra = set(data) - _TOP_KEYS
    if extra:
        raise CaseError("unknown configuration key %r" % sorted(extra)[0])
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise CaseError("unsupported schema_version %r (this build reads %d)"
                        % (version, SCHEMA_VERSION))
    for key in ("case_id", "geometry", "material", "boundary"):
        if key not in data:
            raise CaseError("configuration key %r is missing" % key)
    try:
        boundary = []
        for e in data["boundary"]:
            extra = set(e) - _BOUNDARY_KEYS
            if extra:
                raise CaseError("unknown boundary key %r" % sorted(extra)[0])
            if "tag" not in e or "profile" not in e or "components" not in e:
                raise CaseError("boundary entries need tag, profile and components")
            entry = {"tag": str(e["tag"]), "profile": str(e["profile"]),
                     "components": [int(c) for c in e["components"]],
                     "group": str(e.get("group", "fixed")),
                     "params": dict(e.get("params", {}))}
            make_profile(entry["profile"], entry["params"])   # fail fast on bad params
            boundary.append(entry)
        body = data.get("body_force_m_s2")
        try:
            space = space_from_dict(data.get("parameters"))
        except ParameterError as exc:
            raise CaseError(str(exc)) from None
        config = CaseConfig(
            case_id=str(data["case_id"]),
            geometry=dict(data["geometry"]),
            material=_material_from_dict(data["material"]),
            boundary=tuple(boundary),
            amplitudes={str(k): float(v) for k, v in (data.get("amplitudes") or {}).items()},
            space=space,
            body_force=None if body is None else tuple(float(f) for f in body),
            solver=_checked_section(data.get("solver"), _SOLVER_KEYS, "solver"),
            plan=_checked_section(data.get("plan"), _PLAN_KEYS, "plan"),
            rom=_checked_section(data.get("rom"), _ROM_KEYS, "rom"),
        )
        # read every option once, so a bad value fails at load time
        config.picard_options(), config.plan_options(), config.offline_options()
    except (TypeError, ValueError, AttributeError) as exc:
        raise CaseError("malformed configuration (%s: %s)"
                        % (type(exc).__name__, exc)) from None
    return config


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
        {"tag": "gate", "profile": "gate_slide", "components": [0, 1],
         "group": "fixed",
         "params": {"x_gate_rest_m": v["gate_tip"], "x_wall_m": v["block_lo"],
                    "speed_m_s": v["speed"], "schedule_s": list(v["schedule"])}},
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
        rom={"tol_eim_eta": 1e-12, "tol_eim_tau": 1e-12, "energy_threshold": 1.0},
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
        {"tag": "wall", "profile": "artery_wall", "components": [0, 1],
         "group": "fixed",
         "params": {"x_center_m": 30e-3, "x_halfwidth_m": 15e-3}},
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
        rom={"tol_eim_eta": 1e-12, "tol_eim_tau": 1e-12, "energy_threshold": 1.0},
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
