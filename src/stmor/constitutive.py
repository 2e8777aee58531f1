"""Shear rate, Carreau-Yasuda viscosity, the element-field kernel, and
parameter-vector semantics.

All quantities are SI.  The velocity gradient entering the shear rate is the
spatial gradient of the discrete P1 field, constant per element, so viscosity
and the stabilization parameter naturally live on elements.
"""

from dataclasses import dataclass, replace

import numpy as np


class ParameterError(Exception):
    """Raised for invalid material data or parameter vectors."""


@dataclass(frozen=True)
class CarreauYasudaParams:
    """Generalized-Newtonian material data.

    eta = eta_inf + (eta_0 - eta_inf) * [1 + (lam * gamma_dot)**a]**((n - 1)/a)
    """

    eta_0: float        # Pa s, zero-shear-rate viscosity
    eta_inf: float      # Pa s, infinite-shear-rate viscosity
    lam: float          # s, characteristic time
    a: float            # -, Yasuda exponent
    n: float            # -, power-law index
    rho: float          # kg/m^3

    def __post_init__(self):
        if not (self.eta_0 >= self.eta_inf >= 0.0):
            raise ParameterError("need eta_0 >= eta_inf >= 0")
        if self.lam < 0.0 or self.a <= 0.0 or self.rho <= 0.0:
            raise ParameterError("need lambda >= 0, a > 0, rho > 0")


@dataclass(frozen=True)
class BodyForce:
    """Constant body force per unit mass; enters the momentum form scaled by rho."""

    f: tuple = (0.0, 0.0)

    def __post_init__(self):
        if not np.all(np.isfinite(self.f)):
            raise ParameterError("body force entries must be finite")

    def vector(self, d):
        v = np.asarray(self.f, dtype=np.float64)[:d]
        if v.size != d:
            raise ParameterError("body force has fewer than %d components" % d)
        return v


@dataclass(frozen=True)
class ParameterBox:
    """Ordered named parameter components with per-component bounds."""

    names: tuple
    lower: tuple
    upper: tuple

    def validate(self, mu):
        mu = np.asarray(mu, dtype=np.float64)
        if mu.shape != (len(self.names),):
            raise ParameterError("expected %d components %s, got shape %s"
                                 % (len(self.names), self.names, mu.shape))
        for name, lo, hi, v in zip(self.names, self.lower, self.upper, mu):
            # tiny slack so box corners produced by 0.95*x arithmetic pass
            pad = 1e-12 * max(abs(lo), abs(hi))
            if not (lo - pad <= v <= hi + pad):
                raise ParameterError("component %s = %g outside [%g, %g]"
                                     % (name, v, lo, hi))
        return mu

    def center(self):
        return 0.5 * (np.asarray(self.lower) + np.asarray(self.upper))

    def corners(self):
        k = len(self.names)
        out = np.empty((2 ** k, k))
        for i in range(2 ** k):
            for j in range(k):
                out[i, j] = self.upper[j] if (i >> j) & 1 else self.lower[j]
        return out


def relative_box(names, centers, spread=0.05):
    """Box [(1-spread)c, (1+spread)c] per component (c > 0)."""
    lo = tuple((1.0 - spread) * c for c in centers)
    hi = tuple((1.0 + spread) * c for c in centers)
    return ParameterBox(names=tuple(names), lower=lo, upper=hi)


def shear_rate(grad_u):
    """sqrt(2 eps:eps) with eps = (grad_u + grad_u^T)/2; vectorized over leading axes.

    grad_u has shape (..., d, d) with entries du_i/dx_j.
    """
    g = np.asarray(grad_u, dtype=np.float64)
    eps = 0.5 * (g + np.swapaxes(g, -1, -2))
    return np.sqrt(2.0 * np.einsum("...ij,...ij->...", eps, eps))


def viscosity(gamma_dot, params):
    """Carreau-Yasuda viscosity; vectorized over gamma_dot >= 0."""
    gd = np.asarray(gamma_dot, dtype=np.float64)
    expo = (params.n - 1.0) / params.a
    return params.eta_inf + (params.eta_0 - params.eta_inf) * (
        1.0 + (params.lam * gd) ** params.a) ** expo


def field_values(gx, h_t, h_s, u_elems, params):
    """Per-element (shear rate, viscosity, tau) at frozen nodal velocities.

    gx (m, D+1, d) holds the spatial shape-function gradients, h_t and h_s
    (m,) the temporal extent and spatial diameter, u_elems (m, D+1, d) the
    element nodal velocities.  tau is the GLS momentum parameter built from
    the temporal, advective (element-mean speed) and viscous scales.
    """
    grad = np.einsum("eac,eaj->ecj", u_elems, gx)
    gd = shear_rate(grad)
    eta = viscosity(gd, params)
    speed = np.linalg.norm(u_elems.mean(axis=1), axis=-1)
    nu = eta / params.rho
    tau = 1.0 / np.sqrt((2.0 / h_t) ** 2 + (2.0 * speed / h_s) ** 2
                        + (4.0 * nu / h_s ** 2) ** 2)
    return gd, eta, tau


# parameter semantics of the bundled problem families:
#   material: components override fields of CarreauYasudaParams by name
#   bc_scale: components multiply the amplitude of named boundary profiles
SEMANTICS_MATERIAL = "material"
SEMANTICS_BC_SCALE = "bc_scale"

_FIELD_ALIASES = {"lambda": "lam"}


@dataclass(frozen=True)
class ParameterSpace:
    """A box plus the rule that maps a point to effective problem data."""

    box: ParameterBox
    semantics: str
    targets: tuple = ()      # bc_scale: names of the scaled boundary profiles

    def __post_init__(self):
        if self.semantics not in (SEMANTICS_MATERIAL, SEMANTICS_BC_SCALE):
            raise ParameterError("unknown parameter semantics %r" % self.semantics)


_SPACE_KEYS = {"names", "lower", "upper", "semantics", "targets"}


def space_to_dict(space):
    """JSON-ready form of a ParameterSpace (None passes through)."""
    if space is None:
        return None
    box = space.box
    return {"names": list(box.names),
            "lower": [float(v) for v in box.lower],
            "upper": [float(v) for v in box.upper],
            "semantics": space.semantics, "targets": list(space.targets)}


def space_from_dict(d):
    """Inverse of space_to_dict; unknown or missing keys are a ParameterError."""
    if d is None:
        return None
    extra = set(d) - _SPACE_KEYS
    if extra:
        raise ParameterError("unknown parameters key %r" % sorted(extra)[0])
    missing = _SPACE_KEYS - set(d)
    if missing:
        raise ParameterError("parameters key %r is missing" % sorted(missing)[0])
    box = ParameterBox(names=tuple(d["names"]),
                       lower=tuple(float(v) for v in d["lower"]),
                       upper=tuple(float(v) for v in d["upper"]))
    return ParameterSpace(box=box, semantics=str(d["semantics"]),
                          targets=tuple(d["targets"]))


def apply_parameters(base, bc_amplitudes, mu, space):
    """Effective (material params, bc amplitude map) at the parameter point mu.

    bc_amplitudes maps boundary-profile names to scalar amplitudes.  Material
    semantics override the named fields of ``base``; bc_scale semantics set
    the amplitude of every profile listed in space.targets to the single
    component of mu.  Without mu or space the base data is returned as is.
    """
    amps = dict(bc_amplitudes)
    if mu is None or space is None:
        return base, amps
    mu = space.box.validate(mu)
    if space.semantics == SEMANTICS_MATERIAL:
        updates = {}
        for name, v in zip(space.box.names, mu):
            fname = _FIELD_ALIASES.get(name, name)
            if fname not in CarreauYasudaParams.__dataclass_fields__:
                raise ParameterError("unknown material component %r" % name)
            updates[fname] = float(v)
        return replace(base, **updates), amps
    # bc_scale: one component, interpreted as the new amplitude itself
    if len(space.box.names) != 1:
        raise ParameterError("bc_scale semantics take exactly one component")
    for t in space.targets:
        if t not in amps:
            raise ParameterError("unknown boundary profile %r" % t)
        amps[t] = float(mu[0])
    return base, amps
