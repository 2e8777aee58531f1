"""Full-order solver: GLS-stabilized P1-P1 space-time FEM for creeping
generalized-Newtonian flow.

Velocity and pressure live on the nodes of one simplex mesh of
Q = Omega(t) x [0,T].  The initial condition is Dirichlet data on the
``initial`` facets; the terminal cap stays free.  Viscosity and the
stabilization parameter are frozen per Picard iterate and constant per
element, so every integrand is polynomial and integrated exactly.

Block structure of one linearized solve, with v the free velocity nodal
values and p all pressure nodal values:

    [ E + A(u)   -B^T  ] [v]   [ H + F + L(u) ]
    [ B + C(u)    S(u) ] [p] = [ G + D(u)     ]

E    time-derivative mass        rho * int psi_i d_t psi_j
A    viscous form                int 2 eta eps(psi_i) : eps(psi_j)
B    divergence                  int phi_k div psi_j
C    pressure-velocity coupling  -sum_e tau_e int grad phi_k . d_t psi_j
S    pressure laplacian          +sum_e tau_e/rho int grad phi_k . grad phi_l
with the right-hand side carrying tractions, body force, and the lifting
of the Dirichlet data.  All spatial derivatives are taken in x only.

Linear solves: a Picard iterate changes only the eta- and tau-weighted
blocks, so one solve_fom call factors its first system (sparse LU plus two
refinement steps) and keeps that factor.  Each later system gets one GMRES
cycle of at most KRYLOV_MAX_ITS iterations, preconditioned by the kept
factor and started from the previous iterate.  Its result is accepted only
if the true relative residual ||rhs - K x|| / ||rhs|| meets
LINEAR_RESIDUAL_TOL (1e-10), the same contract a direct solve must meet;
otherwise the old factor is released and the system is factored afresh.
The factor never outlives the call, so a solution does not depend on what
was solved before it.

picard() is the one nonlinear driver: solve_fom and rom.solve_rom pass it a step.
"""

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, gmres, splu

from .constitutive import apply_parameters, field_values
from .io import ArtifactError, check_mesh_hash, read_artifact, write_artifact

logger = logging.getLogger(__name__)

LINEAR_RESIDUAL_TOL = 1e-10
KRYLOV_MAX_ITS = 20         # GMRES iterations on a lagged factor before refactoring
KRYLOV_RTOL = 1e-14         # near round-off: re-solves match a fresh factor
CONFLICT_TOL = 1e-10


class SolverError(Exception):
    """Raised for singular systems, non-convergence, or non-finite data."""


# ---------------------------------------------------------------------------
# degrees of freedom and Dirichlet data

@dataclass(frozen=True)
class DirichletSpec:
    """Prescribed velocity components on one boundary tag.

    profile(x, t) returns the unit-amplitude values of the listed components,
    shape (n_points, len(components)); it is evaluated on the reference
    (undeformed) coordinates.  Specs sharing a group are combined into one
    lifting vector whose coefficient is the group amplitude.
    """

    tag: str
    components: tuple
    profile: callable
    group: str = "fixed"


@dataclass
class DofMap:
    """Free velocity (node, component) pairs in lexicographic order.

    Full-length velocity vectors are node-major: entry node * d + component.
    Every pressure node is a DOF.
    """

    n_nodes: int
    d: int
    constrained: np.ndarray     # bool (n_nodes, d)

    def __post_init__(self):
        self.free_full = np.flatnonzero(~self.constrained.ravel())
        vdof = np.full(self.n_nodes * self.d, -1, dtype=np.int64)
        vdof[self.free_full] = np.arange(self.free_full.size)
        self.vdof = vdof.reshape(self.n_nodes, self.d)

    @property
    def n_velocity(self):
        return self.free_full.size

    @property
    def n_pressure(self):
        return self.n_nodes

    @property
    def n_total(self):
        return self.n_velocity + self.n_pressure

    def expand(self, v):
        """Scatter free velocity DOFs into a full (n_nodes, d) nodal field."""
        full = np.zeros(self.n_nodes * self.d)
        full[self.free_full] = v
        return full.reshape(self.n_nodes, self.d)

    def restrict(self, u_full):
        return np.asarray(u_full).ravel()[self.free_full]


def build_dof_map(mesh, specs):
    """Constrain the (node, component) pairs covered by the Dirichlet specs."""
    d = mesh.d
    tags = set(mesh.tags())
    needed = {t for t in tags if t.startswith("dirichlet:") or t == "initial"}
    given = {s.tag for s in specs}
    if given - tags:
        raise SolverError("specs reference unknown tags %s" % sorted(given - tags))
    if needed - given:
        raise SolverError("no Dirichlet data for tags %s" % sorted(needed - given))
    constrained = np.zeros((mesh.n_nodes, d), dtype=bool)
    for s in specs:
        nodes = mesh.nodes_of_tag(s.tag)
        for c in s.components:
            constrained[nodes, c] = True
    return DofMap(n_nodes=mesh.n_nodes, d=d, constrained=constrained)


@dataclass
class LiftingFunction:
    """Full-length nodal velocity vector carrying one group of Dirichlet data.

    vector holds unit-amplitude values; the group coefficient (the amplitude,
    possibly a parameter component) scales it in the assembled lifting.
    """

    group: str
    vector: np.ndarray          # (n_nodes, d)
    coefficient: float


def build_lifting(mesh, specs, amplitudes):
    """Nodal interpolation of the Dirichlet data, one lifting per group.

    amplitudes maps group names (other than ``fixed``) to their scalar
    coefficients.  Conflicting prescriptions at a shared node are rejected:
    within one group, values must agree to 1e-10; across groups both values
    must vanish (otherwise no single amplitude scaling can satisfy both).
    """
    d = mesh.d
    groups = sorted({s.group for s in specs}, key=lambda g: (g != "fixed", g))
    vec = {g: np.zeros((mesh.n_nodes, d)) for g in groups}
    owner = {}
    for s in specs:
        nodes = mesh.nodes_of_tag(s.tag)
        if nodes.size == 0:
            continue
        ref = mesh.reference_nodes[nodes]
        vals = np.atleast_2d(np.asarray(s.profile(ref[:, :d], ref[:, d]),
                                        dtype=np.float64))
        if vals.shape != (nodes.size, len(s.components)):
            raise SolverError("profile for %s returned shape %s, expected %s"
                              % (s.tag, vals.shape, (nodes.size, len(s.components))))
        for j, c in enumerate(s.components):
            for node, val in zip(nodes, vals[:, j]):
                key = (int(node), int(c))
                if key in owner:
                    g0, v0 = owner[key]
                    if g0 == s.group:
                        if abs(v0 - val) > CONFLICT_TOL * max(1.0, abs(v0)):
                            raise SolverError(
                                "conflicting Dirichlet data at node %d component %d:"
                                " %g vs %g (tag %s)" % (node, c, v0, val, s.tag))
                    elif abs(v0) > CONFLICT_TOL or abs(val) > CONFLICT_TOL:
                        raise SolverError(
                            "node %d component %d prescribed by groups %s and %s "
                            "with non-zero data; amplitudes cannot both hold"
                            % (node, c, g0, s.group))
                    continue
                owner[key] = (s.group, val)
                vec[s.group][node, c] = val
    out = []
    for g in groups:
        if g == "fixed":
            coeff = 1.0
        else:
            try:
                coeff = float(amplitudes[g])
            except KeyError:
                raise SolverError("no amplitude for lifting group %r" % g) from None
        out.append(LiftingFunction(group=g, vector=vec[g], coefficient=coeff))
    if not out:
        out.append(LiftingFunction(group="fixed",
                                   vector=np.zeros((mesh.n_nodes, d)),
                                   coefficient=1.0))
    return out


def combine_liftings(liftings, n_nodes, d):
    l_full = np.zeros((n_nodes, d))
    for lf in liftings:
        l_full += lf.coefficient * lf.vector
    return l_full


# ---------------------------------------------------------------------------
# vectorized assembly

class FomAssembler:
    """Assembles the space-time blocks over full-length nodal indices.

    Weighted blocks (viscous, stabilization) accept an arbitrary per-element
    weight vector, which serves both the nonlinear loop (weights = eta or
    tau) and affine decompositions (weights = one interpolation basis
    vector).  Rows/columns are restricted to free DOFs by the caller.
    """

    def __init__(self, mesh):
        mesh.validate()
        self.mesh = mesh
        self.d = mesh.d
        self.D = mesh.dimension
        self.V, grads = mesh.all_element_geometry()
        self.gx = np.ascontiguousarray(grads[:, :, :self.d])
        self.gt = np.ascontiguousarray(grads[:, :, self.d])
        self.elems = mesh.elements
        x = mesh.nodes[self.elems]
        self.h_t = x[:, :, -1].max(axis=1) - x[:, :, -1].min(axis=1)
        diffs = x[:, :, None, :-1] - x[:, None, :, :-1]
        self.h_s = np.sqrt((diffs ** 2).sum(-1)).max(axis=(1, 2))
        self.G = np.einsum("eaj,ebj->eab", self.gx, self.gx)
        self.n_vfull = mesh.n_nodes * self.d
        self._cache = {}
        self._build_index_templates()

    def _build_index_templates(self):
        d, D1 = self.d, self.D + 1
        e = self.elems.astype(np.int32)
        comp = np.arange(d, dtype=np.int32)
        # velocity-velocity, component diagonal: (e, a, b, c)
        rows = np.broadcast_to(e[:, :, None, None] * d, (e.shape[0], D1, D1, d)) + comp
        cols = np.broadcast_to(e[:, None, :, None] * d, (e.shape[0], D1, D1, d)) + comp
        self.ix_vv_diag = (np.ascontiguousarray(rows), np.ascontiguousarray(cols))
        # velocity-velocity, full coupling: (e, a, c, b, c2)
        rows = np.broadcast_to((e[:, :, None] * d + comp)[:, :, :, None, None],
                               (e.shape[0], D1, d, D1, d))
        cols = np.broadcast_to((e[:, :, None] * d + comp)[:, None, None, :, :],
                               (e.shape[0], D1, d, D1, d))
        self.ix_vv_full = (np.ascontiguousarray(rows), np.ascontiguousarray(cols))
        # pressure-velocity: (e, k, b, c)
        rows = np.broadcast_to(e[:, :, None, None], (e.shape[0], D1, D1, d))
        cols = np.broadcast_to((e[:, :, None] * d + comp)[:, None, :, :],
                               (e.shape[0], D1, D1, d))
        self.ix_pv = (np.ascontiguousarray(rows), np.ascontiguousarray(cols))
        # pressure-pressure: (e, k, l)
        rows = np.broadcast_to(e[:, :, None], (e.shape[0], D1, D1))
        cols = np.broadcast_to(e[:, None, :], (e.shape[0], D1, D1))
        self.ix_pp = (np.ascontiguousarray(rows), np.ascontiguousarray(cols))

    def _coo(self, data, ix, shape):
        self._check_finite(data)
        rows, cols = ix
        m = sp.coo_matrix((data.ravel(), (rows.ravel(), cols.ravel())), shape=shape)
        return m.tocsr()

    def _check_finite(self, data):
        flat = data.reshape(data.shape[0], -1)
        bad = np.flatnonzero(~np.isfinite(flat).all(axis=1))
        if bad.size:
            raise SolverError("non-finite assembly data in element %d" % bad[0])

    def mass_time(self):
        """int psi_i d_t psi_j without the density factor."""
        if "mass_time" not in self._cache:
            blk = (self.V / (self.D + 1))[:, None, None] * self.gt[:, None, :]
            data = np.broadcast_to(blk[:, :, :, None], self.ix_vv_diag[0].shape)
            self._cache["mass_time"] = self._coo(np.ascontiguousarray(data),
                                                 self.ix_vv_diag,
                                                 (self.n_vfull, self.n_vfull))
        return self._cache["mass_time"]

    def viscous(self, weights):
        """int 2 w eps(psi_i):eps(psi_j) with elementwise weight w."""
        wV = np.asarray(weights) * self.V
        eye = np.eye(self.d)
        # in place: every (E, D+1, d, D+1, d) temporary is as large as blk
        blk = self.G[:, :, None, :, None] * eye[None, None, :, None, :]
        blk += self.gx[:, :, None, None, :] * self.gx.transpose(0, 2, 1)[:, None, :, :, None]
        blk *= wV[:, None, None, None, None]
        return self._coo(blk, self.ix_vv_full, (self.n_vfull, self.n_vfull))

    def divergence(self):
        """int phi_k div psi_j."""
        if "divergence" not in self._cache:
            blk = (self.V / (self.D + 1))[:, None, None, None] \
                * self.gx[:, None, :, :]
            data = np.broadcast_to(blk, self.ix_pv[0].shape)
            self._cache["divergence"] = self._coo(np.ascontiguousarray(data),
                                                  self.ix_pv,
                                                  (self.mesh.n_nodes, self.n_vfull))
        return self._cache["divergence"]

    def stab_pv(self, weights):
        """-sum_e w_e int grad phi_k . d_t psi_j."""
        wV = np.asarray(weights) * self.V
        blk = -np.einsum("e,ekc,eb->ekbc", wV, self.gx, self.gt)
        return self._coo(blk, self.ix_pv, (self.mesh.n_nodes, self.n_vfull))

    def stab_pp(self, weights):
        """+sum_e w_e int grad phi_k . grad phi_l (density handled by caller)."""
        wV = np.asarray(weights) * self.V
        blk = wV[:, None, None] * self.G
        return self._coo(blk, self.ix_pp, (self.mesh.n_nodes, self.mesh.n_nodes))

    def grad_gram(self):
        """Spatial-gradient seminorm matrix on full velocity indices."""
        if "grad_gram" not in self._cache:
            data = np.broadcast_to((self.V[:, None, None] * self.G)[:, :, :, None],
                                   self.ix_vv_diag[0].shape)
            self._cache["grad_gram"] = self._coo(np.ascontiguousarray(data),
                                                 self.ix_vv_diag,
                                                 (self.n_vfull, self.n_vfull))
        return self._cache["grad_gram"]

    def mass_pressure(self):
        """L2 mass matrix of the pressure space."""
        if "mass_pressure" not in self._cache:
            D1 = self.D + 1
            blk = (self.V / (D1 * (self.D + 2)))[:, None, None] \
                * (1.0 + np.eye(D1))[None, :, :]
            self._cache["mass_pressure"] = self._coo(
                np.ascontiguousarray(blk), self.ix_pp,
                (self.mesh.n_nodes, self.mesh.n_nodes))
        return self._cache["mass_pressure"]

    def element_fields(self, u_full, params):
        """Per-element (shear rate, viscosity, tau) at a frozen velocity field."""
        gd, eta, tau = field_values(self.gx, self.h_t, self.h_s,
                                    u_full[self.elems], params)
        bad = np.flatnonzero(~(np.isfinite(eta) & np.isfinite(tau)))
        if bad.size:
            raise SolverError("non-finite viscosity or tau in element %d" % bad[0])
        return gd, eta, tau

    def body_rhs(self, f_vec, rho):
        """int rho psi_i . f, accumulated on full velocity indices."""
        F = np.zeros((self.mesh.n_nodes, self.d))
        w = rho * self.V / (self.D + 1)
        for c in range(self.d):
            if f_vec[c] != 0.0:
                np.add.at(F[:, c], self.elems.ravel(),
                          np.repeat(w * f_vec[c], self.D + 1))
        return F.ravel()

    def traction_rhs(self, neumann_data):
        """int_{P_N} psi_i . h for constant tractions per tag."""
        F = np.zeros((self.mesh.n_nodes, self.d))
        if neumann_data:
            for facet, tag in self.mesh.boundary_facets.items():
                h = neumann_data.get(tag)
                if h is None:
                    continue
                w = self.mesh.facet_measure(facet) / self.D
                for node in facet:
                    F[node, :] += w * np.asarray(h)[:self.d]
        return F.ravel()


# ---------------------------------------------------------------------------
# system assembly and solve

@dataclass
class FomSystem:
    """Assembled blocks restricted to free DOFs, plus the right-hand side."""

    E: sp.csr_matrix
    A: sp.csr_matrix
    B: sp.csr_matrix
    C: sp.csr_matrix
    S: sp.csr_matrix
    H: np.ndarray
    F: np.ndarray
    L: np.ndarray
    G: np.ndarray
    D: np.ndarray

    def matrix(self):
        return sp.bmat([[self.E + self.A, -self.B.T],
                        [self.B + self.C, self.S]], format="csr")

    def rhs(self):
        return np.concatenate([self.H + self.F + self.L, self.G + self.D])


def assemble_fom(mesh, dof_map, liftings, u_iterate, params,
                 body_force=None, neumann=None, assembler=None):
    """One linearization of the space-time system at the iterate u_iterate.

    u_iterate is the full nodal velocity (previous iterate including lifts);
    viscosity and tau are evaluated from it per element and frozen.
    """
    asm = assembler if assembler is not None else FomAssembler(mesh)
    _, eta, tau = asm.element_fields(u_iterate, params)
    rho = params.rho

    E_full = rho * asm.mass_time()
    A_full = asm.viscous(eta)
    B_full = asm.divergence()
    C_full = asm.stab_pv(tau)
    S = asm.stab_pp(tau / rho)

    free = dof_map.free_full
    l_flat = combine_liftings(liftings, mesh.n_nodes, asm.d).ravel()
    fb = np.zeros(asm.n_vfull)
    if body_force is not None:
        fb += asm.body_rhs(body_force.vector(asm.d), rho)
    fb += asm.traction_rhs(neumann or {})

    sys = FomSystem(
        E=E_full[free][:, free],
        A=A_full[free][:, free],
        B=B_full[:, free],
        C=C_full[:, free],
        S=S,
        H=-(E_full @ l_flat)[free],
        F=fb[free],
        L=-(A_full @ l_flat)[free],
        G=-(B_full @ l_flat),
        D=-(C_full @ l_flat),
    )
    for name in ("H", "F", "L", "G", "D"):
        if not np.all(np.isfinite(getattr(sys, name))):
            raise SolverError("non-finite entries in right-hand side %s" % name)
    return sys


def pressure_pins(mesh, dof_map):
    """Pressure nodes to pin when the velocity data leaves no natural gauge.

    With every lateral (spatially oriented) boundary component Dirichlet, the
    discrete pressure is defined only up to a function of time; one pressure
    node per time level is then fixed to zero.
    """
    for facet, tag in mesh.boundary_facets.items():
        if tag in ("initial", "terminal"):
            continue
        for node in facet:
            if np.any(dof_map.vdof[node, :] >= 0):
                return np.empty(0, dtype=np.int64)
    if mesh.n_spatial:
        levels = np.arange(mesh.time_levels.size, dtype=np.int64)
        return levels * mesh.n_spatial
    logger.warning("pinning a single pressure node on a mesh without level "
                   "structure; fully Dirichlet imported meshes may stay singular")
    return np.array([0], dtype=np.int64)


def _apply_pins(K, rhs, rows):
    if rows.size == 0:
        return K, rhs
    keep = np.ones(K.shape[0])
    keep[rows] = 0.0
    K = sp.diags(keep) @ K + sp.coo_matrix(
        (np.ones(rows.size), (rows, rows)), shape=K.shape)
    rhs = rhs.copy()
    rhs[rows] = 0.0
    return K.tocsr(), rhs


def _relative_residual(K, rhs, x):
    norm_rhs = np.linalg.norm(rhs)
    return np.linalg.norm(rhs - K @ x) / norm_rhs if norm_rhs > 0 else 0.0


def _krylov_resolve(K, rhs, lu, x0):
    """One GMRES cycle preconditioned by an earlier factor; (x, iterations)."""
    its = 0

    def count(_):
        nonlocal its
        its += 1

    M = LinearOperator(K.shape, matvec=lu.solve, dtype=np.float64)
    x, _ = gmres(K, rhs, x0=x0, rtol=KRYLOV_RTOL, atol=0.0,
                 restart=KRYLOV_MAX_ITS, maxiter=1, M=M,
                 callback=count, callback_type="pr_norm")
    return x, its


def direct_solve(K, rhs, factor=None, x0=None):
    """Solve K x = rhs to the residual contract.

    factor is an optional one-item list holding the sparse LU of an earlier
    system with the same pattern, or None.  A held factor preconditions one
    GMRES cycle of at most KRYLOV_MAX_ITS iterations started from x0, whose
    result is kept if its true relative residual meets LINEAR_RESIDUAL_TOL.
    Otherwise the held factor is dropped, K is factored (sparse LU plus two
    refinement steps) and the new factor is stored in factor[0].

    Returns (x, rel, factorized, krylov_its).
    """
    factor = [None] if factor is None else factor
    its = 0
    if factor[0] is not None:
        x, its = _krylov_resolve(K, rhs, factor[0], x0)
        rel = _relative_residual(K, rhs, x)
        if np.isfinite(rel) and rel <= LINEAR_RESIDUAL_TOL:
            return x, rel, False, its
        logger.debug("lagged factor missed the residual contract (%.3e after "
                     "%d GMRES iterations); refactoring", rel, its)
        factor[0] = None    # release the old factor before building the next
    try:
        lu = splu(K.tocsc())
    except RuntimeError as err:
        raise SolverError("linear system is singular (%s); a fully Dirichlet "
                          "case may be missing its pressure constraint" % err) from None
    x = lu.solve(rhs)
    for _ in range(2):
        r = rhs - K @ x
        x = x + lu.solve(r)
    rel = _relative_residual(K, rhs, x)
    if not np.isfinite(rel) or rel > LINEAR_RESIDUAL_TOL:
        raise SolverError("direct solve residual %.3e exceeds %.0e; system is "
                          "near-singular (missing pressure constraint?)"
                          % (rel, LINEAR_RESIDUAL_TOL))
    factor[0] = lu
    return x, rel, True, its


@dataclass
class FieldSolution:
    """Solution coefficients plus everything needed to rebuild nodal fields."""

    v: np.ndarray               # free velocity DOFs
    p: np.ndarray               # all pressure nodes
    mu: np.ndarray
    converged: bool
    iterations: list            # per-iteration dicts
    mesh_hash: str = ""
    case_id: str = ""

    def velocity_field(self, dof_map, liftings):
        """Full nodal velocity: lifts plus the homogeneous expansion."""
        u = combine_liftings(liftings, dof_map.n_nodes, dof_map.d)
        u += dof_map.expand(self.v)
        return u


@dataclass(frozen=True)
class FomProblem:
    """Case-independent description of one boundary value problem."""

    name: str
    material: object            # CarreauYasudaParams
    dirichlet: tuple            # DirichletSpec entries
    amplitudes: dict            # lifting group -> base amplitude
    space: object = None        # ParameterSpace or None
    body_force: object = None   # BodyForce or None
    neumann: dict = field(default_factory=dict)

    def effective(self, mu):
        return apply_parameters(self.material, self.amplitudes, mu, self.space)


def picard(step, x0, tol, max_it, strict, error, logger, what, skip=0):
    """Fixed-point iteration x <- step(x) of both solvers; (x, records, converged).

    step(x) returns the next iterate and the extra fields of its record.  It
    stops once ||dx[skip:]|| / ||x_new[skip:]|| <= tol, so pinned leading
    entries are not judged.  A stall after max_it steps raises error when
    strict, else it is logged on logger and the last iterate is returned.
    """
    if max_it < 1:
        raise error("picard_max must be at least 1")
    x, records = x0, []
    for it in range(1, max_it + 1):
        x_new, extra = step(x)
        dx = np.linalg.norm(x_new[skip:] - x[skip:])
        nx = np.linalg.norm(x_new[skip:])
        rel = dx / nx if nx > 0 else (0.0 if dx == 0.0 else np.inf)
        records.append({"iteration": it, "rel_update": float(rel), **extra})
        x = x_new
        if rel <= tol:
            return x, records, True
    msg = "%s stalled at rel update %.3e after %d iterations" % (what, rel, max_it)
    if strict:
        raise error(msg)
    logger.warning(msg)
    return x, records, False


def solve_fom(mesh, problem, mu=None, picard_tol=1e-8, picard_max=50,
              assembler=None, dof_map=None, strict=True):
    """Picard iteration on the frozen-coefficient linear systems.

    Viscosity and tau are re-evaluated from the previous full velocity field
    each round, until ||dx||/||x|| <= picard_tol.  With strict=False a stalled
    iteration returns the last iterate flagged as not converged.
    """
    params, amps = problem.effective(mu)
    dof_map = dof_map if dof_map is not None else build_dof_map(mesh, problem.dirichlet)
    liftings = build_lifting(mesh, problem.dirichlet, amps)
    asm = assembler if assembler is not None else FomAssembler(mesh)
    pins = pressure_pins(mesh, dof_map)
    if pins.size:
        logger.info("pinning %d pressure nodes (no natural gauge)", pins.size)

    l_full = combine_liftings(liftings, mesh.n_nodes, asm.d)
    n_v = dof_map.n_velocity
    factor = [None]     # the lagged LU, never shared between calls

    def step(x):
        u = l_full + dof_map.expand(x[:n_v])
        sys = assemble_fom(mesh, dof_map, liftings, u, params,
                           body_force=problem.body_force, neumann=problem.neumann,
                           assembler=asm)
        # the factor lives on through the next assembly; the blocks and the
        # system need not, or they add to the solve's peak memory
        K, rhs = _apply_pins(sys.matrix(), sys.rhs(), n_v + pins)
        del sys
        x_new, lin_res, factorized, its = direct_solve(K, rhs, factor, x0=x)
        return x_new, {"linear_residual": float(lin_res),
                       "factorized": factorized, "krylov_its": its}

    x, log, converged = picard(step, np.zeros(dof_map.n_total), picard_tol,
                               picard_max, strict, SolverError, logger, "Picard")
    logger.info("solve_fom %s: %d iterations, %d factorizations, rel update %.2e",
                problem.name, len(log), sum(r["factorized"] for r in log),
                log[-1]["rel_update"])
    return FieldSolution(v=x[:n_v], p=x[n_v:],
                         mu=np.asarray([] if mu is None else mu, dtype=np.float64),
                         converged=converged, iterations=log,
                         mesh_hash=mesh.content_hash(), case_id=problem.name)


def fom_inner_products(mesh, assembler=None):
    """Velocity H1-seminorm and pressure L2 Gram matrices (full nodal indices)."""
    asm = assembler if assembler is not None else FomAssembler(mesh)
    return {"K_u": asm.grad_gram(), "M_p": asm.mass_pressure()}


# ---------------------------------------------------------------------------
# snapshot persistence

def write_snapshot(path, solution, extra_header=None):
    header = {"case_id": solution.case_id, "mesh_hash": solution.mesh_hash,
              "mu": list(map(float, solution.mu)),
              "n_velocity": int(solution.v.size),
              "n_pressure": int(solution.p.size),
              "converged": bool(solution.converged)}
    header.update(extra_header or {})
    write_artifact(path, "snapshot", header, {"v": solution.v, "p": solution.p})


def read_snapshot(path, mesh_hash=None):
    header, arrays = read_artifact(path, expect_kind="snapshot")
    if mesh_hash is not None:
        check_mesh_hash(header, mesh_hash, path=str(path))
    try:
        sol = FieldSolution(v=arrays["v"], p=arrays["p"],
                            mu=np.asarray(header.get("mu", []), dtype=np.float64),
                            converged=bool(header.get("converged", True)),
                            iterations=[], mesh_hash=header.get("mesh_hash", ""),
                            case_id=header.get("case_id", ""))
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError("%s: malformed snapshot (%s: %s)"
                            % (path, type(exc).__name__, exc)) from None
    return header, sol
