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

Assembly: a Picard iterate changes only the eta- and tau-weighted blocks,
so the pattern of the pinned, free-restricted system is fixed.  An
assembler builds it once per DOF map (SystemPattern), with maps
from element entries to its CSR slots; each iterate is then three sparse
matrix-vector products of the element weights plus constant base vectors,
and the lifting load comes from the entries in constrained columns.  No
other sparse layout of the system exists.  The offline projection
(rom.project_offline) builds no element block: it forms the same products
from the element geometry (V, gx, gt) and the basis rows.

Linear solves: one solve_fom call solves its first system directly and keeps
that factor for the later ones.  The factor is a sparse LU of the system in
the pattern's fill-reducing order (SystemPattern.order): a geometric nested
dissection of the mesh nodes (George 1973), each node's free velocity DOFs
followed by its pressure DOF.  SuperLU factors it in symmetric mode,
refining that order by minimum degree, with diagonal pivots: the largest
entry of a column is taken only where its diagonal is zero (static pivoting,
Li & Demmel 2003).  Two refinement steps follow.  Should that factor break
down or its refined residual miss the contract, it is dropped and the system
is factored again with column ordering and partial pivoting; a system is
reported singular only if that factor fails too.  Each later system gets one
cycle of a right-preconditioned GMRES (gmres) of at most KRYLOV_MAX_ITS
iterations, preconditioned by the kept factor and started from the iterate
it linearizes at.  The cycle stops early once its observed rate cannot meet
the contract within KRYLOV_MAX_ITS.  Its result is accepted only if the true
relative residual ||rhs - K x|| / ||rhs|| meets LINEAR_RESIDUAL_TOL (1e-10),
the same contract a direct solve must meet; otherwise the old factor is
released and the system is factored afresh.  A call without x0 is cold: its
first system is the one at rest (u = 0, so eta = eta_0 and tau at zero
speed), with the Dirichlet data in the right-hand side.  That system is the
same for every mu of a material or amplitude parameter, and SystemPattern
keeps its factor, keyed by the per-element eta and tau at rest and rho: the
cold solves on one pattern factor it once, each then starting with a refined
direct solve with it.  A pattern keeps no other factor, and releases this
one before any system on it is factored anew.  A cold solve's result depends
on its mu alone, not on what was solved before it or on which assembler ran
it.  A caller continuing over a sequence of mu (analysis.solve_chain) hands
each call the previous solution as x0 and one factor list for the whole
sequence; those results depend on the order of the mu at the picard_tol
level.

Nonlinear iteration: picard() is the one driver; solve_fom and
rom.solve_rom pass it a step, the linearized solve at a frozen iterate.  It
mixes the last MIXING_DEPTH (3) steps by type II Anderson acceleration, the
fixed-point form of GMRES on the linearized map (Walker & Ni 2011), which
raises the linear rate of a contractive Picard map (Pollock, Rebholz & Xiao
2019): on the coarse artery the FOM takes 12 iterations instead of 16 and
the ROM 8-9 instead of 14-15.  On the FOM side the mixed iterate is both the
linearization point and the start of the GMRES cycle.  Convergence is still
judged on the unmixed update of a step, and the step is what is returned;
MIXING_DEPTH = 0 is the plain Picard iteration, bit for bit.
"""

import logging
import math
import time
import weakref
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg import qr, solve_triangular
from scipy.linalg.lapack import dgels
from scipy.sparse.linalg import splu

from .constitutive import apply_parameters, field_values, shear_rate_squared, tau_scales
from .io import (ARTIFACT_KEYS, REQUIRED, ArtifactError, boolean, check_dtypes,
                 check_mesh_hash, count, list_of, number, optional, read_artifact,
                 read_section, text, write_artifact)
from .mesh import _det2, element_coordinates

logger = logging.getLogger(__name__)

LINEAR_RESIDUAL_TOL = 1e-10
KRYLOV_MAX_ITS = 20         # GMRES iterations on a lagged factor before refactoring
KRYLOV_RTOL = 1e-14         # true relative residual at which GMRES stops
DISSECTION_LEAF = 16        # nodes of a part that nested dissection leaves whole
MAP_CHUNK = 4096            # elements per piece of a SystemPattern map or a projection
MIXING_DEPTH = 3            # Anderson history pairs of the Picard driver; 0 is plain Picard
MIXING_RANK_TOL = 1e-12     # relative size of R's diagonal below which the history goes
CONFLICT_TOL = 1e-10


class SolverError(Exception):
    """Raised for singular systems, non-convergence, or non-finite data."""


# the live FomAssembler of each mesh, by id(mesh) (assembler_for); weak, so it
# keeps no assembler alive
_LIVE = weakref.WeakValueDictionary()


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
        if any(not 0 <= c < d for c in s.components):
            raise SolverError("tag %r constrains components %s of a %d-component "
                              "velocity" % (s.tag, list(s.components), d))
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


def lift_coefficients(groups, amplitudes, error):
    """The coefficient of each lifting group, as Python floats: 1 for
    ``fixed``, else its amplitude; error for a group without one."""
    try:
        return [1.0 if g == "fixed" else float(amplitudes[g]) for g in groups]
    except KeyError as exc:
        raise error("no amplitude for lifting group %r" % exc.args[0]) from None


def reweighted(liftings, amplitudes):
    """liftings with the coefficients that amplitudes give their groups."""
    coefs = lift_coefficients([lf.group for lf in liftings], amplitudes, SolverError)
    return [replace(lf, coefficient=c) for lf, c in zip(liftings, coefs)]


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
    # the first prescription of a (node, component) owns it: its group index
    # (-1: not prescribed yet) and value
    owner = np.full((mesh.n_nodes, d), -1)
    owner_val = np.zeros((mesh.n_nodes, d))
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
        gi = groups.index(s.group)
        for j, c in enumerate(s.components):
            # nodes are unique, so the prescriptions of one component meet only
            # earlier ones; the first conflict in node order is reported
            val, g0, v0 = vals[:, j], owner[nodes, c], owner_val[nodes, c]
            same = np.abs(v0 - val) > CONFLICT_TOL * np.maximum(1.0, np.abs(v0))
            other = (np.abs(v0) > CONFLICT_TOL) | (np.abs(val) > CONFLICT_TOL)
            bad = (g0 >= 0) & np.where(g0 == gi, same, other)
            if bad.any():
                k = int(bad.argmax())
                if g0[k] == gi:
                    raise SolverError(
                        "conflicting Dirichlet data at node %d component %d:"
                        " %g vs %g (tag %s)" % (nodes[k], c, v0[k], val[k], s.tag))
                raise SolverError(
                    "node %d component %d prescribed by groups %s and %s "
                    "with non-zero data; amplitudes cannot both hold"
                    % (nodes[k], c, groups[g0[k]], s.group))
            new = nodes[g0 < 0]
            owner[new, c] = gi
            owner_val[new, c] = vec[s.group][new, c] = val[g0 < 0]
    out = [LiftingFunction(group=g, vector=vec[g], coefficient=1.0) for g in groups]
    return reweighted(out or [LiftingFunction("fixed", np.zeros((mesh.n_nodes, d)), 1.0)],
                      amplitudes)


def combine_liftings(liftings, n_nodes, d):
    l_full = np.zeros((n_nodes, d))
    for lf in liftings:
        l_full += lf.coefficient * lf.vector
    return l_full


# ---------------------------------------------------------------------------
# vectorized assembly

class FomAssembler:
    """Element kernels of the space-time blocks, and what is built from them.

    The element blocks (mass, viscous, divergence, stab_pv, stab_pp) are
    dense per-element arrays of unit element weight.  SystemPattern sums
    them into the CSR pattern the Picard loop fills.  rom.project_offline
    forms the same products from the element geometry (V, gx, gt) and the
    basis rows instead, without any block.  The norm matrices (grad_gram,
    mass_pressure) are summed on the node adjacency.  No assembly sorts COO
    entries.  gx (E, D+1, d) and gt (E, D+1) are element-major, as the
    block kernels read each element's (D+1, d) entries together.
    element_fields instead runs along the elements: on first use it keeps
    a component-major copy of gx, (D+1, d, E), and a contiguous elems.T,
    so that each gather, product and node sum is one contiguous length-E
    vector operation.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        self.d = mesh.d
        self.D = mesh.dimension
        self.V, grads = mesh.all_element_geometry()
        self.gx = np.ascontiguousarray(grads[:, :, :self.d])
        self.gt = np.ascontiguousarray(grads[:, :, self.d])
        self.elems = mesh.elements
        # on length-E vectors: each node's coordinates gathered once, h_t the
        # span of their times and h_s the largest spatial side (|x_i - x_j|^2
        # summed per component), bit for bit the node-array maxima and sums;
        # G[a, b] the per-component sum of gx[a] gx[b], the einsum's values
        # but for the sign of exact zeros
        E, D1, d = len(self.elems), self.D + 1, self.d
        x = element_coordinates(mesh.nodes, self.elems)    # x[c, i]: component c of node i
        self.h_t = x[-1].max(axis=0) - x[-1].min(axis=0)
        side2, s, t = np.zeros(E), np.empty(E), np.empty(E)
        for i, j in zip(*np.triu_indices(D1, 1)):          # each node pair once
            np.square(np.subtract(x[0, i], x[0, j], out=s), out=s)
            for c in range(1, d):
                s += np.square(np.subtract(x[c, i], x[c, j], out=t), out=t)
            np.maximum(side2, s, out=side2)
        del x, s, t
        self.h_s = np.sqrt(side2, out=side2)
        self.tau_scales = tau_scales(self.h_t, self.h_s)
        self.G = np.empty((E, D1, D1))
        t = np.empty((E, D1))
        for a in range(D1):
            np.multiply(self.gx[:, a, None, 0], self.gx[:, :, 0], out=self.G[:, a])
            for c in range(1, d):
                self.G[:, a] += np.multiply(self.gx[:, a, None, c], self.gx[:, :, c], out=t)
        self._cache = {}
        self._pattern = None        # (key, SystemPattern) of the last system
        _LIVE[id(mesh)] = self

    def adjacency(self):
        """Node adjacency of the mesh as (start, nbr, rank), built on first use.

        nbr[start[a]:start[a+1]] lists the neighbours of node a in ascending
        order, a included, and rank[e, i, j] is the place of node j of element
        e in the list of its node i.
        """
        if "adjacency" not in self._cache:
            n, D1 = self.mesh.n_nodes, self.D + 1
            elems = self.elems.astype(np.int64)
            pair = (elems[:, :, None] * n + elems[:, None, :]).ravel()
            keys = np.sort(pair)
            keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
            node_a, nbr = np.divmod(keys, n)
            start = np.searchsorted(node_a, np.arange(n + 1))
            rank = np.searchsorted(keys, pair).reshape(-1, D1, D1) - start[elems][:, :, None]
            self._cache["adjacency"] = (start, nbr, rank.astype(np.int32))
        return self._cache["adjacency"]

    def _sum_pp(self, blk):
        """An (e, k, l) element block summed on the node adjacency pattern.

        Each element entry finds its slot by arithmetic on the adjacency, so
        the sum is one bincount, with no sort.
        """
        self._check_finite(blk)
        start, nbr, rank = self.adjacency()
        slot = start[self.elems][:, :, None] + rank
        data = np.bincount(slot.ravel(), np.broadcast_to(blk, slot.shape).ravel(),
                           minlength=nbr.size)
        n = self.mesh.n_nodes
        return sp.csr_matrix((data, nbr.astype(np.int32), start.astype(np.int32)),
                             shape=(n, n))

    def _check_finite(self, data):
        if np.isfinite(data.sum()):
            return
        bad = np.flatnonzero(~np.isfinite(data.reshape(data.shape[0], -1)).all(axis=1))
        if bad.size:
            raise SolverError("non-finite assembly data in element %d" % bad[0])

    # element blocks of unit element weight, which SystemPattern maps onto
    # its slots; rom.project_offline forms the same products from V, gx, gt
    # and the basis rows

    def mass(self):
        """(e, 1, b, 1): int psi_a d_t psi_b, the same for every a and component."""
        return ((self.V / (self.D + 1))[:, None, None] * self.gt[:, None, :])[..., None]

    def viscous(self, part=slice(None)):
        """(e, a, c, b, c2): int 2 eps(psi_a e_c) : eps(psi_b e_c2).

        Like stab_pv and stab_pp, it covers the elements in part (a slice,
        all by default).
        """
        V = self.V[part]
        gx = self.gx[part]
        blk = np.einsum("ead,ebc->eacbd", gx, gx)
        G = self.G[part]
        for c in range(self.d):
            blk[:, :, c, :, c] += G
        blk *= V[:, None, None, None, None]
        return blk

    def divergence(self):
        """(e, 1, b, c): int phi_k d_c psi_b, the same for every k."""
        return (self.V / (self.D + 1))[:, None, None, None] * self.gx[:, None, :, :]

    def stab_pv(self, part=slice(None)):
        """(e, k, b, c): -int d_c phi_k d_t psi_b."""
        return -np.einsum("e,ekc,eb->ekbc", self.V[part], self.gx[part], self.gt[part])

    def stab_pp(self, part=slice(None)):
        """(e, k, l): int grad phi_k . grad phi_l."""
        return self.V[part][:, None, None] * self.G[part]

    # norms on full nodal indices

    def grad_gram(self):
        """Spatial-gradient seminorm matrix on full velocity indices."""
        if "grad_gram" not in self._cache:
            lap = self._sum_pp(self.V[:, None, None] * self.G)
            self._cache["grad_gram"] = sp.kron(lap, sp.identity(self.d), format="csr")
        return self._cache["grad_gram"]

    def mass_pressure(self):
        """L2 mass matrix of the pressure space."""
        if "mass_pressure" not in self._cache:
            D1 = self.D + 1
            blk = (self.V / (D1 * (self.D + 2)))[:, None, None] \
                * (1.0 + np.eye(D1))[None, :, :]
            self._cache["mass_pressure"] = self._sum_pp(blk)
        return self._cache["mass_pressure"]

    def system_pattern(self, dof_map):
        """The SystemPattern of dof_map's system, with its pressure pins.

        It is built on first use and kept until a call with other
        constraints, so the Picard iterates of one solve, and the solves
        that follow on the same DOF map, share one pattern.
        """
        key = dof_map.constrained.tobytes()
        if self._pattern is None or self._pattern[0] != key:
            self._pattern = None    # release the old maps before the build
            self._pattern = (key, SystemPattern(self, dof_map))
        return self._pattern[1]

    def element_fields(self, u_full, params):
        """Per-element (shear rate, viscosity, tau) at a frozen velocity field."""
        # node by node, on length-E vectors: the gradient einsum("eac,eaj->ecj"),
        # the mean over the element's nodes and its squared norm, bit for bit
        if "fields" not in self._cache:
            self._cache["fields"] = (np.ascontiguousarray(self.elems.T),
                                     np.ascontiguousarray(self.gx.transpose(1, 2, 0)))
        elems_T, gx = self._cache["fields"]             # (D+1, E), (D+1, d, E)
        D1, d, E = gx.shape
        speed2, grad = np.zeros(E), np.empty((E, d, d))
        for c in range(d):
            u = np.take(u_full[:, c], elems_T)          # (D+1, E)
            t = u[0].copy()
            for a in range(1, D1):
                t += u[a]
            t /= D1
            speed2 += t * t
            for j in range(d):
                g = u[0] * gx[0, j]
                for a in range(1, D1):
                    g += u[a] * gx[a, j]
                grad[:, c, j] = g
        if d == 1:
            # for d = 1 the einsum's node axis is contiguous, which it sums in
            # an order of its own
            grad = np.einsum("eac,eaj->ecj", u_full[self.elems], self.gx)
        gd, eta, tau = field_values(shear_rate_squared(grad), speed2, self.tau_scales, params)
        bad = np.flatnonzero(~(np.isfinite(eta) & np.isfinite(tau)))
        if bad.size:
            raise SolverError("non-finite viscosity or tau in element %d" % bad[0])
        return gd, eta, tau

    def rest_fields(self, params):
        """Per-element (viscosity, tau) at rest (u = 0), from zero invariants."""
        zero = np.zeros(len(self.elems))
        _, eta, tau = field_values(zero, zero, self.tau_scales, params)
        return eta, tau

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
        """int_{P_N} psi_i . h for a constant traction h (d finite entries)
        per tag of the mesh: each facet gives its nodes |facet| / D, |facet|
        the norm of its edges' cross product (D = 2: its edge) over (D-1)!."""
        mesh, D = self.mesh, self.D
        F = np.zeros((self.d, mesh.n_nodes))
        for tag, h in neumann_data.items():
            h = np.asarray(h, dtype=np.float64)
            if h.shape != (self.d,):
                raise SolverError("traction on %r has shape %s, not (%d,)" % (tag, h.shape, self.d))
            if not np.all(np.isfinite(h)):
                raise SolverError("traction on %r is not finite: %s" % (tag, h))
            facets = mesh.facets[mesh.facet_tags == tag]
            if not facets.size:
                raise SolverError("traction on %r, a tag the mesh does not carry" % (tag,))
            x = element_coordinates(mesh.nodes, facets)    # x[c, i]: component c of node i
            x[:, 1:] -= x[:, :1]
            normal = x[:, 1] if D == 2 else [_det2(x[k, 1], x[k, 2], x[m, 1], x[m, 2])
                                             for k, m in ((1, 2), (2, 0), (0, 1))]
            w = np.repeat(np.sqrt(sum(np.square(c) for c in normal)) / math.factorial(D - 1) / D, D)
            for c in range(self.d):
                F[c] += np.bincount(facets.ravel(), weights=w * h[c], minlength=mesh.n_nodes)
        return F.T.ravel()


# ---------------------------------------------------------------------------
# system assembly and solve

def _indptr(rows, n):
    return np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))]).astype(np.int32)


def nested_dissection(coords, start, nbr):
    """Fill-reducing order of the nodes of a mesh graph (George 1973).

    coords are the node coordinates and (start, nbr) the node adjacency
    (FomAssembler.adjacency).  Each part of more than DISSECTION_LEAF nodes is
    split at the median of its longest axis, every axis measured in units of
    its median edge length.  The nodes of one half that touch the other half
    form its separator, taken from whichever half gives the smaller one.  A
    part is ordered lower half, upper half, separator.  All parts of one
    level are split at once: a node's key gains one base-3 digit per level,
    and the order is the stable sort of the keys.
    """
    n, dim = coords.shape
    a = np.repeat(np.arange(n), np.diff(start))
    edge = a != nbr
    a, b = a[edge], nbr[edge]
    ext = np.abs(coords[a] - coords[b])
    unit = [np.median(e[e > 0]) if np.any(e > 0) else 1.0 for e in ext.T]
    x = coords / unit
    key = np.zeros(n, dtype=np.int64)
    live = np.ones(n, dtype=bool)
    while live.any():
        key *= 3
        nodes = np.flatnonzero(live)
        _, part, size = np.unique(key[nodes], return_inverse=True, return_counts=True)
        big = size[part] > DISSECTION_LEAF
        live[nodes[~big]] = False               # a leaf keeps its node order
        nodes, part = nodes[big], part[big]
        lo = np.full((size.size, dim), np.inf)
        hi = np.full((size.size, dim), -np.inf)
        np.minimum.at(lo, part, x[nodes])
        np.maximum.at(hi, part, x[nodes])
        axis = np.argmax(hi - lo, axis=1)
        o = np.lexsort((x[nodes, axis[part]], part))
        nodes, part = nodes[o], part[o]
        rank = np.arange(nodes.size) - np.searchsorted(part, part)
        key[nodes] += rank >= size[part] // 2  # digit 1: upper half
        keep = live[a] & live[b]
        a, b = a[keep], b[keep]
        cut = (key[a] // 3 == key[b] // 3) & (key[a] < key[b])
        low, up = np.unique(a[cut]), np.unique(b[cut])
        pid = np.zeros(n, dtype=np.int64)
        pid[nodes] = part
        use_low = np.bincount(pid[low], minlength=size.size) \
            <= np.bincount(pid[up], minlength=size.size)
        sep = np.concatenate([low[use_low[pid[low]]], up[~use_low[pid[up]]]])
        key[sep] += 2 - key[sep] % 3            # digit 2: separator, placed
        live[sep] = False
    return np.argsort(key, kind="stable")


class SystemPattern:
    """Fixed CSR pattern of the pinned, free-restricted monolithic system.

    Rows and columns follow the unknowns x = [free velocity, all pressure].
    Slots [0, nnz) are the entries of the system matrix; the slots after
    them are the entries of its rows in constrained velocity columns, which
    carry the lifting into the load.  Every slot value is affine in the
    element weights of one Picard iterate,

        base @ [rho, 1] + W_eta @ eta + W_tau @ tau + W_pp @ (tau / rho),

    where the columns of base are the time-derivative block per unit density
    and the constant entries (+-B and the unit diagonals of pinned pressure
    rows), and the weights W map the viscous, the tau-weighted coupling and
    the pressure blocks of unit element weight onto the slots.  pins holds
    the pinned pressure nodes (pressure_pins), decided with the pattern.
    rest holds the factor of the system at rest (rest_solve), the one factor
    a pattern keeps.

    The build never forms the dof-level COO: the node adjacency
    (FomAssembler.adjacency) gives the unrestricted layout, in which every
    row of node a holds the velocity columns (b, 0..d-1) and then the
    pressure columns b of its neighbours b, and each element entry finds its
    slot by arithmetic on that layout.
    """

    def __init__(self, asm, dof_map):
        self.pins = pins = pressure_pins(asm.mesh, dof_map)
        n, d = asm.mesh.n_nodes, asm.d
        nvf = n * d
        n_el, D1 = asm.elems.shape
        elems = asm.elems.astype(np.int64)
        comp = np.arange(d)

        nbr_start, node_b, k = asm.adjacency()
        deg = np.diff(nbr_start)
        node_a = np.repeat(np.arange(n), deg)
        rank = np.arange(node_b.size) - nbr_start[node_a]

        # unrestricted layout over full indices (velocity node-major, then
        # pressure), and the row and column of each of its slots
        row_node = np.concatenate([np.repeat(np.arange(n), d), np.arange(n)])
        row_len = (d + 1) * deg[row_node]
        row_start = np.concatenate([[0], np.cumsum(row_len)]).astype(np.int32)
        node_start = np.concatenate([[0], np.cumsum((d + 1) * deg)])
        node_cols = np.empty(node_start[-1], dtype=np.int32)
        node_cols[(node_start[node_a] + d * rank)[:, None] + comp] = \
            d * node_b[:, None] + comp
        node_cols[node_start[node_a] + d * deg[node_a] + rank] = nvf + node_b
        # temporaries go as soon as they are used: the heap keeps the build's
        # high-water mark resident, beneath the factor of the first system
        del node_a, node_b
        row = np.repeat(np.arange(row_node.size, dtype=np.int32), row_len)
        col = node_cols[np.repeat(node_start[row_node] - row_start[:-1], row_len)
                        + np.arange(row_start[-1])]
        del node_cols

        # restriction: free velocity and unpinned pressure rows; the matrix
        # keeps free velocity and pressure columns, the lift the others
        free = np.concatenate([~dof_map.constrained.ravel(), np.ones(n, dtype=bool)])
        pinned = np.zeros(nvf + n, dtype=bool)
        pinned[nvf + pins] = True
        pin_diag = pinned[row] & (col == row)
        in_matrix = (free & ~pinned)[row] & free[col] | pin_diag
        in_lift = (free & ~pinned)[row] & ~free[col]
        self.nnz = int(np.count_nonzero(in_matrix))
        n_slots = self.nnz + int(np.count_nonzero(in_lift))
        # slot + 1 of each full entry, 0 where it is dropped
        slot = np.zeros(row.size, dtype=np.int32)
        slot[in_matrix] = np.arange(1, self.nnz + 1)
        slot[in_lift] = np.arange(self.nnz + 1, n_slots + 1)
        x_index = np.concatenate([dof_map.vdof.ravel(),
                                  dof_map.n_velocity + np.arange(n)]).astype(np.int32)
        # the DOFs of each node, velocity components (-1 where constrained)
        # then pressure, for the factor order built on first use
        self._node_dofs = np.column_stack([dof_map.vdof, dof_map.n_velocity + np.arange(n)])
        self._order = None
        self.rest = None            # (key, factor) of the system at rest
        n_total = dof_map.n_total
        self.shape = (n_total, n_total)
        self.indices = x_index[col[in_matrix]]
        self.indptr = _indptr(x_index[row[in_matrix]], n_total)
        self.lift_shape = (n_total, nvf)
        self.lift_indices = col[in_lift]
        self.lift_indptr = _indptr(x_index[row[in_lift]], n_total)
        pin_slots = slot[pin_diag] - 1
        slot[pin_diag] = 0          # a pinned row takes no element entries
        del row, col, in_matrix, in_lift, pin_diag

        # slot of each element entry: the start of its row plus the offset of
        # its column in that row; k[e, i, j] ranks node j among i's neighbours
        v_off = d * k                                   # velocity columns (b, .)
        p_off = (d * deg[elems])[:, :, None].astype(np.int32) + k   # pressure b
        v_row = row_start[d * elems[:, :, None] + comp]   # (e, a, c)
        p_row = row_start[nvf + elems]                    # (e, k)
        comp = comp.astype(np.int32)
        del row_start
        # the slots of the entries of the elements in part, per layout
        entry = {
            "vv_diag": lambda e: v_row[e][:, :, None, :] + v_off[e][..., None] + comp,
            "vv_full": lambda e: (v_row[e][..., None, None] + v_off[e][:, :, None, :, None]
                                  + comp),
            "pv": lambda e: p_row[e][:, :, None, None] + v_off[e][..., None] + comp,
            "vp": lambda e: v_row[e][:, None, :, :] + p_off[e].transpose(0, 2, 1)[..., None],
            "pp": lambda e: p_row[e][:, :, None] + p_off[e],
        }

        def summed(layout, blk):
            # unit-weight sum of a constant element block into the slots
            s = slot[entry[layout](slice(None))]
            vals = np.broadcast_to(blk, s.shape).ravel()
            return np.bincount(s.ravel(), vals, minlength=n_slots + 1)[1:]

        def element_map(layout, block):
            # (n_slots, E) CSC map of the unit-weight element block onto the
            # slots, built MAP_CHUNK elements at a time so that the element
            # block, its slots and their mask stay small; its entries are
            # element-major already, so no sort is needed
            data, rows, counts = [], [], []
            for lo in range(0, n_el, MAP_CHUNK):
                part = slice(lo, min(lo + MAP_CHUNK, n_el))
                s = slot[entry[layout](part)].reshape(part.stop - lo, -1)
                keep = s > 0
                counts.append(keep.sum(axis=1))
                data.append(block(part).reshape(s.shape)[keep])
                rows.append(s[keep])
                rows[-1] -= 1
            indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
            return sp.csc_matrix((np.concatenate(data), np.concatenate(rows), indptr),
                                 shape=(n_slots, n_el))

        div = asm.divergence()
        const = summed("pv", div)
        const -= summed("vp", div)
        const[pin_slots] = 1.0
        self.base = sp.csc_matrix(np.column_stack([summed("vv_diag", asm.mass()),
                                                   const]))
        del const
        self.weights = (element_map("vv_full", asm.viscous),
                        element_map("pv", asm.stab_pv),
                        element_map("pp", asm.stab_pp))

    def fill(self, eta, tau, rho):
        """Slot values at per-element eta and tau and density rho."""
        w_eta, w_tau, w_pp = self.weights
        values = self.base @ np.array([rho, 1.0])
        values += w_eta @ eta
        values += w_tau @ tau
        values += w_pp @ (tau / rho)
        return values

    def order(self, asm):
        """Fill-reducing DOF order of the system, built on first use.

        The nodes of asm's mesh in nested-dissection order, each expanded
        into its free velocity DOFs followed by its pressure DOF.  asm is
        passed, not kept: an assembler holds its pattern, and a pattern that
        held its assembler would keep both alive until a cyclic collection.
        """
        if self._order is None:
            start, nbr, _ = asm.adjacency()
            dofs = self._node_dofs[nested_dissection(asm.mesh.nodes, start, nbr)].ravel()
            self._order = dofs[dofs >= 0]
        return self._order

    def rest_solve(self, K, rhs, key, factor, order):
        """direct_solve of the first system of a cold solve, the system at rest.

        key is what that system depends on, the per-element eta and tau at
        rest and rho; it is the same for every mu of a material or amplitude
        parameter.  The factor of K is kept with its key, so the cold solves
        on this pattern factor it once, and each is then a refined direct
        solve with it.  Only a diagonal-pivot factor is kept: it depends on K
        alone, while the fallback is chosen by the residual of one
        right-hand side.  factor (a one-item list holding None) holds the
        factor used on return, the lagged factor of the later steps.
        """
        if self.rest is not None and all(map(np.array_equal, self.rest[0], key)):
            x, rel = _refined(K, rhs, self.rest[1])
            if rel <= LINEAR_RESIDUAL_TOL:
                factor[0] = self.rest[1]
                return x, rel, False, 0, 0.0
        out = direct_solve(K, rhs, factor, order=order, pattern=self)
        if isinstance(factor[0], OrderedFactor):
            self.rest = (key, factor[0])
        return out

    def matrix(self, values):
        return sp.csr_matrix((values[:self.nnz], self.indices, self.indptr),
                             shape=self.shape)

    def lift_matrix(self, values):
        """Entries in constrained columns, on full velocity column indices."""
        return sp.csr_matrix((values[self.nnz:], self.lift_indices, self.lift_indptr),
                             shape=self.lift_shape)


@dataclass
class FomSystem:
    """One linearization: slot values on a shared pattern, and the load."""

    pattern: SystemPattern
    values: np.ndarray
    load: np.ndarray

    def matrix(self):
        return self.pattern.matrix(self.values)

    def rhs(self):
        return self.load


def fixed_load(asm, dof_map, problem, rho):
    """The iterate-independent load: body force and tractions on free rows."""
    f = asm.traction_rhs(problem.neumann or {})
    if problem.body_force is not None:
        f += asm.body_rhs(problem.body_force.vector(asm.d), rho)
    return np.concatenate([dof_map.restrict(f), np.zeros(dof_map.n_pressure)])


def assemble_fom(asm, pattern, u_iterate, params, lift, load):
    """One linearization of the space-time system at the iterate u_iterate.

    u_iterate is the full nodal velocity (previous iterate including lifts),
    or None for the state at rest (u = 0); viscosity and tau are evaluated
    from it per element, frozen and filled into the pattern.  lift is the
    flat full lifting vector, which enters the right-hand side through the
    entries in constrained columns, and load the fixed rest of it
    (fixed_load).
    """
    if u_iterate is None:
        eta, tau = asm.rest_fields(params)
    else:
        _, eta, tau = asm.element_fields(u_iterate, params)
    values = pattern.fill(eta, tau, params.rho)
    rhs = load - pattern.lift_matrix(values) @ lift
    if not np.all(np.isfinite(rhs)):
        raise SolverError("non-finite entries in the right-hand side")
    return FomSystem(pattern, values, rhs)


def pressure_pins(mesh, dof_map):
    """One pressure node per pressure null vector that is constant on each
    time level, to be pinned to zero: the first node of a level.

    A pressure constant on each level has no spatial gradient, so it reaches
    the equations only through the lateral boundary term of -B^T, and only
    in free lateral velocity rows (the others vanish identically).  Element
    e puts -V_e gx[e, a, c] / (D+1) in row (node a, component c) for each of
    its pressure nodes, so F = -B^T applied to each level's indicator is a
    bincount over (row, level of that node), the constant factor left out.
    Its columns are scaled by the sums of the absolute terms they add up, so
    a singular value of at most 1e-8 marks a null vector of F, as a level
    no row fixes (no free lateral component, or only tangential ones) or a
    mix of levels does.  A column-pivoted QR of the null basis picks one
    level per null vector.  The levels are the distinct node times.
    """
    V, grads = mesh.all_element_geometry()
    _, first, level = np.unique(mesh.nodes[:, -1], return_index=True, return_inverse=True)
    levels = first.size
    lateral = np.zeros((mesh.n_nodes, 1), dtype=bool)
    lateral[mesh.lateral_nodes()] = True
    rows = np.where(lateral, dof_map.vdof, -1)[mesh.elements]      # (E, D+1, d)
    e, a, c = np.nonzero(rows >= 0)
    lateral_rows, at = np.unique(rows[e, a, c], return_inverse=True)
    at = (at * levels + level[mesh.elements[e]].T).ravel()         # per pressure node
    w = np.tile(V[e] * grads[e, a, c], mesh.dimension + 1)
    F = np.bincount(at, w, minlength=lateral_rows.size * levels).reshape(-1, levels)
    size = np.bincount(at, np.abs(w), minlength=F.size).reshape(-1, levels).sum(axis=0)
    # with a zero block below, the right singular vectors span every level
    _, s, basis = np.linalg.svd(np.vstack([F / np.where(size > 0, size, 1.0),
                                           np.zeros((levels, levels))]), full_matrices=False)
    null = basis[np.count_nonzero(s > 1e-8):]
    return np.sort(first[qr(null, pivoting=True, mode="r")[1][:len(null)]])


def _relative_residual(K, rhs, x):
    norm_rhs = np.linalg.norm(rhs)
    return np.linalg.norm(rhs - K @ x) / norm_rhs if norm_rhs > 0 else 0.0


def gmres(K, rhs, psolve, x0):
    """One right-preconditioned GMRES cycle for K x = rhs; (x, iterations).

    The Krylov space is built on K M^-1 with M^-1 = psolve, so the Arnoldi
    estimate |g_k| is the true residual ||rhs - K x_k||, the quantity the
    residual contract tests (Saad & Schultz 1986).  Each iteration costs one
    psolve and one product with K.  The cycle stops once the estimate meets
    KRYLOV_RTOL ||rhs||, after KRYLOV_MAX_ITS iterations, or as soon as the
    mean rate so far cannot bring it under LINEAR_RESIDUAL_TOL ||rhs|| within
    KRYLOV_MAX_ITS, since such a result would be refused anyway.
    """
    m = KRYLOV_MAX_ITS
    x0 = np.zeros_like(rhs) if x0 is None else x0
    norm_b = np.linalg.norm(rhs)
    r = rhs - K @ x0
    beta = np.linalg.norm(r)
    if beta <= KRYLOV_RTOL * norm_b or not m:
        return x0, 0
    V = np.empty((m + 1, rhs.size))     # orthonormal basis of the Krylov space
    Z = np.empty((m, rhs.size))         # its preconditioned images
    R = np.zeros((m, m))                # the Hessenberg matrix, rotated
    rot = np.zeros((m, 2))              # Givens rotations (cos, sin)
    g = np.zeros(m + 1)                 # rotated beta e_1
    g[0] = beta
    V[0] = r / beta
    for k in range(m):
        Z[k] = psolve(V[k])
        w = K @ Z[k]
        h = np.zeros(k + 2)
        for _ in range(2):              # classical Gram-Schmidt, done twice
            c = V[:k + 1] @ w
            w -= c @ V[:k + 1]
            h[:k + 1] += c
        h[k + 1] = np.linalg.norm(w)
        for i in range(k):
            c, s = rot[i]
            h[i], h[i + 1] = c * h[i] + s * h[i + 1], c * h[i + 1] - s * h[i]
        rho = np.hypot(h[k], h[k + 1])
        rot[k] = h[k] / rho, h[k + 1] / rho
        R[:k, k] = h[:k]
        R[k, k] = rho
        g[k + 1] = -rot[k, 1] * g[k]
        g[k] *= rot[k, 0]
        its, res = k + 1, abs(g[k + 1])
        rate = (res / beta) ** (1.0 / its)
        if res <= KRYLOV_RTOL * norm_b or h[k + 1] == 0.0 \
                or res * rate ** (m - its) > LINEAR_RESIDUAL_TOL * norm_b:
            break
        V[k + 1] = w / h[k + 1]
    y = solve_triangular(R[:its, :its], g[:its])
    return x0 + y @ Z[:its], its


class OrderedFactor:
    """Sparse LU of K[order][:, order] that solves in K's own numbering."""

    def __init__(self, lu, order):
        self.lu = lu
        self.order = order
        self.shape = (order.size, order.size)
        self.inverse = np.empty_like(order)
        self.inverse[order] = np.arange(order.size)

    def solve(self, b):
        return self.lu.solve(b[self.order])[self.inverse]


def _refined(K, rhs, lu):
    """lu's solution of K x = rhs after two refinement steps, and its residual."""
    x = lu.solve(rhs)
    for _ in range(2):
        r = rhs - K @ x
        x = x + lu.solve(r)
    return x, _relative_residual(K, rhs, x)


def direct_solve(K, rhs, factor=None, x0=None, order=None, pattern=None):
    """Solve K x = rhs to the residual contract.

    factor is an optional one-item list holding the sparse LU of an earlier
    system with the same pattern, or None.  A held factor preconditions one
    GMRES cycle (gmres) started from x0, whose result is kept if its true
    relative residual meets LINEAR_RESIDUAL_TOL.  Otherwise the held factor
    is dropped, K is factored (sparse LU plus two refinement steps) and the
    new factor is stored in factor[0].

    order (None for the identity) is the DOF order of the factor.  SuperLU
    factors K[order][:, order] in symmetric mode, refining the order by
    minimum degree on K + K^T, with diagonal pivots wherever they are
    non-zero.  If that factor breaks down or misses the contract after
    refinement, K is factored with SuperLU's defaults (column ordering and
    partial pivoting) instead.  pattern, the SystemPattern of K if given,
    releases the factor it keeps (SystemPattern.rest) before K is factored,
    so that it never sits beside a second factor of its systems.

    Returns (x, rel, factorized, krylov_its, factor_s), where factor_s is
    the wall time of factorization and refinement.
    """
    factor = [None] if factor is None else factor
    its = 0
    if factor[0] is not None:
        x, its = gmres(K, rhs, factor[0].solve, x0)
        rel = _relative_residual(K, rhs, x)
        if np.isfinite(rel) and rel <= LINEAR_RESIDUAL_TOL:
            return x, rel, False, its, 0.0
        logger.debug("lagged factor missed the residual contract (%.3e after "
                     "%d GMRES iterations); refactoring", rel, its)
        factor[0] = None    # release the old factor before building the next
    if pattern is not None:
        pattern.rest = None
    t0 = time.perf_counter()
    order = np.arange(K.shape[0]) if order is None else order
    try:
        lu = OrderedFactor(splu(K[order][:, order].tocsc(), permc_spec="MMD_AT_PLUS_A",
                                diag_pivot_thresh=0.0,
                                options={"SymmetricMode": True}), order)
        x, rel = _refined(K, rhs, lu)
    except RuntimeError as err:
        logger.debug("diagonal-pivot factor broke down (%s)", err)
        lu, rel = None, np.inf
    if not rel <= LINEAR_RESIDUAL_TOL:
        logger.debug("diagonal-pivot factor gave residual %.3e; factoring with "
                     "partial pivoting", rel)
        lu = None           # release it before the fallback factor
        try:
            lu = splu(K.tocsc())
        except RuntimeError as err:
            raise SolverError("linear system is singular (%s); a fully Dirichlet "
                              "case may be missing its pressure constraint"
                              % err) from None
        x, rel = _refined(K, rhs, lu)
        if not rel <= LINEAR_RESIDUAL_TOL:
            raise SolverError("direct solve residual %.3e exceeds %.0e; system is "
                              "near-singular (missing pressure constraint?)"
                              % (rel, LINEAR_RESIDUAL_TOL))
    factor[0] = lu
    return x, rel, True, its, time.perf_counter() - t0


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
    """Anderson-mixed fixed-point iteration of both solvers; (g, records, converged).

    step(x) returns the step g = G(x) and the extra fields of its record.
    The iteration stops once ||f[skip:]|| / ||g[skip:]|| <= tol for the
    residual f = g - x, so pinned leading entries are not judged, and it
    returns that g: a converged result is always an unmixed step.  A stall
    after max_it steps raises error when strict, else it is logged on logger
    and the last step is returned.  A tol that is no float or int in (0, 1),
    NaN included, or a max_it that is no int of at least 1 (a bool is none)
    raises error before the first step.

    The next iterate is not g itself but the type II Anderson mixture
    x = g - gamma @ dG (Walker & Ni 2011), where the rows of dF and dG hold
    the differences of the last MIXING_DEPTH residuals f[skip:] and steps g,
    and gamma minimizes ||f[skip:] - gamma @ dF|| (LAPACK dgels).  The
    history is dropped when ||f[skip:]|| grows, and when the least-squares
    problem is rank-deficient (info > 0, or a diagonal entry of its R at most
    MIXING_RANK_TOL ||f[skip:]||) or gives a non-finite gamma; the next
    iterate is then g.  Entries on which every step agrees stay exact, since
    dG vanishes there.  Every judged entry must be fixed by the equations: a
    free pressure level would steer both the test and gamma by round-off,
    which is why pressure_pins pins such levels.  Each record's ``mixing`` is
    the number of history pairs that formed the iterate its step was
    evaluated at.  MIXING_DEPTH = 0 is the plain iteration x <- g.
    """
    # concrete types: an isinstance against the numbers ABCs costs 0.5 us a query
    if isinstance(max_it, bool) or not isinstance(max_it, (int, np.integer)) or max_it < 1:
        raise error("picard_max must be an integer of at least 1, got %r" % (max_it,))
    if not isinstance(tol, (float, int, np.floating)) or not 0.0 < tol < 1.0:  # NaN fails too
        raise error("picard_tol must lie in (0, 1), got %r" % (tol,))
    m = min(MIXING_DEPTH, x0.size - skip)
    dF = dG = None                      # residual and step differences, oldest overwritten
    pairs, filled = 0, 0                # history pairs stored, pairs in the iterate
    x, records, f_old, g_old, dx_old = x0, [], None, None, np.inf
    for it in range(1, max_it + 1):
        g, extra = step(x)
        gs = g[skip:]
        f = gs - x[skip:]
        dx = math.sqrt(f.dot(f))        # what np.linalg.norm computes, bit for bit
        nx = math.sqrt(gs.dot(gs))
        rel = dx / nx if nx > 0 else (0.0 if dx == 0.0 else np.inf)
        records.append({"iteration": it, "rel_update": float(rel), "mixing": filled, **extra})
        if rel <= tol:
            return g, records, True
        x, filled = g, 0
        if m:
            if dx > dx_old:
                pairs = 0               # the mixed step did not contract: restart
            elif f_old is not None:
                if dF is None:          # a one-step solve allocates no history
                    dF, dG = np.empty((m, gs.size)), np.empty((m, g.size))
                row = pairs % m
                np.subtract(f, f_old, out=dF[row])
                np.subtract(g, g_old, out=dG[row])
                pairs += 1
                k = min(pairs, m)
                qr, gamma, info = dgels(dF[:k].T, f)
                gamma = gamma[:k]
                if info or min(map(abs, qr.diagonal().tolist())) <= MIXING_RANK_TOL * dx \
                        or not math.isfinite(sum(gamma.tolist())):
                    pairs = 0
                else:
                    x, filled = g - gamma.dot(dG[:k]), k
            f_old, g_old, dx_old = f, g, dx
    msg = "%s stalled at rel update %.3e after %d iterations" % (what, rel, max_it)
    if strict:
        raise error(msg)
    logger.warning(msg)
    return g, records, False


def assembler_for(mesh, assembler, error):
    """assembler; if it is None, the live FomAssembler of the mesh object,
    or a new FomAssembler(mesh) if none lives.

    So a caller that holds an assembler shares its geometry, norm matrices,
    pattern and kept factor with every call given the same mesh.  An
    assembler built on another mesh, one of different content, raises
    error: its solution would carry mesh's hash while solving on its own.
    """
    if assembler is None:
        live = _LIVE.get(id(mesh))
        return live if live is not None and live.mesh is mesh else FomAssembler(mesh)
    if assembler.mesh is not mesh and assembler.mesh.content_hash() != mesh.content_hash():
        raise error("assembler was built on mesh %s, not on mesh %s"
                    % (assembler.mesh.content_hash(), mesh.content_hash()))
    return assembler


def _check_continuation(dof_map, x0, factor):
    """x0 as a fresh float64 start vector (zeros if None), after the checks."""
    if factor is not None and not (isinstance(factor, list) and len(factor) == 1):
        raise SolverError("factor must be a one-item list holding a factor or "
                          "None, got %s" % type(factor).__name__)
    n = dof_map.n_total
    if factor is not None and factor[0] is not None \
            and getattr(factor[0], "shape", None) != (n, n):
        raise SolverError("factor holds a factor of shape %s; the DOF map needs "
                          "(%d, %d)" % (getattr(factor[0], "shape", None), n, n))
    if x0 is None:
        return np.zeros(n)
    try:
        x = np.array(x0, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise SolverError("x0 is not a numeric vector (%s)" % exc) from None
    if x.shape != (n,):
        raise SolverError("x0 has shape %s; the DOF map needs (%d,), the free "
                          "velocity then every pressure" % (x.shape, n))
    if not np.all(np.isfinite(x)):
        raise SolverError("x0 has non-finite entries")
    return x


def solve_fom(mesh, problem, mu=None, picard_tol=1e-8, picard_max=50,
              assembler=None, dof_map=None, strict=True, x0=None, factor=None):
    """Picard iteration on the frozen-coefficient linear systems.

    Viscosity and tau are re-evaluated from the full velocity field of each
    (Anderson-mixed, see picard) iterate, until ||dx||/||x|| <= picard_tol.
    With strict=False a stalled iteration returns the last iterate flagged as
    not converged.  The pressure of a time level that no equation gauges is
    zero at the level's first node (pressure_pins).

    Cold start: without x0 the first step linearizes at rest (u = 0, so
    eta = eta_0 and tau at zero speed), with the Dirichlet data in the
    right-hand side, and solves with the factor its pattern keeps of that
    system (SystemPattern.rest_solve); the later steps take it as their
    lagged factor.  The result depends on (mesh, DOF map, problem, mu)
    alone, not on earlier calls or on which assembler ran them.

    Continuation: x0 is the first iterate, the free-DOF vector [v, p] of an
    earlier solution on the same DOF map (the Dirichlet values always come
    from this mu's liftings), and factor is a caller-owned one-item list
    (see direct_solve) whose factor preconditions the first system and which
    holds the last factor on return.  A cold call replaces the list's factor
    by the one of its first step.  Results started from x0 depend on it at
    the picard_tol level.
    """
    params, amps = problem.effective(mu)
    dof_map = dof_map if dof_map is not None else build_dof_map(mesh, problem.dirichlet)
    x_start = _check_continuation(dof_map, x0, factor)
    liftings = build_lifting(mesh, problem.dirichlet, amps)
    asm = assembler_for(mesh, assembler, SolverError)
    pattern = asm.system_pattern(dof_map)
    if pattern.pins.size:
        logger.info("pinning %d pressure nodes (no natural gauge)", pattern.pins.size)

    l_full = combine_liftings(liftings, mesh.n_nodes, asm.d)
    lift = l_full.ravel()
    load = fixed_load(asm, dof_map, problem, params.rho)
    n_v = dof_map.n_velocity
    factor = [None] if factor is None else factor   # the lagged LU
    # the key of the rest system while the first step of a cold solve is due
    rest = (*asm.rest_fields(params), params.rho) if x0 is None else None
    if rest is not None:
        factor[0] = None

    def step(x):
        nonlocal rest
        t0 = time.perf_counter()
        u = None if rest is not None else l_full + dof_map.expand(x[:n_v])
        sys = assemble_fom(asm, pattern, u, params, lift, load)
        K, rhs = sys.matrix(), sys.rhs()
        t1 = time.perf_counter()
        if rest is not None:
            key, rest = rest, None
            x_new, lin_res, factorized, its, factor_s = pattern.rest_solve(
                K, rhs, key, factor, pattern.order(asm))
        else:
            x_new, lin_res, factorized, its, factor_s = direct_solve(
                K, rhs, factor, x0=x, order=pattern.order(asm), pattern=pattern)
        return x_new, {"linear_residual": float(lin_res),
                       "factorized": factorized, "krylov_its": its,
                       "assemble_s": t1 - t0, "factor_s": factor_s,
                       "solve_s": time.perf_counter() - t1}

    x, log, converged = picard(step, x_start, picard_tol,
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
    asm = assembler_for(mesh, assembler, SolverError)
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
    write_artifact(path, "snapshot", header, {"v": solution.v, "p": solution.p}, _SNAPSHOT)


_SNAPSHOT = dict(ARTIFACT_KEYS, case_id=(text, ""), mesh_hash=(text, ""),
                 mu=(list_of(number), []), n_velocity=(count, REQUIRED),
                 n_pressure=(count, REQUIRED), converged=(boolean, True),
                 sample_index=(optional(count), None), wall_time_s=(optional(number), None))


def read_snapshot(path, mesh_hash=None):
    """(header, FieldSolution) of a snapshot file, its header read against
    _SNAPSHOT and its v and p of the sizes the header gives."""
    header, arrays = read_artifact(path, expect_kind="snapshot")
    header = read_section(header, _SNAPSHOT, "malformed snapshot %s" % path, ArtifactError)
    if mesh_hash is not None:
        check_mesh_hash(header, mesh_hash, path=str(path))
    for name, want in (("v", (header["n_velocity"],)), ("p", (header["n_pressure"],))):
        found = getattr(arrays.get(name), "shape", None)
        if found != want:
            raise ArtifactError("%s: malformed snapshot (%s has shape %s, the header gives %s)"
                                % (path, name, found, want))
    check_dtypes(path, arrays)
    return header, FieldSolution(v=arrays["v"], p=arrays["p"],
                                 mu=np.asarray(header["mu"], dtype=np.float64),
                                 converged=header["converged"], iterations=[],
                                 mesh_hash=header["mesh_hash"], case_id=header["case_id"])
