"""Reduced-order model: offline Galerkin projection and the online solve.

Offline, the full-order system is projected onto the reduced bases, term
by term of the elementwise interpolations of viscosity and tau, in which
it is affine: [rho, 1, c_eta (Q_eta terms), c_tau (Q_tau), c_tau / rho
(Q_tau)], c the interpolation coefficients.  Term q is projected element
by element, as reduced element contributions (ECSW; Farhat, Avery, Chapman
& Cortial, IJNME 98, 2014): P_q = sum_e b_q[e] Yte_e^T A_e Ytr_e, with A_e
the term's unit-weight element block (fom.FomAssembler), b_q 1 for the two
constant terms and an interpolation basis vector otherwise, Ytr_e the
element's rows of [Z_v, 0; 0, Z_p] and Yte_e those with the constrained
velocity rows zeroed.  Every A_e is a product of element gradients, so
no block is formed: P_q = sum_e w_q[e] X_e^T Y_e, summed over the rows of

    block           w_q         X_e                     Y_e
    A (viscous)     b_q V       strain(Yte_e)           strain(Ytr_e)
    C (stab_pv)     b_q V       grad phi                -d_t psi
    S (stab_pp)     b_q V       grad phi                grad phi
    E (mass)        V / (D+1)   node sum of Yte_e       d_t psi
    B (+B, -B^T)    V / (D+1)   node sum of phi         div psi

with V the element volumes, phi the element's rows of Z_p, psi those of
Ytr_e (of Yte_e for -B^T) and strain the d (d + 1) / 2 strain invariants of
a velocity gradient (invariant_map), whose products sum to 2 eps : eps.
One product of each element's geometry [gx | gt | 1] with its gathered
basis rows gives every gradient, time derivative and node sum, and each
group of slots is one product of its (Q, E) weights with the per-element
outer products X_e^T Y_e.  The lift vectors vanish on free rows, so the
lifting columns of Yte are zero: the lifts drop out of the operators and
reappear, through those of Ytr, as per-lift right-hand sides.  Slot q of
the stacks holds

    slot            K (Q, N, N), N = N_u + N_p     R (Q, n_lifts + 1, N)
    0               E                              H ; F_body
    1               [0, -B^T; B, 0] + I_lift       G + I_lift ; F_trac
    2 .. 1+Q_eta    A^q                            L^q
    next Q_tau      C^q                            D^q
    last Q_tau      S^q                            0

with Q = 2 + Q_eta + 2 Q_tau: K[q] is P_q without its lift columns, and
R[q, :n_lifts] = -(lift columns of P_q)^T.  The last row of R carries the
body-force and traction loads.

The coefficients c = T^-1 f are linear in the field values f at the magic
elements, so project_offline then folds T^-T of each field into its slots
(EimApproximation.fold; "cardinal" interpolation).  The stacks K and R, as
kept in memory and on disk, are affine in

    theta = [rho, 1, eta(magic_eta), tau(magic_tau), tau(magic_tau) / rho]

and their field slots hold the blocks above with T^-T applied along the
slot axis.  Online, a Picard iterate is two small products, one kernel
call, two theta contractions and one LAPACK solve.  Each field keeps one record
(MagicElementData): its magic elements, greedy history, their geometry and
the velocity-basis rows at their nodes.  The velocity gradients and mean
velocities at the magic elements are linear in v_N, so each RomPackage
derives from its two records, once, an operator strain_op from v_N to them
(strain_operator), and truncate slices it.  The squares of their image
under invariant_map sum to the squared shear rates and speeds, of which constitutive.field_values gives eta and tau.  Then K(v)
= theta @ K and rhs = [s, 1] @ (theta @ R), s the lift coefficients.

Density convention: E, H and F_body are stored per unit density (slot 0
carries rho), S per unit inverse density (its slots carry c_tau / rho),
so a parameter-dependent density stays affine.

Lifting coefficients are not solved for.  The lift rows of every
projected block are zero, so the identities I_lift in slot 1 make the
leading n_lifts rows of the system read x[:n_lifts] = s exactly, which
keeps the Dirichlet data exact for every truncation.

A Picard solve starts from a polynomial in mu fitted to the training
solutions (fit_start).  The package holds one such fit per truncation, each
to that truncation's own solutions, and truncate keeps the sub-package's.
"""

import itertools
import logging
import math
from dataclasses import asdict, dataclass, field, fields, replace
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dgesv

from .constitutive import (SPACE_KEYS, CarreauYasudaParams, ParameterError, ParameterSpace,
                           apply_parameters, field_values, space_from_dict,
                           space_to_dict, tau_scales)
from .fom import (MAP_CHUNK, assembler_for, build_dof_map, build_lifting,
                  lift_coefficients, picard)
from .io import (ARTIFACT_KEYS, REQUIRED, ArtifactError, check_dtypes, check_mesh_hash, count,
                 list_of, map_of, number, optional, read_artifact, read_section, section,
                 text, write_artifact)

logger = logging.getLogger(__name__)


class RomError(Exception):
    """Raised for mismatched reduction data or failing reduced solves."""


# ---------------------------------------------------------------------------
# online data carried by the package

@dataclass
class MagicElementData:
    """One interpolated field's online record: its magic elements, greedy
    history, their geometry and the velocity-basis rows at their nodes."""

    magic: np.ndarray           # (Q,) element ids
    history: np.ndarray         # (Q+1,) greedy max errors, history[0] = 1
    gx: np.ndarray              # (Q, D+1, d) spatial shape-function gradients
    h_t: np.ndarray             # (Q,) temporal extent
    h_s: np.ndarray             # (Q,) spatial diameter
    Z_rows: np.ndarray          # (Q, D+1, d, N_u) rows of Z_v at the element nodes

    def check(self, tag, d, n_u):
        """RomError unless magic holds element ids (int64, none negative) and
        the six arrays fit one Q, d and n_u.  Q is the median of the lengths
        they give, so the message names the one that differs."""
        shapes = [self.magic.shape, self.history.shape, self.gx.shape,
                  self.h_t.shape, self.h_s.shape, self.Z_rows.shape]
        lengths = [shape[0] if shape else -1 for shape in shapes]
        lengths[1] -= 1                     # the history holds Q + 1 entries
        q = sorted(lengths)[2]
        want = [(q,), (q + 1,), (q, d + 2, d), (q,), (q,), (q, d + 2, d, n_u)]
        if shapes != want:
            for name, got, exp in zip(("magic", "history", "gx", "h_t", "h_s", "Z_rows"),
                                      shapes, want):
                if got != exp:
                    raise RomError("dimension mismatch: %s%s has shape %s, expected %s"
                                   % (tag, name, got, exp))
        # the min of a list, not np.min: the ids are few, and a numpy
        # reduction's fixed cost of about 2 us would show in read_rom
        if self.magic.dtype != np.int64 or min(self.magic.tolist(), default=0) < 0:
            raise RomError("%smagic must hold element ids, int64 and none negative "
                           "(dtype %s)" % (tag, self.magic.dtype))


def strain_operator(data_eta, data_tau):
    """v_N to the velocity gradients and mean velocities at the Q_eta + Q_tau
    magic elements, eta first: ((Q_eta + Q_tau) d (d + 1), N_u)."""
    Z = np.concatenate([data_eta.Z_rows, data_tau.Z_rows])
    grad = np.einsum("eacn,eaj->ecjn", Z, np.concatenate([data_eta.gx, data_tau.gx]))
    m, d, _, n_u = grad.shape
    # the sum over the element's nodes over their count: Z.mean(axis=1), bit for bit
    return np.concatenate([grad.reshape(m, d * d, n_u), np.add.reduce(Z, 1) / Z.shape[1]],
                          axis=1).reshape(-1, n_u)


@lru_cache(maxsize=None)
def monomial_exponents(n_mu, degree):
    """(terms, n_mu) exponents of the monomials of degree <= degree, by degree."""
    E = np.array([np.bincount(c, minlength=n_mu) for k in range(degree + 1)
                  for c in itertools.combinations_with_replacement(range(n_mu), k)], float)
    E.flags.writeable = False
    return E


@lru_cache(maxsize=None)
def box_frame(lower=(), upper=()):
    """(centre, half-width) of a box's bounds, 1 on a degenerate axis."""
    lo, hi = np.asarray(lower, dtype=np.float64), np.asarray(upper, dtype=np.float64)
    return (lo + hi) / 2, np.where(hi > lo, (hi - lo) / 2, 1.0)


# ---------------------------------------------------------------------------
# the package

@dataclass
class RomPackage:
    """Everything an online solve needs; mesh access is not required.

    The operator is the pair of affine stacks K (Q, N, N) and R (Q,
    n_lifts + 1, N) over theta = [rho, 1, eta(magic_eta), tau(magic_tau),
    tau(magic_tau) / rho], Q = 2 + Q_eta + 2 Q_tau, N = N_u + N_p; the slot
    layout, the EIM fold and the density convention are given in the module
    docstring.  The leading n_lifts columns of every operator block are zero
    and the leading n_lifts rows of K and R pin the lift coefficients to the
    effective group amplitudes.  data_eta and data_tau are the fields'
    records.  Every construction, replace included, checks the shapes of all
    arrays and that amplitudes give each lift group its coefficient
    (fom.lift_coefficients), then derives strain_op = strain_operator(data_eta,
    data_tau), which is no argument.  A cut (truncate) is a shallow copy
    instead, with K, R, strain_op, start and the records' Z_rows sliced and
    all else shared, tau_scales and the box frame included: a cut of a valid
    package is valid, so nothing is checked or derived again.  start is a
    table of first iterates, one per cut:
    entry [i, j] holds the coefficients, over the monomials of t = (mu -
    centre) / half-width of degree <= start_degree, of the cut (n_lifts + i,
    j + 1)'s, zero in the columns that cut leaves out.  start_at evaluates
    entry [-1, -1], the package's own; truncate keeps the cut's.
    project_offline stores a zero table, fit_start fits it.
    """

    case_id: str
    mesh_hash: str
    d: int                      # spatial dimension
    n_nodes: int                # space-time nodes of the build mesh
    n_fom_dofs: int             # free velocity + pressure unknowns of the FOM
    lift_groups: tuple          # lifting group names, order = leading columns
    material: CarreauYasudaParams
    amplitudes: dict            # group name -> base amplitude
    space: ParameterSpace       # or None for a parameter-free package
    K: np.ndarray               # (Q, N, N) operator stack
    R: np.ndarray               # (Q, n_lifts + 1, N) load stack
    data_eta: MagicElementData
    data_tau: MagicElementData
    start: np.ndarray           # (N_u - n_lifts + 1, N_p, terms, N) per-cut first iterates
    basis: object = None        # optional ReducedBasis, never serialized
    start_degree: int = 0
    start_loo_error: float = None       # fit_start's; None if undefined
    strain_op: np.ndarray = field(init=False)   # ((Q_eta + Q_tau) d (d + 1), N_u)

    def __post_init__(self):
        # cached lookups only: read_rom constructs a package per call
        box = self.space and self.space.box
        self._frame = box_frame(tuple(box.lower), tuple(box.upper)) if box else box_frame()
        self._validate()
        self._exponents = monomial_exponents(len(self._frame[0]), self.start_degree)
        de, dt = self.data_eta, self.data_tau
        self.strain_op = strain_operator(de, dt)
        self.tau_scales = tau_scales(np.concatenate([de.h_t, dt.h_t]),
                                     np.concatenate([de.h_s, dt.h_s]))

    @property
    def n_u(self):
        return self.data_eta.Z_rows.shape[-1]

    @property
    def n_p(self):
        return self.n_reduced - self.n_u

    @property
    def n_lifts(self):
        return len(self.lift_groups)

    @property
    def q_eta(self):
        return self.data_eta.magic.shape[0]

    @property
    def q_tau(self):
        return self.data_tau.magic.shape[0]

    @property
    def n_reduced(self):
        return self.K.shape[-1]

    def _validate(self):
        # N_u and N from the last axes of Z_rows and K, 0 for a 0-d array
        n_u, n = (((0,) + a.shape)[-1] for a in (self.data_eta.Z_rows, self.K))
        nl, d, n_mu = self.n_lifts, self.d, len(self._frame[0])
        self.data_eta.check("eta ", d, n_u)
        self.data_tau.check("tau ", d, n_u)
        q = 2 + self.q_eta + 2 * self.q_tau
        rows = math.comb(n_mu + self.start_degree, n_mu) if self.start_degree >= 0 else -1
        for name, arr, want in (("K", self.K, (q, n, n)), ("R", self.R, (q, nl + 1, n)),
                                ("start", self.start, (n_u - nl + 1, n - n_u, rows, n))):
            # after K and R, so that a K of the wrong rank is named
            if name == "start" and not nl <= n_u <= n:
                raise RomError("dimension mismatch: %d lifting columns, N_u=%d, "
                               "N=%d" % (nl, n_u, n))
            if arr.shape != want:
                raise RomError("dimension mismatch: %s has shape %s, expected %s"
                               % (name, arr.shape, want))
        lift_coefficients(self.lift_groups, self.amplitudes, RomError)

    def start_at(self, mu):
        """The first iterate at mu before its lift entries are set."""
        t = ((() if self.space is None else mu) - self._frame[0]) / self._frame[1]
        return evaluate_fit(t, self._exponents, self.start[-1, -1])

    def effective(self, mu):
        """Material parameters and group amplitudes at the sample mu."""
        return apply_parameters(self.material, self.amplitudes, mu, self.space)


@dataclass
class ReducedSolution:
    """Reduced coefficients; the leading entries of v_N are the lift scalings."""

    v_N: np.ndarray
    p_N: np.ndarray
    mu: np.ndarray
    converged: bool
    iterations: list
    case_id: str = ""
    mesh_hash: str = ""


# ---------------------------------------------------------------------------
# offline projection

def project_offline(mesh, problem, basis, eim_eta, eim_tau,
                    dof_map=None, assembler=None):
    """Project the full-order system onto the basis, element by element.

    Each slot P_q of the module docstring is summed from the basis gradients
    of MAP_CHUNK elements at a time, so neither a system matrix nor an
    element block is formed and peak memory stays at one chunk of gathered
    basis rows and their gradients.  The basis must carry the problem's lifting
    vectors as leading columns; the projected operators then lose those
    columns exactly and the per-lift loads take over.
    """
    for approx, tag in ((eim_eta, "eta"), (eim_tau, "tau")):
        if approx is None or getattr(approx, "tag", None) != tag:
            raise RomError("missing elementwise interpolation for field %r" % tag)
    asm = assembler_for(mesh, assembler, RomError)
    dof_map = dof_map if dof_map is not None else build_dof_map(mesh, problem.dirichlet)
    mh = mesh.content_hash()
    for label, h in (("basis", basis.mesh_hash), ("eta interpolation", eim_eta.mesh_hash),
                     ("tau interpolation", eim_tau.mesh_hash)):
        if h and h != mh:
            raise RomError("%s was built on mesh %s, current mesh is %s"
                           % (label, h, mh))
    if basis.Z_v.shape[0] != mesh.n_nodes * mesh.d \
            or basis.Z_p.shape[0] != mesh.n_nodes:
        raise RomError("dimension mismatch: basis rows %s/%s do not fit the mesh"
                       % (basis.Z_v.shape[0], basis.Z_p.shape[0]))
    for approx in (eim_eta, eim_tau):
        if approx.basis.shape[0] != mesh.n_elements:
            raise RomError("dimension mismatch: %s interpolation holds %d element "
                           "values, mesh has %d" % (approx.tag,
                                                    approx.basis.shape[0],
                                                    mesh.n_elements))
        if np.any((approx.magic < 0) | (approx.magic >= mesh.n_elements)):
            raise RomError("%s interpolation has a magic element outside "
                           "[0, %d)" % (approx.tag, mesh.n_elements))

    liftings = build_lifting(mesh, problem.dirichlet, problem.amplitudes)
    if len(liftings) != basis.n_lifts:
        raise RomError("basis carries %d lifting columns, problem defines %d"
                       % (basis.n_lifts, len(liftings)))
    for j, lf in enumerate(liftings):
        vec = lf.vector.ravel()
        scale = max(1.0, float(np.max(np.abs(vec))) if vec.size else 0.0)
        if np.max(np.abs(basis.Z_v[:, j] - vec), initial=0.0) > 1e-12 * scale:
            raise RomError("leading basis column %d does not match lifting "
                           "group %r" % (j, lf.group))

    Z_v, Z_p = basis.Z_v, basis.Z_p
    nl, d, (n_el, d1) = basis.n_lifts, mesh.d, asm.elems.shape
    n_u, n_p = Z_v.shape[1], Z_p.shape[1]
    n, qe, qt = n_u + n_p, eim_eta.n_terms, eim_tau.n_terms
    v, p, a, c, s = (slice(0, n_u), slice(n_u, n), slice(2, 2 + qe),
                     slice(2 + qe, 2 + qe + qt), slice(2 + qe + qt, None))
    # node-major trial rows, and test rows with constrained velocities zeroed
    trial_v = Z_v.reshape(-1, d, n_u)
    test_v = np.where(dof_map.constrained[..., None], 0.0, trial_v)
    # each node's rows [trial (d, N_u), test (d, N_u), Z_p (N_p)], and each
    # element's geometry [gx | gt | 1]: the product of its transpose with the
    # rows of the element's nodes is the d spatial gradients, the time
    # derivative and the node sum of every row
    rows = np.hstack([trial_v.reshape(-1, d * n_u), test_v.reshape(-1, d * n_u), Z_p])
    ones = np.ones((min(MAP_CHUNK, n_el), d1, 1))
    strain = invariant_map(d)[:d * d, :d * (d + 1) // 2].T     # gradient -> strain invariants
    # the element weights of each group of slots: V / (D+1) for the time
    # derivative and divergence, b_q V for the slots of basis vector b_q
    mean_V = asm.V / d1
    eta_V, tau_V = (approx.basis * asm.V[:, None] for approx in (eim_eta, eim_tau))

    def outer(w, X, Y):
        # (q, i, j): sum_e w[e, q] X_e^T Y_e, for X (e, r, i) and Y (e, r, j)
        P = w.T @ (X.transpose(0, 2, 1) @ Y).reshape(len(X), -1)
        return P.reshape(-1, X.shape[2], Y.shape[2])

    K = np.zeros((2 + qe + 2 * qt, n, n))       # the slots P_q, lift columns included
    for lo in range(0, n_el, MAP_CHUNK):
        part = slice(lo, lo + MAP_CHUNK)
        nodes = asm.elems[part]
        e = len(nodes)
        geometry = np.concatenate([asm.gx[part], asm.gt[part, :, None], ones[:e]], axis=2)
        g = geometry.transpose(0, 2, 1) @ rows[nodes]                   # (e, d + 2, W)
        grad, dt, total = g[:, :d], g[:, d], g[:, d + 1]
        # the trial and test velocity gradients (e, d^2, N_u), entry j d + c the
        # d_j of component c, and their strain invariants, whose products sum
        # to 2 eps : eps (the invariants of a gradient and its transpose agree)
        grads = [grad[:, :, k * d * n_u:(k + 1) * d * n_u].reshape(e, d * d, n_u)
                 for k in (0, 1)]
        strain_trial, strain_test = (strain @ gv for gv in grads)
        div_trial, div_test = (sum(gv[:, None, i * (d + 1)] for i in range(d)) for gv in grads)
        dt_trial = dt[:, :d * n_u].reshape(e, d, n_u)
        sum_test = total[:, d * n_u:2 * d * n_u].reshape(e, d, n_u)
        grad_p, sum_p = grad[:, :, 2 * d * n_u:], total[:, None, 2 * d * n_u:]
        mean = mean_V[part, None]
        # the constant slots: the time derivative per unit density, +B and -B^T
        K[0, v, v] += outer(mean, sum_test, dt_trial)[0]
        K[1, p, v] += outer(mean, sum_p, div_trial)[0]
        K[1, v, p] -= outer(mean, div_test, sum_p)[0]
        # the weighted slots, one per interpolation basis vector b_q: viscous,
        # then stab_pv and stab_pp from one product with the pressure gradients
        K[a, v, v] += outer(eta_V[part], strain_test, strain_trial)
        tau = outer(tau_V[part], grad_p, np.concatenate([-dt_trial, grad_p], axis=2))
        K[c, p, v] += tau[:, :, :n_u]
        K[s, p, p] += tau[:, :, n_u:]
    # the operator applied to the lifts becomes the per-lift loads
    R = np.zeros((len(K), nl + 1, n))
    R[:, :nl] = -K[:, :, :nl].transpose(0, 2, 1)
    K[:, :, :nl] = 0.0
    K[1, range(nl), range(nl)] = R[1, range(nl), range(nl)] = 1.0

    test_rows = test_v.reshape(-1, n_u)
    if problem.body_force is not None:
        R[0, nl, :n_u] = asm.body_rhs(problem.body_force.vector(d), 1.0) @ test_rows
    R[1, nl, :n_u] = asm.traction_rhs(problem.neumann or {}) @ test_rows
    # from coefficients to magic-element values: T^-T on each field's slots
    for approx, slots in ((eim_eta, a), (eim_tau, c), (eim_tau, s)):
        for stack in (K, R):
            stack[slots] = approx.fold(stack[slots])
    # each field's record: its magic elements, their geometry and the
    # velocity-basis rows at their nodes
    data = {f.tag: MagicElementData(magic=f.magic, history=f.history, gx=asm.gx[f.magic],
                                    h_t=asm.h_t[f.magic], h_s=asm.h_s[f.magic],
                                    Z_rows=trial_v[asm.elems[f.magic]])
            for f in (eim_eta, eim_tau)}

    pkg = RomPackage(
        case_id=problem.name, mesh_hash=mh, d=mesh.d, n_nodes=mesh.n_nodes,
        n_fom_dofs=dof_map.n_total,
        lift_groups=tuple(lf.group for lf in liftings),
        material=problem.material, amplitudes=dict(problem.amplitudes),
        space=problem.space, K=K, R=R, data_eta=data["eta"], data_tau=data["tau"],
        start=np.zeros((n_u - nl + 1, n - n_u, 1, n)),
        basis=basis)
    logger.info("projected %s: N_u=%d N_p=%d (N=%d vs N^h=%d), Q_eta=%d Q_tau=%d",
                problem.name, pkg.n_u, pkg.n_p, pkg.n_reduced, pkg.n_fom_dofs,
                pkg.q_eta, pkg.q_tau)
    return pkg


def truncate(pkg, n_u, n_p):
    """Sub-package using the leading n_u velocity and n_p pressure columns, with
    the start table of the cuts it holds: a shallow copy of pkg (see RomPackage)."""
    if not pkg.n_lifts <= n_u <= pkg.n_u:
        raise RomError("n_u must lie in [%d, %d], got %d" % (pkg.n_lifts, pkg.n_u, n_u))
    if not 1 <= n_p <= pkg.n_p:
        raise RomError("n_p must lie in [1, %d], got %d" % (pkg.n_p, n_p))
    keep = np.array([*range(n_u), *range(pkg.n_u, pkg.n_u + n_p)])
    eta, tau = (MagicElementData(r.magic, r.history, r.gx, r.h_t, r.h_s, r.Z_rows[..., :n_u])
                for r in (pkg.data_eta, pkg.data_tau))
    cut = object.__new__(RomPackage)    # copy.copy(pkg) without its copyreg detour
    # K, R, strain_op and start as fresh C-ordered copies, as read_rom returns
    # them: the online products then take the same path, and give the same bits
    cut.__dict__.update(vars(pkg), data_eta=eta, data_tau=tau,
                        K=np.ascontiguousarray(pkg.K[:, keep[:, None], keep]),
                        R=pkg.R.take(keep, 2), strain_op=pkg.strain_op[:, :n_u].copy(),
                        start=pkg.start[:n_u - pkg.n_lifts + 1, :n_p].take(keep, 3),
                        basis=pkg.basis and replace(pkg.basis, Z_v=pkg.basis.Z_v[:, :n_u],
                                                    Z_p=pkg.basis.Z_p[:, :n_p]))
    return cut


# ---------------------------------------------------------------------------
# online assembly and solve

@lru_cache(maxsize=None)
def invariant_map(d):
    """Map of an element's d^2 gradient and d mean entries to w = [sqrt(2) g_ii,
    g_ij + g_ji (i < j), mean velocity], whose squares sum to 2 eps:eps before
    its last d entries and to the squared mean speed over them."""
    pairs = [(i, j) for i in range(d) for j in range(i, d)]
    M = np.zeros((d * d + d, len(pairs) + d))
    for col, (i, j) in enumerate(pairs):
        M[i * d + j, col] = M[j * d + i, col] = math.sqrt(2.0) if i == j else 1.0
    M[d * d:, len(pairs):] = np.eye(d)
    M.flags.writeable = False
    return M


def mu_terms(pkg, mu):
    """(params, s, R_mu, theta): material, lift coefficients, [s, 1] @ R at mu,
    and a buffer for theta holding its constant entries [rho, 1]."""
    params, amps = pkg.effective(mu)
    s1 = np.array(lift_coefficients(pkg.lift_groups, amps, RomError) + [1.0])
    theta = np.empty(len(pkg.K))
    theta[:2] = params.rho, 1.0
    return params, s1[:-1], s1 @ pkg.R, theta


def assemble_rom(pkg, v_iterate, terms):
    """Dense reduced system at the frozen velocity iterate.

    terms is mu_terms(pkg, mu), the part a Picard loop computes once per mu.
    Returns (K, rhs) of size N_u + N_p, whose leading n_lifts rows pin the
    lift coefficients to the effective amplitudes.  Cost is
    O((Q_eta + Q_tau) N^2); the iterate enters only through the strain at
    the magic elements.
    """
    v_it = np.asarray(v_iterate, dtype=np.float64)
    if v_it.shape != (pkg.n_u,):
        raise RomError("iterate has shape %s, expected (%d,)"
                       % (v_it.shape, pkg.n_u))
    params, _, R_mu, theta = terms

    d, qe = pkg.d, pkg.q_eta
    w = (pkg.strain_op @ v_it).reshape(-1, d * (d + 1)) @ invariant_map(d)
    w *= w
    _, eta, tau = field_values(np.add.reduce(w[:, :-d], 1), np.add.reduce(w[:, -d:], 1),
                               pkg.tau_scales, params)
    # theta = [rho, 1, eta(magic_eta), tau(magic_tau), tau(magic_tau) / rho]
    q_t = len(tau) - qe
    theta[2:2 + qe] = eta[:qe]
    theta[2 + qe:2 + qe + q_t] = tau[qe:]
    np.divide(tau[qe:], params.rho, out=theta[2 + qe + q_t:])

    q, n = pkg.K.shape[:2]
    K = (theta @ pkg.K.reshape(q, n * n)).reshape(n, n)
    return K, theta @ R_mu


def solve_rom(pkg, mu=None, picard_tol=1e-8, picard_max=50, strict=True):
    """Picard iteration on the reduced system with frozen field coefficients.

    The iteration is the Anderson-mixed fom.picard.  The initial iterate is
    the package's start at mu (see RomPackage) with the lift coefficients in
    its leading entries; the pinned lift entries are left out of the
    relative-update test.  Without mu a package with parameters solves at its
    base data, which may lie outside the fitted box, from the lifting alone.
    """
    return _solve(pkg, mu, picard_tol, picard_max, strict)


def _solve(pkg, mu, picard_tol, picard_max, strict):
    # solve_rom's body.  fit_start calls it directly: its solves are offline
    # work, and a wrapper of solve_rom (a tracer, a test) sees queries only.
    terms = mu_terms(pkg, mu)
    n_u, n_p, nl = pkg.n_u, pkg.n_p, pkg.n_lifts

    def step(x):
        K, rhs = assemble_rom(pkg, x[:n_u], terms)
        # LAPACK directly: np.linalg.solve's wrapper costs more than an
        # N ~ 10 solve
        x_new, info = dgesv(K, rhs)[2:]
        if info:
            raise RomError("reduced system is singular at N_u=%d, N_p=%d" % (n_u, n_p))
        if not np.isfinite(x_new).all():
            raise RomError("reduced solve returned non-finite values at N_u=%d, N_p=%d"
                           % (n_u, n_p))
        return x_new, {}

    x0 = np.zeros(pkg.n_reduced) if mu is None and pkg.space is not None else pkg.start_at(mu)
    x0[:nl] = terms[1]
    x, log, converged = picard(step, x0, picard_tol, picard_max, strict,
                               RomError, logger,
                               "reduced Picard (N_u=%d, N_p=%d)" % (n_u, n_p), skip=nl)
    logger.debug("solve_rom %s: %d iterations, rel update %.2e",
                 pkg.case_id, len(log), log[-1]["rel_update"])
    return ReducedSolution(v_N=x[:n_u], p_N=x[n_u:],
                           mu=np.asarray([] if mu is None else mu, dtype=np.float64),
                           converged=converged, iterations=log,
                           case_id=pkg.case_id, mesh_hash=pkg.mesh_hash)


def fit_monomials(T, X):
    """(loo, degree, C): the least-squares fit C of X (m, N) over the monomials
    of the points T (m, n_mu) of total degree <= degree, for the degree from 1
    on with fewer terms than points and the smallest finite leave-one-out error
    loo = max ||r_i / (1 - h_ii)|| / ||x_i|| (r the residuals, h the hat matrix's
    diagonal; inf for a rank-deficient design or 1 - h_ii <= 1e-8), else 1."""
    m, n = X.shape
    fits = []
    for degree in itertools.count(1):
        E = monomial_exponents(T.shape[1], degree)
        if degree > 1 and (len(E) >= m or not T.shape[1]):
            return min(fits, key=lambda fit: fit[0])
        A = (T[:, None] ** E).prod(-1)
        # pinv(A) [X, I]: the coefficients, and the hat matrix A pinv(A)
        P, _, rank, _ = np.linalg.lstsq(A, np.hstack((X, np.eye(m))), rcond=1e-10)
        lev = 1.0 - np.einsum("ij,ji->i", A, P[:, n:])
        res = np.linalg.norm(X - A @ P[:, :n], axis=1) / (np.linalg.norm(X, axis=1) + 1e-300)
        loo = max(r / h if h > 1e-8 else math.inf for r, h in zip(res, lev))
        fits.append((loo if rank == len(E) else math.inf, degree, P[:, :n]))


def evaluate_fit(t, exponents, C):
    """fit_monomials' fit C, over the monomials of exponents, at the box point t."""
    return np.dot(np.multiply.reduce(t ** exponents, -1), C)  # the cheapest calls


def fit_start(pkg, mus, picard_tol=1e-8, picard_max=50):
    """pkg with its start table fitted to its own converged solutions at mus:
    the full cut's entry by fit_monomials, every other cut's by least squares
    at that degree over the cut's solutions at the same mus, solved from the
    full fit's slice.  Unconverged solves, and mu None with parameters, are
    left out; a cut left with none keeps the slice, and with no full solve
    left pkg is returned as it is."""
    centre, half = pkg._frame
    reds = [_solve(pkg, mu, picard_tol, picard_max, strict=False)
            for mu in mus if mu is not None or not centre.size]
    reds = [red for red in reds if red.converged]
    if not reds:
        return pkg
    T = np.array([(red.mu[:centre.size] - centre) / half for red in reds])
    loo, degree, C = fit_monomials(T, np.array([np.concatenate((red.v_N, red.p_N))
                                                for red in reds]))
    nl, n_u = pkg.n_lifts, pkg.n_u
    table = np.zeros((n_u - nl + 1, pkg.n_p) + C.shape)
    table[-1, -1] = C
    pkg = replace(pkg, start=table, start_degree=degree,
                  start_loo_error=float(loo) if loo < math.inf else None)
    A = (T[:, None] ** monomial_exponents(centre.size, degree)).prod(-1)
    for i, j in list(np.ndindex(table.shape[:2]))[:-1]:
        keep = np.r_[:nl + i, n_u:n_u + j + 1]
        table[i, j][:, keep] = C[:, keep]       # the slice the cut's solves start from
        cut = truncate(pkg, nl + i, j + 1)
        subs = [_solve(cut, red.mu if centre.size else None, picard_tol, picard_max, False)
                for red in reds]
        ok = [sub.converged for sub in subs]
        if any(ok):
            X = np.array([np.concatenate((s.v_N, s.p_N)) for s in subs if s.converged])
            table[i, j][:, keep] = np.linalg.lstsq(A[ok], X, rcond=1e-10)[0]
    return pkg


# ---------------------------------------------------------------------------
# field reconstruction

def reconstruct(source, reduced):
    """Expand reduced coefficients to full nodal fields.

    source is a ReducedBasis, or a RomPackage that carries one (as built by
    project_offline, not as read from disk).  Returns the flat node-major
    velocity vector (Dirichlet values included via the lifting columns) and
    the pressure vector.
    """
    basis = source if hasattr(source, "Z_v") else getattr(source, "basis", None)
    if basis is None:
        raise RomError("reconstruction needs the reduced basis; a package "
                       "read from disk carries none, so pass the basis")
    v_N = np.asarray(reduced.v_N, dtype=np.float64)
    p_N = np.asarray(reduced.p_N, dtype=np.float64)
    if basis.Z_v.shape[1] != v_N.size or basis.Z_p.shape[1] != p_N.size:
        raise RomError("basis columns %d/%d do not match reduced coefficients "
                       "%d/%d" % (basis.Z_v.shape[1], basis.Z_p.shape[1],
                                  v_N.size, p_N.size))
    return basis.Z_v @ v_N, basis.Z_p @ p_N


# ---------------------------------------------------------------------------
# persistence and inspection

def rom_info(pkg):
    """Dimensions and build metadata of a package, JSON-ready."""
    info = {"case_id": pkg.case_id, "mesh_hash": pkg.mesh_hash,
            "n_u": pkg.n_u, "n_p": pkg.n_p, "n_reduced": pkg.n_reduced,
            "n_lifts": pkg.n_lifts, "lift_groups": list(pkg.lift_groups),
            "n_fom_dofs": pkg.n_fom_dofs,
            "reduction_factor": pkg.n_fom_dofs / max(pkg.n_reduced, 1),
            "q_eta": pkg.q_eta, "q_tau": pkg.q_tau,
            "eim_eta_final_error": float(pkg.data_eta.history[-1]),
            "eim_tau_final_error": float(pkg.data_tau.history[-1]),
            "spatial_dimension": pkg.d, "n_spacetime_nodes": pkg.n_nodes,
            "start_degree": pkg.start_degree, "start_loo_error": pkg.start_loo_error}
    if pkg.space is not None:
        info["parameters"] = space_to_dict(pkg.space)
    return info


def write_rom(path, pkg, extra_header=None):
    header = {"case_id": pkg.case_id, "mesh_hash": pkg.mesh_hash,
              "d": pkg.d, "n_nodes": pkg.n_nodes, "n_fom_dofs": pkg.n_fom_dofs,
              "n_u": pkg.n_u, "n_p": pkg.n_p,
              "lift_groups": list(pkg.lift_groups),
              "material": asdict(pkg.material),
              "amplitudes": {k: float(v) for k, v in pkg.amplitudes.items()},
              "space": space_to_dict(pkg.space), "start_degree": pkg.start_degree,
              "start_loo_error": pkg.start_loo_error}
    header.update(extra_header or {})
    arrays = {"K": pkg.K, "R": pkg.R, "start": pkg.start}
    for tag, data in (("eta", pkg.data_eta), ("tau", pkg.data_tau)):
        arrays[tag + "_magic"] = data.magic
        arrays[tag + "_history"] = data.history
        arrays[tag + "_gx"] = data.gx
        arrays[tag + "_ht"] = data.h_t
        arrays[tag + "_hs"] = data.h_s
        arrays[tag + "_Z"] = data.Z_rows
    write_artifact(path, "rom", header, arrays, _HEADER)


_HEADER = dict(ARTIFACT_KEYS, case_id=(text, ""), mesh_hash=(text, ""),
               lift_groups=(list_of(text), REQUIRED),
               material=(section({f.name: (number, REQUIRED)
                                  for f in fields(CarreauYasudaParams)}), REQUIRED),
               amplitudes=(map_of(number), REQUIRED), space=(optional(section(SPACE_KEYS)), None),
               start_loo_error=(optional(number), None), n_training=(optional(count), None),
               training_digest=(optional(text), None),
               **{key: (count, REQUIRED)
                  for key in ("d", "n_nodes", "n_fom_dofs", "n_u", "n_p", "start_degree")})
_ROM_ARRAYS = {"K", "R", "start"} | {tag + part for tag in ("eta", "tau") for part in
                                     ("_magic", "_history", "_gx", "_ht", "_hs", "_Z")}


def read_rom(path, mesh_hash=None):
    header, arrays = read_artifact(path, expect_kind="rom")
    axes = np.ndim(arrays.get("start"))
    if arrays.keys() != _ROM_ARRAYS or "start_degree" not in header or axes != 4:
        # an earlier layout (coefficient stacks with the EIM T, separate
        # blocks, a start affine in raw mu or one start for all cuts) holds
        # other arrays, no degree or a start of two axes
        missing = sorted(_ROM_ARRAYS - set(arrays) | {"start_degree"} - set(header))
        raise ArtifactError("%s: malformed rom package (arrays %s unexpected, %s "
                            "missing, start has %d of 4 axes); rebuild it with build-rom"
                            % (path, sorted(set(arrays) - _ROM_ARRAYS), missing, axes))
    check_dtypes(path, arrays, integer=("eta_magic", "tau_magic"))
    header = read_section(header, _HEADER, "malformed rom package %s" % path, ArtifactError)
    if mesh_hash is not None:
        check_mesh_hash(header, mesh_hash, path=str(path))
    try:
        data = {tag: MagicElementData(magic=arrays[tag + "_magic"],
                                      history=arrays[tag + "_history"],
                                      gx=arrays[tag + "_gx"], h_t=arrays[tag + "_ht"],
                                      h_s=arrays[tag + "_hs"], Z_rows=arrays[tag + "_Z"])
                for tag in ("eta", "tau")}
        pkg = RomPackage(
            case_id=header["case_id"], mesh_hash=header["mesh_hash"], d=header["d"],
            n_nodes=header["n_nodes"], n_fom_dofs=header["n_fom_dofs"],
            lift_groups=tuple(header["lift_groups"]),
            material=CarreauYasudaParams(**header["material"]),
            amplitudes=header["amplitudes"], space=space_from_dict(header["space"]),
            K=arrays["K"], R=arrays["R"], data_eta=data["eta"], data_tau=data["tau"],
            start=arrays["start"], start_degree=header["start_degree"],
            start_loo_error=header["start_loo_error"])
        if (header["n_u"], header["n_p"]) != (pkg.n_u, pkg.n_p):
            raise RomError("header gives N_u=%d, N_p=%d, the arrays %d and %d"
                           % (header["n_u"], header["n_p"], pkg.n_u, pkg.n_p))
    except (RomError, ParameterError, ValueError) as exc:
        raise ArtifactError("%s: malformed rom package (%s: %s)"
                            % (path, type(exc).__name__, exc)) from None
    return header, pkg
