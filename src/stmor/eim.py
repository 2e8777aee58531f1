"""Greedy empirical interpolation of the elementwise nonlinear fields.

Viscosity and the stabilization parameter are constant per element for P1
velocities, so interpolating per-element values is lossless.  The greedy
produces basis fields h_q, magic elements m_q, and a unit-lower-triangular
interpolation matrix T with T[i, q] = h_q(m_i); the coefficients of a field
come from one forward substitution on its values at the magic elements.  A
stack of terms that is affine in the coefficients is affine in those values
too, through T^-T (fold), so a reduced model folded once offline never forms
the coefficients online.
"""

import logging
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtrtrs

logger = logging.getLogger(__name__)

FIELD_TAGS = ("eta", "tau")


class EimError(Exception):
    """Raised for degenerate sample sets or invalid interpolation input."""


@dataclass
class FieldSampleSet:
    """Per-element field values, one column per training snapshot."""

    tag: str
    values: np.ndarray          # (n_elements, N_train)

    def __post_init__(self):
        self.values = np.atleast_2d(np.asarray(self.values, dtype=np.float64))
        if self.tag not in FIELD_TAGS:
            raise EimError("unknown field tag %r" % self.tag)
        if not np.all(np.isfinite(self.values)):
            raise EimError("sample set contains non-finite values")


@dataclass
class EimApproximation:
    """Interpolation data of one field: basis, magic elements, T, history.

    A rom package stores its stacks folded (fold), so online solves need
    only magic and history: a package read from disk carries basis=None and
    T=None.
    """

    tag: str
    basis: np.ndarray           # (n_elements, Q), or None
    magic: np.ndarray           # (Q,) element ids
    T: np.ndarray               # (Q, Q) unit lower triangular, or None
    history: np.ndarray         # (Q+1,) greedy max errors, history[0] = 1
    mesh_hash: str = ""

    @property
    def n_terms(self):
        return self.magic.shape[0]

    def coefficients(self, values_at_magic):
        """Solve T c = field(magic); O(Q^2), independent of the mesh size.

        values_at_magic has shape (Q,), or (Q, k) for k fields at once.
        """
        values = np.asarray(values_at_magic, dtype=np.float64)
        if values.ndim not in (1, 2) or values.shape[0] != self.n_terms:
            raise EimError("expected %d magic-element values, got shape %s"
                           % (self.n_terms, values.shape))
        if self.n_terms == 0:
            return values[:0]
        # LAPACK directly: solve_triangular's checks cost several times a
        # Q ~ 10 solve.  T^T upper-transposed is the path solve_triangular
        # takes for a C-ordered T, so the result is bitwise the same.
        return dtrtrs(self.T.T, values, lower=0, trans=1, unitdiag=1)[0]

    def fold(self, stack):
        """T^-T along the leading axis of a (Q, ...) stack, so that
        coefficients(f) @ stack == f @ fold(stack)."""
        stack = np.asarray(stack, dtype=np.float64)
        if stack.shape[0] != self.n_terms:
            raise EimError("expected a stack of %d terms, got shape %s"
                           % (self.n_terms, stack.shape))
        if self.n_terms == 0:
            return stack.copy()
        flat = stack.reshape(self.n_terms, -1)
        return dtrtrs(self.T.T, flat, lower=0, trans=0, unitdiag=1)[0].reshape(stack.shape)

    def interpolate(self, values_at_magic):
        """Full per-element field from its magic-element values."""
        return self.basis @ self.coefficients(values_at_magic)


def eim_greedy(samples, tol, q_max):
    """Standard empirical-interpolation greedy over sample columns.

    Errors are max-norms divided by the largest column max-norm (so the
    zero-term error is exactly 1).  At each step the worst column (lowest
    index on ties) donates its residual, normalized at the residual's own
    argmax element.  Stops when the error drops to tol or q_max is reached.
    """
    if tol <= 0.0:
        raise EimError("tolerance must be positive")
    if q_max < 1:
        raise EimError("q_max must be at least 1")
    S = samples.values
    col_norms = np.abs(S).max(axis=0)
    denom = col_norms.max()
    if denom == 0.0:
        raise EimError("all sample columns are zero")

    n, _ = S.shape
    basis_cols, magic, history = [], [], []
    R = S.copy()
    for q in range(q_max + 1):
        errs = np.abs(R).max(axis=0)
        history.append(errs.max() / denom)
        if history[-1] <= tol or q == q_max:
            break
        j = int(np.argmax(errs))
        r = R[:, j]
        m = int(np.argmax(np.abs(r)))
        if r[m] == 0.0:
            break
        basis_cols.append(r / r[m])
        magic.append(m)
        # deflate every column by its interpolant update: after this step all
        # residuals vanish at the new magic element
        R = R - np.outer(basis_cols[-1], R[m, :])

    Q = len(basis_cols)
    basis = np.column_stack(basis_cols) if Q else np.zeros((n, 0))
    magic = np.asarray(magic, dtype=np.int64)
    T = np.zeros((Q, Q))
    for q in range(Q):
        T[q:, q] = basis[magic[q:], q]
    approx = EimApproximation(tag=samples.tag, basis=basis, magic=magic, T=T,
                              history=np.asarray(history))
    logger.info("EIM %s: %d terms, final training error %.3e",
                samples.tag, Q, approx.history[-1])
    return approx
