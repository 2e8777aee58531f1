"""Proper orthogonal decomposition via the method of snapshots.

Velocity modes are computed from homogeneous snapshots in the spatial-gradient
seminorm, pressure modes in L2, so truncating the spectrum controls exactly
the norms in which errors are reported.  Lifting vectors are kept as leading
basis columns and never orthogonalized away.
"""

import logging
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

RANK_CUTOFF = 1e-12
DEFAULT_ENERGY = 1.0 - 1e-8


class PodError(Exception):
    """Raised for empty or degenerate snapshot input and bad truncation."""


def _gram_dot(gram, X):
    return X if gram is None else gram @ X


def _reorthonormalize(modes, gram):
    """Modified Gram-Schmidt in the gram inner product, two passes.

    Eigenvector round-off in the method of snapshots leaves the trailing
    modes orthonormal only to O(eps * lambda_max / lambda_k); one explicit
    re-orthogonalization restores machine-level orthonormality.
    """
    for _ in range(2):
        for j in range(modes.shape[1]):
            col = modes[:, j]
            for i in range(j):
                col = col - (modes[:, i] @ _gram_dot(gram, col)) * modes[:, i]
            norm = np.sqrt(col @ _gram_dot(gram, col))
            if norm <= 0.0 or not np.isfinite(norm):
                raise PodError("mode %d collapsed during re-orthonormalization" % j)
            modes[:, j] = col / norm
    return modes


def _fix_signs(modes):
    for j in range(modes.shape[1]):
        k = np.argmax(np.abs(modes[:, j]))
        if modes[k, j] < 0.0:
            modes[:, j] = -modes[:, j]
    return modes


def compute_pod(snapshots, gram=None, energy_threshold=None, n_modes=None,
                rank_cutoff=RANK_CUTOFF):
    """Modes and normalized spectrum of a snapshot family.

    snapshots has one snapshot per row, (N, n_dofs); gram is the inner-product
    matrix (None = Euclidean).  Truncation keeps the smallest N whose retained
    energy reaches energy_threshold, or exactly n_modes, always capped by the
    numerical rank (eigenvalues above rank_cutoff * lambda_max).

    Returns (modes, spectrum): modes (n_dofs, N) orthonormal in gram, spectrum
    the full eigenvalue list normalized by its maximum, descending.
    """
    S = np.atleast_2d(np.asarray(snapshots, dtype=np.float64))
    if S.shape[0] == 0 or S.size == 0:
        raise PodError("empty snapshot set")
    if energy_threshold is not None and not (0.0 < energy_threshold <= 1.0):
        raise PodError("energy threshold must lie in (0, 1]")
    if energy_threshold is None and n_modes is None:
        energy_threshold = DEFAULT_ENERGY

    corr = S @ _gram_dot(gram, S.T)
    corr = 0.5 * (corr + corr.T)
    lam, W = np.linalg.eigh(corr)
    order = np.argsort(lam)[::-1]
    lam, W = lam[order], W[:, order]
    lam_max = lam[0]
    if not (lam_max > 0.0):
        raise PodError("snapshot set has zero energy in the chosen inner product")

    rank = int(np.sum(lam > rank_cutoff * lam_max))
    if n_modes is not None:
        keep = min(int(n_modes), rank)
    else:
        lam_pos = np.clip(lam, 0.0, None)
        energy = np.cumsum(lam_pos) / lam_pos.sum()
        keep = int(np.searchsorted(energy, energy_threshold - 1e-15) + 1)
        keep = min(keep, rank)
    keep = max(keep, 1)

    modes = S.T @ (W[:, :keep] / np.sqrt(lam[:keep]))
    modes = _fix_signs(_reorthonormalize(modes, gram))
    spectrum = np.clip(lam, 0.0, None) / lam_max
    logger.info("POD: %d snapshots, rank %d, kept %d modes", S.shape[0], rank, keep)
    return modes, spectrum


def project_coefficients(modes, gram, x):
    """Expansion coefficients of x on gram-orthonormal modes."""
    return modes.T @ _gram_dot(gram, x)


def projection_error(modes, gram, x):
    """gram-norm of the residual of x after projection onto the modes."""
    r = x - modes @ project_coefficients(modes, gram, x)
    return float(np.sqrt(r @ _gram_dot(gram, r)))


@dataclass
class ReducedBasis:
    """Velocity and pressure bases; lifting columns lead Z_v."""

    Z_v: np.ndarray             # (n_velocity_full, N_u)
    Z_p: np.ndarray             # (n_pressure, N_p)
    spectrum_v: np.ndarray
    spectrum_p: np.ndarray
    n_lifts: int
    mesh_hash: str = ""
    case_id: str = ""

    @property
    def n_u(self):
        return self.Z_v.shape[1]

    @property
    def n_p(self):
        return self.Z_p.shape[1]

    @property
    def n_velocity_modes(self):
        return self.n_u - self.n_lifts


def assemble_basis(velocity_modes, pressure_modes, liftings, gram_v=None,
                   spectrum_v=None, spectrum_p=None, mesh_hash="", case_id=""):
    """Stack lifting vectors ahead of the velocity modes.

    liftings are LiftingFunction records; their unit-amplitude vectors become
    the leading columns of Z_v regardless of linear dependence on the modes
    (the reduced system keeps them controllable through their own
    coefficients), but a poorly conditioned reduced gram is logged.
    """
    lift_cols = [lf.vector.ravel() for lf in liftings]
    Z_v = np.column_stack(lift_cols + [velocity_modes]) if lift_cols \
        else np.asarray(velocity_modes)
    basis = ReducedBasis(Z_v=Z_v, Z_p=np.asarray(pressure_modes),
                         spectrum_v=np.asarray([] if spectrum_v is None else spectrum_v),
                         spectrum_p=np.asarray([] if spectrum_p is None else spectrum_p),
                         n_lifts=len(lift_cols), mesh_hash=mesh_hash, case_id=case_id)
    if gram_v is not None and basis.n_u:
        red = Z_v.T @ (gram_v @ Z_v)
        cond = np.linalg.cond(red)
        logger.info("reduced velocity gram condition number %.3e", cond)
    return basis
