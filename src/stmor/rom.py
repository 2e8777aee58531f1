"""Reduced-order model: offline Galerkin projection and the online solve.

Offline, every full-order block is projected onto the reduced bases,
term by term of the elementwise interpolations of viscosity and tau:

    E_N = Zh^T E Zh        A_N^q = Zh^T A^q Zh      B_N = Z_p^T B Zh
    C_N^q = Z_p^T C^q Zh   S_N^q = Z_p^T S^q Z_p

where Zh is the velocity basis with constrained rows zeroed, so the
leading lifting columns drop out of the operators and reappear as
per-lift right-hand sides (H, L^q from the time/viscous blocks, G, D^q
from the pressure rows).  Online, a dense (N_u + N_p) system is formed
in O(Q N^2) from the stored blocks; the velocity needed for the
interpolation coefficients is reconstructed at the magic elements only,
so no pass over the mesh remains.  Lifting coefficients are not solved
for: their rows are pinned to the prescribed amplitude scaling, which
keeps the Dirichlet data exact for every truncation.

Density scaling stays parameter-affine: E and H are stored per unit
density, S per unit inverse density, and the body-force vector per unit
density; the effective density multiplies them online.
"""

import logging
from dataclasses import asdict, dataclass, replace

import numpy as np

from .constitutive import (CarreauYasudaParams, ParameterError, ParameterSpace,
                           apply_parameters, field_values, space_from_dict,
                           space_to_dict)
from .eim import EimApproximation
from .fom import FomAssembler, build_dof_map, build_lifting, pressure_pins
from .io import ArtifactError, check_mesh_hash, read_artifact, write_artifact
from .pod import project_coefficients

logger = logging.getLogger(__name__)


class RomError(Exception):
    """Raised for mismatched reduction data or failing reduced solves."""


# ---------------------------------------------------------------------------
# online data carried by the package

@dataclass
class MagicElementData:
    """Geometry and restricted velocity-basis rows at one field's magic elements."""

    gx: np.ndarray              # (Q, D+1, d) spatial shape-function gradients
    h_t: np.ndarray             # (Q,) temporal extent
    h_s: np.ndarray             # (Q,) spatial diameter
    Z_rows: np.ndarray          # (Q, D+1, d, N_u) rows of Z_v at the element nodes

    def velocity(self, v_N):
        """Nodal velocities of the magic elements at reduced coefficients v_N."""
        return self.Z_rows @ np.asarray(v_N, dtype=np.float64)

    def truncated(self, n_u):
        return MagicElementData(gx=self.gx, h_t=self.h_t, h_s=self.h_s,
                                Z_rows=np.ascontiguousarray(self.Z_rows[..., :n_u]))


# ---------------------------------------------------------------------------
# the package

@dataclass
class RomPackage:
    """Everything an online solve needs; mesh access is not required.

    Scaling conventions: E, H, and F_body are stored per unit density and S
    per unit inverse density, so a parameter-dependent density stays affine.
    The leading n_lifts columns of every operator are zero; the lifting data
    enters through the per-lift right-hand sides scaled by the effective
    group amplitudes.
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
    E: np.ndarray               # (N_u, N_u) time-derivative mass / density
    A: np.ndarray               # (Q_eta, N_u, N_u) viscous stack
    B: np.ndarray               # (N_p, N_u) divergence
    C: np.ndarray               # (Q_tau, N_p, N_u) stabilization coupling
    S: np.ndarray               # (Q_tau, N_p, N_p) pressure stabilization * density
    H: np.ndarray               # (n_lifts, N_u) time-mass lift loads / density
    F_body: np.ndarray          # (N_u,) body-force load / density
    F_trac: np.ndarray          # (N_u,) traction load
    G: np.ndarray               # (n_lifts, N_p) divergence lift loads
    L: np.ndarray               # (Q_eta, n_lifts, N_u) viscous lift loads
    D: np.ndarray               # (Q_tau, n_lifts, N_p) stabilization lift loads
    eim_eta: EimApproximation   # basis=None once read from disk
    eim_tau: EimApproximation
    data_eta: MagicElementData
    data_tau: MagicElementData
    basis: object = None        # optional ReducedBasis, never serialized

    def __post_init__(self):
        self._validate()
        # the magic elements of both fields in one block, eta first, so an
        # iterate costs one velocity product and one kernel call
        de, dt = self.data_eta, self.data_tau
        self.data_all = MagicElementData(
            gx=np.concatenate([de.gx, dt.gx]), h_t=np.concatenate([de.h_t, dt.h_t]),
            h_s=np.concatenate([de.h_s, dt.h_s]),
            Z_rows=np.concatenate([de.Z_rows, dt.Z_rows]))

    @property
    def n_u(self):
        return self.E.shape[0]

    @property
    def n_p(self):
        return self.B.shape[0]

    @property
    def n_lifts(self):
        return len(self.lift_groups)

    @property
    def q_eta(self):
        return self.A.shape[0]

    @property
    def q_tau(self):
        return self.C.shape[0]

    @property
    def n_reduced(self):
        return self.n_u + self.n_p

    def _validate(self):
        n_u, n_p, nl = self.n_u, self.n_p, self.n_lifts
        qe, qt = self.q_eta, self.q_tau
        want = {"E": (n_u, n_u), "A": (qe, n_u, n_u), "B": (n_p, n_u),
                "C": (qt, n_p, n_u), "S": (qt, n_p, n_p), "H": (nl, n_u),
                "F_body": (n_u,), "F_trac": (n_u,), "G": (nl, n_p),
                "L": (qe, nl, n_u), "D": (qt, nl, n_p)}
        for name, shape in want.items():
            got = getattr(self, name).shape
            if got != shape:
                raise RomError("dimension mismatch: block %s has shape %s, "
                               "expected %s" % (name, got, shape))
        if nl > n_u:
            raise RomError("dimension mismatch: %d lifting columns exceed N_u=%d"
                           % (nl, n_u))
        if self.eim_eta.n_terms != qe or self.eim_tau.n_terms != qt:
            raise RomError("dimension mismatch: interpolation term counts %d/%d "
                           "do not match the operator stacks %d/%d"
                           % (self.eim_eta.n_terms, self.eim_tau.n_terms, qe, qt))
        for data, q in ((self.data_eta, qe), (self.data_tau, qt)):
            if data.Z_rows.shape[0] != q or data.Z_rows.shape[-1] != n_u \
                    or data.Z_rows.shape[:3] != data.gx.shape:
                raise RomError("dimension mismatch: magic-element data shape %s"
                               % (data.Z_rows.shape,))

    def effective(self, mu):
        """Material parameters and group amplitudes at the sample mu."""
        return apply_parameters(self.material, self.amplitudes, mu, self.space)

    def lift_coefficients(self, amps):
        out = np.empty(self.n_lifts)
        for j, g in enumerate(self.lift_groups):
            if g == "fixed":
                out[j] = 1.0
            elif g in amps:
                out[j] = float(amps[g])
            else:
                raise RomError("no amplitude for lifting group %r" % g)
        return out


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

def _zero_lift_columns(P, n_lifts):
    out = np.array(P)
    out[:, :n_lifts] = 0.0
    return out


def _magic_data(asm, Z_v, magic):
    """Assembler geometry and velocity-basis rows sliced at the magic elements."""
    Z_rows = Z_v.reshape(-1, asm.d, Z_v.shape[1])[asm.elems[magic]]
    return MagicElementData(gx=asm.gx[magic], h_t=asm.h_t[magic],
                            h_s=asm.h_s[magic], Z_rows=Z_rows)


def project_offline(mesh, problem, basis, eim_eta, eim_tau,
                    dof_map=None, assembler=None):
    """Project the full-order blocks onto the basis, one term at a time.

    Each per-term operator is assembled sparse, projected, and released, so
    peak memory stays at one full-order matrix.  The basis must carry the
    problem's lifting vectors as leading columns; the projected operators
    then lose those columns exactly and the per-lift loads take over.
    """
    for approx, tag in ((eim_eta, "eta"), (eim_tau, "tau")):
        if approx is None or getattr(approx, "tag", None) != tag:
            raise RomError("missing elementwise interpolation for field %r" % tag)
    asm = assembler if assembler is not None else FomAssembler(mesh)
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
    if pressure_pins(mesh, dof_map).size:
        raise RomError("case leaves no natural pressure gauge; the reduced "
                       "solver carries no pressure pinning")

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
    nl = basis.n_lifts
    Zh = np.array(Z_v)
    Zh[dof_map.constrained.ravel(), :] = 0.0

    # one sparse product per operator serves both the Galerkin block and the
    # per-lift loads: columns j < nl of Zh^T Op Z_v are Zh^T Op l_j
    P = Zh.T @ (asm.mass_time() @ Z_v)
    E_N, H_N = _zero_lift_columns(P, nl), -P[:, :nl].T
    P = Z_p.T @ (asm.divergence() @ Z_v)
    B_N, G_N = _zero_lift_columns(P, nl), -P[:, :nl].T

    qe, qt = eim_eta.n_terms, eim_tau.n_terms
    n_u, n_p = Z_v.shape[1], Z_p.shape[1]
    A_N = np.empty((qe, n_u, n_u))
    L_N = np.empty((qe, nl, n_u))
    for q in range(qe):
        P = Zh.T @ (asm.viscous(eim_eta.basis[:, q]) @ Z_v)
        A_N[q], L_N[q] = _zero_lift_columns(P, nl), -P[:, :nl].T
    C_N = np.empty((qt, n_p, n_u))
    D_N = np.empty((qt, nl, n_p))
    S_N = np.empty((qt, n_p, n_p))
    for q in range(qt):
        P = Z_p.T @ (asm.stab_pv(eim_tau.basis[:, q]) @ Z_v)
        C_N[q], D_N[q] = _zero_lift_columns(P, nl), -P[:, :nl].T
        S_N[q] = Z_p.T @ (asm.stab_pp(eim_tau.basis[:, q]) @ Z_p)

    fb = np.zeros(mesh.n_nodes * mesh.d)
    if problem.body_force is not None:
        fb = asm.body_rhs(problem.body_force.vector(mesh.d), 1.0)
    F_body = Zh.T @ fb
    F_trac = Zh.T @ asm.traction_rhs(problem.neumann or {})

    pkg = RomPackage(
        case_id=problem.name, mesh_hash=mh, d=mesh.d, n_nodes=mesh.n_nodes,
        n_fom_dofs=dof_map.n_total,
        lift_groups=tuple(lf.group for lf in liftings),
        material=problem.material, amplitudes=dict(problem.amplitudes),
        space=problem.space,
        E=E_N, A=A_N, B=B_N, C=C_N, S=S_N, H=H_N,
        F_body=F_body, F_trac=F_trac, G=G_N, L=L_N, D=D_N,
        eim_eta=eim_eta, eim_tau=eim_tau,
        data_eta=_magic_data(asm, Z_v, eim_eta.magic),
        data_tau=_magic_data(asm, Z_v, eim_tau.magic),
        basis=basis)
    logger.info("projected %s: N_u=%d N_p=%d (N=%d vs N^h=%d), Q_eta=%d Q_tau=%d",
                problem.name, pkg.n_u, pkg.n_p, pkg.n_reduced, pkg.n_fom_dofs,
                qe, qt)
    return pkg


def truncate(pkg, n_u, n_p):
    """Sub-package using the leading n_u velocity and n_p pressure columns."""
    if not pkg.n_lifts <= n_u <= pkg.n_u:
        raise RomError("n_u must lie in [%d, %d], got %d"
                       % (pkg.n_lifts, pkg.n_u, n_u))
    if not 1 <= n_p <= pkg.n_p:
        raise RomError("n_p must lie in [1, %d], got %d" % (pkg.n_p, n_p))
    basis = pkg.basis
    if basis is not None:
        basis = replace(basis, Z_v=np.ascontiguousarray(basis.Z_v[:, :n_u]),
                        Z_p=np.ascontiguousarray(basis.Z_p[:, :n_p]))
    c = np.ascontiguousarray
    return RomPackage(
        case_id=pkg.case_id, mesh_hash=pkg.mesh_hash, d=pkg.d,
        n_nodes=pkg.n_nodes, n_fom_dofs=pkg.n_fom_dofs,
        lift_groups=pkg.lift_groups, material=pkg.material,
        amplitudes=dict(pkg.amplitudes), space=pkg.space,
        E=c(pkg.E[:n_u, :n_u]), A=c(pkg.A[:, :n_u, :n_u]),
        B=c(pkg.B[:n_p, :n_u]), C=c(pkg.C[:, :n_p, :n_u]),
        S=c(pkg.S[:, :n_p, :n_p]), H=c(pkg.H[:, :n_u]),
        F_body=c(pkg.F_body[:n_u]), F_trac=c(pkg.F_trac[:n_u]),
        G=c(pkg.G[:, :n_p]), L=c(pkg.L[:, :, :n_u]), D=c(pkg.D[:, :, :n_p]),
        eim_eta=pkg.eim_eta, eim_tau=pkg.eim_tau,
        data_eta=pkg.data_eta.truncated(n_u),
        data_tau=pkg.data_tau.truncated(n_u),
        basis=basis)


# ---------------------------------------------------------------------------
# online assembly and solve

def assemble_rom(pkg, v_iterate, mu=None):
    """Dense reduced system at the frozen velocity iterate.

    Returns (K, rhs) of size N_u + N_p with the leading n_lifts rows pinned
    to the effective lift amplitudes.  Cost is O((Q_eta + Q_tau) N^2); the
    iterate enters only through the magic-element velocities.
    """
    v_it = np.asarray(v_iterate, dtype=np.float64)
    if v_it.shape != (pkg.n_u,):
        raise RomError("iterate has shape %s, expected (%d,)"
                       % (v_it.shape, pkg.n_u))
    params, amps = pkg.effective(mu)
    s = pkg.lift_coefficients(amps)
    rho = params.rho

    m, qe = pkg.data_all, pkg.q_eta
    _, eta, tau = field_values(m.gx, m.h_t, m.h_s, m.velocity(v_it), params)
    c_eta = pkg.eim_eta.coefficients(eta[:qe])
    c_tau = pkg.eim_tau.coefficients(tau[qe:])

    n_u, n_p, nl = pkg.n_u, pkg.n_p, pkg.n_lifts
    A = np.tensordot(c_eta, pkg.A, axes=1)
    C = np.tensordot(c_tau, pkg.C, axes=1)
    S = np.tensordot(c_tau, pkg.S, axes=1) / rho

    K = np.empty((n_u + n_p, n_u + n_p))
    K[:n_u, :n_u] = rho * pkg.E + A
    K[:n_u, n_u:] = -pkg.B.T
    K[n_u:, :n_u] = pkg.B + C
    K[n_u:, n_u:] = S

    rhs = np.empty(n_u + n_p)
    rhs[:n_u] = rho * (s @ pkg.H) + rho * pkg.F_body + pkg.F_trac \
        + s @ np.tensordot(c_eta, pkg.L, axes=1)
    rhs[n_u:] = s @ pkg.G + s @ np.tensordot(c_tau, pkg.D, axes=1)

    K[:nl, :] = 0.0
    K[np.arange(nl), np.arange(nl)] = 1.0
    rhs[:nl] = s
    return K, rhs


def solve_rom(pkg, mu=None, picard_tol=1e-8, picard_max=50, strict=True):
    """Picard iteration on the reduced system with frozen field coefficients.

    Mirrors the full-order loop: the initial iterate carries the lifting
    alone and convergence is judged on the relative update of the free
    coefficients (lift entries are pinned and excluded).
    """
    if picard_max < 1:
        raise RomError("picard_max must be at least 1")
    params, amps = pkg.effective(mu)
    s = pkg.lift_coefficients(amps)
    n_u, n_p, nl = pkg.n_u, pkg.n_p, pkg.n_lifts

    v_N = np.zeros(n_u)
    v_N[:nl] = s
    trail = np.zeros(n_u - nl + n_p)
    x = np.concatenate([v_N, np.zeros(n_p)])
    log = []
    converged = False
    for it in range(1, picard_max + 1):
        K, rhs = assemble_rom(pkg, v_N, mu)
        try:
            x = np.linalg.solve(K, rhs)
        except np.linalg.LinAlgError:
            raise RomError("reduced system is singular at N_u=%d, N_p=%d"
                           % (n_u, n_p)) from None
        if not np.all(np.isfinite(x)):
            raise RomError("reduced solve returned non-finite values at "
                           "N_u=%d, N_p=%d" % (n_u, n_p))
        new_trail = np.concatenate([x[nl:n_u], x[n_u:]])
        dx = np.linalg.norm(new_trail - trail)
        nx = np.linalg.norm(new_trail)
        rel = dx / nx if nx > 0 else (0.0 if dx == 0.0 else np.inf)
        log.append({"iteration": it, "rel_update": float(rel)})
        trail = new_trail
        v_N = x[:n_u]
        if rel <= picard_tol:
            converged = True
            break
    if not converged:
        msg = ("reduced Picard stalled at rel update %.3e after %d iterations "
               "(N_u=%d, N_p=%d)" % (log[-1]["rel_update"], len(log), n_u, n_p))
        if strict:
            raise RomError(msg)
        logger.warning(msg)
    logger.debug("solve_rom %s: %d iterations, rel update %.2e",
                 pkg.case_id, len(log), log[-1]["rel_update"])
    return ReducedSolution(v_N=x[:n_u], p_N=x[n_u:],
                           mu=np.asarray([] if mu is None else mu, dtype=np.float64),
                           converged=converged, iterations=log,
                           case_id=pkg.case_id, mesh_hash=pkg.mesh_hash)


# ---------------------------------------------------------------------------
# field reconstruction and snapshot projection

def reconstruct(source, reduced):
    """Expand reduced coefficients to full nodal fields.

    source is a ReducedBasis, or a RomPackage with one attached.  Returns
    the flat node-major velocity vector (Dirichlet values included via the
    lifting columns) and the pressure vector.
    """
    basis = source if hasattr(source, "Z_v") else getattr(source, "basis", None)
    if basis is None:
        raise RomError("reconstruction needs the reduced basis; attach it to "
                       "the package or pass it directly")
    v_N = np.asarray(reduced.v_N, dtype=np.float64)
    p_N = np.asarray(reduced.p_N, dtype=np.float64)
    if basis.Z_v.shape[1] != v_N.size or basis.Z_p.shape[1] != p_N.size:
        raise RomError("basis columns %d/%d do not match reduced coefficients "
                       "%d/%d" % (basis.Z_v.shape[1], basis.Z_p.shape[1],
                                  v_N.size, p_N.size))
    return basis.Z_v @ v_N, basis.Z_p @ p_N


def project_fields(basis, u_full, p_full, gram_v, gram_p, lift_coefficients):
    """Reduced coefficients of full fields: pinned lifts plus gram projections.

    The velocity modes (trailing columns of Z_v) must be gram_v-orthonormal,
    the pressure columns gram_p-orthonormal; the lifting contribution is
    removed before projecting.
    """
    s = np.asarray(lift_coefficients, dtype=np.float64)
    nl = basis.n_lifts
    if s.shape != (nl,):
        raise RomError("expected %d lift coefficients, got shape %s"
                       % (nl, s.shape))
    u_hom = np.asarray(u_full, dtype=np.float64).ravel() - basis.Z_v[:, :nl] @ s
    v_N = np.concatenate([
        s, project_coefficients(basis.Z_v[:, nl:], gram_v, u_hom)])
    p_N = project_coefficients(basis.Z_p, gram_p, np.asarray(p_full))
    return v_N, p_N


def attach_basis(pkg, basis):
    """Re-attach a (possibly wider) basis to a loaded or truncated package."""
    if basis.n_u < pkg.n_u or basis.n_p < pkg.n_p or basis.n_lifts != pkg.n_lifts:
        raise RomError("basis with N_u=%d N_p=%d lifts=%d cannot serve a "
                       "package with N_u=%d N_p=%d lifts=%d"
                       % (basis.n_u, basis.n_p, basis.n_lifts,
                          pkg.n_u, pkg.n_p, pkg.n_lifts))
    if basis.mesh_hash and pkg.mesh_hash and basis.mesh_hash != pkg.mesh_hash:
        raise RomError("basis was built on mesh %s, package on %s"
                       % (basis.mesh_hash, pkg.mesh_hash))
    if basis.n_u > pkg.n_u or basis.n_p > pkg.n_p:
        basis = replace(basis, Z_v=np.ascontiguousarray(basis.Z_v[:, :pkg.n_u]),
                        Z_p=np.ascontiguousarray(basis.Z_p[:, :pkg.n_p]))
    pkg.basis = basis
    return pkg


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
            "eim_eta_final_error": float(pkg.eim_eta.history[-1]),
            "eim_tau_final_error": float(pkg.eim_tau.history[-1]),
            "spatial_dimension": pkg.d, "n_spacetime_nodes": pkg.n_nodes}
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
              "space": space_to_dict(pkg.space)}
    header.update(extra_header or {})
    arrays = {"E": pkg.E, "A": pkg.A, "B": pkg.B, "C": pkg.C, "S": pkg.S,
              "H": pkg.H, "F_body": pkg.F_body, "F_trac": pkg.F_trac,
              "G": pkg.G, "L": pkg.L, "D": pkg.D}
    for tag, eim, data in (("eta", pkg.eim_eta, pkg.data_eta),
                           ("tau", pkg.eim_tau, pkg.data_tau)):
        arrays[tag + "_magic"] = eim.magic
        arrays[tag + "_T"] = eim.T
        arrays[tag + "_history"] = eim.history
        arrays[tag + "_gx"] = data.gx
        arrays[tag + "_ht"] = data.h_t
        arrays[tag + "_hs"] = data.h_s
        arrays[tag + "_Z"] = data.Z_rows
    write_artifact(path, "rom", header, arrays)


def read_rom(path, mesh_hash=None):
    header, arrays = read_artifact(path, expect_kind="rom")
    if mesh_hash is not None:
        check_mesh_hash(header, mesh_hash, path=str(path))
    try:
        eim, data = {}, {}
        for tag in ("eta", "tau"):
            eim[tag] = EimApproximation(
                tag=tag, basis=None, magic=arrays[tag + "_magic"].astype(np.int64),
                T=arrays[tag + "_T"], history=arrays[tag + "_history"])
            data[tag] = MagicElementData(gx=arrays[tag + "_gx"],
                                         h_t=arrays[tag + "_ht"],
                                         h_s=arrays[tag + "_hs"],
                                         Z_rows=arrays[tag + "_Z"])
        pkg = RomPackage(
            case_id=header.get("case_id", ""),
            mesh_hash=header.get("mesh_hash", ""),
            d=int(header["d"]), n_nodes=int(header["n_nodes"]),
            n_fom_dofs=int(header["n_fom_dofs"]),
            lift_groups=tuple(header["lift_groups"]),
            material=CarreauYasudaParams(**{k: float(v) for k, v
                                            in header["material"].items()}),
            amplitudes={k: float(v) for k, v in header["amplitudes"].items()},
            space=space_from_dict(header.get("space")),
            E=arrays["E"], A=arrays["A"], B=arrays["B"], C=arrays["C"],
            S=arrays["S"], H=arrays["H"], F_body=arrays["F_body"],
            F_trac=arrays["F_trac"], G=arrays["G"], L=arrays["L"], D=arrays["D"],
            eim_eta=eim["eta"], eim_tau=eim["tau"],
            data_eta=data["eta"], data_tau=data["tau"])
    except (KeyError, TypeError, ValueError, AttributeError,
            ParameterError) as exc:
        raise ArtifactError("%s: malformed rom package (%s: %s)"
                            % (path, type(exc).__name__, exc)) from None
    return header, pkg
