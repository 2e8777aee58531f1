"""Reduced-order model: offline Galerkin projection and the online solve.

Offline, the full-order system is projected onto the reduced bases, term
by term of the elementwise interpolations of viscosity and tau.  Its slot
values on the FOM's fixed pattern (fom.SystemPattern) are affine in

    [rho, 1, c_eta (Q_eta terms), c_tau (Q_tau), c_tau / rho (Q_tau)],

c the interpolation coefficients, and the fill column Theta_q of one
coefficient (a base column, or a weight map times one interpolation basis
vector) is projected as

    P_q = Y^T (Theta_q Y + Theta_q^lift [Z_v, 0]),   Y = blockdiag(Z_v|free, Z_p)

where Theta_q^lift holds the entries in constrained velocity columns.  The
lift vectors vanish on free rows, so the leading lifting columns of Y are
zero: the lifts drop out of the operators and reappear, through
Theta_q^lift, as per-lift right-hand sides.  Slot q of the two stacks holds

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
slot axis.  Online, a Picard iterate is one product, one kernel call, one
theta contraction and one LAPACK solve.  The velocity gradients and mean
velocities at the magic elements are linear in v_N, so each package
derives once, and never stores, an operator strain_op from v_N to them;
eta and tau there come from constitutive.field_values.  Then K(v) = theta @
K and rhs = [s, 1] @ (theta @ R), s the lift coefficients; no mesh pass
remains.

Density convention: E, H and F_body are stored per unit density (slot 0
carries rho), S per unit inverse density (its slots carry c_tau / rho),
so a parameter-dependent density stays affine.

Lifting coefficients are not solved for.  The lift rows of every
projected block are zero, so the identities I_lift in slot 1 make the
leading n_lifts rows of the system read x[:n_lifts] = s exactly, which
keeps the Dirichlet data exact for every truncation.
"""

import logging
from dataclasses import InitVar, asdict, dataclass, replace

import numpy as np
from scipy.linalg import block_diag
from scipy.linalg.lapack import dgesv

from .constitutive import (CarreauYasudaParams, ParameterError, ParameterSpace,
                           apply_parameters, field_values, space_from_dict,
                           space_to_dict, tau_scales)
from .eim import EimApproximation
from .fom import (FomAssembler, build_dof_map, build_lifting, picard,
                  pressure_pins)
from .io import ArtifactError, check_mesh_hash, read_artifact, write_artifact

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

    def truncated(self, n_u):
        return MagicElementData(gx=self.gx, h_t=self.h_t, h_s=self.h_s,
                                Z_rows=np.ascontiguousarray(self.Z_rows[..., :n_u]))


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
    effective group amplitudes.  Construction derives strain_op from the
    magic-element data; truncate slices that of its parent instead.
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
    eim_eta: EimApproximation   # basis=None, T=None once read from disk
    eim_tau: EimApproximation
    data_eta: MagicElementData
    data_tau: MagicElementData
    basis: object = None        # optional ReducedBasis, never serialized
    parent_strain_op: InitVar[np.ndarray] = None    # a parent's, sliced

    def __post_init__(self, parent_strain_op):
        self._validate()
        de, dt = self.data_eta, self.data_tau
        op = parent_strain_op
        if op is None:
            # v_N to the velocity gradients and mean velocities at the
            # Q_eta + Q_tau magic elements, eta first
            Z = np.concatenate([de.Z_rows, dt.Z_rows])
            grad = np.einsum("eacn,eaj->ecjn", Z, np.concatenate([de.gx, dt.gx]))
            m, d, _, n_u = grad.shape
            op = np.concatenate([grad.reshape(m, d * d, n_u), Z.mean(axis=1)],
                                axis=1).reshape(-1, n_u)
        want = ((self.q_eta + self.q_tau) * self.d * (self.d + 1), self.n_u)
        if op.shape != want:
            raise RomError("dimension mismatch: strain_op has shape %s, expected %s"
                           % (op.shape, want))
        self.strain_op = op
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
        return self.eim_eta.n_terms

    @property
    def q_tau(self):
        return self.eim_tau.n_terms

    @property
    def n_reduced(self):
        return self.K.shape[-1]

    def _validate(self):
        n_u, n, nl = self.n_u, self.n_reduced, self.n_lifts
        q = 2 + self.q_eta + 2 * self.q_tau
        for name, want in (("K", (q, n, n)), ("R", (q, nl + 1, n))):
            got = getattr(self, name).shape
            if got != want:
                raise RomError("dimension mismatch: stack %s has shape %s, "
                               "expected %s" % (name, got, want))
        if nl > n_u or n_u > n:
            raise RomError("dimension mismatch: %d lifting columns, N_u=%d, "
                           "N=%d" % (nl, n_u, n))
        for data, qf in ((self.data_eta, self.q_eta), (self.data_tau, self.q_tau)):
            if data.Z_rows.shape[0] != qf or data.Z_rows.shape[-1] != n_u \
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

def _magic_data(asm, Z_v, magic):
    """Assembler geometry and velocity-basis rows sliced at the magic elements."""
    Z_rows = Z_v.reshape(-1, asm.d, Z_v.shape[1])[asm.elems[magic]]
    return MagicElementData(gx=asm.gx[magic], h_t=asm.h_t[magic],
                            h_s=asm.h_s[magic], Z_rows=Z_rows)


def project_offline(mesh, problem, basis, eim_eta, eim_tau,
                    dof_map=None, assembler=None):
    """Project the full-order system onto the basis, one affine term at a time.

    Each term is one fill column of the FOM's SystemPattern, projected and
    released, so peak memory stays at one column of slot values.  The basis
    must carry the problem's lifting vectors as leading columns; the
    projected operators then lose those columns exactly and the per-lift
    loads take over.
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
    pins = pressure_pins(mesh, dof_map)
    if pins.size:
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
    n_u, n = Z_v.shape[1], Z_v.shape[1] + Z_p.shape[1]
    Zf = Z_v[dof_map.free_full]
    Y = block_diag(Zf, Z_p)

    pattern = asm.system_pattern(dof_map, pins)
    w_eta, w_tau, w_pp = pattern.weights

    def columns():
        # the affine columns of the slot values, in theta order, one at a time
        yield from pattern.base.T.toarray()
        for W, basis_q in ((w_eta, eim_eta.basis), (w_tau, eim_tau.basis),
                           (w_pp, eim_tau.basis)):
            for b in basis_q.T:
                yield W @ b

    q_all = 2 + eim_eta.n_terms + 2 * eim_tau.n_terms
    K = np.zeros((q_all, n, n))
    R = np.zeros((q_all, nl + 1, n))
    for q, values in enumerate(columns()):
        # Y^T (Theta_q Y + lift entries @ [Z_v, 0]); its leading nl columns,
        # the operator applied to the lifts, become the per-lift loads
        P = Y.T @ (pattern.matrix(values) @ Y)
        P[:, :n_u] += Y.T @ (pattern.lift_matrix(values) @ Z_v)
        K[q, :, nl:] = P[:, nl:]
        R[q, :nl] = -P[:, :nl].T
    K[1, range(nl), range(nl)] = 1.0
    R[1, range(nl), range(nl)] = 1.0

    if problem.body_force is not None:
        fb = asm.body_rhs(problem.body_force.vector(mesh.d), 1.0)
        R[0, nl, :n_u] = dof_map.restrict(fb) @ Zf
    R[1, nl, :n_u] = dof_map.restrict(asm.traction_rhs(problem.neumann or {})) @ Zf
    # from coefficients to magic-element values: T^-T on each field's slots
    qe, qt = eim_eta.n_terms, eim_tau.n_terms
    for approx, lo in ((eim_eta, 2), (eim_tau, 2 + qe), (eim_tau, 2 + qe + qt)):
        for stack in (K, R):
            stack[lo:lo + approx.n_terms] = approx.fold(stack[lo:lo + approx.n_terms])

    pkg = RomPackage(
        case_id=problem.name, mesh_hash=mh, d=mesh.d, n_nodes=mesh.n_nodes,
        n_fom_dofs=dof_map.n_total,
        lift_groups=tuple(lf.group for lf in liftings),
        material=problem.material, amplitudes=dict(problem.amplitudes),
        space=problem.space, K=K, R=R,
        eim_eta=eim_eta, eim_tau=eim_tau,
        data_eta=_magic_data(asm, Z_v, eim_eta.magic),
        data_tau=_magic_data(asm, Z_v, eim_tau.magic),
        basis=basis)
    logger.info("projected %s: N_u=%d N_p=%d (N=%d vs N^h=%d), Q_eta=%d Q_tau=%d",
                problem.name, pkg.n_u, pkg.n_p, pkg.n_reduced, pkg.n_fom_dofs,
                pkg.q_eta, pkg.q_tau)
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
    keep = np.r_[:n_u, pkg.n_u:pkg.n_u + n_p]
    return RomPackage(
        case_id=pkg.case_id, mesh_hash=pkg.mesh_hash, d=pkg.d,
        n_nodes=pkg.n_nodes, n_fom_dofs=pkg.n_fom_dofs,
        lift_groups=pkg.lift_groups, material=pkg.material,
        amplitudes=dict(pkg.amplitudes), space=pkg.space,
        K=pkg.K[:, keep[:, None], keep], R=pkg.R[:, :, keep],
        eim_eta=pkg.eim_eta, eim_tau=pkg.eim_tau,
        data_eta=pkg.data_eta.truncated(n_u),
        data_tau=pkg.data_tau.truncated(n_u),
        basis=basis,
        parent_strain_op=np.ascontiguousarray(pkg.strain_op[:, :n_u]))


# ---------------------------------------------------------------------------
# online assembly and solve

def _mu_terms(pkg, mu):
    """(params, s, R_mu): material, lift coefficients and [s, 1] @ R at mu."""
    params, amps = pkg.effective(mu)
    s = pkg.lift_coefficients(amps)
    return params, s, np.append(s, 1.0) @ pkg.R


def assemble_rom(pkg, v_iterate, mu=None, mu_terms=None):
    """Dense reduced system at the frozen velocity iterate.

    Returns (K, rhs) of size N_u + N_p, whose leading n_lifts rows pin the
    lift coefficients to the effective amplitudes.  Cost is
    O((Q_eta + Q_tau) N^2); the iterate enters only through the strain at
    the magic elements.  mu_terms, the result of _mu_terms(pkg, mu), lets a
    Picard loop compute the mu-only part once.
    """
    v_it = np.asarray(v_iterate, dtype=np.float64)
    if v_it.shape != (pkg.n_u,):
        raise RomError("iterate has shape %s, expected (%d,)"
                       % (v_it.shape, pkg.n_u))
    params, _, R_mu = mu_terms if mu_terms is not None else _mu_terms(pkg, mu)

    d, qe = pkg.d, pkg.q_eta
    y = (pkg.strain_op @ v_it).reshape(-1, d * (d + 1))
    _, eta, tau = field_values(y[:, :d * d].reshape(-1, d, d), y[:, d * d:],
                               pkg.tau_scales, params)
    theta = np.concatenate(([params.rho, 1.0], eta[:qe], tau[qe:],
                            tau[qe:] / params.rho))

    q, n = pkg.K.shape[:2]
    K = (theta @ pkg.K.reshape(q, n * n)).reshape(n, n)
    return K, theta @ R_mu


def solve_rom(pkg, mu=None, picard_tol=1e-8, picard_max=50, strict=True):
    """Picard iteration on the reduced system with frozen field coefficients.

    The iteration is the Anderson-mixed fom.picard.  The initial iterate
    carries the lifting alone; the pinned lift entries are left out of the
    relative-update test.
    """
    terms = _mu_terms(pkg, mu)
    n_u, n_p, nl = pkg.n_u, pkg.n_p, pkg.n_lifts
    dims = "N_u=%d, N_p=%d" % (n_u, n_p)

    def step(x):
        K, rhs = assemble_rom(pkg, x[:n_u], mu, terms)
        # LAPACK directly: np.linalg.solve's wrapper costs more than an
        # N ~ 10 solve
        x_new, info = dgesv(K, rhs)[2:]
        if info:
            raise RomError("reduced system is singular at " + dims)
        if not np.all(np.isfinite(x_new)):
            raise RomError("reduced solve returned non-finite values at " + dims)
        return x_new, {}

    x0 = np.zeros(n_u + n_p)
    x0[:nl] = terms[1]
    x, log, converged = picard(step, x0, picard_tol, picard_max, strict,
                               RomError, logger, "reduced Picard (%s)" % dims,
                               skip=nl)
    logger.debug("solve_rom %s: %d iterations, rel update %.2e",
                 pkg.case_id, len(log), log[-1]["rel_update"])
    return ReducedSolution(v_N=x[:n_u], p_N=x[n_u:],
                           mu=np.asarray([] if mu is None else mu, dtype=np.float64),
                           converged=converged, iterations=log,
                           case_id=pkg.case_id, mesh_hash=pkg.mesh_hash)


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
    arrays = {"K": pkg.K, "R": pkg.R}
    for tag, eim, data in (("eta", pkg.eim_eta, pkg.data_eta),
                           ("tau", pkg.eim_tau, pkg.data_tau)):
        arrays[tag + "_magic"] = eim.magic
        arrays[tag + "_history"] = eim.history
        arrays[tag + "_gx"] = data.gx
        arrays[tag + "_ht"] = data.h_t
        arrays[tag + "_hs"] = data.h_s
        arrays[tag + "_Z"] = data.Z_rows
    write_artifact(path, "rom", header, arrays)


_ROM_ARRAYS = {"K", "R"} | {tag + part for tag in ("eta", "tau") for part in
                            ("_magic", "_history", "_gx", "_ht", "_hs", "_Z")}


def read_rom(path, mesh_hash=None):
    header, arrays = read_artifact(path, expect_kind="rom")
    if mesh_hash is not None:
        check_mesh_hash(header, mesh_hash, path=str(path))
    if set(arrays) != _ROM_ARRAYS:
        # an earlier layout (coefficient stacks with the EIM T, or separate
        # blocks) holds other arrays
        raise ArtifactError("%s: malformed rom package (arrays %s unexpected, %s "
                            "missing); rebuild it with build-rom"
                            % (path, sorted(set(arrays) - _ROM_ARRAYS),
                               sorted(_ROM_ARRAYS - set(arrays))))
    try:
        eim, data = {}, {}
        for tag in ("eta", "tau"):
            magic, history = arrays[tag + "_magic"], arrays[tag + "_history"]
            q = arrays[tag + "_Z"].shape[0]
            if magic.shape != (q,) or history.shape != (q + 1,):
                raise ArtifactError("%s: malformed rom package (%s magic %s and "
                                    "history %s for %d terms)"
                                    % (path, tag, magic.shape, history.shape, q))
            eim[tag] = EimApproximation(tag=tag, basis=None, T=None, history=history,
                                        magic=magic.astype(np.int64))
            data[tag] = MagicElementData(gx=arrays[tag + "_gx"], h_t=arrays[tag + "_ht"],
                                         h_s=arrays[tag + "_hs"], Z_rows=arrays[tag + "_Z"])
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
            K=arrays["K"], R=arrays["R"],
            eim_eta=eim["eta"], eim_tau=eim["tau"],
            data_eta=data["eta"], data_tau=data["tau"])
    except (KeyError, IndexError, TypeError, ValueError, AttributeError,
            ParameterError) as exc:
        raise ArtifactError("%s: malformed rom package (%s: %s)"
                            % (path, type(exc).__name__, exc)) from None
    return header, pkg
