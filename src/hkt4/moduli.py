"""Instanton-moduli tangent space on the flat 4-torus: curvature, the
anti-self-duality residual, a descent flow toward the ASD equations, the
horizontal slice and its induced quaternionic structures, and the L^2
metric and Hermitian form on the slice.

Quantitative kernel claims are made at flat base connections, where the
stacked slice operator is block diagonal over Fourier modes and the kernel
can be certified mode by mode; a dense brute-force null space is available
as an independent cross-check for small problems.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .lattice import (
    Comps,
    LatticeField,
    TUPLES,
    action_matrix,
    apply_matrix,
    d_raw,
    d_star_one_form,
    dc_raw,
    deriv,
    frequencies,
    frob_norm,
    hermitian_form_vector,
    l2_inner,
    lambda_of,
    lambda_row,
    pq_matrix,
    sd_projector,
    su_basis,
    wedge_pairing,
)
from .quaternions import HypercomplexFrame, Matrix


@dataclass(frozen=True)
class TorusSpec:
    """Flat-torus lattice problem: N^4 grid, trivial rank-n bundle with the
    standard Hermitian metric, constant hypercomplex frame."""

    N: int
    n: int
    frame: HypercomplexFrame = field(default_factory=HypercomplexFrame.left)

    def __post_init__(self):
        if self.N < 3:
            raise ValueError("grid size must be >= 3")
        if self.n < 2:
            raise ValueError("bundle rank must be >= 2")


@dataclass
class Connection:
    """h-unitary connection in the trivial bundle: a global su(n)-valued
    1-form."""

    A: LatticeField

    def __post_init__(self):
        if self.A.degree != 1:
            raise ValueError("a connection is a 1-form")

    @property
    def N(self) -> int:
        return self.A.N

    @property
    def n(self) -> int:
        return self.A.n

    @staticmethod
    def flat(N: int, n: int) -> "Connection":
        return Connection(LatticeField.zeros(1, N, n))

    def is_zero(self) -> bool:
        return all(np.all(a == 0) for a in self.A.comps.values())


def curvature(conn: Connection) -> LatticeField:
    """F = dA + A ^ A; exactly zero for constant commuting connections."""
    A = conn.A
    N = A.N
    out: Comps = {}
    for mu in range(4):
        for nu in range(mu + 1, 4):
            amu, anu = A.comps[(mu,)], A.comps[(nu,)]
            out[(mu, nu)] = (deriv(anu, mu, N) - deriv(amu, nu, N)
                             + amu @ anu - anu @ amu)
    return LatticeField(2, N, A.n, out)


def asd_residual(F: LatticeField) -> Tuple[LatticeField, float]:
    """Self-dual part F+ = (F + *F)/2 and its L^2 norm; zero iff ASD."""
    if F.degree != 2:
        raise ValueError("curvature must be a 2-form")
    plus = apply_matrix(sd_projector(), F.comps, 2, 2)
    norm = frob_norm(plus, F.N)
    return LatticeField(2, F.N, F.n, plus, project=False), norm


@dataclass
class HEReport:
    """Hermitian-Einstein diagnostic of a curvature 2-form."""

    gamma: float
    residual_norm: float
    type_defect: float
    integrable: bool


def he_residual(F: LatticeField, L: Matrix, tol: float = 1e-10) -> HEReport:
    """Contract F with the Hermitian form of L: gamma is the id_E component
    of the average of sqrt(-1) Lambda F (zero for su(n)); the residual is the
    deviation from that constant. The (1,1)-type check flags non-integrable
    curvature."""
    lam = lambda_of(L, F.comps)
    if lam is None:
        lam = np.zeros((F.N,) * 4 + (F.n, F.n), dtype=complex)
    i_lam = 1j * lam
    mean = np.mean(i_lam, axis=(0, 1, 2, 3))
    gamma = float(np.real(np.trace(mean))) / F.n
    dev = i_lam - mean
    residual = float(np.sqrt(np.sum(np.abs(dev) ** 2) / F.N ** 4))
    off = {}
    for (p, q) in ((2, 0), (0, 2)):
        part = apply_matrix(pq_matrix(L, 2, p, q), F.comps, 2, 2)
        for t, arr in part.items():
            off[(p, q, t)] = arr
    type_defect = float(np.sqrt(sum(np.sum(np.abs(a) ** 2) for a in off.values())
                                / F.N ** 4))
    return HEReport(gamma=gamma, residual_norm=residual,
                    type_defect=type_defect, integrable=type_defect < tol)


def _d_adjoint_two_form(F: Comps, N: int, A: Comps) -> Comps:
    """(d_A)^* on 2-forms: (d_A* F)_rho = -sum_nu D_nu F_{nu rho}."""
    out: Comps = {}
    for rho in range(4):
        total = None
        for nu in range(4):
            if nu == rho:
                continue
            if nu < rho:
                arr = F[(nu, rho)]
            else:
                arr = -F[(rho, nu)]
            term = deriv(arr, nu, N) + (A[(nu,)] @ arr - arr @ A[(nu,)])
            total = term if total is None else total + term
        out[(rho,)] = -total
    return out


class FlowDiverged(RuntimeError):
    pass


@dataclass
class FlowResult:
    connection: Connection
    history: List[float]
    iterations: int
    converged: bool

    @property
    def initial(self) -> float:
        return self.history[0]

    @property
    def final(self) -> float:
        return self.history[-1]


def ym_flow(A0: Connection, step: float, max_iters: int,
            target: float) -> FlowResult:
    """Gradient descent on the squared self-dual residual |F+|^2.

    Monotone non-increase is enforced by step halving; the step grows gently
    after accepted moves. ``target`` bounds the squared residual.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    N, n = A0.N, A0.n
    A = A0.A.copy()

    def residual_sq(conn_form: LatticeField) -> Tuple[float, Comps]:
        F = curvature(Connection(conn_form))
        plus = apply_matrix(sd_projector(), F.comps, 2, 2)
        val = sum(float(np.sum(np.abs(a) ** 2)) / N ** 4 for a in plus.values())
        return val, plus

    s2, plus = residual_sq(A)
    if not np.isfinite(s2):
        raise FlowDiverged("non-finite residual at the starting connection")
    history = [s2]
    iters = 0
    max_step = step * 64
    while iters < max_iters and s2 > target:
        grad = _d_adjoint_two_form(plus, N, A.comps)
        grad = {t: 2.0 * v for t, v in grad.items()}
        gnorm2 = sum(float(np.sum(np.abs(v) ** 2)) / N ** 4 for v in grad.values())
        if not np.isfinite(gnorm2):
            raise FlowDiverged("non-finite gradient")
        if gnorm2 == 0.0:
            break
        accepted = False
        for _ in range(60):
            trial = LatticeField(1, N, n,
                                 {t: A.comps[t] - step * grad[t] for t in A.comps})
            s2_new, plus_new = residual_sq(trial)
            if not np.isfinite(s2_new):
                raise FlowDiverged("non-finite residual")
            if s2_new <= s2:
                A, s2, plus = trial, s2_new, plus_new
                step = min(step * 1.25, max_step)
                accepted = True
                break
            step *= 0.5
        iters += 1
        history.append(s2)
        if not accepted:
            break
    return FlowResult(connection=Connection(A), history=history,
                      iterations=iters, converged=s2 <= target)


# ---------------------------------------------------------------------------
# horizontal slice


def slice_operator(A: Connection, L: Matrix):
    """The stacked slice operator a -> (P_sd d_A a, Lambda d^c_{L,A} a) on
    raw component dicts (no Lie-algebra projection, so kernels are honest)."""
    N = A.N
    Ac = None if A.is_zero() else A.A.comps

    def op(comps: Comps) -> Tuple[Comps, np.ndarray]:
        da = d_raw(comps, 1, N, A=Ac)
        plus = apply_matrix(sd_projector(), da, 2, 2)
        dc = dc_raw(L, comps, 1, N, A=Ac)
        lam = lambda_of(L, dc)
        return plus, lam

    return op


def _mode_symbol(L: Matrix, xi: np.ndarray) -> np.ndarray:
    """7x4 stacked symbol of the slice operator at one Fourier mode."""
    dsym = np.zeros((6, 4), dtype=complex)
    for r, (a, b) in enumerate(TUPLES[2]):
        dsym[r, b] += 1j * xi[a]
        dsym[r, a] -= 1j * xi[b]
    l1 = action_matrix(L, 1)
    l2 = action_matrix(L, 2)
    top = sd_projector() @ dsym
    # twisted differential on 1-forms carries overall sign +1 (ledger)
    bottom = lambda_row(L) @ l2 @ dsym @ l1
    return np.vstack([top, bottom.reshape(1, 4)])


@dataclass
class TangentBasis:
    """Orthonormal basis of the horizontal slice at a connection, with the
    Gram matrix of the L^2 metric and the matrices of the three induced
    structures in that basis."""

    base: Connection
    structure: Matrix
    basis: List[LatticeField]
    gram: np.ndarray
    ops: Dict[str, np.ndarray]
    tol: float
    min_nonkernel_sv: float
    gap: float
    gap_ok: bool

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def residual(self, a: LatticeField) -> float:
        """Defect of the slice equations on a field (raw operator)."""
        op = slice_operator(self.base, self.structure)
        plus, lam = op(a.comps)
        comps = dict(plus)
        comps[("lam",)] = lam
        return float(np.sqrt(sum(np.sum(np.abs(v) ** 2) for v in comps.values())
                             / a.N ** 4))

    def project_coefficients(self, a: LatticeField) -> np.ndarray:
        rhs = np.array([l2_inner(b, a) for b in self.basis])
        return np.linalg.solve(self.gram, rhs)

    def projection_defect(self, a: LatticeField) -> float:
        coeff = self.project_coefficients(a)
        recon = None
        for c, b in zip(coeff, self.basis):
            term = b * float(c)
            recon = term if recon is None else recon + term
        diff = a - recon
        denom = a.norm()
        return diff.norm() / denom if denom > 0 else 0.0


GAP_THRESHOLD = 1e3
MAX_DENSE_DIM = 3200


def _slice_basis(A: Connection, L: Matrix, tol: float, max_dense_dim: int):
    """Kernel basis of the stacked operator (d_A^+, Lambda d^c_L), with the
    smallest non-kernel singular value and the kernel gap.

    At the flat connection the operator is block diagonal over Fourier
    modes, so the kernel is certified by per-mode singular values (no
    discretization pollution); otherwise a dense brute-force null space is
    extracted, guarded by ``max_dense_dim``.
    """
    _, res_norm = asd_residual(curvature(A))
    if res_norm > max(tol, 1e-8):
        raise ValueError(f"base connection is not ASD enough: |F+| = {res_norm:.3e}")
    if A.is_zero():
        return _flat_slice_basis(A.N, A.n, L, tol)
    return _dense_slice_basis(A, L, tol, max_dense_dim)


def horizontal_slice(A: Connection, L: Matrix, tol: float,
                     frame: Optional[HypercomplexFrame] = None,
                     max_dense_dim: int = MAX_DENSE_DIM) -> TangentBasis:
    """The slice basis cut by L, with its L^2 Gram matrix and the matrices
    of the three induced structures of ``frame`` in that basis."""
    if frame is None:
        frame = HypercomplexFrame.left()
    basis, min_sv, gap = _slice_basis(A, L, tol, max_dense_dim)
    gap_ok = gap > GAP_THRESHOLD
    gram = np.array([[l2_inner(b1, b2) for b2 in basis] for b1 in basis])
    tb = TangentBasis(base=A, structure=L, basis=basis, gram=gram, ops={},
                      tol=tol, min_nonkernel_sv=min_sv, gap=gap, gap_ok=gap_ok)
    eigs = np.linalg.eigvalsh(gram)
    if eigs.min() <= 0:
        raise ValueError("slice Gram matrix is not positive definite")
    for name, Lf in zip("IJK", frame.matrices()):
        tb.ops[name] = _operator_matrix(tb, Lf)
    return tb


def _flat_slice_basis(N: int, n: int, L: Matrix, tol: float):
    freqs = frequencies(N)
    min_sv = np.inf
    kernel_modes = []
    for k in np.ndindex(N, N, N, N):
        xi = np.array([freqs[k[0]], freqs[k[1]], freqs[k[2]], freqs[k[3]]])
        sym = _mode_symbol(L, xi)
        sv = np.linalg.svd(sym, compute_uv=False)
        if all(v == 0 for v in xi):
            kernel_modes.append((k, sv))
            continue
        if sv[-1] < tol:
            raise RuntimeError(f"unexpected slice kernel at mode {k}")
        min_sv = min(min_sv, float(sv[-1]))
    max_kernel_sv = max((float(sv[-1]) for _, sv in kernel_modes), default=0.0)
    gap = min_sv / max_kernel_sv if max_kernel_sv > 0 else np.inf
    basis = []
    gens = su_basis(n)
    for mu in range(4):
        for g in gens:
            comps = {}
            arr = np.zeros((N, N, N, N, n, n), dtype=complex)
            arr[...] = g
            comps[(mu,)] = arr
            basis.append(LatticeField(1, N, n, comps, project=False))
    return basis, float(min_sv), float(gap)


def _field_to_vector(comps: Comps, keys) -> np.ndarray:
    flat = [comps[t].ravel() for t in keys]
    z = np.concatenate(flat)
    return np.concatenate([z.real, z.imag])


def _dense_slice_basis(A: Connection, L: Matrix, tol: float, max_dense_dim: int):
    N, n = A.N, A.n
    gens = su_basis(n)
    dim = 4 * N ** 4 * len(gens)
    if dim > max_dense_dim:
        raise ValueError(f"dense kernel extraction needs dimension <= "
                         f"{max_dense_dim}, got {dim}")
    op = slice_operator(A, L)
    # batched apply: one stacked array per 1-form component
    batch = []
    site_index = list(np.ndindex(N, N, N, N))
    for mu in range(4):
        for s in site_index:
            for g in gens:
                batch.append((mu, s, g))
    stacked = {t: np.zeros((dim, N, N, N, N, n, n), dtype=complex)
               for t in TUPLES[1]}
    for row, (mu, s, g) in enumerate(batch):
        stacked[(mu,)][row][s] = g
    plus, lam = op(stacked)
    out_keys = sorted(plus)
    cols = []
    for row in range(dim):
        comps = {t: plus[t][row] for t in out_keys}
        comps[("lam",)] = lam[row]
        cols.append(_field_to_vector(comps, out_keys + [("lam",)]))
    M = np.stack(cols, axis=1)
    _, s, vt = np.linalg.svd(M, full_matrices=False)
    svals = np.concatenate([s, np.zeros(max(0, M.shape[1] - len(s)))])
    kernel_mask = svals < tol * max(1.0, svals.max())
    kernel_dim = int(kernel_mask.sum())
    if kernel_dim == 0:
        raise RuntimeError("no kernel found for the slice operator")
    nonkernel = svals[~kernel_mask]
    min_nonkernel = float(nonkernel.min()) if len(nonkernel) else np.inf
    max_kernel = float(svals[kernel_mask].max())
    gap = min_nonkernel / max_kernel if max_kernel > 0 else np.inf
    basis = []
    for idx in range(M.shape[1] - kernel_dim, M.shape[1]):
        vec = vt[idx]
        comps = {t: np.zeros((N, N, N, N, n, n), dtype=complex) for t in TUPLES[1]}
        for row, (mu, site, g) in enumerate(batch):
            if vec[row] != 0:
                comps[(mu,)][site] += vec[row] * g
        basis.append(LatticeField(1, N, n, comps, project=False))
    # orthonormalize in the L^2 inner product (vt rows are Euclidean-orthonormal,
    # which differs from l2_inner by the 1/N^4 site average)
    ortho: List[LatticeField] = []
    for b in basis:
        for prev in ortho:
            b = b - prev * l2_inner(prev, b)
        nb = np.sqrt(l2_inner(b, b))
        ortho.append(b * (1.0 / nb))
    return ortho, min_nonkernel, float(gap)


def induced_structure(L: Matrix, a: LatticeField) -> LatticeField:
    """The operator a -> sqrt(-1)(a^{0,1} - a^{1,0}) on 1-forms, computed
    through the (p,q) splitting as the ledger defines it. The tests check
    that it equals the coordinate formula -L(a)."""
    if a.degree != 1:
        raise ValueError("induced structure acts on 1-forms")
    p10 = apply_matrix(pq_matrix(L, 1, 1, 0), a.comps, 1, 1)
    p01 = apply_matrix(pq_matrix(L, 1, 0, 1), a.comps, 1, 1)
    comps = {t: 1j * (p01.get(t, 0) - p10.get(t, 0)) for t in TUPLES[1]}
    return LatticeField(1, a.N, a.n, comps, project=False)


def _operator_matrix(tb: TangentBasis, L: Matrix) -> np.ndarray:
    d = tb.dimension
    M = np.zeros((d, d))
    for j, b in enumerate(tb.basis):
        img = induced_structure(L, b)
        for i, bi in enumerate(tb.basis):
            M[i, j] = l2_inner(bi, img)
    return np.linalg.solve(tb.gram, M)


def _invariance_defect(tb: TangentBasis, name: str, L: Matrix) -> float:
    worst = 0.0
    M = tb.ops[name]
    for j, b in enumerate(tb.basis):
        img = induced_structure(L, b)
        recon = None
        for i, bi in enumerate(tb.basis):
            term = bi * float(M[i, j])
            recon = term if recon is None else recon + term
        worst = max(worst, (img - recon).norm())
    return worst


def subspace_distance(b1: List[LatticeField], b2: List[LatticeField]) -> float:
    """Operator-norm distance of the orthogonal projectors onto two spans."""
    if len(b1) != len(b2):
        return 1.0

    def to_matrix(basis):
        keys = TUPLES[1]
        cols = [_field_to_vector(b.comps, keys) for b in basis]
        Q = np.stack(cols, axis=1)
        # columns are l2-orthonormal; rescale to Euclidean orthonormal
        for i in range(Q.shape[1]):
            Q[:, i] /= np.linalg.norm(Q[:, i])
        return Q

    q1, q2 = to_matrix(b1), to_matrix(b2)
    # sine of the largest principal angle, computed without the 1 - s^2
    # cancellation: |(I - P1) Q2|_2
    resid = q2 - q1 @ (q1.T @ q2)
    return float(np.linalg.norm(resid, 2))


@dataclass
class ModuliStructureReport:
    kernel_dims: Dict[str, int]
    expected_dim: int
    slice_distances: Dict[str, float]
    identity_defects: Dict[str, float]
    invariance_defects: Dict[str, float]
    metric_defects: Dict[str, float]
    gram_defect: float
    tol: float

    @property
    def passed(self) -> bool:
        ok_dim = all(d == self.expected_dim for d in self.kernel_dims.values())
        vals = (list(self.slice_distances.values())
                + list(self.identity_defects.values())
                + list(self.invariance_defects.values())
                + list(self.metric_defects.values()))
        return ok_dim and all(v < self.tol for v in vals)


def verify_moduli_structure(tb: TangentBasis,
                            frame: Optional[HypercomplexFrame] = None
                            ) -> ModuliStructureReport:
    """Check that the three induced operators make the slice quaternionic and
    the L^2 metric hyperhermitian, and that the slice does not depend on the
    structure used to cut it."""
    if frame is None:
        frame = HypercomplexFrame.left()
    tol = tb.tol
    A = tb.base
    dims = {"I": tb.dimension}
    distances = {}
    for name, L in zip("JK", (frame.J, frame.K)):
        other, _, _ = _slice_basis(A, L, tol, MAX_DENSE_DIM)
        dims[name] = len(other)
        distances[f"I-{name}"] = subspace_distance(tb.basis, other)
    expected = 4 * (A.n ** 2 - 1)

    I_m, J_m, K_m = tb.ops["I"], tb.ops["J"], tb.ops["K"]
    eye = np.eye(tb.dimension)
    spectral = lambda M: float(np.linalg.norm(M, 2))  # noqa: E731
    identity_defects = {
        "I^2 = -Id": spectral(I_m @ I_m + eye),
        "J^2 = -Id": spectral(J_m @ J_m + eye),
        "K^2 = -Id": spectral(K_m @ K_m + eye),
        "IJ = K": spectral(I_m @ J_m - K_m),
        "IJ = -JI": spectral(I_m @ J_m + J_m @ I_m),
    }
    invariance = {name: _invariance_defect(tb, name, L)
                  for name, L in zip("IJK", frame.matrices())}
    metric = {name: spectral(M.T @ tb.gram @ M - tb.gram)
              for name, M in tb.ops.items()}
    gram_defect = spectral(tb.gram - eye)
    return ModuliStructureReport(kernel_dims=dims, expected_dim=expected,
                                 slice_distances=distances,
                                 identity_defects=identity_defects,
                                 invariance_defects=invariance,
                                 metric_defects=metric,
                                 gram_defect=gram_defect, tol=tol)


def moduli_hermitian_form(tb: TangentBasis, a1: LatticeField,
                          a2: LatticeField) -> float:
    """The integral of omega_L ^ tr(a1 ^ a2) over the torus, with the slice
    representatives as their own horizontal lifts. Inputs must lie in the
    slice."""
    for a in (a1, a2):
        defect = tb.projection_defect(a)
        if defect > max(tb.tol, 1e-8):
            raise ValueError(f"input not in the slice: defect {defect:.3e}")
    omega_vec = hermitian_form_vector(tb.structure)
    pairing = wedge_pairing(2)
    # tr(a1 ^ a2) as a scalar 2-form
    tr2: Dict[tuple, np.ndarray] = {}
    for mu in range(4):
        for nu in range(mu + 1, 4):
            x = np.einsum("...ij,...ji->...", a1.comps[(mu,)], a2.comps[(nu,)])
            y = np.einsum("...ij,...ji->...", a1.comps[(nu,)], a2.comps[(mu,)])
            tr2[(mu, nu)] = x - y
    total = 0.0
    for i, s in enumerate(TUPLES[2]):
        for j, t in enumerate(TUPLES[2]):
            sign = pairing[i, j]
            if sign:
                total += float(np.real(omega_vec[i] * sign * np.mean(tr2[t])))
    return total


def gauge_direction(xi: LatticeField, A: Connection) -> LatticeField:
    """Pure-gauge tangent direction d_A xi of a 0-form xi."""
    comps = d_raw(xi.comps, 0, xi.N, A=None if A.is_zero() else A.A.comps)
    return LatticeField(1, xi.N, xi.n, comps, project=False)


def coulomb_identity_defect(a: LatticeField, L: Matrix,
                            A: Optional[Connection] = None) -> float:
    """Norm of d*_A a - Lambda d^c_L a - *(d^c_L omega_L ^ a).

    On the flat torus the Hermitian forms are constant, so the last term
    vanishes identically; it is still assembled in full so the identity is
    checked as stated, not in a simplified form."""
    from .forms import _merge_sign

    N = a.N
    Ac = None if A is None or A.is_zero() else A.A.comps
    lhs = d_star_one_form(a.comps, N, A=Ac)
    dc = dc_raw(L, a.comps, 1, N, A=Ac)
    mid = lambda_of(L, dc)
    # d^c_L omega_L from the constant Hermitian form (exactly zero spectrally)
    omega_vec = hermitian_form_vector(L)
    omega_comps = {t: np.full((N, N, N, N, 1, 1), complex(omega_vec[i]))
                   for i, t in enumerate(TUPLES[2])}
    dc_omega = dc_raw(L, omega_comps, 2, N)
    # (d^c omega) ^ a is a 4-form; its star is the scalar coefficient
    term3 = np.zeros_like(lhs)
    for t3, w in dc_omega.items():
        for mu in range(4):
            if mu in t3:
                continue
            merged, sign = _merge_sign(t3, (mu,))
            if merged == (0, 1, 2, 3):
                term3 = term3 + sign * w * a.comps[(mu,)]
    defect = lhs - mid - term3
    return float(np.sqrt(np.sum(np.abs(defect) ** 2) / N ** 4))
