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
    LATTICE_AXES,
    LatticeField,
    TUPLES,
    action_matrix,
    apply_components,
    d_adjoint,
    d_raw,
    dc_raw,
    frequencies,
    hermitian_form_vector,
    l2_gram,
    l2_inner,  # noqa: F401 - the slice's L^2 metric, in this namespace too
    lambda_row,
    mean_trace,
    pq_matrix,
    sd_projector,
    sq_norm,
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
        return not np.any(self.A.data)


def _coupling(A: Optional[Connection]) -> Optional[np.ndarray]:
    """The connection array d_A couples to, or None for d itself."""
    return None if A is None or A.is_zero() else A.A.data


# the index pairs (mu, nu), mu < nu, of the 2-form components
_MU, _NU = np.array(TUPLES[2]).T


def curvature(conn: Connection) -> LatticeField:
    """F = dA + A ^ A; exactly zero for constant commuting connections."""
    a = conn.A.data
    F = d_raw(a, 1, conn.N)
    F += a[_MU] @ a[_NU]
    F -= a[_NU] @ a[_MU]
    return LatticeField(2, conn.N, conn.n, F)


def asd_residual(F: LatticeField) -> Tuple[LatticeField, float]:
    """Self-dual part F+ = (F + *F)/2 and its L^2 norm; zero iff ASD."""
    if F.degree != 2:
        raise ValueError("curvature must be a 2-form")
    plus = apply_components(sd_projector(), F.data)
    return (LatticeField(2, F.N, F.n, plus, project=False),
            float(np.sqrt(sq_norm(plus))))


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
    i_lam = 1j * apply_components(lambda_row(L)[None], F.data)
    mean = np.mean(i_lam, axis=LATTICE_AXES, keepdims=True)
    gamma = np.real(np.trace(mean, axis1=-2, axis2=-1)).item() / F.n
    residual = float(np.sqrt(sq_norm(i_lam - mean)))
    off = apply_components(np.vstack([pq_matrix(L, 2, 2, 0), pq_matrix(L, 2, 0, 2)]),
                           F.data)
    type_defect = float(np.sqrt(sq_norm(off)))
    return HEReport(gamma=gamma, residual_norm=residual,
                    type_defect=type_defect, integrable=type_defect < tol)


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

    def residual_sq(conn_form: LatticeField) -> Tuple[float, np.ndarray]:
        plus = apply_components(sd_projector(), curvature(Connection(conn_form)).data)
        return float(sq_norm(plus)), plus

    s2, plus = residual_sq(A)
    if not np.isfinite(s2):
        raise FlowDiverged("non-finite residual at the starting connection")
    history = [s2]
    iters = 0
    max_step = step * 64
    while iters < max_iters and s2 > target:
        grad = 2.0 * d_adjoint(plus, 2, N, A.data)
        gnorm2 = float(sq_norm(grad))
        if not np.isfinite(gnorm2):
            raise FlowDiverged("non-finite gradient")
        if gnorm2 == 0.0:
            break
        accepted = False
        for _ in range(60):
            trial = LatticeField(1, N, n, A.data - step * grad)
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
    raw 1-form arrays (..., 4, N, N, N, N, n, n); the image has seven
    components, the six of the self-dual 2-form and then Lambda (no
    Lie-algebra projection, so kernels are honest)."""
    N, Ac = A.N, _coupling(A)
    row = lambda_row(L)[None]

    def op(a: np.ndarray) -> np.ndarray:
        plus = apply_components(sd_projector(), d_raw(a, 1, N, A=Ac))
        lam = apply_components(row, dc_raw(L, a, 1, N, A=Ac))
        return np.concatenate([plus, lam], axis=-7)

    return op


def _mode_symbol(L: Matrix, xi: np.ndarray) -> np.ndarray:
    """Stacked 7x4 symbols of the slice operator at the Fourier modes xi,
    shape (..., 4) -> (..., 7, 4)."""
    dsym = np.zeros(xi.shape[:-1] + (6, 4), dtype=complex)
    for r, (a, b) in enumerate(TUPLES[2]):
        dsym[..., r, b] += 1j * xi[..., a]
        dsym[..., r, a] -= 1j * xi[..., b]
    l1 = action_matrix(L, 1)
    l2 = action_matrix(L, 2)
    top = sd_projector() @ dsym
    # twisted differential on 1-forms carries overall sign +1 (ledger)
    bottom = lambda_row(L) @ l2 @ dsym @ l1
    return np.concatenate([top, bottom[..., None, :]], axis=-2)


@dataclass
class TangentBasis:
    """Orthonormal basis of the horizontal slice at a connection, stacked as
    one array (d, 4, N, N, N, N, n, n), with the Gram matrix of the L^2
    metric and the matrices of the three induced structures in that
    basis."""

    base: Connection
    structure: Matrix
    basis: np.ndarray
    gram: np.ndarray
    ops: Dict[str, np.ndarray]
    tol: float
    min_nonkernel_sv: float
    gap: float
    gap_ok: bool

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def element(self, coeff: np.ndarray) -> LatticeField:
        """The slice field sum_i coeff[i] basis[i]."""
        return LatticeField(1, self.base.N, self.base.n,
                            np.tensordot(coeff, self.basis, axes=1), project=False)

    def residual(self, a: np.ndarray) -> np.ndarray:
        """Defect of the slice equations (raw operator) on each 1-form array
        of a stack."""
        return np.sqrt(sq_norm(slice_operator(self.base, self.structure)(a)))

    def projection_defect(self, a: np.ndarray) -> np.ndarray:
        """Relative L^2 distance from the slice of each 1-form array of a
        stack (k, 4, N, N, N, N, n, n); zero for a zero field."""
        coeff = np.linalg.solve(self.gram, l2_gram(self.basis, a))
        diff = np.sqrt(sq_norm(a - np.tensordot(coeff.T, self.basis, axes=1)))
        denom = np.sqrt(sq_norm(a))
        return np.divide(diff, denom, out=np.zeros_like(diff), where=denom > 0)


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
    gram = l2_gram(basis, basis)
    if np.linalg.eigvalsh(gram).min() <= 0:
        raise ValueError("slice Gram matrix is not positive definite")
    ops = {name: np.linalg.solve(gram, l2_gram(basis, induced_structure(Lf, basis)))
           for name, Lf in zip("IJK", frame.matrices())}
    return TangentBasis(base=A, structure=L, basis=basis, gram=gram, ops=ops,
                        tol=tol, min_nonkernel_sv=min_sv, gap=gap,
                        gap_ok=gap > GAP_THRESHOLD)


def _flat_slice_basis(N: int, n: int, L: Matrix, tol: float):
    freqs = frequencies(N)
    xi = np.stack(np.meshgrid(freqs, freqs, freqs, freqs, indexing="ij"),
                  axis=-1).reshape(-1, 4)
    sv = np.linalg.svd(_mode_symbol(L, xi), compute_uv=False)[:, -1]
    zero = ~xi.any(axis=1)
    bad = np.flatnonzero(~zero & (sv < tol))
    if len(bad):
        k = tuple(int(i) for i in np.unravel_index(bad[0], (N,) * 4))
        raise RuntimeError(f"unexpected slice kernel at mode {k}")
    min_sv = float(sv[~zero].min())
    max_kernel_sv = float(sv[zero].max())
    gap = min_sv / max_kernel_sv if max_kernel_sv > 0 else np.inf
    # the constant fields dx_mu x g, row mu * (n^2 - 1) + g
    gens = su_basis(n)
    basis = np.zeros((4, len(gens), 4, N, N, N, N, n, n), dtype=complex)
    mu = np.arange(4)
    basis[mu, :, mu] = gens[:, None, None, None, None]
    return basis.reshape((-1,) + basis.shape[2:]), min_sv, float(gap)


def _unit_fields(degree: int, N: int, n: int) -> np.ndarray:
    """The fields g dx_t supported at one site, one row per (component t,
    site, generator g) in that order: the coordinate basis of su(n)-valued
    degree-m forms, shape (C N^4 (n^2 - 1), C, N, N, N, N, n, n)."""
    gens = su_basis(n)
    cells = len(TUPLES[degree]) * N ** 4
    unit = np.zeros((cells, len(gens), cells, n, n), dtype=complex)
    at = np.arange(cells)
    unit[at, :, at] = gens
    return unit.reshape((cells * len(gens), len(TUPLES[degree])) + (N,) * 4 + (n, n))


def _real_matrix(stack: np.ndarray) -> np.ndarray:
    """Columns [Re; Im] of each flattened array of a stack."""
    z = stack.reshape(len(stack), -1)
    return np.concatenate([z.real, z.imag], axis=1).T


def _kernel_split(svals: np.ndarray, columns: int, tol: float):
    """The singular values of a matrix with ``columns`` columns, padded with
    the zeros LAPACK leaves out, and the mask of those in the kernel
    relative to the largest."""
    svals = np.concatenate([svals, np.zeros(max(0, columns - len(svals)))])
    return svals, svals < tol * max(1.0, svals.max())


def _dense_slice_basis(A: Connection, L: Matrix, tol: float, max_dense_dim: int):
    N, n = A.N, A.n
    dim = 4 * N ** 4 * len(su_basis(n))
    if dim > max_dense_dim:
        raise ValueError(f"dense kernel extraction needs dimension <= "
                         f"{max_dense_dim}, got {dim}")
    unit = _unit_fields(1, N, n)
    M = _real_matrix(slice_operator(A, L)(unit))
    _, s, vt = np.linalg.svd(M, full_matrices=False)
    svals, kernel_mask = _kernel_split(s, M.shape[1], tol)
    kernel_dim = int(kernel_mask.sum())
    if kernel_dim == 0:
        raise RuntimeError("no kernel found for the slice operator")
    nonkernel = svals[~kernel_mask]
    min_nonkernel = float(nonkernel.min()) if len(nonkernel) else np.inf
    max_kernel = float(svals[kernel_mask].max())
    gap = min_nonkernel / max_kernel if max_kernel > 0 else np.inf
    # vt rows are Euclidean-orthonormal, and the unit fields have L^2 Gram
    # matrix I / N^4, so N^2 makes the kernel L^2-orthonormal
    basis = N ** 2 * np.tensordot(vt[M.shape[1] - kernel_dim:], unit, axes=1)
    return basis, min_nonkernel, float(gap)


def gauge_kernel_dim(A: Connection, tol: float) -> int:
    """dim ker(d_A on su(n)-valued 0-forms): the Lie algebra of the
    stabiliser of A. It is n^2 - 1 at A = 0 and is read from the dense
    singular values of d_A otherwise."""
    if A.is_zero():
        return A.n ** 2 - 1
    M = _real_matrix(d_raw(_unit_fields(0, A.N, A.n), 0, A.N, A=A.A.data))
    _, kernel_mask = _kernel_split(np.linalg.svd(M, compute_uv=False), M.shape[1], tol)
    return int(kernel_mask.sum())


def induced_structure(L: Matrix, a):
    """The operator a -> sqrt(-1)(a^{0,1} - a^{1,0}) on 1-forms, computed
    through the (p,q) splitting as the ledger defines it, on a field or on a
    stack of 1-form arrays (..., 4, N, N, N, N, n, n). The tests check that
    it equals the coordinate formula -L(a)."""
    is_field = isinstance(a, LatticeField)
    if is_field and a.degree != 1:
        raise ValueError("induced structure acts on 1-forms")
    mat = 1j * (pq_matrix(L, 1, 0, 1) - pq_matrix(L, 1, 1, 0))
    out = apply_components(mat, a.data if is_field else a)
    return LatticeField(1, a.N, a.n, out, project=False) if is_field else out


def _invariance_defect(tb: TangentBasis, name: str, L: Matrix) -> float:
    images = induced_structure(L, tb.basis)
    recon = np.tensordot(tb.ops[name].T, tb.basis, axes=1)
    return float(np.sqrt(sq_norm(images - recon)).max())


def subspace_distance(b1: np.ndarray, b2: np.ndarray) -> float:
    """Operator-norm distance of the orthogonal projectors onto the spans of
    two stacked bases."""
    if len(b1) != len(b2):
        return 1.0

    def to_matrix(basis):
        # columns are l2-orthonormal; rescale to Euclidean orthonormal
        Q = _real_matrix(basis)
        return Q / np.linalg.norm(Q, axis=0)

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
    structure used to cut it. The expected dimension is four times that of
    the stabiliser of the base connection."""
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
    expected = 4 * gauge_kernel_dim(A, tol)

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
    defect = float(tb.projection_defect(np.stack([a1.data, a2.data])).max())
    if defect > max(tb.tol, 1e-8):
        raise ValueError(f"input not in the slice: defect {defect:.3e}")
    # site averages of tr(a1_mu a2_nu), then tr(a1 ^ a2) as a scalar 2-form
    tr = mean_trace(a1.data[:, None], a2.data[None])
    tr2 = tr[_MU, _NU] - tr[_NU, _MU]
    return float(np.real(hermitian_form_vector(tb.structure) @ wedge_pairing(2) @ tr2))


def gauge_direction(xi: LatticeField, A: Connection) -> LatticeField:
    """Pure-gauge tangent direction d_A xi of a 0-form xi."""
    return LatticeField(1, xi.N, xi.n, d_raw(xi.data, 0, xi.N, A=_coupling(A)),
                        project=False)


def coulomb_identity_defect(a: LatticeField, L: Matrix,
                            A: Optional[Connection] = None) -> float:
    """Norm of d*_A a - Lambda d^c_L a - *(d^c_L omega_L ^ a).

    On the flat torus the Hermitian forms are constant, so the last term
    vanishes identically; it is still assembled in full so the identity is
    checked as stated, not in a simplified form."""
    N, Ac = a.N, _coupling(A)
    lhs = d_adjoint(a.data, 1, N, A=Ac)
    mid = apply_components(lambda_row(L)[None], dc_raw(L, a.data, 1, N, A=Ac))
    # d^c_L omega_L from the constant Hermitian form (exactly zero spectrally)
    omega = np.multiply.outer(hermitian_form_vector(L), np.ones((N,) * 4 + (1, 1)))
    dc_omega = dc_raw(L, omega, 2, N)
    # (d^c omega) ^ a is a 4-form; its star is the scalar coefficient
    term3 = np.sum(apply_components(wedge_pairing(3).T, dc_omega) * a.data,
                   axis=0, keepdims=True)
    return float(np.sqrt(sq_norm(lhs - mid - term3)))
