"""Instanton-moduli tangent space on the flat 4-torus: curvature, the
anti-self-duality residual, a descent flow toward the ASD equations, the
horizontal slice and its induced quaternionic structures, and the L^2
metric and Hermitian form on the slice.

Quantitative kernel claims are made at flat and constant Cartan base
connections, where the slice operator is block diagonal over Fourier modes
and matrix entries, and one constant identity of its symbol gives each
block's singular values; a dense null space covers other connections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .lattice import (
    LatticeField,
    TUPLES,
    _along_axis,
    _fourier_matrix,
    apply_components,
    bracket,
    covariant_gradient,
    d_adjoint,
    d_raw,
    dc_raw,
    deriv,
    fourier_basis,
    frequencies,
    hermitian_form_vector,
    l2_gram,
    l2_inner,  # noqa: F401 - the slice's L^2 metric, in this namespace too
    pq_matrix,
    sd_projector,
    slice_matrix,
    sq_norm,
    su_basis,
    wedge_pairing,
)
from .quaternions import HypercomplexFrame, Matrix


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


def _coupling(A: Optional[Connection]) -> Optional[np.ndarray]:
    """The connection array d_A couples to, or None for d itself."""
    return None if A is None or not np.any(A.A.data) else A.A.data


# bytes of covariant gradient (four times the fields' own) per chunk of a
# stack of 1-form arrays that the grid checks stream, so that their memory is
# O(chunk N^4) whatever the stack's length
GRID_CHUNK_BYTES = 1 << 23


def _chunks(count: int, field_bytes: int):
    """Slices of consecutive chunks of a stack of ``count`` 1-form arrays of
    ``field_bytes`` each within ``GRID_CHUNK_BYTES``, at least one field each."""
    step = max(1, GRID_CHUNK_BYTES // (4 * field_bytes))
    return [slice(start, start + step) for start in range(0, count, step)]


# the index pairs (mu, nu), mu < nu, of the 2-form components
_MU, _NU = np.array(TUPLES[2]).T


def curvature(conn: Connection) -> LatticeField:
    """F = dA + A ^ A of the su(n) part of the connection, the real part of
    its coordinates, as a real array: d of a real array is Re(D_N), the
    su(n) part of d, which at even N leaves su(n) (docs/conventions.md,
    "Even grids"). Zero for constant commuting connections: exactly when
    their coordinates are +-2^k, else to round-off. At A = 0 the all-zero
    bracket is skipped."""
    a = conn.A.data.real
    F = d_raw(a, 1, conn.N)
    if _coupling(conn) is not None:
        bracket(a[_MU], a[_NU], F)
    return LatticeField(2, conn.N, conn.n, F)


def asd_residual(F: LatticeField) -> Tuple[LatticeField, float]:
    """Self-dual part F+ = (F + *F)/2 and its L^2 norm; zero iff ASD."""
    if F.degree != 2:
        raise ValueError("curvature must be a 2-form")
    plus = apply_components(sd_projector(), F.data)
    return (LatticeField(2, F.N, F.n, plus),
            float(np.sqrt(sq_norm(plus))))


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


# the constant c of the flow's Fourier preconditioner c / (c + |kappa|^2):
# pi^2, a quarter of the smallest nonzero |k|^2 = (2 pi)^2
FLOW_SHIFT = math.pi ** 2


@lru_cache(maxsize=None)
def _flow_weights(N: int) -> np.ndarray:
    """The weights w(k) = c / (c + sum_mu kappa_mu^2) of the flow's
    preconditioner at the N^4 modes in FFT order, c = ``FLOW_SHIFT``;
    read-only, as shared. kappa is ``frequencies(N)`` with the Nyquist
    frequency of an even grid counted as 0: d of a real Nyquist mode is
    imaginary and Re(D_N), the d of real fields, drops it, so those modes
    have no linear restoring force to damp. w(k) = w(-k), so the multiplier
    maps real fields to real fields."""
    kappa = frequencies(N).copy()
    if N % 2 == 0:
        kappa[N // 2] = 0.0
    k2 = kappa ** 2
    w = FLOW_SHIFT / (FLOW_SHIFT + k2[:, None, None, None] + k2[:, None, None]
                      + k2[:, None] + k2)
    w.flags.writeable = False
    return w


@lru_cache(maxsize=None)
def _basis_weights(N: int) -> np.ndarray:
    """``_flow_weights(N)`` at the rows of ``fourier_basis(N)`` along each
    axis; read-only."""
    k = fourier_basis(N)[1]
    w = _flow_weights(N)[np.ix_(k, k, k, k)]
    w.flags.writeable = False
    return w


def _precondition(grad: np.ndarray, N: int) -> np.ndarray:
    """P grad = F^-1 diag(w) F grad for a real ``grad``: the real basis
    ``fourier_basis(N)`` along each of the four lattice axes, times
    ``_basis_weights(N)``, and the transpose back, eight real products with
    N x N matrices by ``deriv``'s kernel. This is the Fourier multiplier
    exactly: w(k) = c / (c + sum_mu kappa_mu^2) depends on each kappa_mu^2
    alone, and kappa(-k)^2 = kappa(k)^2 (the Nyquist kappa is 0), so on each
    axis P is one number on span{cos, sin} of each |k|, and diagonal in the
    basis."""
    out = grad
    for mu in range(4):
        out = _along_axis(out, mu, N, _fourier_matrix, False)
    out *= _basis_weights(N)
    for mu in range(4):
        out = _along_axis(out, mu, N, _fourier_matrix, True)
    return out


def _flow_gradient(a: np.ndarray, plus: np.ndarray, N: int) -> np.ndarray:
    """The gradient of |F+|^2 over su(n)-valued connections at the real
    connection array ``a`` with self-dual curvature ``plus`` (real, from
    ``curvature``): 2 d_A^* F+, whose real arrays make it the su(n) part."""
    return 2.0 * d_adjoint(plus, 2, N, a)


def ym_flow(A0: Connection, step: float, max_iters: int,
            target: float) -> FlowResult:
    """Fourier-preconditioned gradient descent on the squared self-dual
    residual |F+|^2.

    The flow moves the su(n) part of ``A0`` (its real coordinates) in real
    arrays. The gradient g is 2 d_A^* F+ on them, the gradient of |F+|^2
    over su(n)-valued connections; the move is
    -step P g, with P the Fourier multiplier of ``_flow_weights`` (Davies et
    al., Phys. Rev. D 37, 1988). ``step`` is the first step; after an
    accepted move s = -a P g_prev, with y the change of the gradient, the
    step is the Barzilai-Borwein step in the metric of P^-1 (Barzilai and
    Borwein, IMA J. Numer. Anal. 8, 1988), s^T P^-1 s / s^T y = -a s^T
    g_prev / s^T y, if s^T y > 0, else the last, under a monotone guard
    (Raydan, SIAM J. Optim. 7, 1997): a move is accepted only if |F+|^2
    does not increase, else the step is halved. ``target`` bounds the
    squared residual.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    N, n = A0.N, A0.n
    A = LatticeField(1, N, n, A0.A.data.real.copy())

    def residual_sq(conn_form: LatticeField) -> Tuple[float, np.ndarray]:
        plus = apply_components(sd_projector(), curvature(Connection(conn_form)).data)
        return float(sq_norm(plus)), plus

    s2, plus = residual_sq(A)
    if not np.isfinite(s2):
        raise FlowDiverged("non-finite residual at the starting connection")
    history = [s2]
    iters, last = 0, None
    while iters < max_iters and s2 > target:
        grad = _flow_gradient(A.data, plus, N)
        gnorm2 = float(sq_norm(grad))
        if not np.isfinite(gnorm2):
            raise FlowDiverged("non-finite gradient")
        if gnorm2 == 0.0:
            break
        if last is not None:
            s, y = A.data - last[0], grad - last[1]
            sty = np.vdot(s, y).real
            step = -step * np.vdot(s, last[1]).real / sty if sty > 0 else step
        direction = _precondition(grad, N)
        accepted = False
        for _ in range(60):
            trial = LatticeField(1, N, n, A.data - step * direction)
            s2_new, plus_new = residual_sq(trial)
            if not np.isfinite(s2_new):
                raise FlowDiverged("non-finite residual")
            if s2_new <= s2:
                last = (A.data, grad)
                A, s2, plus = trial, s2_new, plus_new
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
    raw 1-form arrays (..., 4, m, N, N, N, N): ``slice_matrix`` on one
    covariant gradient. The image has seven components, the six of the
    self-dual 2-form and then Lambda (no Lie-algebra projection, so kernels
    are honest)."""
    N, Ac = A.N, _coupling(A)
    mat = slice_matrix(L)

    def op(a: np.ndarray) -> np.ndarray:
        return apply_components(mat, covariant_gradient(a, N, Ac))

    return op


def _r_factor(g: np.ndarray) -> np.ndarray:
    """The k x k factor R_e of g[e]^T = Q_e R_e for a stack (E, k, M) of k
    long rows, by modified Gram-Schmidt: its R is as accurate as
    Householder's, and its sums are numpy's own, so, like ``sq_norm``, it
    rounds the same on any thread count (LAPACK's QR calls threaded BLAS on
    these tall matrices). A zero row gives a zero row of R."""
    v = np.array(g, dtype=complex, order="C")
    k = v.shape[-2]
    R = np.zeros(v.shape[:-2] + (k, k), dtype=complex)
    for j in range(k):
        row = v[:, j]
        norm = np.sqrt((row.real * row.real + row.imag * row.imag).sum(axis=-1))
        q = np.divide(row, norm[:, None], out=np.zeros_like(row), where=norm[:, None] > 0)
        R[:, j, j] = norm
        R[:, j, j + 1:] = (q.conj()[:, None] * v[:, j + 1:]).sum(axis=-1)
        v[:, j + 1:] -= R[:, j, j + 1:, None] * q[:, None]
    return R


def _on_grid(coeffs: np.ndarray, phase) -> np.ndarray:
    """The grid fields of one-site coordinates ``coeffs`` (..., m, 1, 1, 1,
    1) with each matrix entry jk times its plane of ``phase``, through the
    constant B_a,jk conj(B_b,jk), entry by entry; ``coeffs`` at ``phase`` 1."""
    if np.ndim(phase) == 0:
        return coeffs * phase
    B = su_basis(len(phase)).reshape(-1, len(phase) ** 2)
    weights = np.tensordot(coeffs[..., 0, 0, 0, 0], B[:, None] * B.conj()[None], axes=1)
    out = 0
    for w, plane in zip(np.moveaxis(weights, -1, 0), phase.reshape((-1,) + phase.shape[2:])):
        out = out + w[..., None, None, None, None] * plane
    return out


@dataclass
class TangentBasis:
    """Orthonormal basis ``_on_grid(coeffs, phase)`` of the horizontal slice
    at a connection, with the Gram matrix of the L^2 metric, the matrices of
    the three induced structures in that basis and, for each structure, the
    largest L^2 distance of its images of the basis from the slice, all from
    ``coeffs`` alone (Parseval): per mode, ``coeffs`` (d, 4, m, 1, 1, 1, 1)
    are the coordinates at x = 0 and ``phase`` (n, n, N, N, N, N) the unit
    phase of each matrix entry; on the dense path ``coeffs`` is the grid
    basis and ``phase`` 1. ``curvature_norm`` is |F_A| of the base."""

    base: Connection
    structure: Matrix
    coeffs: np.ndarray
    phase: np.ndarray
    gram: np.ndarray
    ops: Dict[str, np.ndarray]
    invariance_defects: Dict[str, float]
    tol: float
    min_nonkernel_sv: float
    gap: float
    gap_ok: bool
    curvature_norm: float

    @property
    def dimension(self) -> int:
        return len(self.coeffs)

    @cached_property
    def basis(self) -> np.ndarray:
        return _on_grid(self.coeffs, self.phase)

    def element(self, coeff: np.ndarray) -> LatticeField:
        """The slice field sum_i coeff[i] basis[i]."""
        return LatticeField(1, self.base.N, self.base.n,
                            np.tensordot(coeff, self.basis, axes=1))

    def residual(self, a: np.ndarray, phase=1) -> np.ndarray:
        """Defect of the slice equations (raw operator, complex fields) on
        each 1-form of the stack ``_on_grid(a, phase)``, built one chunk at a
        time: from ``coeffs`` and ``phase`` the whole grid basis is never held."""
        op = slice_operator(self.base, self.structure)
        size = 16 * a[0].shape[0] * a[0].shape[1] * self.base.N ** 4
        return np.concatenate([
            np.sqrt(sq_norm(op(np.asarray(_on_grid(a[s], phase), dtype=complex))))
            for s in _chunks(len(a), size)])

    def slice_defects(self) -> np.ndarray:
        """``residual(coeffs, phase)`` with no image on the grid: at a
        constant Cartan connection D_mu acts on the matrix entry e as d_mu +
        i shift_e, so element i's image on entry e is B_ie G_e, with B_ie the
        7 x 4 matrix slice_matrix(L) times coeffs[i]'s entries e and G_e =
        d phase_e + i shift_e phase_e = (Q_e R_e)^T: |B_ie G_e|_F =
        |B_ie R_e^T|_F. On the dense path it is ``residual(coeffs)``."""
        if self.phase.ndim == 0:
            return self.residual(self.coeffs)
        N, n = self.base.N, self.base.n
        shifts = _cartan_shifts(self.base).reshape(n * n, 4, 1, 1, 1, 1)
        planes = self.phase.reshape((n * n,) + (N,) * 4)
        grad = np.stack([deriv(planes, mu, N) + 1j * shifts[:, mu] * planes
                         for mu in range(4)], axis=1)
        R = _r_factor(grad.reshape(n * n, 4, -1)) / N ** 2
        entries = self.coeffs.reshape(self.dimension, 4, -1) @ su_basis(n).reshape(-1, n * n)
        B = np.einsum("smt,ite->iesm", slice_matrix(self.structure).reshape(7, 4, 4), entries)
        return np.linalg.norm(np.einsum("iesm,etm->iest", B, R).reshape(self.dimension, -1),
                              axis=1)

    def projection_defect(self, a: np.ndarray) -> np.ndarray:
        """Relative L^2 distance from the slice of each 1-form array of a
        stack (k, 4, m, N, N, N, N); zero for a zero field."""
        coeff = np.linalg.solve(self.gram, l2_gram(self.basis, a))
        diff = np.sqrt(sq_norm(a - np.tensordot(coeff.T, self.basis, axes=1)))
        denom = np.sqrt(sq_norm(a))
        return np.divide(diff, denom, out=np.zeros_like(diff), where=denom > 0)


GAP_THRESHOLD = 1e3
MAX_DENSE_DIM = 3200
SYMBOL_TOL = 1e-12  # the largest symbol-identity defect round-off explains


def _slice_basis(A: Connection, L: Matrix, tol: float):
    """``TangentBasis`` coefficients and phase of the kernel of the stacked
    operator (d_A^+, Lambda d^c_L), its smallest non-kernel singular value
    and the kernel gap: at a flat and constant Cartan connection (A = 0 too)
    the operator is block diagonal over Fourier modes and matrix entries, and
    each block's singular values follow from |xi + shift| (no discretization
    pollution); otherwise it is a dense null space, up to ``MAX_DENSE_DIM``."""
    shifts = _cartan_shifts(A)
    if shifts is None:
        basis, min_sv, gap = _dense_slice_basis(A, L, tol)
        return basis, np.ones((), dtype=complex), min_sv, gap
    return _mode_slice_basis(A.N, L, tol, shifts)


def horizontal_slice(A: Connection, L: Matrix, tol: float,
                     frame: Optional[HypercomplexFrame] = None) -> TangentBasis:
    """The slice basis cut by L, with its L^2 Gram matrix and the matrices
    of the three induced structures of ``frame`` in that basis."""
    if frame is None:
        frame = HypercomplexFrame.left()
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    F = curvature(A)
    _, res_norm = asd_residual(F)
    if res_norm > max(tol, 1e-8):
        raise ValueError(f"base connection is not ASD enough: |F+| = {res_norm:.3e}")
    coeffs, phase, min_sv, gap = _slice_basis(A, L, tol)
    gram = l2_gram(coeffs, coeffs)
    if np.linalg.eigvalsh(gram).min() <= 0:
        raise ValueError("slice Gram matrix is not positive definite")
    ops, invariance = {}, {}
    for name, Lf in zip("IJK", frame.matrices()):
        images = induced_structure(Lf, coeffs)
        ops[name] = np.linalg.solve(gram, l2_gram(coeffs, images))
        recon = np.tensordot(ops[name].T, coeffs, axes=1)
        invariance[name] = float(np.sqrt(sq_norm(images - recon)).max())
    return TangentBasis(base=A, structure=L, coeffs=coeffs, phase=phase, gram=gram,
                        ops=ops, invariance_defects=invariance, tol=tol,
                        min_nonkernel_sv=min_sv, gap=gap, gap_ok=gap > GAP_THRESHOLD,
                        curvature_norm=F.norm())


@lru_cache(maxsize=None)
def _modes(N: int) -> np.ndarray:
    """The frequency vectors xi of the N^4 Fourier modes in grid order, shape
    (N^4, 4); read-only, as shared."""
    xi = frequencies(N)[np.indices((N,) * 4).reshape(4, -1).T]
    xi.flags.writeable = False
    return xi


def _cartan_shifts(A: Connection) -> Optional[np.ndarray]:
    """The shifts theta_j - theta_k, shape (n, n, 4), of A_mu = i
    diag(theta^mu), whose coordinates are exactly constant and real on the
    diagonal (Cartan) generators and exactly 0 on the others, or None.
    D_mu acts on e^{i xi.x} E_jk as i(xi_mu + theta_j^mu - theta_k^mu)."""
    gens, a = su_basis(A.n), A.A.data
    diag = np.diagonal(gens, axis1=-2, axis2=-1)
    cartan = np.all(gens == diag[..., None] * np.eye(A.n), axis=(-2, -1))
    coords = a[:, :, 0, 0, 0, 0].real * cartan
    if not np.all(a == coords[..., None, None, None, None]):
        return None
    theta = coords @ diag.imag
    return np.moveaxis(theta[:, :, None] - theta[:, None, :], 0, -1)


def _mode_kernel(N: int, shifts: np.ndarray, tol: float):
    """The kernel rule at a constant Cartan connection: the norms r = |xi +
    shifts[j, k]| at the N^4 modes, shape (n, n, N^4), one pass per distinct
    shift; the mask r < tol of the vanishing channels; and the stabiliser,
    the mask of the ``su_basis`` generators each of whose nonzero entries
    has a vanishing channel."""
    alpha, channel = np.unique(shifts.reshape(-1, 4), axis=0, return_inverse=True)
    norms = np.linalg.norm(_modes(N) + alpha[:, None], axis=-1)
    norms = norms[channel.reshape(shifts.shape[:2])]
    vanish, gens = norms < tol, su_basis(len(shifts))
    return norms, vanish, np.all(vanish.any(axis=-1) | (gens == 0), axis=(-2, -1))


@lru_cache(maxsize=None)
def _certify_symbol(L: Matrix) -> None:
    """Check S_a^H S_b + S_b^H S_a = delta_ab I + (e_a e_b^T + e_b e_a^T)/2 on
    the slice symbols S_a = i slice_matrix(L)[:, 4a:4a+4] at the unit vectors,
    which gives sigma^H sigma = (|xi|^2 I + xi xi^T)/2 at every real xi."""
    eye = np.eye(4)
    S = 1j * slice_matrix(L).reshape(7, 4, 4).swapaxes(0, 1)
    G = np.einsum("aji,bjk->abik", S.conj(), S)
    want = np.einsum("ab,ik->abik", eye, eye) + (np.einsum("ai,bk->abik", eye, eye)
                                                 + np.einsum("bi,ak->abik", eye, eye)) / 2
    defect = float(np.abs(G + G.swapaxes(0, 1) - want).max())
    if defect > SYMBOL_TOL:
        raise RuntimeError(f"the slice symbol of this structure is not "
                           f"(|xi|^2 I + xi xi^T)/2: defect {defect:.3e}")


def _mode_slice_basis(N: int, L: Matrix, tol: float, shifts: np.ndarray):
    """Per-mode basis at a constant Cartan connection: by the identity that
    ``_certify_symbol`` checks, the block of entry (j, k) at the mode xi has
    the singular values r (1, 2^-1/2, 2^-1/2, 2^-1/2), r = |xi + shifts[j, k]|,
    so the smallest non-kernel one is the least r >= tol over sqrt 2 and the
    largest kernel one the largest r < tol. The gap is the smallest
    non-kernel value over the larger of the largest kernel one and tol."""
    _certify_symbol(L)
    norms, vanish, stabiliser = _mode_kernel(N, shifts, tol)
    min_sv = float(norms.min(where=~vanish, initial=np.inf)) / np.sqrt(2)
    gap = min_sv / max(float(norms.max(where=vanish, initial=0.0)), tol)
    # dx_mu x g at x = 0, row mu * len(gens) + g, for the stabiliser's unit
    # coordinate vectors g, and the phase e^{i xi.x} of each entry's first
    # vanishing mode (1 on the diagonal and at A = 0)
    gens = np.eye(len(stabiliser))[stabiliser]
    coeffs = np.einsum("mt,ga->mgta", np.eye(4), gens).reshape(-1, 4, len(gens[0]), 1, 1, 1, 1)
    xi = _modes(N)[vanish.argmax(axis=-1)]
    phase = np.exp(1j * np.einsum("jkm,m...->jk...", xi, np.indices((N,) * 4) / N))
    phase[np.eye(len(vanish), dtype=bool)] = 1.0
    return coeffs, phase, min_sv, gap


def _unit_fields(degree: int, N: int, n: int, rows: slice = slice(None)) -> np.ndarray:
    """The coordinate unit fields of su(n)-valued degree-p forms, the
    identity rows ``rows`` (all C m N^4 of them by default), shape (rows, C,
    m, N, N, N, N), complex: Re(D_N) would put the Nyquist modes of an even
    grid in the dense kernels."""
    shape = (len(TUPLES[degree]), len(su_basis(n))) + (N,) * 4
    ones = np.arange(math.prod(shape))[rows]
    unit = np.zeros((len(ones), math.prod(shape)), dtype=complex)
    unit[np.arange(len(ones)), ones] = 1.0
    return unit.reshape((-1,) + shape)


def _real_matrix(stack: np.ndarray) -> np.ndarray:
    """Columns [Re; Im] of each flattened array of a stack."""
    z = stack.reshape(len(stack), -1)
    return np.concatenate([z.real, z.imag], axis=1).T


def _dense_kernel(blocks: list, tol: float):
    """Singular values, right singular vectors and kernel mask (below tol
    relative to the largest, the threshold returned too) of the real matrix
    M stacked from the row blocks ``blocks``, from the SVD of R in M = QR,
    which zero rows do not change: a block of zeros (Im at odd N) is
    dropped, and one with no zero row is not copied."""
    masks = [np.any(b, axis=1) for b in blocks]
    kept = [b if m.all() else b[m] for b, m in zip(blocks, masks) if m.any()]
    M = kept[0] if len(kept) == 1 else np.concatenate(kept)
    _, svals, vt = np.linalg.svd(np.linalg.qr(M, mode="r"))
    threshold = tol * max(1.0, svals.max())
    return svals, vt, svals < threshold, threshold


def _dense_slice_basis(A: Connection, L: Matrix, tol: float):
    N, n = A.N, A.n
    dim = 4 * N ** 4 * len(su_basis(n))
    if dim > MAX_DENSE_DIM:
        raise ValueError(f"dense kernel extraction needs dimension <= "
                         f"{MAX_DENSE_DIM}, got {dim}")
    # the real matrix of the seven-component images, one chunk of unit
    # fields and columns at a time; Im (zero at odd N with a real
    # connection) only once a chunk has one
    op = slice_operator(A, L)
    re, im = np.empty((7 * dim // 4, dim), order="F"), None
    for cols in _chunks(dim, 16 * dim):
        unit = _unit_fields(1, N, n, cols)
        z = op(unit).reshape(len(unit), -1).T
        re[:, cols] = z.real
        if im is None and np.any(z.imag):
            im = np.zeros_like(re)
        if im is not None:
            im[:, cols] = z.imag
    svals, vt, kernel_mask, threshold = _dense_kernel([re] if im is None else [re, im], tol)
    kernel_dim = int(kernel_mask.sum())
    if kernel_dim == 0:
        raise RuntimeError("no kernel found for the slice operator")
    min_nonkernel = float(svals.min(where=~kernel_mask, initial=np.inf))
    gap = min_nonkernel / max(float(svals.max(where=kernel_mask, initial=0.0)), threshold)
    # vt rows are Euclidean-orthonormal coordinates of unit fields with L^2
    # Gram matrix I / N^4, so N^2 makes the kernel L^2-orthonormal
    basis = N ** 2 * vt[dim - kernel_dim:].reshape((kernel_dim,) + unit.shape[1:])
    return basis, min_nonkernel, gap


def gauge_kernel_dim(A: Connection, tol: float) -> int:
    """dim ker(d_A on su(n)-valued 0-forms): the Lie algebra of the
    stabiliser of A: at a constant Cartan connection, the generators whose
    entries all have a vanishing 0-form symbol i(xi + theta_j - theta_k);
    otherwise, the kernel of the dense singular values of d_A."""
    shifts = _cartan_shifts(A)
    if shifts is not None:
        return int(_mode_kernel(A.N, shifts, tol)[2].sum())
    z = d_raw(_unit_fields(0, A.N, A.n), 0, A.N, A=A.A.data)
    z = z.reshape(len(z), -1).T
    return int(_dense_kernel([z.real, z.imag], tol)[2].sum())


def induced_structure(L: Matrix, a):
    """The operator a -> sqrt(-1)(a^{0,1} - a^{1,0}) on 1-forms, computed
    through the (p,q) splitting as the ledger defines it, on a field or on a
    stack of 1-form arrays (..., 4, m, N, N, N, N). The tests check that
    it equals the coordinate formula -L(a)."""
    is_field = isinstance(a, LatticeField)
    if is_field and a.degree != 1:
        raise ValueError("induced structure acts on 1-forms")
    mat = 1j * (pq_matrix(L, 1, 0, 1) - pq_matrix(L, 1, 1, 0))
    out = apply_components(mat, a.data if is_field else a)
    return LatticeField(1, a.N, a.n, out) if is_field else out


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


def verify_moduli_structure(tb: TangentBasis,
                            frame: Optional[HypercomplexFrame] = None
                            ) -> ModuliStructureReport:
    """Check that the three induced operators make the slice quaternionic and
    the L^2 metric hyperhermitian, and that the slice does not depend on the
    structure used to cut it. The expected dimension is four times that of
    the stabiliser of the base connection."""
    if frame is None:
        frame = HypercomplexFrame.left()
    tol, A = tb.tol, tb.base
    dims = {"I": tb.dimension}
    distances = {}
    for name, L in zip("JK", (frame.J, frame.K)):
        # the cuts share I's phase: which modes vanish, |xi + shift| < tol,
        # depends only on A, N and tol once the symbol identity holds
        other, _, _, _ = _slice_basis(A, L, tol)
        dims[name] = len(other)
        distances[f"I-{name}"] = subspace_distance(tb.coeffs, other)
    expected = 4 * gauge_kernel_dim(A, tol)

    I_m, J_m, K_m = tb.ops["I"], tb.ops["J"], tb.ops["K"]
    eye = np.eye(tb.dimension)
    identities = {
        "I^2 = -Id": I_m @ I_m + eye,
        "J^2 = -Id": J_m @ J_m + eye,
        "K^2 = -Id": K_m @ K_m + eye,
        "IJ = K": I_m @ J_m - K_m,
        "IJ = -JI": I_m @ J_m + J_m @ I_m,
    }
    metric = {name: M.T @ tb.gram @ M - tb.gram for name, M in tb.ops.items()}
    # the eight spectral norms from one batched SVD
    norms = np.linalg.svd(np.stack([*identities.values(), *metric.values()]),
                          compute_uv=False).max(axis=-1).tolist()
    return ModuliStructureReport(kernel_dims=dims, expected_dim=expected,
                                 slice_distances=distances,
                                 identity_defects=dict(zip(identities, norms[:5])),
                                 invariance_defects=dict(tb.invariance_defects),
                                 metric_defects=dict(zip(metric, norms[5:])))


def hermitian_form_matrix(L: Matrix, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """W[i, j] = omega~(a_i, b_j), the integral of omega_L ^ tr(a_i ^ b_j),
    for two stacks of 1-form arrays (k, 4, m, N, N, N, N), with the slice
    representatives as their own horizontal lifts: the site-averaged traces
    tr(a_i,mu b_j,nu) for every (i, mu, j, nu) come from one product over
    the components (real on su(n)-valued fields)."""
    grid = a.shape[-5:]
    tr = -l2_gram(a.reshape((-1,) + grid), b.reshape((-1,) + grid))
    tr = tr.reshape(len(a), 4, len(b), 4)
    # tr(a ^ b) as a scalar 2-form, shape (6, len(a), len(b))
    tr2 = tr[:, _MU, :, _NU] - tr[:, _NU, :, _MU]
    return np.tensordot(hermitian_form_vector(L) @ wedge_pairing(2), tr2, axes=1)


def hermitian_form_sign(L: Matrix) -> float:
    """s in omega~ = s (I~ ., .) on L's slice: minus the sign of w_L ^ w_L."""
    return -float(np.sign(hermitian_form_vector(L) @ wedge_pairing(2) @ hermitian_form_vector(L)))


def hermitian_sign_defect(W: np.ndarray, G: np.ndarray, s: float) -> float:
    """|W - s G|_2 / |G|_2 for the expected sign s (``hermitian_form_sign``)."""
    return float(np.linalg.norm(W - s * G, 2) / np.linalg.norm(G, 2))


def moduli_hermitian_form(tb: TangentBasis, a1: LatticeField,
                          a2: LatticeField) -> float:
    """omega~(a1, a2) as in ``hermitian_form_matrix``. Inputs must lie in the
    slice."""
    defect = float(tb.projection_defect(np.stack([a1.data, a2.data])).max())
    if defect > max(tb.tol, 1e-8):
        raise ValueError(f"input not in the slice: defect {defect:.3e}")
    return float(hermitian_form_matrix(tb.structure, a1.data[None], a2.data[None])[0, 0])


def _coulomb_rows(structures: Sequence[Matrix]) -> np.ndarray:
    """Both sides of the Coulomb identity as one constant (1 + len(structures))
    x 16 block on the covariant gradient components D_mu a_t (column 4 mu +
    t): the row of d*_A a = -sum_mu D_mu a_mu, then Lambda d^c_L, row 6 of
    ``slice_matrix(L)``, for each structure L. Rows hold with any A, and
    *(d^c_L omega_L ^ a) = 0 on the flat torus (omega_L is constant), so
    equal rows prove the identity there for every 1-form and every A:
    ``moduli.coulomb-identity`` is the largest row difference."""
    d_star = -np.eye(4).reshape(1, 16)
    return np.vstack([d_star] + [slice_matrix(L)[6:] for L in structures])


def coulomb_identity_defect(a, structures: Sequence[Matrix],
                            A: Optional[Connection] = None) -> float:
    """Largest norm of d*_A a - Lambda d^c_L a - *(d^c_L omega_L ^ a) over
    the structures L and over a 1-form field or a stack of 1-form arrays
    (k, 4, m, N, N, N, N), streamed in chunks: both sides of each chunk,
    d*_A a and Lambda d^c_L a for every L, are one constant row block
    (``_coulomb_rows``) on one covariant gradient. The grid oracle of
    ``moduli.coulomb-identity``: the last term, zero on the flat torus as
    the Hermitian forms are constant, is still assembled in full."""
    if isinstance(a, LatticeField):
        if a.degree != 1:
            raise ValueError(f"the Coulomb identity acts on 1-forms, "
                             f"got a degree-{a.degree} field")
        stack = a.data[None]
    else:
        stack = a
        if stack.shape[-6] != 4:
            raise ValueError(f"the Coulomb identity acts on 1-forms (4 components), "
                             f"got {stack.shape[-6]} components")
    N, Ac = stack.shape[-1], _coupling(A)

    def star_wedge(L: Matrix) -> np.ndarray:
        # d^c_L omega_L from the constant Hermitian form (exactly zero spectrally)
        omega = np.multiply.outer(hermitian_form_vector(L), np.ones((1,) + (N,) * 4))
        return apply_components(wedge_pairing(3).T, dc_raw(L, omega, 2, N))

    terms = [star_wedge(L) for L in structures]
    rows = _coulomb_rows(structures)

    def chunk_defects(chunk: np.ndarray) -> np.ndarray:
        # a function, so that one chunk's sides are freed before the next
        # chunk's gradient is built
        sides = apply_components(rows, covariant_gradient(chunk, N, Ac))
        # (d^c omega) ^ a is a 4-form; its star is the scalar coefficient
        return np.concatenate([
            np.sqrt(sq_norm(sides[:, :1] - sides[:, i:i + 1]
                            - np.sum(sw * chunk, axis=-6, keepdims=True)))
            for i, sw in enumerate(terms, 1)])

    return float(max(chunk_defects(stack[s]).max()
                     for s in _chunks(len(stack), stack[0].nbytes)))
