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
    action_matrix,
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
    sd_projector,
    slice_matrix,
    sq_norm,
    su_basis,
    wedge_pairing,
)
from .quaternions import HypercomplexFrame, Matrix
from .report import CheckRecorder, CheckResult


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
    their coordinates are +-2^k, else to round-off. At A = 0, F is the zero
    2-form, exactly d of 0, and neither d nor the bracket runs."""
    a = conn.A.data.real
    if _coupling(conn) is None:
        return LatticeField(2, conn.N, conn.n, np.zeros((len(_MU),) + a.shape[1:]))
    F = d_raw(a, 1, conn.N)
    bracket(a[_MU], a[_NU], F)
    return LatticeField(2, conn.N, conn.n, F)


def asd_residual(F: LatticeField) -> Tuple[LatticeField, float]:
    """Self-dual part F+ = (F + *F)/2 and its L^2 norm; zero iff ASD."""
    if F.degree != 2:
        raise ValueError("curvature must be a 2-form")
    plus = apply_components(sd_projector(), F.data)
    return (LatticeField(2, F.N, F.n, plus),
            float(np.sqrt(sq_norm(plus))))


def _curvature_norms(A: Connection, rule: Optional[ModeRule]) -> Tuple[float, float]:
    """|F| and |F+| of the base: on the grid by ``curvature`` and
    ``asd_residual``, or, per mode (``rule`` not None, so A is exactly
    constant), at one site: row 0 of Re(D_N), ``deriv``'s own matrix, on the
    line of each coordinate, the one-site bracket and ``sd_projector``. Each
    site's d of a constant sums its own row of D_N, so the grid norms differ
    from these by round-off only; at A = 0 both are exactly 0.0, and neither
    d nor the bracket runs."""
    if rule is None:
        F = curvature(A)
        return F.norm(), asd_residual(F)[1]
    N = A.N
    a = A.A.data[:, :, :1, :1, :1, :1].real
    F = np.zeros((len(_MU),) + a.shape[1:])
    if _coupling(A) is not None:
        lines = np.repeat(a.reshape(-1, 1, 1, 1, 1), N, axis=1)
        da = deriv(lines, 0, N)[:, 0, 0, 0, 0].reshape(a.shape[:2])
        F[:, :, 0, 0, 0, 0] = da[_NU] - da[_MU]
        bracket(a[_MU], a[_NU], F)
    plus = apply_components(sd_projector(), F)
    return float(np.sqrt(sq_norm(F))), float(np.sqrt(sq_norm(plus)))


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
def _basis_weights(N: int) -> np.ndarray:
    """The weights w = c / (c + sum_mu kappa_mu^2) of the flow's
    preconditioner at the rows of ``fourier_basis(N)`` along each axis,
    c = ``FLOW_SHIFT``; read-only, as shared. kappa is ``frequencies(N)`` at
    each row's index k >= 0, with the Nyquist row of an even grid counted as
    0: d of a real Nyquist mode is imaginary and Re(D_N), the d of real
    fields, drops it, so those modes have no linear restoring force to damp."""
    k = fourier_basis(N)[1]
    kappa = np.where(2 * k == N, 0.0, frequencies(N)[k])
    k2 = kappa ** 2
    w = FLOW_SHIFT / (FLOW_SHIFT + k2[:, None, None, None] + k2[:, None, None]
                      + k2[:, None] + k2)
    w.flags.writeable = False
    return w


def _precondition(grad: np.ndarray, N: int) -> np.ndarray:
    """P grad = F^-1 diag(w) F grad for a real ``grad``: the real basis
    ``fourier_basis(N)`` along each of the four lattice axes, times
    ``_basis_weights(N)``, and the transpose back, eight real products with
    N x N matrices by ``deriv``'s kernel. This is the Fourier multiplier
    c / (c + sum_mu kappa_mu^2) on the N^4 modes exactly: it depends on each
    kappa_mu^2 alone, and kappa(-k)^2 = kappa(k)^2 (the Nyquist kappa is 0),
    so on each axis P is one number on span{cos, sin} of each |k|, diagonal
    in the basis, and maps real fields to real fields. The products
    ping-pong between two buffers; ``grad`` is kept."""
    bufs = np.empty_like(grad), np.empty_like(grad)
    out = grad
    for mu in range(4):
        out = _along_axis(out, mu, N, _fourier_matrix, False, out=bufs[mu % 2])
    out *= _basis_weights(N)
    for mu in range(4):
        out = _along_axis(out, mu, N, _fourier_matrix, True, out=bufs[mu % 2])
    return out


def _flow_gradient(a: np.ndarray, plus: np.ndarray, N: int) -> np.ndarray:
    """The gradient of |F+|^2 over su(n)-valued connections at the real
    connection array ``a`` with self-dual curvature ``plus`` (real, from
    ``curvature``): 2 d_A^* F+, whose real arrays make it the su(n) part."""
    return 2.0 * d_adjoint(plus, 2, N, a)


def ym_flow(A0: Connection, step: float, max_iters: int,
            reduction: float) -> FlowResult:
    """Fourier-preconditioned gradient descent on the squared self-dual
    residual |F+|^2.

    The flow moves the su(n) part of ``A0`` (its real coordinates) in real
    arrays by -step P g: g = 2 d_A^* F+, the gradient of |F+|^2 over
    su(n)-valued connections, and P the Fourier multiplier of
    ``_precondition`` (Davies et al., Phys. Rev. D 37, 1988). ``step`` is
    the first step. With p = (P g_prev).g_prev and q = (P g_prev).g, an
    accepted move s = -a P g_prev has s.y = a (p - q) and s.g_prev = -a p,
    so the Barzilai-Borwein step in the metric of P^-1 (Barzilai and
    Borwein, IMA J. Numer. Anal. 8, 1988), s^T P^-1 s / s^T y =
    a p / (p - q), is taken if p > q (s.y > 0), else the last, under a
    monotone guard (Raydan, SIAM J. Optim. 7, 1997): a move is accepted
    only if |F+|^2 does not increase, else the step is halved. Between
    steps the flow holds its array, F+, the last P g and p (P is positive
    definite: p = 0 iff g = 0). The flow stops once |F+|^2 is at most
    ``reduction`` times its value at ``A0``.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    N, n = A0.N, A0.n

    def residual_sq(a: np.ndarray) -> Tuple[float, np.ndarray]:
        with np.errstate(over="ignore", invalid="ignore"):  # the flow tests finiteness
            F = curvature(Connection(LatticeField(1, N, n, a)))
            plus = apply_components(sd_projector(), F.data)
            return float(sq_norm(plus)), plus

    a = A0.A.data.real.copy()
    s2, plus = residual_sq(a)
    if not np.isfinite(s2):
        raise FlowDiverged("non-finite residual at the starting connection")
    history, target = [s2], reduction * s2
    iters, direction = 0, None
    while iters < max_iters and s2 > target:
        grad = _flow_gradient(a, plus, N)
        if direction is not None:
            q = np.vdot(direction, grad).real
            step = step * p / (p - q) if p > q else step
        direction = _precondition(grad, N)
        p = np.vdot(direction, grad).real
        del grad
        if not np.isfinite(p):
            raise FlowDiverged("non-finite gradient")
        if p == 0.0:
            break
        for _ in range(60):
            trial = a - step * direction
            s2_new, plus_new = residual_sq(trial)
            if not np.isfinite(s2_new):
                raise FlowDiverged("non-finite residual")
            if s2_new <= s2:
                a, s2, plus = trial, s2_new, plus_new
                break
            del trial, plus_new
            step *= 0.5
        iters += 1
        history.append(s2)
        if s2_new > s2:  # sixty halvings, none accepted
            break
    return FlowResult(connection=Connection(LatticeField(1, N, n, a)), history=history,
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
    """L^2-orthonormal basis ``_on_grid(coeffs, phase)`` of the horizontal
    slice cut by ``structure``, and no check on it: per mode ``coeffs`` (d,
    4, m, 1, 1, 1, 1) are unit coordinate vectors at x = 0, each matrix
    entry at the mode of ``rule.modes``; on the dense path ``coeffs`` is the
    grid basis. ``curvature_norm`` is |F_A| of the base
    (``_curvature_norms``) and ``rule`` its ``ModeRule`` at ``tol``, None on
    the dense path. ``verify_moduli_structure`` checks the slice with the
    induced structures of ``frame``."""

    base: Connection
    structure: Matrix
    frame: HypercomplexFrame
    coeffs: np.ndarray
    tol: float
    min_nonkernel_sv: float
    gap: float
    curvature_norm: float
    rule: Optional[ModeRule]

    @property
    def gap_ok(self) -> bool:
        return self.gap > GAP_THRESHOLD

    @property
    def dimension(self) -> int:
        return len(self.coeffs)

    @property
    def phase(self) -> np.ndarray:
        """The plane waves e^{i xi.x} of the entries' modes, (n, n, N, N, N,
        N), built on each call (no check reads them); 1 on the dense path."""
        if self.rule is None:
            return np.ones((), dtype=complex)
        N = self.base.N
        return np.exp(1j * np.einsum("jkm,m...->jk...", self.rule.modes, np.indices((N,) * 4) / N))

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
        """``residual(coeffs, phase)`` with no grid array: at a constant
        Cartan connection element i's image on the matrix entry e is B_ie G_e,
        B_ie the 7 x 4 matrix slice_matrix(L) times coeffs[i]'s entries e and
        G_e[mu] = d_mu p_e + i shift_e,mu p_e for the entry's plane wave p_e,
        a product of four axis lines p_mu. So G_e = R_e^T Q_e, Q_e with
        orthonormal rows, for a 5 x 4 R_e read off the lines, |B_ie G_e|_F =
        |B_ie R_e^T|_F, and B_ie R_e^T is the row of entries e of coeffs[i]
        times the 4 x 35 block M_e = S (x) R_e (docs/conventions.md, one-site
        reduction). On the dense path it is ``residual(coeffs)``."""
        if self.rule is None:
            return self.residual(self.coeffs)
        N, n = self.base.N, self.base.n
        p = np.exp(1j * self.rule.modes.reshape(n * n, 4, 1) * (np.arange(N) / N))
        # D_N along each line, by deriv's own matrix on axis 0 of a grid view
        q = deriv(p.reshape(-1, N, 1, 1, 1), 0, N).reshape(p.shape)
        q += 1j * self.rule.shifts.reshape(n * n, 4, 1) * p
        c = (p.conj() * q).sum(axis=-1)
        r = q - c[..., None] / N * p
        r_norm = np.sqrt((r.real * r.real + r.imag * r.imag).sum(axis=-1))
        # q_mu = (c_mu/N) p_mu + r_mu with r_mu orthogonal to p_mu: R_e has rows
        # N c and N^(3/2) |r_mu| e_mu, here over N^2 as residual's site average
        R = np.concatenate([c[:, None] / N, r_norm[:, :, None] * np.eye(4) / np.sqrt(N)], axis=1)
        entries = self.coeffs.reshape(self.dimension, 4, -1) @ su_basis(n).reshape(-1, n * n)
        # M_e[t, (s, u)] = sum_mu S[s, mu, t] R_e[u, mu], S = slice_matrix(L)
        # as (7, 4, 4): rows (t, s) of S times R_e^T
        S = slice_matrix(self.structure).reshape(7, 4, 4).transpose(2, 0, 1).reshape(28, 4)
        M = (S @ R.swapaxes(-1, -2)).reshape(n * n, 4, -1)
        images = np.moveaxis(entries, -1, 0) @ M
        return np.linalg.norm(images.swapaxes(0, 1).reshape(self.dimension, -1), axis=1)

    def projection_defect(self, a: np.ndarray) -> np.ndarray:
        """Relative L^2 distance from the slice of each 1-form array of a
        stack (k, 4, m, N, N, N, N), by its L^2 pairings with the orthonormal
        basis; zero for a zero field."""
        diff = np.sqrt(sq_norm(a - np.tensordot(l2_gram(a, self.basis), self.basis, axes=1)))
        denom = np.sqrt(sq_norm(a))
        return np.divide(diff, denom, out=np.zeros_like(diff), where=denom > 0)


GAP_THRESHOLD = 1e3
MAX_DENSE_DIM = 3200
SYMBOL_TOL = 1e-12  # the largest symbol-identity defect round-off explains


def horizontal_slice(A: Connection, L: Matrix, tol: float,
                     frame: Optional[HypercomplexFrame] = None) -> TangentBasis:
    """The L^2-orthonormal slice basis cut by L, with its gap, for
    ``verify_moduli_structure`` to check with the structures of ``frame``:
    at a flat or constant Cartan connection every L whose symbol
    ``_certify_symbol`` certifies reads the one ``_mode_rule(A, tol)``; else
    the slice is a dense null space, up to ``MAX_DENSE_DIM``. The base must
    be ASD within max(tol, 1e-8), by ``_curvature_norms``."""
    if frame is None:
        frame = HypercomplexFrame.left()
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    rule = _mode_rule(A, tol)
    F_norm, res_norm = _curvature_norms(A, rule)
    if res_norm > max(tol, 1e-8):
        raise ValueError(f"base connection is not ASD enough: |F+| = {res_norm:.3e}")
    if rule is None:
        coeffs, min_sv, gap = _dense_slice_basis(A, L, tol)
    else:
        _certify_symbol(L)
        coeffs, min_sv, gap = rule.coeffs, rule.min_sv, rule.gap
    return TangentBasis(base=A, structure=L, frame=frame, coeffs=coeffs, tol=tol,
                        min_nonkernel_sv=min_sv, gap=gap, curvature_norm=F_norm, rule=rule)


@lru_cache(maxsize=None)
def _modes(N: int) -> np.ndarray:
    """The frequency vectors xi of the N^4 Fourier modes in grid order, shape
    (N^4, 4); read-only, as shared."""
    xi = frequencies(N)[np.indices((N,) * 4).reshape(4, -1).T]
    xi.flags.writeable = False
    return xi


@lru_cache(maxsize=None)
def _cartan_generators(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The mask of the diagonal (Cartan) generators of ``su_basis(n)`` and
    the imaginary parts of all the generators' diagonals, (m, n); read-only."""
    gens = su_basis(n)
    diag = np.diagonal(gens, axis1=-2, axis2=-1)
    cartan = np.all(gens == diag[..., None] * np.eye(n), axis=(-2, -1))
    cartan.flags.writeable = False
    return cartan, diag.imag


def _cartan_shifts(A: Connection) -> Optional[np.ndarray]:
    """The shifts theta_j - theta_k, shape (n, n, 4), of A_mu = i
    diag(theta^mu), whose coordinates are exactly constant and real on the
    diagonal (Cartan) generators and exactly 0 on the others, or None.
    D_mu acts on e^{i xi.x} E_jk as i(xi_mu + theta_j^mu - theta_k^mu)."""
    (cartan, diag), a = _cartan_generators(A.n), A.A.data
    coords = a[:, :, 0, 0, 0, 0].real * cartan
    if not np.all(a == coords[..., None, None, None, None]):
        return None
    theta = coords @ diag
    return np.moveaxis(theta[:, :, None] - theta[:, None, :], 0, -1)


def _mode_kernel(N: int, shifts: np.ndarray, tol: float):
    """The kernel rule at a constant Cartan connection, per distinct shift
    alpha among the channels' ``shifts`` (n, n, 4), grouped by value as float
    tuples (-0.0 joins 0.0): the norms r = |xi + alpha| at the N^4 modes,
    shape (k, N^4), one pass each; the mask r < tol of the vanishing modes;
    ``channel`` (n, n), the row of each channel's shift; and the stabiliser,
    the mask of the ``su_basis`` generators each of whose nonzero entries
    has a vanishing channel."""
    groups: Dict[tuple, int] = {}
    channel = np.array([groups.setdefault(alpha, len(groups))
                        for alpha in map(tuple, shifts.reshape(-1, 4).tolist())])
    channel = channel.reshape(shifts.shape[:2])
    norms = np.empty((len(groups), N ** 4))
    for row, alpha in zip(norms, groups):
        r = _modes(N) + alpha
        r *= r
        np.sqrt(r.sum(axis=-1), out=row)
    vanish, gens = norms < tol, su_basis(len(shifts))
    stabiliser = np.all(vanish.any(axis=-1)[channel] | (gens == 0), axis=(-2, -1))
    return norms, vanish, channel, stabiliser


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


@dataclass
class ModeRule:
    """The per-mode slice rule of a constant Cartan connection at a tol,
    which no cutting structure changes once its symbol is certified: the
    ``_cartan_shifts``, the stabiliser mask of ``_mode_kernel``, and the
    slice's one-site ``coeffs``, the mode xi of each matrix entry (``modes``,
    (n, n, 4), 0 on the diagonal), its smallest non-kernel singular value and
    its gap (``_mode_rule``)."""

    shifts: np.ndarray
    stabiliser: np.ndarray
    coeffs: np.ndarray
    modes: np.ndarray
    min_sv: float
    gap: float


def _mode_rule(A: Connection, tol: float) -> Optional[ModeRule]:
    """The ``ModeRule`` of A at tol, or None if A is not constant Cartan: by
    the identity that ``_certify_symbol`` checks, the block of entry (j, k)
    at the mode xi has the singular values r (1, 2^-1/2, 2^-1/2, 2^-1/2),
    r = |xi + shifts[j, k]|, so the smallest non-kernel one is the least
    r >= tol over sqrt 2 and the largest kernel one the largest r < tol. The
    gap is the smallest non-kernel value over the larger of the largest
    kernel one and tol."""
    shifts = _cartan_shifts(A)
    if shifts is None:
        return None
    N = A.N
    norms, vanish, channel, stabiliser = _mode_kernel(N, shifts, tol)
    min_sv = float(norms.min(where=~vanish, initial=np.inf)) / np.sqrt(2)
    gap = min_sv / max(float(norms.max(where=vanish, initial=0.0)), tol)
    # dx_mu x g at x = 0, row mu * len(gens) + g, for the stabiliser's unit
    # coordinate vectors g, and each entry's first vanishing mode (0 on the
    # diagonal, whose shift is 0, and at A = 0)
    gens = np.eye(len(stabiliser))[stabiliser]
    coeffs = np.einsum("mt,ga->mgta", np.eye(4), gens).reshape(-1, 4, len(gens[0]), 1, 1, 1, 1)
    modes = _modes(N)[vanish.argmax(axis=-1)][channel]
    return ModeRule(shifts, stabiliser, coeffs, modes, min_sv, gap)


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


def gauge_kernel_dim(A: Connection, tol: float, rule: Optional[ModeRule]) -> int:
    """dim ker(d_A on su(n)-valued 0-forms): the Lie algebra of the
    stabiliser of A: at a constant Cartan connection, the generators whose
    entries all have a vanishing 0-form symbol i(xi + theta_j - theta_k),
    counted from ``rule = _mode_rule(A, tol)``; with ``rule`` None, the
    kernel of the dense singular values of d_A."""
    if rule is not None:
        return int(rule.stabiliser.sum())
    z = d_raw(_unit_fields(0, A.N, A.n), 0, A.N, A=A.A.data)
    z = z.reshape(len(z), -1).T
    return int(_dense_kernel([z.real, z.imag], tol)[2].sum())


def induced_structure(L: Matrix, a):
    """The operator a -> sqrt(-1)(a^{0,1} - a^{1,0}) on 1-forms, read as the
    ledger's coordinate formula -L(a), on a field or on a stack of 1-form
    arrays (..., 4, m, N, N, N, N). The tests check it against the (p,q)
    splitting."""
    is_field = isinstance(a, LatticeField)
    if is_field and a.degree != 1:
        raise ValueError("induced structure acts on 1-forms")
    out = apply_components(-action_matrix(L, 1), a.data if is_field else a)
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


def verify_moduli_structure(tb: TangentBasis) -> List[CheckResult]:
    """The slice's ``moduli.*`` checks, in report order, each computed here
    once from ``tb.coeffs``: its dimension is four times that of the
    stabiliser of the base connection, with a clear gap, and it solves the
    slice equations; the J and K of ``tb.frame`` cut the same slice; the
    three induced operators make it quaternionic and preserve it, and the
    L^2 metric is hyperhermitian; the Hermitian form is the L^2 pairing of
    I~ with one global sign. Per mode, J and K cut the slice itself once
    ``_certify_symbol`` holds for them. On the dense path a J or K whose
    ``slice_matrix`` equals the slice's own (``np.array_equal``, as on the
    six frame structures) cuts the slice itself too; another is cut by
    ``_dense_slice_basis`` and measured by ``subspace_distance``."""
    rec = CheckRecorder()
    tol, A = tb.tol, tb.base
    dims, distances = [tb.dimension], [0.0]
    for L in (tb.frame.J, tb.frame.K):
        if tb.rule is not None:
            _certify_symbol(L)
        elif not np.array_equal(slice_matrix(L), slice_matrix(tb.structure)):
            other = _dense_slice_basis(A, L, tol)[0]
            dims.append(len(other))
            distances.append(subspace_distance(tb.coeffs, other))
    expected = 4 * gauge_kernel_dim(A, tol, tb.rule)

    # on the orthonormal basis an operator's matrix M is the basis's pairing
    # with its images, with no solve; M^T coeffs is their part in the slice.
    # Each distinct structure, the slice's own among them, is applied once
    frame = tb.frame.matrices()
    images = {L: induced_structure(L, tb.coeffs) for L in dict.fromkeys((*frame, tb.structure))}
    ops = [l2_gram(tb.coeffs, images[L]) for L in frame]
    invariance = [float(np.sqrt(sq_norm(images[L] - np.tensordot(M.T, tb.coeffs, axes=1))).max())
                  for L, M in zip(frame, ops)]
    I_m, J_m, K_m = ops
    eye = np.eye(tb.dimension)
    identities = {"I^2=-Id": I_m @ I_m + eye, "J^2=-Id": J_m @ J_m + eye,
                  "K^2=-Id": K_m @ K_m + eye, "IJ=K": I_m @ J_m - K_m,
                  "IJ=-JI": I_m @ J_m + J_m @ I_m}
    # the eight spectral norms from one batched SVD
    norms = np.linalg.svd(np.stack([*identities.values(), *(M.T @ M - eye for M in ops)]),
                          compute_uv=False).max(axis=-1).tolist()

    rec.add("moduli.kernel-dimension", tb.dimension == expected,
            float(abs(tb.dimension - expected)), "dim T[A] = 4 dim H^0(A)")
    rec.add("moduli.kernel-gap", tb.gap_ok,
            0.0 if not np.isfinite(tb.gap) else 1.0 / tb.gap, "plumbing")
    worst = float(tb.slice_defects().max())
    rec.add("moduli.slice-equations", worst < tol, worst,
            "d_A^+ a = 0 and Lambda d^c_L a = 0")
    rec.add("moduli.slice-same-for-IJK",
            all(d == expected for d in dims) and max(distances) < tol, max(distances),
            "tangent space independent of the cutting structure")
    for group, names, values, ref in (
            ("structure", identities, norms[:5], "induced structures are quaternionic"),
            ("slice-invariance", "IJK", invariance, "induced structures preserve the slice"),
            ("metric-invariance", "IJK", norms[5:],
             "L^2 metric Hermitian for each induced structure")):
        for name, defect in zip(names, values):
            rec.add(f"moduli.{group}.{name}", defect < tol, defect, ref)

    # Hermitian 2-form against the L^2 metric on the whole slice: W = s G
    W = hermitian_form_matrix(tb.structure, tb.coeffs, tb.coeffs)
    G = l2_gram(images[tb.structure], tb.coeffs)
    defect = hermitian_sign_defect(W, G, hermitian_form_sign(tb.structure))
    rec.add("moduli.hermitian-form-sign", defect < 1e-8, defect,
            "omega~(a1,a2) = +/- (I~ a1, a2) with one global sign")
    return rec.checks


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
    """|W - s G|_2 / |G|_2 for the expected sign s (``hermitian_form_sign``),
    both spectral norms from one batched SVD."""
    diff, scale = np.linalg.svd(np.stack([W - s * G, G]), compute_uv=False).max(axis=-1)
    return float(diff / scale)


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
