"""su(n)-valued differential forms on a periodic N^4 grid with spectral
derivatives, plus the constant linear-algebra data (star, structure actions,
Lambda rows) shared with the exact symbolic engine.

Array layout: a degree-p field is one array of shape (..., C, m, N, N, N, N):
the C = binomial(4, p) components dx_t in ``TUPLES[p]`` order (lexicographic
index tuples), the m = n^2 - 1 coordinates on ``su_basis(n)`` (m = 1 for
u(1)), then the four lattice axes, so operators broadcast over leading batch
axes. An su(n)-valued field has real coordinates, a float64 array; complex
arrays hold complexified fields. The dtype picks the operator: ``deriv`` of
a real array is Re(D_N), the su(n) part of d. A constant component operator
(star, structure action, (p,q) projector, Lambda row) is one matrix over the
component axis, the Lie bracket a structure-constant bracket over the
coordinate axis; n x n matrices appear only in the dict constructor and the
files of ``save`` and ``load``. The torus has unit periods; mode
frequencies are the signed FFT representatives (the Nyquist mode of an even
grid maps to -N/2, keeping every nonzero mode's frequency nonzero so the
spectral complexes have no spurious kernels).
"""

from __future__ import annotations

import itertools
import json
import math
import struct
from functools import lru_cache
from typing import Optional

import numpy as np

from .forms import (
    DC_SIGN,
    _ALL_TUPLES as TUPLES,
    _MERGE,
    ConstantMetric,
    RationalForm,
    hodge_star,
    lambda_contract,
    pq_project,
    structure_action,
)
from .quaternions import Matrix


_EUCLID = ConstantMetric.euclidean()


# ---------------------------------------------------------------------------
# constant matrices derived from the symbolic engine (single source of truth
# for every sign convention)

def _form_to_vector(form: RationalForm, degree: int) -> np.ndarray:
    out = np.zeros(len(TUPLES[degree]), dtype=complex)
    for i, t in enumerate(TUPLES[degree]):
        f = form.coeffs.get(t)
        if f is not None:
            if not f.num.is_constant() or f.k != 0:
                raise ValueError("expected a constant-coefficient form")
            out[i] = complex(f.num.constant_value())
    return _real_if_real(out)


def _real_if_real(arr: np.ndarray) -> np.ndarray:
    """The real part of a complex array whose imaginary parts are all
    exactly 0, else the array: constant matrices with real entries (star,
    structure action, Lambda row, slice operator) are then real, and
    ``apply_components`` applies them by a real product."""
    return arr if arr.imag.any() else arr.real.copy()


def _constant_op_matrix(op, degree_in: int, degree_out: int) -> np.ndarray:
    cols = []
    for t in TUPLES[degree_in]:
        image = op(RationalForm.basis(t))
        cols.append(_form_to_vector(image, degree_out))
    return np.stack(cols, axis=1)


@lru_cache(maxsize=None)
def action_matrix(L: Matrix, degree: int) -> np.ndarray:
    """Numeric matrix of the pullback action on degree-m components."""
    return _constant_op_matrix(lambda f: structure_action(L, f), degree, degree)


@lru_cache(maxsize=None)
def star_matrix(degree: int) -> np.ndarray:
    """Euclidean Hodge star as a matrix on components."""
    return _constant_op_matrix(lambda f: hodge_star(_EUCLID, f), degree, 4 - degree)


@lru_cache(maxsize=None)
def sd_projector() -> np.ndarray:
    return 0.5 * (np.eye(6) + star_matrix(2))


@lru_cache(maxsize=None)
def hermitian_form_vector(L: Matrix) -> np.ndarray:
    """Components of the flat Hermitian form g(L., .) for the structure L."""
    from .hermitian import hermitian_form

    return _form_to_vector(hermitian_form(_EUCLID, L), 2)


@lru_cache(maxsize=None)
def lambda_row(L: Matrix) -> np.ndarray:
    """Row vector with Lambda(beta) = row . beta_components for the flat
    Hermitian form of L."""
    from .hermitian import hermitian_form

    omega = hermitian_form(_EUCLID, L)
    row = np.zeros(6, dtype=complex)
    for i, t in enumerate(TUPLES[2]):
        lam = lambda_contract(omega, RationalForm.basis(t))
        row[i] = complex(lam.num.constant_value()) if not lam.is_zero() else 0.0
    return _real_if_real(row)


@lru_cache(maxsize=None)
def slice_matrix(L: Matrix) -> np.ndarray:
    """The slice operator as one 7 x 16 matrix on the covariant gradient
    components D_mu a_t (column 4 mu + t): the self-dual part of d, then
    Lambda of d^c_L = -DC_SIGN L d L on 1-forms. Constant component matrices
    commute with [A_mu, .], so the matrix holds with a connection too."""
    inc = np.zeros((6, 16))
    for mu, (src, dst, sign) in enumerate(_incidence(1)):
        inc[dst, 4 * mu + np.array(src)] = sign
    dc = -DC_SIGN * action_matrix(L, 2) @ inc @ np.kron(np.eye(4), action_matrix(L, 1))
    return np.vstack([sd_projector() @ inc, lambda_row(L) @ dc])


@lru_cache(maxsize=None)
def pq_matrix(L: Matrix, degree: int, p: int, q: int) -> np.ndarray:
    return _constant_op_matrix(lambda f: pq_project(L, f, p, q), degree, degree)


@lru_cache(maxsize=None)
def wedge_pairing(degree_a: int) -> np.ndarray:
    """Matrix P with (alpha ^ beta)_top = sum P[i, j] alpha_i beta_j for
    alpha of the given degree and beta of complementary degree."""
    na, nb = len(TUPLES[degree_a]), len(TUPLES[4 - degree_a])
    out = np.zeros((na, nb))
    for i, s in enumerate(TUPLES[degree_a]):
        for j, t in enumerate(TUPLES[4 - degree_a]):
            merged, sign = _MERGE.get((s, t), (None, 0))
            if merged == (0, 1, 2, 3):
                out[i, j] = sign
    return out


def apply_components(mat: np.ndarray, data: np.ndarray) -> np.ndarray:
    """A constant matrix over the component axis:
    out[..., s, x] = sum_t mat[s, t] data[..., t, x]. A real matrix
    multiplies complex data as one real product on its (re, im) float view:
    half the flops of the complex product and, on finite data, the same
    numbers."""
    flat = data.reshape(data.shape[:-5] + (-1,))
    shape = data.shape[:-6] + (len(mat),) + data.shape[-5:]
    if np.iscomplexobj(mat) or not np.iscomplexobj(flat):
        return (mat @ flat).reshape(shape)
    if flat.strides[-1] != flat.itemsize:
        flat = np.ascontiguousarray(flat)
    return (mat @ flat.view(np.float64)).view(complex).reshape(shape)


# ---------------------------------------------------------------------------
# spectral derivatives

@lru_cache(maxsize=None)
def frequencies(N: int) -> np.ndarray:
    """Signed integer mode numbers times 2 pi, shape (N,)."""
    return 2.0 * np.pi * np.fft.fftfreq(N, d=1.0 / N)


@lru_cache(maxsize=None)
def _diff_matrix(N: int, after: int = 0, real: bool = False) -> np.ndarray:
    """ifft(diag(i k) fft(I)), the differentiation matrix of the symbol i k
    (Trefethen, Spectral Methods in MATLAB, ch. 3), with the negative sum
    trick (Baltensperger and Trummer, SIAM J. Sci. Comput. 24, 2003): the
    off-diagonal entries are rounded to multiples of a power of two u with
    twice the largest absolute row sum below 2^53 u, which makes every
    partial row sum exact, and each diagonal entry is minus the sum of its
    row's others. So D_N c = 0 exactly, in any summation order, for a
    constant c = +-2^k, or a complex one with such parts. Re(D_N), the
    su(n) part, when ``real``; kron(D^T, I_after), its product from the
    right on ``after`` trailing points, when ``after``; read-only."""
    if after:
        D = np.kron(_diff_matrix(N, 0, real).T, np.eye(after))
    elif real:
        D = _diff_matrix(N, 0, False).real.copy()
    else:
        D = np.fft.ifft(1j * frequencies(N)[:, None] * np.fft.fft(np.eye(N), axis=0), axis=0)
        np.fill_diagonal(D, 0.0)
        bound = 2 * (np.abs(D.real) + np.abs(D.imag)).sum(axis=1).max()
        u = 2.0 ** (math.frexp(bound)[1] - 53)
        D = np.round(D.real / u) * u + 1j * (np.round(D.imag / u) * u)
        np.fill_diagonal(D, -D.sum(axis=1))
    D.flags.writeable = False
    return D


@lru_cache(maxsize=None)
def fourier_basis(N: int) -> tuple[np.ndarray, np.ndarray]:
    """The real orthonormal Fourier basis of R^N as the rows of an N x N
    matrix F, and the FFT index k >= 0 of each row: 1/sqrt(N) (k = 0); then
    sqrt(2/N) cos(2 pi k j/N) and sqrt(2/N) sin(2 pi k j/N) for each
    0 < k < N/2; and (-1)^j/sqrt(N) (k = N/2) when N is even. A multiplier
    that is one number on the modes k and -k of an axis is diagonal in it.
    Both arrays read-only."""
    rows, index = [np.full(N, 1.0 / math.sqrt(N))], [0]
    j = np.arange(N)
    for k in range(1, (N + 1) // 2):
        angle = 2.0 * np.pi * (k * j % N) / N
        rows += [math.sqrt(2.0 / N) * np.cos(angle), math.sqrt(2.0 / N) * np.sin(angle)]
        index += [k, k]
    if N % 2 == 0:
        rows.append((-1.0) ** j / math.sqrt(N))
        index.append(N // 2)
    F, index = np.stack(rows), np.array(index)
    F.flags.writeable = index.flags.writeable = False
    return F, index


@lru_cache(maxsize=None)
def _fourier_matrix(N: int, after: int = 0, inverse: bool = False) -> np.ndarray:
    """``fourier_basis(N)``'s F, or F^T, its inverse, when ``inverse``;
    kron(F^T, I_after) (or kron(F, I_after)) when ``after``, as
    ``_diff_matrix``; read-only."""
    if after:
        M = np.kron(_fourier_matrix(N, 0, inverse).T, np.eye(after))
    else:
        F = fourier_basis(N)[0]
        M = F.T.copy() if inverse else F
    M.flags.writeable = False
    return M


def _along_axis(arr: np.ndarray, mu: int, N: int, matrix, flag: bool) -> np.ndarray:
    """M arr along lattice axis mu for the cached N x N matrix
    M = matrix(N, 0, flag): one batched product over the (before, axis,
    after) view. Along the last two axes those are tiny products (after = 1
    and N), so the (-1, N^2, N after) view is multiplied by
    matrix(N, after, flag) = kron(M^T, I_after) instead, N^2 rows per
    product so that OpenBLAS keeps each on one thread: along the last axis
    always, along the third while N^2 <= 48 (complex) or 16 (real; its
    zero-padded sums would round unlike the complex ones)."""
    axis = arr.ndim - 4 + mu
    after = math.prod(arr.shape[axis + 1:])
    if mu == 3 or (mu == 2 and N * N <= (48 if np.iscomplexobj(arr) else 16)):
        return (arr.reshape(-1, N * N, N * after)
                @ matrix(N, after, flag)).reshape(arr.shape)
    view = arr.reshape(math.prod(arr.shape[:axis]), N, after)
    return (matrix(N, 0, flag) @ view).reshape(arr.shape)


def deriv(arr: np.ndarray, mu: int, N: int) -> np.ndarray:
    """Spectral partial derivative along lattice axis mu: Re(D_N) (real
    array) or D_N (complex) along the axis, by ``_along_axis``."""
    return _along_axis(arr, mu, N, _diff_matrix, not np.iscomplexobj(arr))


@lru_cache(maxsize=None)
def _bracket_terms(m: int):
    """The structure constants f_abc = tr([B_a, B_b] B_c^dagger) of the m
    generators of ``su_basis``, round-off set to 0, grouped by pair: one
    (a, b, cs, fs) for each pair a < b with a nonzero bracket."""
    B = su_basis(math.isqrt(m + 1))
    comm = B[:, None] @ B[None] - B[None] @ B[:, None]
    f = np.einsum("abij,cij->abc", comm, B.conj()).real
    f[np.abs(f) < 1e-12] = 0.0
    return tuple((a, b, tuple(np.flatnonzero(f[a, b])), tuple(f[a, b][f[a, b] != 0]))
                 for a, b in itertools.combinations(range(m), 2) if np.any(f[a, b]))


def bracket(x: np.ndarray, y: np.ndarray, out: np.ndarray) -> None:
    """Add [x, y]_c = sum_{a<b} f_abc (x_a y_b - x_b y_a), for broadcast
    stacks of coordinates (axis -5), into ``out``: per pair, one difference
    of products of coordinate planes, added into each c it reaches."""
    for a, b, cs, fs in _bracket_terms(x.shape[-5]):
        w = x[..., a, :, :, :, :] * y[..., b, :, :, :, :]
        w -= x[..., b, :, :, :, :] * y[..., a, :, :, :, :]
        for c, f in zip(cs, fs):
            out[..., c, :, :, :, :] += f * w


def _promote(data: np.ndarray, A: Optional[np.ndarray]) -> np.ndarray:
    """``data`` in the result dtype of ``data`` and the connection array A,
    so that a real field meets a complex connection as a complex field."""
    return data if A is None else data.astype(np.result_type(data, A), copy=False)


def _covariant(arr: np.ndarray, mu: int, N: int,
               A: Optional[np.ndarray]) -> np.ndarray:
    """D_mu = d_mu + [A_mu, .]; plain d_mu when A is None; ``arr`` promoted."""
    term = deriv(arr, mu, N)
    if A is not None:
        bracket(A[mu], arr, term)
    return term


@lru_cache(maxsize=None)
def _incidence(degree: int):
    """Signed incidence of d on degree-m components, grouped by direction:
    for each mu, the components ``src`` t without mu, the positions ``dst``
    of mu ^ t among the (m+1)-components and the merge ``sign``s."""
    def rows(mu):
        for src, t in enumerate(TUPLES[degree]):
            merged, sign = _MERGE.get(((mu,), t), (None, 0))
            if sign:
                yield src, TUPLES[degree + 1].index(merged), sign
    return tuple(tuple(zip(*rows(mu))) for mu in range(4))


def covariant_gradient(data: np.ndarray, N: int,
                       A: Optional[np.ndarray] = None) -> np.ndarray:
    """The components D_mu a_t of a degree-m field (or stack), component
    C mu + t for the C components a_t: one D_mu per direction over every
    component at once, in the result dtype of the field and the connection."""
    data = _promote(data, A)
    C = data.shape[-6]
    grad = np.empty(data.shape[:-6] + (4 * C,) + data.shape[-5:], dtype=data.dtype)
    for mu in range(4):
        grad[..., C * mu:C * mu + C, :, :, :, :, :] = _covariant(data, mu, N, A)
    return grad


def _incidence_pass(data: np.ndarray, degree: int, N: int,
                    A: Optional[np.ndarray], adjoint: bool) -> np.ndarray:
    """d_A from degree to degree+1, or its adjoint back: per direction mu, one
    D_mu on the components mu reads, each result then added into its target
    in incidence order with the incidence sign, negated for the adjoint; in
    the result dtype of the field and the connection."""
    data = _promote(data, A)
    out = np.zeros(data.shape[:-6] + (len(TUPLES[degree + (not adjoint)]),)
                   + data.shape[-5:], dtype=data.dtype)
    for mu, (src, dst, sign) in enumerate(_incidence(degree)):
        read, write = (dst, src) if adjoint else (src, dst)
        terms = _covariant(np.take(data, read, axis=-6), mu, N, A)
        for i, (j, s) in enumerate(zip(write, sign)):
            target = out[..., j, :, :, :, :, :]
            (np.add if (s > 0) != adjoint else np.subtract)(
                target, terms[..., i, :, :, :, :, :], out=target)
    return out


def d_raw(data: np.ndarray, degree: int, N: int,
          A: Optional[np.ndarray] = None) -> np.ndarray:
    """d (or the gauge-coupled d_A when the connection array A of shape
    (4, m, N, N, N, N) is given) from degree to degree+1."""
    return _incidence_pass(data, degree, N, A, adjoint=False)


def d_adjoint(data: np.ndarray, degree: int, N: int,
              A: Optional[np.ndarray] = None) -> np.ndarray:
    """L^2 adjoint of d_raw, from degree to degree-1 (flat metric): each
    D_mu is skew-adjoint, so the incidence is read backwards with a minus
    sign. On 1-forms this is -sum_mu D_mu a_mu."""
    return _incidence_pass(data, degree - 1, N, A, adjoint=True)


def dc_raw(L: Matrix, data: np.ndarray, degree: int, N: int,
           A: Optional[np.ndarray] = None) -> np.ndarray:
    """Twisted differential d^c_L = DC_SIGN (-1)^m L d_A L on lattice forms."""
    sign = DC_SIGN * (-1 if degree % 2 else 1)
    inner = apply_components(action_matrix(L, degree), data)
    return apply_components(sign * action_matrix(L, degree + 1),
                            d_raw(inner, degree, N, A=A))


def l2_gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix of ``l2_inner`` between the fields of two stacks of field
    arrays, as one matrix product (a whole basis at once)."""
    N = a.shape[-1]
    return (a.reshape(len(a), -1) @ b.reshape(len(b), -1).T).real / N ** 4


def sq_norm(data: np.ndarray) -> np.ndarray:
    """Site-averaged squared Frobenius norm of each field in a stack, summed
    over its components: the squares of its (orthonormal) coordinates' real
    view, summed per field by numpy, which, unlike a BLAS dot or a batched
    einsum, rounds the same whatever the thread count and the stack."""
    N = data.shape[-1]
    flat = data.reshape(data.shape[:-6] + (-1,))
    flat = flat.view(flat.real.dtype)
    return (flat * flat).sum(axis=-1) / N ** 4


# ---------------------------------------------------------------------------
# su(n) basis and lattice fields

@lru_cache(maxsize=None)
def su_basis(n: int) -> np.ndarray:
    """Orthonormal basis of su(n) under <A,B> = Re tr(A B^dagger),
    shape (n^2-1, n, n), anti-Hermitian traceless. For n = 1 the algebra is
    u(1): imaginary scalars (line-bundle curvature lives there)."""
    if n == 1:
        return np.array([[[1j]]])
    if n < 1:
        raise ValueError("rank must be >= 1")
    mats = []
    s = 1.0 / np.sqrt(2.0)
    for a in range(n):
        for b in range(a + 1, n):
            x = np.zeros((n, n), dtype=complex)
            x[a, b], x[b, a] = s, -s
            mats.append(x)
            y = np.zeros((n, n), dtype=complex)
            y[a, b] = y[b, a] = 1j * s
            mats.append(y)
    for k in range(1, n):
        d = np.zeros((n, n), dtype=complex)
        for i in range(k):
            d[i, i] = 1j
        d[k, k] = -1j * k
        mats.append(d / np.sqrt(k * (k + 1)))
    return np.stack(mats)


class LatticeField:
    """Degree-p form with values in su(n) (u(1) when n = 1), sampled on the
    N^4 grid, held as one array ``data`` (C, m, N, N, N, N) of coordinates
    on ``su_basis(n)`` in ``TUPLES[degree]`` order. An array is stored as
    given, without a copy, if it is float64 or complex128, and converted to
    the nearer of the two otherwise; ``zeros`` and ``random`` are float64,
    the coordinates of an su(n) field. A dict keyed by those component
    tuples (absent ones are zero, any other key is an error) of grids (N, N,
    N, N, n, n) of traceless matrices (any scalar when n = 1) is contracted
    with tr(X B_a^dagger) into complex128 coordinates, whose real part is
    the su(n) part."""

    def __init__(self, degree: int, N: int, n: int, comps):
        if not 0 <= degree <= 4:
            raise ValueError("degree must be in 0..4")
        if N < 3:
            raise ValueError("grid size must be >= 3")
        self.degree = degree
        self.N = N
        self.n = n
        shape = (len(TUPLES[degree]), len(su_basis(n))) + (N,) * 4
        if isinstance(comps, np.ndarray):
            data = np.asarray(comps, dtype=np.result_type(comps.dtype, np.float64))
            if data.shape != shape:
                raise ValueError(f"field array has shape {data.shape}, want {shape}")
        else:
            data = np.zeros(shape, dtype=complex)
            for t, arr in comps.items():
                if t not in TUPLES[degree]:
                    raise ValueError(f"{t!r} is not a component of a degree-{degree} form")
                arr = np.asarray(arr, dtype=complex)
                if arr.shape != (N,) * 4 + (n, n):
                    raise ValueError(f"component {t} has shape {arr.shape}, "
                                     f"want {(N,) * 4 + (n, n)}")
                if n >= 2 and (np.abs(np.trace(arr, axis1=-2, axis2=-1)).max()
                               > 1e-12 * np.abs(arr).max()):
                    raise ValueError(f"component {t} is not traceless")
                data[TUPLES[degree].index(t)] = np.einsum("...jk,ajk->a...", arr,
                                                          su_basis(n).conj())
        self.data = data

    @staticmethod
    def zeros(degree: int, N: int, n: int) -> "LatticeField":
        shape = (len(TUPLES[degree]), len(su_basis(n))) + (N,) * 4
        return LatticeField(degree, N, n, np.zeros(shape))

    @staticmethod
    def random(degree: int, N: int, n: int, rng: np.random.Generator,
               scale: float = 1.0) -> "LatticeField":
        """Gaussian su(n) coordinates on ``su_basis(n)``, times ``scale``,
        drawn site by site (the coordinate axis last in the stream)."""
        coeff = rng.standard_normal((len(TUPLES[degree]),) + (N,) * 4 + (len(su_basis(n)),))
        data = np.empty((coeff.shape[0], coeff.shape[-1]) + coeff.shape[1:-1])
        np.multiply(np.moveaxis(coeff, -1, 1), scale, out=data)
        return LatticeField(degree, N, n, data)

    def __add__(self, other: "LatticeField") -> "LatticeField":
        self._check_compatible(other)
        return LatticeField(self.degree, self.N, self.n, self.data + other.data)

    def __sub__(self, other: "LatticeField") -> "LatticeField":
        self._check_compatible(other)
        return LatticeField(self.degree, self.N, self.n, self.data - other.data)

    def __mul__(self, scalar: float) -> "LatticeField":
        return LatticeField(self.degree, self.N, self.n, scalar * self.data)

    __rmul__ = __mul__

    def __neg__(self) -> "LatticeField":
        return self * -1.0

    def _check_compatible(self, other: "LatticeField"):
        if (self.degree, self.N, self.n) != (other.degree, other.N, other.n):
            raise ValueError("incompatible lattice fields")

    def norm(self) -> float:
        return float(np.sqrt(sq_norm(self.data)))

    # -- serialization ------------------------------------------------------

    MAGIC = b"LATF1\n"

    def save(self, path):
        """Magic, little-endian uint64 header length, JSON header, then the
        n x n matrices sum_a data_a B_a, one complex128 block per component in
        row-major grid and matrix order."""
        header = {
            "format": "lattice-field-v1",
            "N": self.N,
            "n": self.n,
            "degree": self.degree,
            "endianness": "little",
            "dtype": "complex128",
            "order": "C",
            "components": [list(t) for t in TUPLES[self.degree]],
        }
        blob = json.dumps(header).encode()
        with open(path, "wb") as fh:
            fh.write(self.MAGIC)
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)
            B = su_basis(self.n)
            mats = np.moveaxis(self.data, 1, -1) @ B.reshape(len(B), -1)
            fh.write(mats.astype("<c16").tobytes())

    @classmethod
    def load(cls, path) -> "LatticeField":
        with open(path, "rb") as fh:
            magic = fh.read(len(cls.MAGIC))
            if magic != cls.MAGIC:
                raise ValueError("not a lattice field file")
            raw = fh.read(8)
            if len(raw) < 8:
                raise ValueError("lattice field file is truncated in its header")
            (hlen,) = struct.unpack("<Q", raw)
            blob = fh.read(hlen)
            if len(blob) < hlen:
                raise ValueError("lattice field file is truncated in its header")
            header = json.loads(blob.decode())
            payload = fh.read()
        if not isinstance(header, dict) or header.get("format") != "lattice-field-v1":
            raise ValueError("unsupported field format")
        N, n, degree = header.get("N"), header.get("n"), header.get("degree")
        if not all(type(v) is int for v in (N, n, degree)) or N < 3 or n < 1 \
                or not 0 <= degree <= 4:
            raise ValueError(f"bad lattice field header: N={N!r}, n={n!r}, "
                             f"degree={degree!r}")
        if (header.get("endianness"), header.get("dtype"), header.get("order"),
                header.get("components")) != (
                "little", "complex128", "C", [list(t) for t in TUPLES[degree]]):
            raise ValueError("bad lattice field header: unsupported layout")
        shape = (len(TUPLES[degree]),) + (N,) * 4 + (n, n)
        want = math.prod(shape) * 16
        if len(payload) < want:
            raise ValueError(f"lattice field file is truncated: payload has "
                             f"{len(payload)} bytes, the header needs {want}")
        if len(payload) > want:
            raise ValueError(f"lattice field file has {len(payload) - want} "
                             f"bytes after its payload")
        mats = np.frombuffer(payload, dtype="<c16").reshape(shape)
        return cls(degree, N, n, dict(zip(TUPLES[degree], mats)))


def l2_inner(a: LatticeField, b: LatticeField) -> float:
    """L^2 inner product -integral tr(a ^ *b), positive definite on su(n)
    valued fields; the flat star reduces it to a component sum, and
    -tr(B_a B_b) = delta_ab to the unconjugated sum of coordinate products.
    numpy's pairwise summation keeps a single pairing accurate when it
    nearly cancels, which a BLAS dot product (``l2_gram``) does not."""
    a._check_compatible(b)
    prod = a.data * b.data
    return float(np.sum(np.sum(prod, axis=(-5, -4, -3, -2, -1)) / a.N ** 4).real)
