"""su(n)-valued differential forms on a periodic N^4 grid with spectral
derivatives, plus the constant linear-algebra data (star, structure actions,
Lambda rows) shared with the exact symbolic engine.

Array layout: a degree-m field is one complex array of shape
(..., C, N, N, N, N, n, n). The component axis C holds the
C = binomial(4, m) basis forms dx_t in ``TUPLES[m]`` order (lexicographic
index tuples), the four lattice axes follow, and the two matrix axes come
last, so operators broadcast over arbitrary leading batch axes. A constant
component operator (star, structure action, (p,q) projector, Lambda row) is
one matrix applied over the component axis. The torus has unit periods;
mode frequencies are the signed FFT representatives (the Nyquist mode of an
even grid maps to -N/2, keeping every nonzero mode's frequency nonzero so
the spectral complexes have no spurious kernels).
"""

from __future__ import annotations

import itertools
import json
import struct
from functools import lru_cache
from typing import Optional

import numpy as np

from .forms import (
    DC_SIGN,
    ConstantMetric,
    RationalForm,
    _merge_sign,
    hodge_star,
    lambda_contract,
    pq_project,
    structure_action,
)
from .quaternions import Matrix

TUPLES = {m: tuple(itertools.combinations(range(4), m)) for m in range(5)}

LATTICE_AXES = (-6, -5, -4, -3)

# the six grid and matrix axes: ``data[(..., idx) + _GRID]`` picks the
# components ``idx`` of a field array or of a stack of them
_GRID = (slice(None),) * 6

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
    return out


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
    return row


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
            merged, sign = _merge_sign(s, t)
            if sign and merged == (0, 1, 2, 3):
                out[i, j] = sign
    return out


def apply_components(mat: np.ndarray, data: np.ndarray) -> np.ndarray:
    """A constant matrix over the component axis:
    out[..., s, x] = sum_t mat[s, t] data[..., t, x]."""
    flat = data.reshape(data.shape[:-6] + (-1,))
    return (mat @ flat).reshape(data.shape[:-7] + (len(mat),) + data.shape[-6:])


# ---------------------------------------------------------------------------
# spectral derivatives

@lru_cache(maxsize=None)
def frequencies(N: int) -> np.ndarray:
    """Signed integer mode numbers times 2 pi, shape (N,)."""
    return 2.0 * np.pi * np.fft.fftfreq(N, d=1.0 / N)


def deriv(arr: np.ndarray, mu: int, N: int) -> np.ndarray:
    """Spectral partial derivative along lattice axis mu."""
    axis = LATTICE_AXES[mu]
    shape = [1] * arr.ndim
    shape[axis] = N
    ik = (1j * frequencies(N)).reshape(shape)
    return np.fft.ifft(ik * np.fft.fft(arr, axis=axis), axis=axis)


def _commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def _covariant(arr: np.ndarray, mu: int, N: int,
               A: Optional[np.ndarray]) -> np.ndarray:
    """D_mu = d_mu + [A_mu, .]; plain d_mu when A is None."""
    term = deriv(arr, mu, N)
    if A is not None:
        term += _commutator(A[mu], arr)
    return term


@lru_cache(maxsize=None)
def _incidence(degree: int):
    """Signed incidence of d on degree-m components, one entry per mu: the
    components t without mu, the position of mu ^ t among the
    (m+1)-components, and the sign of that merge."""
    out = []
    for mu in range(4):
        src, dst, sign = [], [], []
        for j, t in enumerate(TUPLES[degree]):
            merged, s = _merge_sign((mu,), t)
            if s:
                src.append(j)
                dst.append(TUPLES[degree + 1].index(merged))
                sign.append(float(s))
        out.append((np.array(src), np.array(dst),
                    np.array(sign).reshape(-1, 1, 1, 1, 1, 1, 1)))
    return tuple(out)


def d_raw(data: np.ndarray, degree: int, N: int,
          A: Optional[np.ndarray] = None) -> np.ndarray:
    """d (or the gauge-coupled d_A when the connection array A of shape
    (4, N, N, N, N, n, n) is given) from degree to degree+1."""
    out = np.zeros(data.shape[:-7] + (len(TUPLES[degree + 1]),) + data.shape[-6:],
                   dtype=complex)
    for mu, (src, dst, sign) in enumerate(_incidence(degree)):
        out[(..., dst) + _GRID] += sign * _covariant(data[(..., src) + _GRID],
                                                     mu, N, A)
    return out


def d_adjoint(data: np.ndarray, degree: int, N: int,
              A: Optional[np.ndarray] = None) -> np.ndarray:
    """L^2 adjoint of d_raw, from degree to degree-1 (flat metric): each
    D_mu is skew-adjoint, so the incidence is read backwards with a minus
    sign. On 1-forms this is -sum_mu D_mu a_mu."""
    out = np.zeros(data.shape[:-7] + (len(TUPLES[degree - 1]),) + data.shape[-6:],
                   dtype=complex)
    for mu, (src, dst, sign) in enumerate(_incidence(degree - 1)):
        out[(..., src) + _GRID] -= sign * _covariant(data[(..., dst) + _GRID],
                                                     mu, N, A)
    return out


def dc_raw(L: Matrix, data: np.ndarray, degree: int, N: int,
           A: Optional[np.ndarray] = None) -> np.ndarray:
    """Twisted differential d^c_L = DC_SIGN (-1)^m L d_A L on lattice forms."""
    sign = DC_SIGN * (-1 if degree % 2 else 1)
    inner = apply_components(action_matrix(L, degree), data)
    return apply_components(sign * action_matrix(L, degree + 1),
                            d_raw(inner, degree, N, A=A))


def mean_trace(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Site average of tr(a b) for arrays (..., N, N, N, N, n, n); leading
    axes broadcast. numpy's pairwise summation keeps a single pairing
    accurate when it nearly cancels, which a BLAS dot product does not."""
    N = a.shape[-3]
    return np.sum(a * np.swapaxes(b, -1, -2), axis=(-6, -5, -4, -3, -2, -1)) / N ** 4


def l2_gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix of ``l2_inner`` between the fields of two stacks of field
    arrays, as one matrix product (a whole basis at once)."""
    N = a.shape[-3]
    fa = a.reshape(len(a), -1)
    fb = np.swapaxes(b, -1, -2).reshape(len(b), -1)
    return -(fa @ fb.T).real / N ** 4


def sq_norm(data: np.ndarray) -> np.ndarray:
    """Site-averaged squared Frobenius norm of each field in a stack, summed
    over its components."""
    N = data.shape[-3]
    return np.sum(np.abs(data) ** 2, axis=(-7, -6, -5, -4, -3, -2, -1)) / N ** 4


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


def project_su(arr: np.ndarray, n: int) -> np.ndarray:
    """Anti-Hermitian part, traceless for n >= 2 (u(1) keeps its trace)."""
    ah = 0.5 * (arr - np.conj(np.swapaxes(arr, -1, -2)))
    if n >= 2:
        tr = np.trace(ah, axis1=-1, axis2=-2) / n
        ah = ah - tr[..., None, None] * np.eye(n)
    return ah


class LatticeField:
    """Degree-p form with values in su(n) (u(1) when n = 1), sampled on the
    N^4 grid, held as one array ``data`` of shape (C, N, N, N, N, n, n) in
    ``TUPLES[degree]`` order. It is built from a dict of components (absent
    ones are zero) or from such an array, and projected to the Lie algebra
    on write."""

    def __init__(self, degree: int, N: int, n: int, comps,
                 project: bool = True):
        if not 0 <= degree <= 4:
            raise ValueError("degree must be in 0..4")
        if N < 3:
            raise ValueError("grid size must be >= 3")
        self.degree = degree
        self.N = N
        self.n = n
        shape = (len(TUPLES[degree]), N, N, N, N, n, n)
        if isinstance(comps, np.ndarray):
            data = np.array(comps, dtype=complex)
            if data.shape != shape:
                raise ValueError(f"field array has shape {data.shape}, want {shape}")
        else:
            data = np.zeros(shape, dtype=complex)
            for i, t in enumerate(TUPLES[degree]):
                if t in comps:
                    arr = np.asarray(comps[t], dtype=complex)
                    if arr.shape != shape[1:]:
                        raise ValueError(f"component {t} has shape {arr.shape}, "
                                         f"want {shape[1:]}")
                    data[i] = arr
        self.data = project_su(data, n) if project else data

    @staticmethod
    def zeros(degree: int, N: int, n: int) -> "LatticeField":
        return LatticeField(degree, N, n, {}, project=False)

    @staticmethod
    def random(degree: int, N: int, n: int, rng: np.random.Generator,
               scale: float = 1.0) -> "LatticeField":
        basis = su_basis(n)
        coeff = rng.standard_normal((len(TUPLES[degree]), N, N, N, N, basis.shape[0]))
        return LatticeField(degree, N, n,
                            scale * np.einsum("...a,aij->...ij", coeff, basis),
                            project=False)

    def copy(self) -> "LatticeField":
        return LatticeField(self.degree, self.N, self.n, self.data, project=False)

    def __add__(self, other: "LatticeField") -> "LatticeField":
        self._check_compatible(other)
        return LatticeField(self.degree, self.N, self.n, self.data + other.data,
                            project=False)

    def __sub__(self, other: "LatticeField") -> "LatticeField":
        self._check_compatible(other)
        return LatticeField(self.degree, self.N, self.n, self.data - other.data,
                            project=False)

    def __mul__(self, scalar: float) -> "LatticeField":
        return LatticeField(self.degree, self.N, self.n, scalar * self.data,
                            project=False)

    __rmul__ = __mul__

    def __neg__(self) -> "LatticeField":
        return self * -1.0

    def _check_compatible(self, other: "LatticeField"):
        if (self.degree, self.N, self.n) != (other.degree, other.N, other.n):
            raise ValueError("incompatible lattice fields")

    def norm(self) -> float:
        return float(np.sqrt(sq_norm(self.data)))

    def max_defect_from_su(self) -> float:
        """How far the stored values are from the Lie algebra (diagnostic)."""
        return float(np.max(np.abs(self.data - project_su(self.data, self.n))))

    # -- serialization ------------------------------------------------------

    MAGIC = b"LATF1\n"

    def save(self, path):
        """Magic, little-endian uint64 header length, JSON header, then the
        array in memory order: one complex128 block per component."""
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
            fh.write(self.data.astype("<c16").tobytes())

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
        shape = (len(TUPLES[degree]), N, N, N, N, n, n)
        want = int(np.prod(shape)) * 16
        if len(payload) < want:
            raise ValueError(f"lattice field file is truncated: payload has "
                             f"{len(payload)} bytes, the header needs {want}")
        if len(payload) > want:
            raise ValueError(f"lattice field file has {len(payload) - want} "
                             f"bytes after its payload")
        data = np.frombuffer(payload, dtype="<c16").reshape(shape)
        return cls(degree, N, n, data, project=False)


def l2_inner(a: LatticeField, b: LatticeField) -> float:
    """L^2 inner product -integral tr(a ^ *b), positive definite on su(n)
    valued fields; the flat star reduces it to a component sum."""
    a._check_compatible(b)
    return -float(np.sum(mean_trace(a.data, b.data)).real)
