"""su(n)-valued differential forms on a periodic N^4 grid with spectral
derivatives, plus the constant linear-algebra data (star, structure actions,
Lambda rows) shared with the exact symbolic engine.

Array layout: every component is a complex array of shape
(..., N, N, N, N, n, n); the four lattice axes always sit directly before
the two matrix axes, so operators broadcast over arbitrary leading batch
axes. The torus has unit periods; mode frequencies are the signed FFT
representatives (the Nyquist mode of an even grid maps to -N/2, keeping
every nonzero mode's frequency nonzero so the spectral complexes have no
spurious kernels).
"""

from __future__ import annotations

import itertools
import json
import struct
from functools import lru_cache
from typing import Dict, Tuple

import numpy as np

from .forms import (
    ConstantMetric,
    RationalForm,
    _merge_sign,
    hodge_star,
    lambda_contract,
    pq_project,
    structure_action,
)
from .quaternions import Matrix

IndexTuple = Tuple[int, ...]

TUPLES = {m: tuple(itertools.combinations(range(4), m)) for m in range(5)}

LATTICE_AXES = (-6, -5, -4, -3)

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


Comps = Dict[IndexTuple, np.ndarray]


def _accumulate(out: Comps, key: IndexTuple, val: np.ndarray):
    if key in out:
        out[key] = out[key] + val
    else:
        out[key] = val


def d_raw(comps: Comps, degree: int, N: int, A: Comps | None = None) -> Comps:
    """d (or the gauge-coupled d_A when A is given) from degree to degree+1."""
    out: Comps = {}
    for t, arr in comps.items():
        for mu in range(4):
            if mu in t:
                continue
            merged, sign = _merge_sign((mu,), t)
            term = deriv(arr, mu, N)
            if A is not None:
                term = term + _commutator(A[(mu,)], arr)
            _accumulate(out, merged, sign * term)
    return out


def d_star_one_form(comps: Comps, N: int, A: Comps | None = None) -> np.ndarray:
    """Codifferential of a 1-form: -sum_mu D_mu a_mu (flat metric)."""
    total = None
    for mu in range(4):
        arr = comps[(mu,)]
        term = deriv(arr, mu, N)
        if A is not None:
            term = term + _commutator(A[(mu,)], arr)
        total = term if total is None else total + term
    return -total


def apply_matrix(mat: np.ndarray, comps: Comps, degree_in: int,
                 degree_out: int) -> Comps:
    """Apply a constant component matrix (like a structure action or star)."""
    tin, tout = TUPLES[degree_in], TUPLES[degree_out]
    out: Comps = {}
    for i, s in enumerate(tout):
        acc = None
        for j, t in enumerate(tin):
            c = mat[i, j]
            if c == 0 or t not in comps:
                continue
            term = c * comps[t]
            acc = term if acc is None else acc + term
        if acc is not None:
            out[s] = acc
    return out


def dc_raw(L: Matrix, comps: Comps, degree: int, N: int,
           A: Comps | None = None) -> Comps:
    """Twisted differential d^c_L = DC_SIGN (-1)^m L d_A L on lattice forms."""
    from .forms import DC_SIGN

    sign = DC_SIGN * (-1 if degree % 2 else 1)
    inner = apply_matrix(action_matrix(L, degree), comps, degree, degree)
    dd = d_raw(inner, degree, N, A=A)
    outer = apply_matrix(action_matrix(L, degree + 1), dd, degree + 1, degree + 1)
    if sign < 0:
        outer = {t: -v for t, v in outer.items()}
    return outer


def lambda_of(L: Matrix, comps2: Comps) -> np.ndarray:
    row = lambda_row(L)
    total = None
    for j, t in enumerate(TUPLES[2]):
        c = row[j]
        if c == 0 or t not in comps2:
            continue
        term = c * comps2[t]
        total = term if total is None else total + term
    return total


def frob_norm_sq(comps: Comps, N: int) -> float:
    """Site-averaged squared Frobenius norm, summed over components."""
    total = 0.0
    for arr in comps.values():
        total += float(np.sum(np.abs(arr) ** 2)) / N ** 4
    return total


def frob_norm(comps: Comps, N: int) -> float:
    return float(np.sqrt(frob_norm_sq(comps, N)))


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
    N^4 grid. Values are projected to the Lie algebra on write."""

    def __init__(self, degree: int, N: int, n: int, comps: Comps,
                 project: bool = True):
        if not 0 <= degree <= 4:
            raise ValueError("degree must be in 0..4")
        if N < 3:
            raise ValueError("grid size must be >= 3")
        self.degree = degree
        self.N = N
        self.n = n
        shape = (N, N, N, N, n, n)
        out: Comps = {}
        for t in TUPLES[degree]:
            arr = np.asarray(comps.get(t, np.zeros(shape)), dtype=complex)
            if arr.shape != shape:
                raise ValueError(f"component {t} has shape {arr.shape}, want {shape}")
            out[t] = project_su(arr, n) if project else arr.copy()
        self.comps = out

    @staticmethod
    def zeros(degree: int, N: int, n: int) -> "LatticeField":
        return LatticeField(degree, N, n, {}, project=False)

    @staticmethod
    def random(degree: int, N: int, n: int, rng: np.random.Generator,
               scale: float = 1.0) -> "LatticeField":
        basis = su_basis(n)
        comps = {}
        for t in TUPLES[degree]:
            coeff = rng.standard_normal((N, N, N, N, basis.shape[0]))
            comps[t] = scale * np.einsum("...a,aij->...ij", coeff, basis)
        return LatticeField(degree, N, n, comps, project=False)

    def copy(self) -> "LatticeField":
        return LatticeField(self.degree, self.N, self.n,
                            {t: a.copy() for t, a in self.comps.items()},
                            project=False)

    def fourier(self) -> Comps:
        """Spectral representation: plain FFT of each component."""
        return {t: np.fft.fftn(a, axes=LATTICE_AXES) for t, a in self.comps.items()}

    def __add__(self, other: "LatticeField") -> "LatticeField":
        self._check_compatible(other)
        return LatticeField(self.degree, self.N, self.n,
                            {t: self.comps[t] + other.comps[t] for t in self.comps},
                            project=False)

    def __sub__(self, other: "LatticeField") -> "LatticeField":
        self._check_compatible(other)
        return LatticeField(self.degree, self.N, self.n,
                            {t: self.comps[t] - other.comps[t] for t in self.comps},
                            project=False)

    def __mul__(self, scalar: float) -> "LatticeField":
        return LatticeField(self.degree, self.N, self.n,
                            {t: scalar * a for t, a in self.comps.items()},
                            project=False)

    __rmul__ = __mul__

    def __neg__(self) -> "LatticeField":
        return self * -1.0

    def _check_compatible(self, other: "LatticeField"):
        if (self.degree, self.N, self.n) != (other.degree, other.N, other.n):
            raise ValueError("incompatible lattice fields")

    def norm(self) -> float:
        return frob_norm(self.comps, self.N)

    def max_defect_from_su(self) -> float:
        """How far the stored values are from the Lie algebra (diagnostic)."""
        worst = 0.0
        for arr in self.comps.values():
            worst = max(worst, float(np.max(np.abs(arr - project_su(arr, self.n)))))
        return worst

    # -- serialization ------------------------------------------------------

    MAGIC = b"LATF1\n"

    def save(self, path):
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
            for t in TUPLES[self.degree]:
                fh.write(np.ascontiguousarray(self.comps[t]).astype("<c16").tobytes())

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
        shape = (N, N, N, N, n, n)
        block = int(np.prod(shape)) * 16
        want = block * len(TUPLES[degree])
        if len(payload) < want:
            raise ValueError(f"lattice field file is truncated: payload has "
                             f"{len(payload)} bytes, the header needs {want}")
        if len(payload) > want:
            raise ValueError(f"lattice field file has {len(payload) - want} "
                             f"bytes after its payload")
        comps = {t: np.frombuffer(payload, dtype="<c16", count=block // 16,
                                  offset=i * block).reshape(shape).astype(complex)
                 for i, t in enumerate(TUPLES[degree])}
        return cls(degree, N, n, comps, project=False)


def l2_inner(a: LatticeField, b: LatticeField) -> float:
    """L^2 inner product -integral tr(a ^ *b), positive definite on su(n)
    valued fields; the flat star reduces it to a component sum."""
    a._check_compatible(b)
    total = 0.0
    for t in a.comps:
        prod = np.einsum("...ij,...ji->...", a.comps[t], b.comps[t])
        total -= float(np.real(np.sum(prod))) / a.N ** 4
    return total
