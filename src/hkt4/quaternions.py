"""Exact quaternion algebra and the 4x4 matrix realizations of the left and
right multiplication actions on R^4 identified with the quaternions.

Coordinates follow x = x0 + x1 i + x2 j + x3 k throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Literal, Sequence, Tuple

from .exact import _frac

Matrix = Tuple[Tuple[Fraction, ...], ...]

Side = Literal["left", "right"]


class Quaternion:
    """Quaternion with exact rational coordinates in the basis 1, i, j, k."""

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w=0, x=0, y=0, z=0):
        self.w = _frac(w)
        self.x = _frac(x)
        self.y = _frac(y)
        self.z = _frac(z)

    @staticmethod
    def unit(name: str) -> "Quaternion":
        return {"1": Quaternion(1), "i": Quaternion(0, 1),
                "j": Quaternion(0, 0, 1), "k": Quaternion(0, 0, 0, 1)}[name]

    def coords(self):
        return (self.w, self.x, self.y, self.z)

    def __add__(self, other):
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other):
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self):
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            return Quaternion(self.w * c, self.x * c, self.y * c, self.z * c)
        p, q = self, other
        return Quaternion(
            p.w * q.w - p.x * q.x - p.y * q.y - p.z * q.z,
            p.w * q.x + p.x * q.w + p.y * q.z - p.z * q.y,
            p.w * q.y - p.x * q.z + p.y * q.w + p.z * q.x,
            p.w * q.z + p.x * q.y - p.y * q.x + p.z * q.w,
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        return self.coords() == other.coords()

    def __hash__(self):
        return hash(self.coords())

    def __repr__(self):
        return f"Quaternion({self.w}, {self.x}, {self.y}, {self.z})"


@dataclass(frozen=True)
class AxisTriple:
    """Rational point (a, b, c) on the unit 2-sphere."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __init__(self, a, b, c):
        object.__setattr__(self, "a", _frac(a))
        object.__setattr__(self, "b", _frac(b))
        object.__setattr__(self, "c", _frac(c))
        if self.a ** 2 + self.b ** 2 + self.c ** 2 != 1:
            raise ValueError("axis must satisfy a^2 + b^2 + c^2 = 1")

    def as_quaternion(self) -> Quaternion:
        return Quaternion(0, self.a, self.b, self.c)


# ---------------------------------------------------------------------------
# 4x4 exact matrices, stored as nested tuples of Fractions.

def mat(rows: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(_frac(v) for v in row) for row in rows)


_ZERO = Fraction(0)
IDENTITY: Matrix = mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a b, multiplying only nonzero entries: a frame matrix has 4 of 16."""
    out = [[_ZERO] * 4 for _ in range(4)]
    for acc, row in zip(out, a):
        for x, brow in zip(row, b):
            if x:
                for j, y in enumerate(brow):
                    if y:
                        acc[j] = acc[j] + x * y if acc[j] else x * y
    return tuple(map(tuple, out))


def mat_neg(a: Matrix) -> Matrix:
    return tuple(tuple(-v for v in row) for row in a)


def mat_transpose(a: Matrix) -> Matrix:
    return tuple(tuple(a[j][i] for j in range(4)) for i in range(4))


class _HashedMatrix(tuple):
    """A structure matrix that hashes once: it keys the operator caches of
    forms.py, where hashing 16 Fractions would cost more than most lookups."""

    @cached_property
    def _hash(self) -> int:
        return tuple.__hash__(self)

    def __hash__(self):
        return self._hash


def _mult_matrix(u: Quaternion, side: Side) -> Matrix:
    cols = []
    for name in ("1", "i", "j", "k"):
        e = Quaternion.unit(name)
        image = u * e if side == "left" else e * u
        cols.append(image.coords())
    # stored row-major: entry [i][j] is coordinate i of the image of e_j
    return tuple(tuple(cols[j][i] for j in range(4)) for i in range(4))


def structure_matrix(side: Side, axis: AxisTriple | Sequence) -> Matrix:
    """Matrix of x -> u*x (left) or x -> x*u (right) for u = a i + b j + c k.

    The axis must be a unit vector, so the result squares to -Id.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if not isinstance(axis, AxisTriple):
        axis = AxisTriple(*axis)
    return _HashedMatrix(_mult_matrix(axis.as_quaternion(), side))


@dataclass(frozen=True)
class HypercomplexFrame:
    """Triple (I, J, K) of exact structure matrices satisfying IJ = -JI = K;
    ``left()`` and ``right()`` each return one shared instance."""

    side: Side
    I: Matrix
    J: Matrix
    K: Matrix

    @staticmethod
    @lru_cache(maxsize=None)
    def left() -> "HypercomplexFrame":
        return HypercomplexFrame(
            "left",
            structure_matrix("left", (1, 0, 0)),
            structure_matrix("left", (0, 1, 0)),
            structure_matrix("left", (0, 0, 1)),
        )

    @staticmethod
    @lru_cache(maxsize=None)
    def right() -> "HypercomplexFrame":
        # Right multiplications satisfy the opposite-algebra relations
        # R_i R_j = R_{ji} = -R_k, so the stored K is -R_k to restore
        # IJ = -JI = K literally.
        return HypercomplexFrame(
            "right",
            structure_matrix("right", (1, 0, 0)),
            structure_matrix("right", (0, 1, 0)),
            _HashedMatrix(mat_neg(structure_matrix("right", (0, 0, 1)))),
        )

    def matrices(self):
        return (self.I, self.J, self.K)

    @cached_property
    def failures(self) -> Tuple[str, ...]:
        """Those of I^2 = J^2 = K^2 = -Id, IJ = K and JI = -K that fail,
        checked exactly on first use."""
        I, J, K, minus_id = self.I, self.J, self.K, mat_neg(IDENTITY)
        checks = (("I^2 = -Id", mat_mul(I, I), minus_id), ("J^2 = -Id", mat_mul(J, J), minus_id),
                  ("K^2 = -Id", mat_mul(K, K), minus_id), ("IJ = K", mat_mul(I, J), K),
                  ("JI = -K", mat_mul(J, I), mat_neg(K)))
        return tuple(name for name, got, want in checks if got != want)

    def span_structure(self, axis: AxisTriple | Sequence) -> Matrix:
        """a*I + b*J + c*K for a unit axis; squares to -Id."""
        if not isinstance(axis, AxisTriple):
            axis = AxisTriple(*axis)
        terms = tuple(zip((axis.a, axis.b, axis.c), self.matrices()))
        # each frame matrix has 4 nonzero entries of 16
        return _HashedMatrix(tuple(sum((w * m[i][j] for w, m in terms if m[i][j]), _ZERO)
                                   for j in range(4)) for i in range(4))


def _exact_rank(rows) -> int:
    """Row rank over Q by fraction-free-enough Gaussian elimination."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = None
        for r in range(row, nrows):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        pv = m[row][col]
        for r in range(row + 1, nrows):
            if m[r][col] != 0:
                f = m[r][col] / pv
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        row += 1
        rank += 1
        if row == nrows:
            break
    return rank


def independence_rank(left: HypercomplexFrame, right: HypercomplexFrame) -> int:
    """Rank of span{I+, J+, K+, I-, J-, K-} inside 4x4 matrices.

    Rank 6 certifies that no structure of one family is a linear combination
    of the other family. Both frames must verify first.
    """
    for tag, f in (("left", left), ("right", right)):
        if f.failures:
            raise ValueError(f"{tag} frame fails identities: {list(f.failures)}")
    return _span_rank(left, right)


@lru_cache(maxsize=4)
def _span_rank(left: HypercomplexFrame, right: HypercomplexFrame) -> int:
    """The rank of the six frame matrices, once per pair of the few frames
    in use (``left()`` and ``right()`` are shared)."""
    return _exact_rank([[m[i][j] for i in range(4) for j in range(4)]
                        for m in (*left.matrices(), *right.matrices())])
