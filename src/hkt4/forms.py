"""Exact exterior calculus on R^4 minus the origin: wedge, d, the action of a
constant complex structure on forms, the twisted differential, (p,q)
projections, Hodge star and the Lambda contraction.

Conventions (see docs/conventions.md):
  * orientation is dx0 ^ dx1 ^ dx2 ^ dx3;
  * a structure matrix L acts on forms as the pullback (L a)(X1..Xm)
    = a(L X1, .., L Xm), i.e. by the transpose of L on covectors;
  * the twisted differential carries one global sign, DC_SIGN = -1, chosen
    so that d d^c_L of phi = r^2 is a positive (1,1)-form on the flat chart.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Tuple

from .exact import I_UNIT, QI, ScalarField, _dsum, _frac, _gaussian, _lincomb, _prodsum
from .quaternions import IDENTITY, Matrix, _dense_product, _HashedMatrix, _integer_form

IndexTuple = Tuple[int, ...]

# Global sign of the twisted differential relative to the bare composition
# (-1)^m L d L; fixed by positivity of d d^c_I(r^2), which the tests pin.
DC_SIGN = -1

# Entries kept by each operator cache: a request uses about 45 structure
# matrix and degree keys, which stay cached while stale structures go.
OPERATOR_CACHE_SIZE = 256

_ALL_TUPLES = {m: tuple(itertools.combinations(range(4), m)) for m in range(5)}
_INDEX = {m: {t: i for i, t in enumerate(ts)} for m, ts in _ALL_TUPLES.items()}

TOP = (0, 1, 2, 3)


class DegreeError(ValueError):
    pass


def _perm_sign(seq) -> int:
    inv = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
              if seq[i] > seq[j])
    return -1 if inv % 2 else 1


# (s, t) -> (sorted merge of s and t, its permutation sign) for every pair of
# disjoint index tuples; a pair that is not disjoint has no entry
_MERGE = {(s, t): (tuple(sorted(s + t)), _perm_sign(s + t))
          for s in itertools.chain(*_ALL_TUPLES.values())
          for t in itertools.chain(*_ALL_TUPLES.values()) if not set(s) & set(t)}


class RationalForm:
    """Differential form of pure degree with ScalarField coefficients.

    Only strictly increasing index tuples are stored, so antisymmetry is
    structural.
    """

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: Dict[IndexTuple, ScalarField] | None = None):
        if not 0 <= degree <= 4:
            raise DegreeError(f"form degree must be in 0..4, got {degree}")
        self.degree = degree
        cleaned: Dict[IndexTuple, ScalarField] = {}
        if coeffs:
            for t, f in coeffs.items():
                t = tuple(t)
                if len(t) != degree or list(t) != sorted(set(t)):
                    raise ValueError(f"bad index tuple {t} for degree {degree}")
                f = ScalarField.coerce(f)
                if not f.is_zero():
                    cleaned[t] = f
        self.coeffs = cleaned

    # -- constructors -------------------------------------------------------

    @staticmethod
    def function(f) -> "RationalForm":
        f = ScalarField.coerce(f)
        return RationalForm(0, {(): f})

    @staticmethod
    def basis(indices: IndexTuple, coeff=1) -> "RationalForm":
        return RationalForm(len(indices), {tuple(indices): ScalarField.coerce(coeff)})

    # -- ring structure -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign: int):
        """self + sign * other, one fused sum per coefficient."""
        if not isinstance(other, RationalForm):
            return NotImplemented
        if other.degree != self.degree:
            raise DegreeError("cannot add forms of different degree")
        return _form_sum(self.degree, [(1, 0, 1, self), (sign, 0, 1, other)])

    def __neg__(self):
        return _form_sum(self.degree, [(-1, 0, 1, self)])

    def __mul__(self, scalar):
        if isinstance(scalar, ScalarField):
            return _form(self.degree, {t: [(1, f, scalar)] for t, f in self.coeffs.items()},
                         _prodsum)
        if isinstance(scalar, (int, Fraction, QI)):
            return _form_sum(self.degree, [(*_gaussian(scalar), self)])
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, RationalForm):
            return NotImplemented
        return self.degree == other.degree and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.degree, frozenset(self.coeffs.items())))

    def max_abs_coeff(self) -> float:
        if not self.coeffs:
            return 0.0
        return max(f.max_abs_coeff() for f in self.coeffs.values())

    def __repr__(self):
        if not self.coeffs:
            return f"0 (degree {self.degree})"
        parts = []
        for t in sorted(self.coeffs):
            body = "^".join(f"dx{i}" for i in t) if t else "1"
            parts.append(f"({self.coeffs[t]!r}) {body}")
        return " + ".join(parts)


def wedge(a: RationalForm, b: RationalForm) -> RationalForm:
    """Exterior product; degree overflow past the top degree is an error."""
    return wedge_sum([(1, a, b)])


def wedge_sum(terms) -> RationalForm:
    """The sum of sign a ^ b over the list ``terms`` of (sign, a, b), sign =
    +-1: one fused sum of products per coefficient over every pair's
    products. The terms must share one degree of at most 4."""
    degrees = {a.degree + b.degree for _, a, b in terms}
    if len(degrees) != 1:
        raise DegreeError(f"wedge terms of degrees {sorted(degrees)}; want one degree")
    m = degrees.pop()
    if m > 4:
        raise DegreeError(f"wedge degree {m} exceeds 4")
    groups: Dict[IndexTuple, list] = {}
    for sign, a, b in terms:
        for s, fs in a.coeffs.items():
            for t, ft in b.coeffs.items():
                hit = _MERGE.get((s, t))
                if hit:
                    groups.setdefault(hit[0], []).append((sign * hit[1], fs, ft))
    return _form(m, groups, _prodsum)


def exterior_d(a: RationalForm) -> RationalForm:
    """Exterior derivative with exact coefficients."""
    if a.degree > 3:
        raise DegreeError("d of a top-degree form is not defined here")
    groups: Dict[IndexTuple, list] = {}
    for t, f in a.coeffs.items():
        for mu in range(4):
            hit = _MERGE.get(((mu,), t))
            if hit:
                groups.setdefault(hit[0], []).append((hit[1], mu, f))
    return _form(a.degree + 1, groups, _dsum)


def _form(degree: int, groups: Dict[IndexTuple, list], kernel) -> RationalForm:
    """The degree-m form whose coefficient at s is ``kernel(groups[s])``, one
    fused sum per coefficient, zeros dropped."""
    out = {}
    for s, ts in groups.items():
        f = kernel(ts)
        if f.num.terms:
            out[s] = f
    r = RationalForm.__new__(RationalForm)
    r.degree, r.coeffs = degree, out
    return r


def _form_sum(degree: int, terms) -> RationalForm:
    """The degree-m form sum of c a over the list ``terms`` of (x, y, d, a),
    each a form a of degree m with a constant c = (x + y sqrt(-1)) / d in
    integers: one fused sum per coefficient."""
    groups: Dict[IndexTuple, list] = {}
    for x, y, d, a in terms:
        for t, f in a.coeffs.items():
            groups.setdefault(t, []).append((x, y, d, f))
    return _form(degree, groups, _lincomb)


def _integer_matrix(L: Matrix):
    """(D, D L), D the lcm of L's denominators; raises ValueError unless L
    squares to -Id, checked as row-by-column products of D L."""
    D, M = _integer_form(L)
    if _dense_product(M, M) != [[-D * D if i == j else 0 for j in range(4)] for i in range(4)]:
        raise ValueError("matrix does not square to -Id")
    return D, M


def _laplace_table():
    """The keys (rows, cols) of the 70 minors in computing order, and for each
    but the empty one its first row r and (c_j, where the minor without r and c_j is, j odd)."""
    position, table = {((), ()): 0}, []
    for k in range(1, 5):
        for t, s in itertools.product(_ALL_TUPLES[k], repeat=2):
            table.append((t[0], tuple((c, position[t[1:], s[:j] + s[j + 1:]], j % 2)
                                      for j, c in enumerate(s))))
            position[t, s] = len(position)
    return tuple(position), tuple(table)


_MINOR_KEYS, _LAPLACE = _laplace_table()


def _all_minors(m):
    """Every minor of the exact 4 x 4 matrix m as {(rows, cols): minor}, for
    index tuples of sizes 0..4 (70 minors, the empty one 1): each by one
    Laplace step along its first row from the minors one size smaller."""
    minors = [1]
    for r, steps in _LAPLACE:
        row, total = m[r], 0
        for c, p, odd in steps:
            if x := row[c]:
                total = total - x * minors[p] if odd else total + x * minors[p]
        minors.append(total)
    return dict(zip(_MINOR_KEYS, minors))


@lru_cache(maxsize=OPERATOR_CACHE_SIZE)
def _minors(L: Matrix):
    """(D, every minor of D L), D the lcm of L's denominators: one table and
    one ``_integer_matrix`` check per structure (on a miss: lru_cache keeps
    no raised result)."""
    D, M = _integer_matrix(L)
    return D, _all_minors(M)


def _columns(degree: int, column):
    """A constant matrix over the degree-m basis forms by columns: column t
    holds the nonzero entries of the coefficient dict ``column(t)`` as
    integer triples (s, x, y, d), entry (s, t) being (x + y sqrt(-1)) / d."""
    return tuple(tuple((s, *_gaussian(c)) for s, c in column(t).items() if c)
                 for t in _ALL_TUPLES[degree])


@lru_cache(maxsize=OPERATOR_CACHE_SIZE)
def _action_matrix(L: Matrix, degree: int):
    """Columns of the pullback action on degree-m basis forms: the m-th
    compound matrix of L, whose entry (s, t) is the minor of L with rows t
    and columns s. The minors are read from the table of the integer matrix
    D L (``_minors``) and divided by D^m."""
    D, minors = _minors(L)
    Dm = D ** degree
    cols = []
    for t in _ALL_TUPLES[degree]:
        col = []
        for s in _ALL_TUPLES[degree]:
            x = minors[t, s]
            if x:
                g = math.gcd(x, Dm)
                col.append((s, x // g, 0, Dm // g))
        cols.append(tuple(col))
    return tuple(cols)


def _apply_matrix(cols, a: RationalForm, degree: int | None = None,
                  sign: int = 1) -> RationalForm:
    """``sign`` times a constant matrix in the columns of ``_columns`` applied
    to a, into ``degree`` (a's own by default): one fused combination per
    coefficient."""
    index = _INDEX[a.degree]
    terms: Dict[IndexTuple, list] = {}
    for t, f in a.coeffs.items():
        for s, x, y, d in cols[index[t]]:
            terms.setdefault(s, []).append((sign * x, sign * y, d, f))
    return _form(a.degree if degree is None else degree, terms, _lincomb)


def structure_action(L: Matrix, a: RationalForm) -> RationalForm:
    """(L a)(X1..Xm) = a(L X1, .., L Xm) by the compound matrix of
    ``_action_matrix``; coefficients stay at the base point because L is
    constant on the chart."""
    return _apply_matrix(_action_matrix(L, a.degree), a)


def twisted_d(L: Matrix, a: RationalForm) -> RationalForm:
    """Twisted differential of an m-form: DC_SIGN * (-1)^m * L(d(L(a))).

    The bare composition leaves the overall sign of d^c ambiguous; DC_SIGN
    normalizes it so that d(d^c phi) is positive on the flat chart (pinned
    by the tests). The sign is applied in the last action.
    """
    if a.degree > 3:
        raise DegreeError("twisted differential needs degree <= 3")
    return twisted_action(L, exterior_d(structure_action(L, a)))


def twisted_action(L: Matrix, b: RationalForm) -> RationalForm:
    """DC_SIGN * (-1)^(m-1) * L(b) for an m-form b, the action that ends
    ``twisted_d``: twisted_d(L, a) = twisted_action(L, d(L a)). On b = d w
    of an L-invariant 2-form w it is the torsion d^c_L w."""
    return _apply_matrix(_action_matrix(L, b.degree), b, sign=DC_SIGN * (-1) ** (b.degree - 1))


def _wedge_covectors(covectors) -> Dict[IndexTuple, QI]:
    """The wedge product, in order, of covectors given as {j: coefficient of
    dx_j}, as coefficients over the sorted basis forms."""
    acc: Dict[IndexTuple, QI] = {(): QI(1)}
    for cov in covectors:
        nxt: Dict[IndexTuple, QI] = {}
        for part, c in acc.items():
            for j, cj in cov.items():
                hit = _MERGE.get((part, (j,)))
                # zero entries are most of a covector of a structure matrix
                if not hit or cj.is_zero():
                    continue
                merged, sign = hit
                term = c * cj if sign > 0 else -(c * cj)
                prev = nxt.get(merged)
                nxt[merged] = term if prev is None else prev + term
        acc = nxt
    return {s: c for s, c in acc.items() if not c.is_zero()}


@lru_cache(maxsize=OPERATOR_CACHE_SIZE)
def _pq_matrix(L: Matrix, degree: int, p: int):
    """Columns of the projection onto bidegree (p, degree - p) on degree-m
    basis forms.

    Each basis covector splits as dx_i = pi^{1,0} dx_i + pi^{0,1} dx_i with
    pi^{1,0} = (1 - sqrt(-1) L)/2; expanding the product over a basis m-form
    and collecting terms of bidegree (p,q) gives the projector exactly.
    """
    _minors(L)  # checks L once per structure, as the compound matrices do
    half = QI(Fraction(1, 2))
    # splits[i] = ((1,0) piece, (0,1) piece) of dx_i as {j: coefficient};
    # L(dx_i) is row i of L
    splits = [tuple({j: (int(i == j) + sign * I_UNIT * L[i][j]) * half for j in range(4)}
                    for sign in (-1, 1)) for i in range(4)]

    def column(t):
        total: Dict[IndexTuple, QI] = {}
        for choice in itertools.product((0, 1), repeat=degree):
            if choice.count(0) == p:
                for s, c in _wedge_covectors(splits[i][side]
                                             for i, side in zip(t, choice)).items():
                    total[s] = total.get(s, QI(0)) + c
        return total

    return _columns(degree, column)


def pq_project(L: Matrix, a: RationalForm, p: int, q: int) -> RationalForm:
    """Projection onto the (p,q) part of a complexified form w.r.t. L, by
    the constant projector matrix of ``_pq_matrix``."""
    if p < 0 or q < 0 or p + q != a.degree:
        raise DegreeError(f"(p,q)=({p},{q}) incompatible with degree {a.degree}")
    return _apply_matrix(_pq_matrix(L, a.degree, p), a)


# ---------------------------------------------------------------------------
# Constant metrics, Hodge star, Lambda contraction


def _fraction_sqrt(v: Fraction) -> Fraction:
    if v < 0:
        raise ValueError("negative determinant")
    n, d = v.numerator, v.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn != n or rd * rd != d:
        raise ValueError("metric determinant is not a rational square; "
                         "exact Hodge star unavailable")
    return Fraction(rn, rd)


class ConstantMetric:
    """Symmetric positive-definite 4x4 matrix of exact rationals, with the
    table of all its minors (``_all_minors``); ``euclidean()`` returns one
    shared instance."""

    __slots__ = ("matrix", "minors", "_star")

    def __init__(self, matrix):
        m = tuple(tuple(_frac(v) for v in row) for row in matrix)
        if len(m) != 4 or any(len(r) != 4 for r in m):
            raise ValueError("metric must be 4x4")
        for i in range(4):
            for j in range(4):
                if m[i][j] != m[j][i]:
                    raise ValueError("metric must be symmetric")
        minors = _all_minors(m)
        if any(minors[t, t] <= 0 for t in ((0,), (0, 1), (0, 1, 2), TOP)):
            raise ValueError("metric must be positive definite")
        self.matrix = _HashedMatrix(m)
        self.minors = minors
        self._star = None

    @staticmethod
    @lru_cache(maxsize=None)
    def euclidean() -> "ConstantMetric":
        return ConstantMetric(IDENTITY)

    def det(self) -> Fraction:
        return self.minors[TOP, TOP]

    def star_columns(self, degree: int):
        """Columns of the Hodge star on degree-m forms, as ``_columns``
        gives them: dx_s has coefficient <dx_sc, dx_t> sqrt(det) eps(sc s)
        in *dx_t, sc the complement of s. Built once per metric.

        <dx_sc, dx_t> is the minor of g^-1 with rows sc and columns t, read
        from g's own table by Jacobi's complementary-minor identity: it is
        (-1)^(sum sc + sum t) times the minor of g with rows tc (the
        complement of t) and columns s, over det g."""
        if self._star is None:
            det = self.det()
            sd = _fraction_sqrt(det)

            def column(t):
                tc = tuple(i for i in range(4) if i not in t)
                out = {}
                for s in _ALL_TUPLES[4 - len(t)]:
                    sc = tuple(i for i in range(4) if i not in s)
                    inverse_minor = self.minors[tc, s] / det * (-1) ** (sum(sc) + sum(t))
                    out[s] = inverse_minor * sd * _perm_sign(sc + s)
                return out

            self._star = {m: _columns(m, column) for m in _ALL_TUPLES}
        return self._star[degree]

    def __eq__(self, other):
        if not isinstance(other, ConstantMetric):
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"ConstantMetric({self.matrix})"


def hodge_star(g: ConstantMetric, a: RationalForm) -> RationalForm:
    """Hodge star for a constant metric and the fixed orientation dx0123."""
    return _apply_matrix(g.star_columns(a.degree), a, 4 - a.degree)


def lambda_contract(omega: RationalForm, a: RationalForm) -> ScalarField:
    """Lambda(a) defined by a ^ omega = Lambda(a) vol with vol = omega^2/2."""
    if omega.degree != 2 or a.degree != 2:
        raise DegreeError("lambda contraction needs two 2-forms")
    vol2 = wedge(omega, omega)
    if vol2.is_zero():
        raise ValueError("degenerate hermitian form: omega ^ omega = 0")
    vol_coeff = vol2.coeffs[TOP] * Fraction(1, 2)
    top = wedge(a, omega)
    num = top.coeffs.get(TOP)
    if num is None:
        return ScalarField.const(0)
    return num.div_exact(vol_coeff)


def scale_pullback(a: RationalForm, q) -> RationalForm:
    """Pullback of the form under x -> q*x, exact for rational q != 0."""
    q = _frac(q)
    if q == 0:
        raise ValueError("scale factor must be nonzero")
    # each coefficient is q^m f(qx), one pass over its terms
    return _form(a.degree, a.coeffs, lambda f: f.scale_arguments(q, a.degree))
