"""Exact coefficient arithmetic: Gaussian rationals, 4-variable polynomials,
and the fields of Q(i)[x0..x3][1/phi], phi = x0^2 + x1^2 + x2^2 + x3^2,
each stored in its phi-adic normal form.

Every identity downstream is certified by exact zero tests in this ring, so
no floating point is allowed anywhere in this module.

A polynomial stores Gaussian-integer numerator pairs ``{monomial: (a, b)}``,
each meaning (a + b sqrt(-1)) / den, over one positive denominator ``den``.
Every result is normalised once: pairs (0, 0) are dropped and den and all
a, b are divided by their gcd (Knuth, TAOCP Vol. 2, 4.6.1), so equal
polynomials have equal storage and the zero polynomial is ``({}, 1)``.
Products and sums are Python integer operations; no Fraction is built.

A monomial x0^e0 x1^e1 x2^e2 x3^e3 is stored as the int
``e0<<48 | e1<<32 | e2<<16 | e3``, so a product of monomials is an int sum
and int order is lex order (x0 > x1 > x2 > x3). Bit 15 of each 16-bit field
is a guard bit: exponents lie in [0, 2^15), ``Poly(...)`` rejects any other,
and a sum that reaches 2^15 sets the guard bit without carrying into the
next field, which ``Poly._make`` rejects. ``Poly(...)`` and ``Poly.coeffs``
take and give exponent 4-tuples.

A field is the sum of c x^m phi^t over monomials x^m of x0-degree 0 or 1
and integers t, stored as Gaussian-integer pairs over one denominator in
the same normal form, each keyed by the int ``t<<52 | m`` (``key >> 52``
is t, negative for a negative key, and ``key & _MONO`` is m). phi is monic
of degree 2 in x0, so a polynomial P has exactly one phi-adic expansion
sum_t D_t phi^t with digits D_t of x0-degree below 2 (the generalised
Taylor expansion; von zur Gathen and Gerhard, Modern Computer Algebra, 3rd
ed., 2013), and P / phi^k has the same digits k places lower. These
monomials are therefore a basis of the ring, and equal fields have equal
storage: an identity check compares its two sides with ``==`` and builds
their difference only to size a failing check's defect
(``report.CheckRecorder.equal``).

Every sum, product and partial is one pass over its terms into one dict of
pairs, normalised once (``_lincomb``, ``_dsum``, ``_prodsum``; a sum of
signed wedge products, ``forms.wedge_sum``, is per coefficient one
``_prodsum``). A sum merges keys and needs no common phi power. A product
adds keys, and a partial follows
d_i(x^m phi^t) = m_i x^(m - e_i) phi^t + 2t x_i x^m phi^(t-1). Either may
reach x0^2, the one term written as four keys, x0^2 = phi - x1^2 - x2^2
- x3^2 (``_add_x0sq``). The rewrite adds 2 to an exponent of x1..x3, below
2^16 and so with no carry, and their guard bits stop a stored exponent at
2^15 as in a polynomial; x0's exponent never passes 2 and has no guard.

The public constructor ``ScalarField(P, k)`` expands P by long division in
x0 that keeps every remainder digit (``_phi_digits``). ``num`` and ``k``
are derived and cached: the canonical P / phi^k, k the negated least t if
that is negative, else 0, and P the digits summed by Horner's rule in phi.
phi does not divide P when k > 0, as the digit at the least t is nonzero
mod phi. They are read to print a field, to size a defect, by the general
division of ``div_exact`` and outside the kernels; a numerator with an
exponent at 2^15 raises there.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from itertools import chain
from operator import index, or_
from typing import Dict, Mapping, Tuple


def _frac(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    raise TypeError(f"not an exact rational: {v!r}")


class QI:
    """Gaussian rational a + b*sqrt(-1) with exact rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _frac(re)
        self.im = _frac(im)

    @staticmethod
    def coerce(v) -> "QI":
        if isinstance(v, QI):
            return v
        return QI(_frac(v))

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __bool__(self):
        return not self.is_zero()

    def __add__(self, other):
        o = QI.coerce(other)
        return QI(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return QI(-self.re, -self.im)

    def __sub__(self, other):
        o = QI.coerce(other)
        return QI(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return QI.coerce(other) - self

    def __mul__(self, other):
        o = QI.coerce(other)
        return QI(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = QI.coerce(other)
        d = o.abs2()
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return QI((self.re * o.re + self.im * o.im) / d,
                  (self.im * o.re - self.re * o.im) / d)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QI(other)
        if not isinstance(other, QI):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return f"{self.re}"
        if self.re == 0:
            return f"{self.im}*i"
        return f"({self.re}{'+' if self.im > 0 else '-'}{abs(self.im)}*i)"


I_UNIT = QI(0, 1)

# A stored monomial is the packed int e0<<48 | e1<<32 | e2<<16 | e3 of its
# exponent 4-tuple (e0, e1, e2, e3), each exponent in [0, EXP_LIMIT).
Monomial = int
Terms = Dict[Monomial, Tuple[int, int]]
EXP_LIMIT = 1 << 15
_SHIFTS = (48, 32, 16, 0)
_GUARD = sum(EXP_LIMIT << s for s in _SHIFTS)
# A stored key of a field is t<<52 | m for x^m phi^t: x0's field of m is
# bits 48..51 and holds 0 or 1, and t is any int. Adding n * _PHI_KEY to a
# key multiplies by phi^n.
_PHI_KEY = 1 << 52
_MONO = _PHI_KEY - 1
_FIELD_GUARD = _GUARD & ((1 << 48) - 1)
_FIELD_MASKS = (0xF, 0xFFFF, 0xFFFF, 0xFFFF)
_X0SQ, _X1SQ, _X2SQ, _X3SQ = (2 << s for s in _SHIFTS)


def _pack(exponents) -> Monomial:
    """The stored monomial of an exponent 4-tuple; ValueError if an exponent
    lies outside [0, EXP_LIMIT)."""
    e0, e1, e2, e3 = map(index, exponents)  # Python ints: no int64 wrap
    if (e0 | e1 | e2 | e3) >> 15:  # some exponent is negative or >= 2^15
        raise ValueError(f"exponents must lie in [0, 2^15): {exponents}")
    return e0 << 48 | e1 << 32 | e2 << 16 | e3


def _unpack(m: Monomial) -> Tuple[int, int, int, int]:
    return m >> 48, m >> 32 & 0xFFFF, m >> 16 & 0xFFFF, m & 0xFFFF


def _gaussian(v) -> Tuple[int, int, int]:
    """(a, b, d) with v = (a + b sqrt(-1)) / d and d > 0."""
    if isinstance(v, int):
        return v, 0, 1
    c = QI.coerce(v)
    d = math.lcm(c.re.denominator, c.im.denominator)
    return (c.re.numerator * (d // c.re.denominator),
            c.im.numerator * (d // c.im.denominator), d)


def _mono_divides(a: Monomial, b: Monomial) -> bool:
    # a field of b below a's borrows its guard bit and clears it
    return (b | _GUARD) - a & _GUARD == _GUARD


def _normal(terms: Terms, den: int, guard: int) -> Tuple[Terms, int]:
    """terms / den, den > 0, in normal form: zero pairs dropped and the
    content gcd taken (den itself when no pair is left); ValueError if a
    key sets a bit of ``guard``, as an exponent that reached 2^15 does."""
    if guard and reduce(or_, terms, 0) & guard:
        raise ValueError("a monomial exponent reached 2^15")
    out = {m: c for m, c in terms.items() if c[0] or c[1]}
    if den != 1 and (g := math.gcd(den, *chain.from_iterable(out.values()))) != 1:
        out = {m: (a // g, b // g) for m, (a, b) in out.items()}
        den //= g
    return out, den


def _mul_into(out: Terms, p: Terms, q: Terms, s: int = 1) -> Terms:
    """Adds s times the pairs of the product of two polynomials to ``out``,
    not normalised; returns ``out``."""
    get = out.get
    for pm, (a, b) in p.items():
        a, b = a * s, b * s
        for qm, (x, y) in q.items():
            m = pm + qm
            re, im = a * x - b * y, a * y + b * x
            c = get(m)
            out[m] = (re, im) if c is None else (c[0] + re, c[1] + im)
    return out


class Poly:
    """Polynomial in x0..x3 with Gaussian-rational coefficients, stored
    sparsely as Gaussian-integer pairs over one denominator."""

    __slots__ = ("terms", "den")

    def __init__(self, coeffs: Mapping[tuple, QI] | None = None):
        parts = {_pack(m): _gaussian(c) for m, c in (coeffs or {}).items()}
        den = math.lcm(*(d for _, _, d in parts.values())) if parts else 1
        p = Poly._make({m: (a * (den // d), b * (den // d))
                        for m, (a, b, d) in parts.items()}, den)
        self.terms, self.den = p.terms, p.den

    @staticmethod
    def _make(terms: Terms, den: int) -> "Poly":
        """terms / den brought to normal form (``_normal``); ValueError if an
        exponent reached 2^15, which sets its field's guard bit."""
        return Poly._raw(*_normal(terms, den, _GUARD))

    @staticmethod
    def _raw(terms: Terms, den: int) -> "Poly":
        """terms / den already in normal form."""
        p = Poly.__new__(Poly)
        p.terms, p.den = terms, den
        return p

    @property
    def coeffs(self) -> Dict[tuple, QI]:
        """The coefficients as Gaussian rationals, keyed by exponent
        4-tuples (a fresh dict)."""
        d = self.den
        return {_unpack(m): QI(Fraction(a, d), Fraction(b, d)) for m, (a, b) in self.terms.items()}

    @staticmethod
    def const(c) -> "Poly":
        return Poly({(0, 0, 0, 0): c})

    @staticmethod
    def coerce(v) -> "Poly":
        if isinstance(v, Poly):
            return v
        return Poly.const(v)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        o = Poly.coerce(other)
        if not o.terms:
            return self
        if not self.terms:
            return o
        den = self.den * o.den // math.gcd(self.den, o.den)
        s, t = den // self.den, den // o.den
        out = {m: (a * s, b * s) for m, (a, b) in self.terms.items()}
        for m, (a, b) in o.terms.items():
            c = out.get(m)
            out[m] = (a * t, b * t) if c is None else (c[0] + a * t, c[1] + b * t)
        return Poly._make(out, den)

    __radd__ = __add__

    def __neg__(self):
        return Poly._raw({m: (-a, -b) for m, (a, b) in self.terms.items()}, self.den)

    def __sub__(self, other):
        return self + (-Poly.coerce(other))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QI)):
            x, y, d = _gaussian(other)
            return Poly._make({m: (a * x - b * y, a * y + b * x)
                               for m, (a, b) in self.terms.items()}, self.den * d)
        o = Poly.coerce(other)
        return Poly._make(_mul_into({}, self.terms, o.terms), self.den * o.den)

    __rmul__ = __mul__

    def _leading(self) -> Monomial:
        # lex order with x0 > x1 > x2 > x3 is int order
        return max(self.terms)

    def divmod_poly(self, divisor: "Poly"):
        """Multivariate division by a single divisor under lex order.

        A single polynomial generates its own Groebner basis, so the
        remainder is zero exactly when ``divisor`` divides ``self``.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        lead = divisor._leading()
        la, lb = divisor.terms[lead]
        norm = la * la + lb * lb
        quot = rem = Poly()
        work = self
        while work.terms:
            m = max(work.terms)
            a, b = work.terms[m]
            if _mono_divides(lead, m):
                # (a + bi)/work.den divided by (la + lb i)/divisor.den
                dd = divisor.den
                step = Poly._make({m - lead: ((a * la + b * lb) * dd,
                                                        (b * la - a * lb) * dd)},
                                  work.den * norm)
                quot = quot + step
                work = work - step * divisor
            else:
                head = Poly._raw({m: (a, b)}, work.den)
                rem = rem + head
                work = work - head
        return quot, rem

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.den == other.den and self.terms == other.terms

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.den))

    def __repr__(self):
        if not self.terms:
            return "0"
        names = ("x0", "x1", "x2", "x3")
        coeffs = self.coeffs
        parts = []
        for m in sorted(coeffs, reverse=True):
            factors = [f"{names[i]}^{e}" if e > 1 else names[i]
                       for i, e in enumerate(m) if e]
            body = "*".join(factors)
            parts.append(f"({coeffs[m]!r})*{body}" if body else f"({coeffs[m]!r})")
        return " + ".join(parts)


PHI = Poly({(2, 0, 0, 0): QI(1), (0, 2, 0, 0): QI(1),
            (0, 0, 2, 0): QI(1), (0, 0, 0, 2): QI(1)})


def _phi_digits(p: Terms, t: int) -> Terms:
    """The keys and pairs of P phi^t for the pairs ``p`` of a polynomial P,
    not normalised: the phi-adic digits of P, by long division in x0 by the
    monic x0^2 + (x1^2 + x2^2 + x3^2) that keeps every remainder. Each term
    at x0^e, e >= 2, from the top down, moves to phi x0^(e-2) and sends
    minus itself times x1^2, x2^2 and x3^2 to x0^(e-2); the work keys count
    phi above the polynomial's 64 bits."""
    work = dict(p)
    lift = 1 << 64
    for e in range(max(p, default=0) >> 48, 1, -1):
        for m in [m for m in work if m >> 48 & 0xFFFF == e]:
            a, b = work.pop(m)
            m -= _X0SQ
            for n, x, y in ((m + lift, a, b), (m + _X1SQ, -a, -b),
                            (m + _X2SQ, -a, -b), (m + _X3SQ, -a, -b)):
                c = work.get(n)
                work[n] = (x, y) if c is None else (c[0] + x, c[1] + y)
    return {((m >> 64) + t) * _PHI_KEY + (m & lift - 1): c for m, c in work.items()}


class ScalarField:
    """Exact function on R^4 minus the origin, an element of
    Q(i)[x0..x3][1/phi]: the sum of c x^m phi^t over its stored keys, in
    the phi-adic normal form of the module docstring.

    Closed under +, *, and all partials; equal fields have equal storage.
    ``num`` and ``k``, the canonical P / phi^k, are derived on demand.
    """

    __slots__ = ("terms", "den", "_canon")

    def __init__(self, num, k: int = 0):
        num = Poly.coerce(num)
        if k < 0:
            raise ValueError("denominator exponent must be >= 0")
        self.terms, self.den = _normal(_phi_digits(num.terms, -k), num.den, _FIELD_GUARD)

    @staticmethod
    def _make(terms: Terms, den: int) -> "ScalarField":
        """The field of the keys and pairs ``terms`` over den brought to
        normal form (``_normal``); ValueError if an exponent of x1..x3
        reached 2^15."""
        return ScalarField._raw(*_normal(terms, den, _FIELD_GUARD))

    @staticmethod
    def _raw(terms: Terms, den: int) -> "ScalarField":
        """The field of ``terms`` over den already in normal form."""
        f = ScalarField.__new__(ScalarField)
        f.terms, f.den = terms, den
        return f

    @staticmethod
    def coerce(v) -> "ScalarField":
        if isinstance(v, ScalarField):
            return v
        if isinstance(v, Poly):
            return ScalarField(v, 0)
        return ScalarField.const(v)

    @staticmethod
    def const(c) -> "ScalarField":
        a, b, d = _gaussian(c)
        return ScalarField._make({0: (a, b)}, d)

    @staticmethod
    def phi() -> "ScalarField":
        return ScalarField._raw({_PHI_KEY: (1, 0)}, 1)

    @staticmethod
    def inv_phi(k: int = 1) -> "ScalarField":
        return ScalarField(Poly.const(1), k)

    def _pair(self) -> Tuple[Poly, int]:
        """(num, k), computed once: the digits at t + k, k the negated
        least t if that is negative, summed by Horner's rule in phi."""
        try:
            return self._canon
        except AttributeError:
            pass
        k = max(0, -(min(self.terms) >> 52)) if self.terms else 0
        digits: Dict[int, Terms] = {}
        for m, c in self.terms.items():
            digits.setdefault((m >> 52) + k, {})[m & _MONO] = c
        num = Poly()
        for t in range(max(digits, default=-1), -1, -1):
            num = num * PHI + Poly._make(digits.get(t, {}), self.den)
        self._canon = (num, k)
        return self._canon

    @property
    def num(self) -> Poly:
        """The numerator P of the canonical P / phi^k."""
        return self._pair()[0]

    @property
    def k(self) -> int:
        """The exponent k of the canonical P / phi^k: phi does not divide P
        when k > 0, and k = 0 for the zero field."""
        return self._pair()[1]

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return not self.is_zero()

    def __add__(self, other):
        return _lincomb([(1, 0, 1, self), (1, 0, 1, ScalarField.coerce(other))])

    __radd__ = __add__

    def __neg__(self):
        return ScalarField._raw({m: (-a, -b) for m, (a, b) in self.terms.items()}, self.den)

    def __sub__(self, other):
        return _lincomb([(1, 0, 1, self), (-1, 0, 1, ScalarField.coerce(other))])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QI)):
            return _lincomb([(*_gaussian(other), self)])
        return _prodsum([(1, self, ScalarField.coerce(other))])

    __rmul__ = __mul__

    def div_exact(self, other) -> "ScalarField":
        """Exact quotient; raises ValueError when the division is not exact."""
        o = ScalarField.coerce(other)
        if o.is_zero():
            raise ZeroDivisionError("division by zero field")
        if self.is_zero():
            return ScalarField.const(0)
        # o = Q phi^v, phi not dividing Q, v the least t of o: divide both
        # by phi^v, then by Q, which divides a quotient in the ring exactly
        # when it divides the numerator, phi being prime
        shift = -(min(o.terms) >> 52) * _PHI_KEY
        f = ScalarField._raw({m + shift: c for m, c in self.terms.items()}, self.den)
        if len(o.terms) == 1 and not min(o.terms) & _MONO:
            # Q = (a + b i) / den: 1 / Q = den (a - b i) / (a^2 + b^2)
            (a, b), = o.terms.values()
            return _lincomb([(o.den * a, -o.den * b, a * a + b * b, f)])
        Q = ScalarField._raw({m + shift: c for m, c in o.terms.items()}, o.den).num
        q, r = f.num.divmod_poly(Q)
        if not r.is_zero():
            raise ValueError("inexact field division")
        return ScalarField(q, f.k)

    def partial(self, i: int) -> "ScalarField":
        return _dsum([(1, i, self)])

    def scale_arguments(self, q: Fraction, shift: int = 0) -> "ScalarField":
        """f(x) -> q^shift f(q*x), in one pass over the terms: phi(q*x) =
        q^2 phi(x), so x^m phi^t scales by q^(|m| + 2t + shift) and the keys
        stay."""
        q = _frac(q)
        if q == 0:
            raise ValueError("scale factor must be nonzero")
        if not self.terms:
            return self
        degrees = {m: sum(_unpack(m & _MONO)) + 2 * (m >> 52) + shift for m in self.terms}
        lo, hi = min(degrees.values()), max(degrees.values())
        # q^e = p^(e - lo) r^(hi - e) c with c = q^lo / r^(hi - lo)
        p, r = q.numerator, q.denominator
        c = q ** lo / r ** (hi - lo)
        out = {}
        for m, (a, b) in self.terms.items():
            s = p ** (degrees[m] - lo) * r ** (hi - degrees[m]) * c.numerator
            out[m] = (a * s, b * s)
        return ScalarField._make(out, self.den * c.denominator)

    def max_abs_coeff(self) -> float:
        """Crude magnitude of the field, for defect reporting only: the
        largest coefficient of its canonical numerator."""
        if self.is_zero():
            return 0.0
        return max(math.sqrt(float(c.abs2())) for c in self.num.coeffs.values())

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, QI)):
            other = ScalarField.const(other)
        if not isinstance(other, ScalarField):
            return NotImplemented
        return self.den == other.den and self.terms == other.terms

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.den))

    def __repr__(self):
        if self.k == 0:
            return repr(self.num)
        return f"({self.num!r}) / phi^{self.k}"


_ZERO_FIELD = ScalarField._raw({}, 1)


def _add_x0sq(out: Terms, m: int, a: int, b: int) -> None:
    """Adds (a + b sqrt(-1)) times the key m, whose x0 exponent is 2, to
    ``out`` as phi - x1^2 - x2^2 - x3^2 times the rest of m."""
    m -= _X0SQ
    get = out.get
    n = m + _PHI_KEY
    c = get(n)
    out[n] = (a, b) if c is None else (c[0] + a, c[1] + b)
    for n in (m + _X1SQ, m + _X2SQ, m + _X3SQ):
        c = get(n)
        out[n] = (-a, -b) if c is None else (c[0] - a, c[1] - b)


def _field_mul_into(out: Terms, p: Terms, q: Terms, s: int) -> None:
    """Adds s times the pairs of the product of the fields stored as p and
    q to ``out``, not normalised: keys add, and x0^2 is rewritten."""
    get = out.get
    for pm, (a, b) in p.items():
        a, b = a * s, b * s
        for qm, (x, y) in q.items():
            m = pm + qm
            re, im = a * x - b * y, a * y + b * x
            if m & _X0SQ:
                _add_x0sq(out, m, re, im)
            else:
                c = get(m)
                out[m] = (re, im) if c is None else (c[0] + re, c[1] + im)


def _partial_into(out: Terms, p: Terms, i: int, s: int) -> None:
    """Adds s times the pairs of d_i of the field stored as p to ``out``,
    not normalised: d_i(x^m phi^t) = e x^(m - e_i) phi^t
    + 2t x_i x^m phi^(t-1), e = m_i, with x0^2 rewritten when i = 0."""
    get = out.get
    shift, mask = _SHIFTS[i], _FIELD_MASKS[i]
    one = 1 << shift
    up = one - _PHI_KEY  # x_i / phi
    for m, (a, b) in p.items():
        if e := m >> shift & mask:
            es = e * s
            ea, eb = es * a, es * b
            n = m - one
            c = get(n)
            out[n] = (ea, eb) if c is None else (c[0] + ea, c[1] + eb)
        if t := m >> 52:
            u = 2 * t * s
            ua, ub = u * a, u * b
            n = m + up
            if n & _X0SQ:
                _add_x0sq(out, n, ua, ub)
            else:
                c = get(n)
                out[n] = (ua, ub) if c is None else (c[0] + ua, c[1] + ub)


def _lincomb(terms) -> ScalarField:
    """The sum of c f over the list ``terms`` of (x, y, d, f), each a field f
    with a constant c = (x + y sqrt(-1)) / d in integers, d > 0: a merge of
    the keys over the common denominator. A zero c or f adds nothing, and an
    empty sum is the shared ``_ZERO_FIELD``."""
    parts, den = [], 1
    for t in terms:
        f = t[3]
        if (t[0] or t[1]) and f.terms:
            parts.append(t)
            if (d := t[2] * f.den) != den:
                den = math.lcm(den, d)
    if not parts:
        return _ZERO_FIELD
    if len(parts) == 1 and parts[0][1:3] == (0, 1) and parts[0][0] in (1, -1):
        return parts[0][3] if parts[0][0] == 1 else -parts[0][3]
    out: Terms = {}
    get = out.get
    for x, y, d, f in parts:
        s = den // (d * f.den)
        if s != 1:
            x, y = x * s, y * s
        for m, (a, b) in f.terms.items():
            re, im = (a * x - b * y, a * y + b * x) if y else (a * x, b * x)
            v = get(m)
            out[m] = (re, im) if v is None else (v[0] + re, v[1] + im)
    return ScalarField._make(out, den)


def _dsum(terms) -> ScalarField:
    """The sum of sign d_mu f over the list ``terms`` of (sign, mu, f),
    sign = +-1, written term by term into one dict (``_partial_into``)."""
    den = 1
    for _, _, f in terms:
        if f.terms and f.den != den:
            den = math.lcm(den, f.den)
    out: Terms = {}
    for sign, mu, f in terms:
        if f.terms:
            _partial_into(out, f.terms, mu, sign * (den // f.den))
    return ScalarField._make(out, den)


def _prodsum(terms) -> ScalarField:
    """The sum of sign f g over the list ``terms`` of (sign, f, g), sign =
    +-1, written pair by pair into one dict (``_field_mul_into``)."""
    den = 1
    for _, f, g in terms:
        if f.terms and g.terms and (d := f.den * g.den) != den:
            den = math.lcm(den, d)
    out: Terms = {}
    for sign, f, g in terms:
        if f.terms and g.terms:
            _field_mul_into(out, f.terms, g.terms, sign * (den // (f.den * g.den)))
    return ScalarField._make(out, den)
