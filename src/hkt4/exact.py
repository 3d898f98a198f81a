"""Exact coefficient arithmetic: Gaussian rationals, 4-variable polynomials,
and rational fields of the shape P / phi^k with phi = x0^2 + x1^2 + x2^2 + x3^2.

Every identity downstream is certified by exact zero tests in this ring, so
no floating point is allowed anywhere in this module.

A polynomial stores Gaussian-integer numerator pairs ``{monomial: (a, b)}``,
each meaning (a + b sqrt(-1)) / den, over one positive denominator ``den``.
Every result is normalised once: pairs (0, 0) are dropped and den and all
a, b are divided by their gcd (Knuth, TAOCP Vol. 2, 4.6.1), so equal
polynomials have equal storage and the zero polynomial is ``({}, 1)``.
Products and sums are Python integer operations; no Fraction is built.

A field P / phi^k is canonical when phi does not divide P for k > 0. phi is
a quadratic form of rank 4, hence irreducible and so prime in the unique
factorisation domain Q(i)[x0..x3]. Every sum, difference, product and partial
is one canonical sum: sum_j c_j T_j / phi^(k_j) over nonzero constants c_j
has numerator sum_j c_j T_j phi^(k - k_j) over the largest k. The kernels
``_lincomb``, ``_dsum`` and ``_prodsum`` walk the terms once: each term,
scaled by c_j and its share of the common denominator, is written into one
dict of pairs as it is computed, and only a term below the largest k is
built on its own and lifted by phi^(k - k_j) (``_lift_into``). The dict is
normalised once, by ``Poly._make``. A zero constant or field adds no term.
A term is a field's numerator P; a product PQ of canonical P / phi^a and
Q / phi^b over phi^(a+b), where phi divides neither factor when a, b > 0; or
a partial d_i (P / phi^a), whose numerator d_i P phi - 2a x_i P over
phi^(a+1) is -2a x_i P mod phi for a > 0, and phi divides neither x_i nor P.
So a term is canonical as computed unless it is a product with a factor of
k = 0, and when one canonical term sits alone at the largest k > 0 the
numerator is c_j T_j mod phi, canonical too. Only two or more terms there,
or one product with a factor of k = 0 (in (phi dx0) ^ (dx1 / phi) the
product phi / phi is 1, with k = 0), call for a reduction, and only there is
phi divided out, by long division in x0 (phi is monic in x0). The public
constructor and exact quotients reduce the same way. The division is
preceded by one pass over the terms that evaluates the numerator at
(1, 1, i, i), a zero of phi: a nonzero value proves that phi does not divide
it, and a zero value falls through to the division.

A monomial x0^e0 x1^e1 x2^e2 x3^e3 is stored as the int
``e0<<48 | e1<<32 | e2<<16 | e3``, so a product of monomials is an int sum
and int order is lex order (x0 > x1 > x2 > x3). Bit 15 of each 16-bit field
is a guard bit: exponents lie in [0, 2^15), ``Poly(...)`` rejects any other,
and a sum that reaches 2^15 sets the guard bit without carrying into the
next field, which ``Poly._make`` rejects. ``Poly(...)`` and ``Poly.coeffs``
take and give exponent 4-tuples.

Equal fields have equal canonical forms, so an identity check compares
its two sides with ``==`` and builds their difference only to size a
failing check's defect (``report.CheckRecorder.equal``). A sum of
signed wedge products (``forms.wedge_sum``) is, per coefficient, one
canonical sum over the products of every pair.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import index
from typing import Dict, Mapping, Optional, Tuple


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


def _mul_into(out: Terms, p: Terms, q: Terms, s: int = 1) -> Terms:
    """Adds s times the pairs of the product of two numerators to ``out``,
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


def _partial_into(out: Terms, p: Terms, k: int, i: int, s: int = 1) -> Terms:
    """Adds s times the pairs, over p's denominator, of the numerator of
    d_i (P / phi^k) to ``out``, not normalised; returns ``out``. That
    numerator is d_i P for k = 0, else d_i P phi - 2k x_i P over phi^(k+1),
    gathered in one pass as e x^(m-e_i) phi - 2k x_i x^m for each term x^m
    of P with e = m_i."""
    get = out.get
    lift, u = (_PHI_EXPONENTS, -2 * k * s) if k else ((0,), 0)
    shift = _SHIFTS[i]
    one = 1 << shift
    for m, (a, b) in p.items():
        e = m >> shift & 0xFFFF
        if e:
            es = e * s
            ea, eb = es * a, es * b
            n = m - one
            for t in lift:
                t += n
                c = get(t)
                out[t] = (ea, eb) if c is None else (c[0] + ea, c[1] + eb)
        if u:
            t = m + one
            ua, ub = u * a, u * b
            c = get(t)
            out[t] = (ua, ub) if c is None else (c[0] + ua, c[1] + ub)
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
        """terms / den, den > 0, brought to normal form in one pass that
        drops zero pairs, collects the guard bits and takes the content gcd
        (den itself when no pair is left); ValueError if an exponent reached
        2^15, which sets its field's guard bit."""
        out: Terms = {}
        seen, g, gcd = 0, den, math.gcd
        for m, c in terms.items():
            seen |= m
            a, b = c
            if a or b:
                out[m] = c
                if g != 1:
                    g = gcd(g, a, b)
        if seen & _GUARD:
            raise ValueError("a monomial exponent reached 2^15")
        if g != 1:
            out = {m: (a // g, b // g) for m, (a, b) in out.items()}
            den //= g
        return Poly._raw(out, den)

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

    def is_constant(self) -> bool:
        return all(m == 0 for m in self.terms)

    def constant_value(self) -> QI:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        a, b = self.terms.get(0, (0, 0))
        return QI(Fraction(a, self.den), Fraction(b, self.den))

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

    def scale_arguments(self, q: Fraction, shift: int = 0) -> "Poly":
        """P(x) -> q^shift P(q*x), in one pass over the terms."""
        q = _frac(q)
        p, r, c = q.numerator, q.denominator, q ** shift
        degrees = {m: sum(_unpack(m)) for m in self.terms}
        hi = max(degrees.values(), default=0)
        # q^(deg + shift) = p^deg r^(hi - deg) c / r^hi
        out = {}
        for m, (a, b) in self.terms.items():
            s = p ** degrees[m] * r ** (hi - degrees[m]) * c.numerator
            out[m] = (a * s, b * s)
        return Poly._make(out, self.den * r ** hi * c.denominator)

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
_PHI_POWERS = [Poly.const(1), PHI]
_PHI_EXPONENTS = tuple(PHI.terms)


def _phi_pow(n: int) -> Poly:
    while len(_PHI_POWERS) <= n:
        _PHI_POWERS.append(_PHI_POWERS[-1] * PHI)
    return _PHI_POWERS[n]


def _phi_quotient(p: Poly) -> Optional[Poly]:
    """p / phi when phi divides p (the zero polynomial when p is), else None.

    Long division in x0 by the monic x0^2 + (x1^2 + x2^2 + x3^2): each term
    at x0^e, from the top down, moves to the quotient and sends minus itself
    times x1^2, x2^2 and x3^2 down to x0^(e-2). What is left has x0-degree
    below 2; it is the lex normal form modulo phi, the remainder
    ``divmod_poly(PHI)`` gives. The quotient keeps p's denominator and
    content (Gauss's lemma, phi being primitive), so it is in normal form.

    phi vanishes at (1, 1, i, i), so a nonzero value p(1, 1, i, i), read off
    in one pass as the sum of (a + b i) i^(e2 + e3), proves that phi does
    not divide p; a zero value decides nothing and the division runs.
    (e2 + e3) mod 4 is the low two bits of (m >> 16) + m.
    """
    re = im = 0
    for m, (a, b) in p.terms.items():
        r = ((m >> 16) + m) & 3
        if r == 0:
            re, im = re + a, im + b
        elif r == 1:
            re, im = re - b, im + a
        elif r == 2:
            re, im = re - a, im - b
        else:
            re, im = re + b, im - a
    if re or im:
        return None
    work = dict(p.terms)
    quot = {}
    # A key of work may set a guard bit of x1..x3, as e_j + e0 < 2^16 never
    # carries, but an exact quotient's cannot: in an order with x_j first,
    # the leading term of (p / phi) phi has x_j-degree 2 above the quotient's.
    x0sq, x1sq, x2sq, x3sq = (2 << s for s in _SHIFTS)
    for e in range(max(work, default=0) >> 48, 1, -1):
        for m in [m for m in work if m >> 48 == e]:
            a, b = work.pop(m)
            if not (a or b):
                continue
            m -= x0sq
            quot[m] = (a, b)
            for t in (m + x1sq, m + x2sq, m + x3sq):
                c = work.get(t)
                work[t] = (-a, -b) if c is None else (c[0] - a, c[1] - b)
    if any(a or b for a, b in work.values()):
        return None
    return Poly._raw(quot, p.den)


class ScalarField:
    """Exact function P / phi^k on R^4 minus the origin.

    Closed under +, *, and all partials; canonical form keeps the numerator
    coprime to phi whenever k > 0.
    """

    __slots__ = ("num", "k")

    def __init__(self, num, k: int = 0):
        num = Poly.coerce(num)
        if k < 0:
            raise ValueError("denominator exponent must be >= 0")
        while k > 0 and num.terms:
            q = _phi_quotient(num)
            if q is None:
                break
            num, k = q, k - 1
        self.num = num
        self.k = k if num.terms else 0

    @staticmethod
    def _canonical(num: Poly, k: int) -> "ScalarField":
        """num / phi^k that is canonical by construction (see the module
        docstring); skips the reduction."""
        f = ScalarField.__new__(ScalarField)
        f.num, f.k = num, k if num.terms else 0
        return f

    @staticmethod
    def coerce(v) -> "ScalarField":
        if isinstance(v, ScalarField):
            return v
        return ScalarField(Poly.coerce(v), 0)

    @staticmethod
    def const(c) -> "ScalarField":
        return ScalarField(Poly.const(c), 0)

    @staticmethod
    def phi() -> "ScalarField":
        return ScalarField(PHI, 0)

    @staticmethod
    def inv_phi(k: int = 1) -> "ScalarField":
        return ScalarField(Poly.const(1), k)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def __add__(self, other):
        return _lincomb([(1, 0, 1, self), (1, 0, 1, ScalarField.coerce(other))])

    __radd__ = __add__

    def __neg__(self):
        return ScalarField._canonical(-self.num, self.k)

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
        # a k = 0 divisor Q phi^s: divide by Q, coprime to phi, then by phi^s
        den, k = o.num, self.k
        while not o.k and (q := _phi_quotient(den)) is not None:
            den, k = q, k + 1
        if den.is_constant():
            # P phi^(o.k) / (c phi^k): common phi powers cancel; phi | P only if k > self.k
            j = min(o.k, k)
            num = self.num * (QI(1) / den.constant_value()) * _phi_pow(o.k - j)
            return (ScalarField if k > self.k else ScalarField._canonical)(num, k - j)
        q, r = (self.num * _phi_pow(o.k)).divmod_poly(den)
        if not r.is_zero():
            raise ValueError("inexact field division")
        return ScalarField(q, k)

    def partial(self, i: int) -> "ScalarField":
        return _dsum([(1, i, self)])

    def scale_arguments(self, q: Fraction, shift: int = 0) -> "ScalarField":
        """f(x) -> q^shift f(q*x); exact because phi(q*x) = q^2 phi(x), and
        canonical because phi divides P(q*x) only if it divides P."""
        q = _frac(q)
        if q == 0:
            raise ValueError("scale factor must be nonzero")
        return ScalarField._canonical(self.num.scale_arguments(q, shift - 2 * self.k), self.k)

    def max_abs_coeff(self) -> float:
        """Crude magnitude of the field, for defect reporting only."""
        if self.is_zero():
            return 0.0
        return max(math.sqrt(float(c.abs2())) for c in self.num.coeffs.values())

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, QI)):
            other = ScalarField.const(other)
        if not isinstance(other, ScalarField):
            return NotImplemented
        return self.num == other.num and self.k == other.k

    def __hash__(self):
        return hash((self.num, self.k))

    def __repr__(self):
        if self.k == 0:
            return repr(self.num)
        return f"({self.num!r}) / phi^{self.k}"


_ZERO_FIELD = ScalarField._canonical(Poly._raw({}, 1), 0)


def _lift_into(out: Terms, terms: Terms, n: int, x: int, y: int) -> None:
    """Adds (x + y sqrt(-1)) phi^n times the pairs ``terms`` to ``out``."""
    get = out.get
    lift = _phi_pow(n).terms
    for pm, (a, b) in terms.items():
        re, im = a * x - b * y, a * y + b * x
        for qm, (c, _) in lift.items():
            m = pm + qm
            v = get(m)
            out[m] = (re * c, im * c) if v is None else (v[0] + re * c, v[1] + im * c)


def _lincomb(terms) -> ScalarField:
    """The canonical sum of c f over the list ``terms`` of (x, y, d, f), each
    a field f with a constant c = (x + y sqrt(-1)) / d in integers, d > 0;
    a zero c or f adds nothing, and an empty sum is the shared ``_ZERO_FIELD``."""
    parts, k, den = [], 0, 1
    for t in terms:
        f = t[3]
        if (t[0] or t[1]) and f.num.terms:
            parts.append(t)
            k = f.k if f.k > k else k
            if (d := t[2] * f.num.den) != den:
                den = math.lcm(den, d)
    if not parts:
        return _ZERO_FIELD
    if len(parts) == 1 and parts[0][1:3] == (0, 1) and parts[0][0] in (1, -1):
        return parts[0][3] if parts[0][0] == 1 else -parts[0][3]
    out: Terms = {}
    get = out.get
    top = 0
    for x, y, d, f in parts:
        s = den // (d * f.num.den)
        if s != 1:
            x, y = x * s, y * s
        if f.k < k:
            _lift_into(out, f.num.terms, k - f.k, x, y)
            continue
        top += 1
        for m, (a, b) in f.num.terms.items():
            re, im = (a * x - b * y, a * y + b * x) if y else (a * x, b * x)
            v = get(m)
            out[m] = (re, im) if v is None else (v[0] + re, v[1] + im)
    return (ScalarField if k and top > 1 else ScalarField._canonical)(Poly._make(out, den), k)


def _dsum(terms) -> ScalarField:
    """The canonical sum of sign d_mu f over the list ``terms`` of
    (sign, mu, f), sign = +-1: each partial is canonical as computed, over
    phi^(k+1) for f over phi^k with k > 0."""
    parts, k, den = [], 0, 1
    for sign, mu, f in terms:
        if f.num.terms:
            j = f.k + 1 if f.k else 0
            parts.append((sign, mu, f, j))
            k = j if j > k else k
            den = math.lcm(den, f.num.den)
    out: Terms = {}
    top = 0
    for sign, mu, f, j in parts:
        s = sign * (den // f.num.den)
        if j < k:
            _lift_into(out, _partial_into({}, f.num.terms, f.k, mu), k - j, s, 0)
        else:
            top += 1
            _partial_into(out, f.num.terms, f.k, mu, s)
    return (ScalarField if k and top > 1 else ScalarField._canonical)(Poly._make(out, den), k)


def _prodsum(terms) -> ScalarField:
    """The canonical sum of sign f g over the list ``terms`` of (sign, f, g),
    sign = +-1: a product is loose, phi may divide it, when f or g has
    k = 0."""
    parts, k, den = [], 0, 1
    for sign, f, g in terms:
        if f.num.terms and g.num.terms:
            j = f.k + g.k
            parts.append((sign, f, g, j))
            k = j if j > k else k
            den = math.lcm(den, f.num.den * g.num.den)
    out: Terms = {}
    top, loose = 0, False
    for sign, f, g, j in parts:
        s = sign * (den // (f.num.den * g.num.den))
        if j < k:
            _lift_into(out, _mul_into({}, f.num.terms, g.num.terms), k - j, s, 0)
        else:
            top += 1
            loose = loose or not (f.k and g.k)
            _mul_into(out, f.num.terms, g.num.terms, s)
    return (ScalarField if k and (top > 1 or loose) else ScalarField._canonical)(
        Poly._make(out, den), k)
