"""Exact coefficient ring: Gaussian rationals, polynomials, phi-denominators."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hkt4 import exact
from hkt4.exact import (EXP_LIMIT, PHI, Poly, QI, ScalarField, _dsum, _lincomb, _prodsum,
                        _unpack)


def variable(i):
    """The coordinate x_i as a polynomial."""
    return Poly({tuple(int(j == i) for j in range(4)): 1})


def rand_qi(rng):
    return QI(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
              Fraction(rng.randint(-4, 4), rng.randint(1, 3)))


def rand_poly(rng, max_terms=4, max_deg=2):
    coeffs = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, max_deg) for _ in range(4))
        coeffs[mono] = rand_qi(rng)
    return Poly(coeffs)


def test_qi_field_axioms():
    rng = random.Random(7)
    for _ in range(50):
        a, b, c = rand_qi(rng), rand_qi(rng), rand_qi(rng)
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        if not b.is_zero():
            assert (a / b) * b == a
    assert QI(0, 1) * QI(0, 1) == QI(-1)


def test_poly_ring_and_derivative():
    rng = random.Random(13)
    for _ in range(30):
        p, q = rand_poly(rng), rand_poly(rng)
        assert (p + q) * p == p * p + q * p
        f, g = ScalarField(p, 0), ScalarField(q, 0)
        for i in range(4):
            # Leibniz for partial derivatives
            assert (f * g).partial(i) == f.partial(i) * g + f * g.partial(i)


def test_poly_division_exact_and_inexact():
    rng = random.Random(3)
    for _ in range(20):
        p = rand_poly(rng)
        prod = p * PHI
        quot, rem = prod.divmod_poly(PHI)
        assert rem.is_zero() and quot == p
    q, r = variable(0).divmod_poly(PHI)
    assert q.is_zero() and r == variable(0)


def test_scalarfield_canonical_form():
    # phi * P / phi^2 collapses to P / phi
    p = variable(1)
    f = ScalarField(PHI * p, 2)
    assert f.k == 1 and f.num == p
    assert ScalarField(PHI, 1) == ScalarField.const(1)
    assert ScalarField(Poly(), 3).k == 0


def test_scalarfield_partial_matches_quotient_rule():
    # d/dx0 (x0 / phi) = (phi - 2 x0^2) / phi^2
    f = ScalarField(variable(0), 1)
    d0 = f.partial(0)
    expected = ScalarField(PHI - variable(0) * variable(0) * 2, 2)
    assert d0 == expected


def test_scalarfield_derivative_closure_random():
    rng = random.Random(99)
    for _ in range(20):
        f = ScalarField(rand_poly(rng), rng.randint(0, 2))
        for i in range(4):
            g = f.partial(i)
            assert isinstance(g, ScalarField)
        # mixed partials commute
        assert f.partial(0).partial(1) == f.partial(1).partial(0)


def test_scalarfield_div_exact():
    p = rand_poly(random.Random(5))
    f = ScalarField(p * PHI * 3, 1)
    g = f.div_exact(ScalarField.const(3))
    assert g == ScalarField(p * PHI, 1)
    h = ScalarField(p * p, 0).div_exact(ScalarField(p, 0))
    assert h == ScalarField(p, 0)
    # a divisor with a factor phi moves it into the denominator
    x0 = ScalarField(variable(0), 0)
    assert x0.div_exact(ScalarField(PHI, 0)) == ScalarField(variable(0), 1)
    assert ScalarField.const(1).div_exact(ScalarField.phi()) == ScalarField.inv_phi()
    assert ScalarField(PHI * 2, 0).div_exact(ScalarField(PHI * PHI, 0)) \
        == ScalarField.inv_phi() * 2
    with pytest.raises(ValueError):
        x0.div_exact(ScalarField(variable(1), 0))


def test_scale_arguments_homogeneity():
    q = Fraction(3, 2)
    # phi is homogeneous of degree 2
    assert ScalarField.phi().scale_arguments(q) == ScalarField.phi() * Fraction(9, 4)
    # 1/phi scales by q^-2
    assert ScalarField.inv_phi().scale_arguments(q) == ScalarField.inv_phi() * Fraction(4, 9)


gaussian = st.builds(QI, st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
                     st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))
polys = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 4), gaussian,
                        min_size=1, max_size=4).map(Poly).filter(lambda p: p.terms)
_x = [variable(i) for i in range(4)]
# zero at (1, 1, i, i), as phi is, but not multiples of phi
NEAR_MULTIPLES = (_x[2] - _x[3], _x[0] - _x[1], _x[0] * _x[2] - _x[1] * _x[3],
                  _x[0] * _x[0] + _x[2] * _x[2], _x[1] * _x[3] - _x[0] * _x[2] + PHI)


@settings(max_examples=150)
@given(polys, st.sampled_from(("random", "multiple", "near")),
       st.sampled_from(NEAR_MULTIPLES))
def test_phi_divisibility_matches_generic_division(p, kind, near):
    """P / phi is a polynomial field exactly when generic division by phi
    leaves no remainder, and then its numerator is the quotient: on random
    polynomials, on multiples of phi and on polynomials that vanish where
    phi does."""
    if kind == "multiple":
        p = p * PHI
    elif kind == "near":
        p = p * near
    q, r = p.divmod_poly(PHI)
    f = ScalarField(p, 1)
    assert (f.k == 0) == r.is_zero()
    assert (f.num, f.k) == ((q, 0) if r.is_zero() else (p, 1))


# fields over phi^0..phi^2 whose numerators may carry phi factors, the zero
# field among them, and constants (x, y, d): zero, +-1, real and complex
lincomb_fields = st.builds(lambda p, j, k: ScalarField(p * PHI if j else p, k),
                           polys | st.just(Poly()), st.booleans(), st.integers(0, 2))
lincomb_constants = (st.sampled_from([(0, 0, 1), (1, 0, 1), (-1, 0, 1)])
                     | st.tuples(st.integers(-3, 3), st.just(0), st.integers(1, 4))
                     | st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 4)))


def lincomb_reference(terms):
    """sum c f by Poly arithmetic over the largest phi power, reduced by the
    ScalarField constructor."""
    k = max((f.k for *_, f in terms), default=0)
    total = Poly()
    for x, y, d, f in terms:
        num = f.num * QI(Fraction(x, d), Fraction(y, d))
        for _ in range(k - f.k):
            num = num * PHI
        total = total + num
    return ScalarField(total, k)


@given(st.lists(st.builds(lambda c, f: (*c, f), lincomb_constants, lincomb_fields), max_size=5))
def test_lincomb_matches_the_reference_sum(terms):
    got, want = _lincomb(terms), lincomb_reference(terms)
    assert (got.num.terms, got.num.den, got.k) == (want.num.terms, want.num.den, want.k)
    zero = exact._ZERO_FIELD  # returned for every empty sum, so never written
    assert (zero.num.terms, zero.num.den, zero.k) == ({}, 1, 0) and zero == ScalarField.const(0)


def test_phi_expansion_of_zero_is_zero():
    # phi divides 0; the expansion must not need a leading term
    for f in (ScalarField(Poly(), 2), ScalarField(PHI - PHI, 1)):
        assert f.terms == {} and f.den == 1 and (f.num, f.k) == (Poly(), 0)
        assert f == exact._ZERO_FIELD


# polynomials up to x0^4, so that the expansion keeps several digits
deep_polys = st.dictionaries(st.tuples(st.integers(0, 4), *[st.integers(0, 2)] * 3), gaussian,
                             min_size=1, max_size=4).map(Poly)


def phi_power(j):
    out = Poly.const(1)
    for _ in range(j):
        out = out * PHI
    return out


@settings(max_examples=150)
@given(deep_polys, st.integers(0, 3), st.integers(0, 3))
def test_normal_form_is_unique_and_round_trips(p, k, j):
    """P phi^j / phi^(k+j) is stored as P / phi^k is, and the derived
    (num, k) is the pair the retired reduction gave: divide by phi while
    generic division leaves no remainder."""
    f, g = ScalarField(p, k), ScalarField(p * phi_power(j), k + j)
    assert (g.terms, g.den) == (f.terms, f.den)
    assert g == f and hash(g) == hash(f)
    assert all(m >> 48 & 0xF < 2 for m in f.terms)  # x0-degree 0 or 1
    num, e = p, k
    while e > 0 and not num.is_zero():
        q, r = num.divmod_poly(PHI)
        if not r.is_zero():
            break
        num, e = q, e - 1
    assert (g.num, g.k) == (num, e if num.terms else 0)


tuple_keys = st.dictionaries(st.tuples(*[st.integers(0, EXP_LIMIT - 1)] * 4),
                             gaussian.filter(bool), min_size=1, max_size=6)


@given(tuple_keys)
def test_packed_monomials_round_trip(coeffs):
    """Exponent tuples survive packing, and int order is lex order."""
    p = Poly(coeffs)
    assert p.coeffs == coeffs
    assert _unpack(max(p.terms)) == max(coeffs)


@pytest.mark.parametrize("mono", [(-1, 0, 0, 0), (0, 0, 0, -3), (0, EXP_LIMIT, 0, 0),
                                  (2 ** 16, 0, 0, 0)])
def test_exponents_outside_the_packed_range_are_rejected(mono):
    with pytest.raises(ValueError):
        Poly({mono: QI(1)})


def test_exponent_overflow_raises_instead_of_carrying():
    top = EXP_LIMIT - 1
    half = Poly({(0, 0, EXP_LIMIT // 2, 0): QI(1)})
    with pytest.raises(ValueError):
        half * half  # x2^(2^15)
    assert (half * Poly({(0, 0, EXP_LIMIT // 2 - 1, 0): QI(1)})).coeffs == {(0, 0, top, 0): QI(1)}
    f = ScalarField(Poly({(0, top, 0, 0): QI(1)}), 0)
    total = f + ScalarField.inv_phi()  # stored as x1^(2^15 - 1) + 1/phi
    with pytest.raises(ValueError):
        total.num  # x1^(2^15 - 1) phi + 1: phi adds x1^2
    with pytest.raises(ValueError):
        (f * ScalarField.inv_phi()).partial(1)  # -2 x1 x1^(2^15 - 1) / phi^2
    g = ScalarField(Poly({(0, 0, 0, top): QI(1)}), 0)
    with pytest.raises(ValueError):
        g * ScalarField(variable(3), 0)
    # the x0^2 rewrite adds x1^2, in a product and in the constructor
    x0 = ScalarField(variable(0), 0)
    with pytest.raises(ValueError):
        ScalarField(Poly({(1, top - 1, 0, 0): QI(1)}), 0) * x0  # -x1^2 x1^(2^15 - 2)
    with pytest.raises(ValueError):
        ScalarField(Poly({(2, top - 1, 0, 0): QI(1)}), 0)
    # numpy exponents are packed as Python ints, so x0's field cannot wrap int64
    wide = Poly({tuple(np.array([EXP_LIMIT // 2, 0, 0, 0])): QI(1)})
    with pytest.raises(ValueError):
        wide * wide


def test_exponent_overflow_raises_on_the_fused_paths():
    """A product or partial written into a sum raises as Poly.__mul__ does,
    through the x0^2 rewrite too. A sum of terms over different phi powers
    needs no lift, so one whose common numerator overflows raises where
    that numerator is read."""
    top = EXP_LIMIT - 1
    inv_phi = ScalarField.inv_phi()
    x3 = ScalarField(variable(3), 0)
    g = ScalarField(Poly({(0, 0, 0, top): QI(1)}), 0)
    h = ScalarField(Poly({(0, 0, 0, top - 1): QI(1)}), 0)
    with pytest.raises(ValueError):
        _prodsum([(1, g * inv_phi, x3), (1, inv_phi, x3)])  # x3^(2^15) / phi
    assert _prodsum([(1, h, x3)]) == g  # x3^(2^15 - 1) alone fits
    total = _prodsum([(1, h, x3), (-1, inv_phi, inv_phi)])  # x3^(2^15 - 1) - 1/phi^2
    with pytest.raises(ValueError):
        total.num  # x3^(2^15 - 1) phi^2 - 1: phi^2 adds x3^4
    x0 = ScalarField(variable(0), 0)
    with pytest.raises(ValueError):
        _prodsum([(1, x0, ScalarField(Poly({(1, 0, 0, top - 1): QI(1)}), 0))])  # -x3^2 x3^(2^15 - 2)
    f = ScalarField(Poly({(0, top, 0, 0): QI(1)}), 0)
    assert _dsum([(1, 1, f)]) == ScalarField(Poly({(0, top - 1, 0, 0): QI(top)}), 0)
    with pytest.raises(ValueError):
        _dsum([(1, 1, f * inv_phi), (1, 0, inv_phi)])  # -2 x1 x1^(2^15 - 1) / phi^2
    total = _dsum([(1, 1, f), (1, 0, inv_phi)])  # (2^15 - 1) x1^(2^15 - 2) - 2 x0 / phi^2
    with pytest.raises(ValueError):
        total.num  # phi^2 adds x1^4 to x1^(2^15 - 2)
    with pytest.raises(ValueError):
        # d_0 (x0 x1^(2^15 - 2) / phi) has -2 x0^2 x1^(2^15 - 2) / phi^2, and x0^2 adds -x1^2
        _dsum([(1, 0, ScalarField(Poly({(1, top - 1, 0, 0): QI(1)}), 1))])


@pytest.mark.parametrize("seed", [0, 1])
def test_no_hot_path_materialises_the_numerator(monkeypatch, seed):
    """A warm hopf_suite and calculus_suite read every field through its
    stored keys: a spy on the derived num and k counts no read."""
    from hkt4.suites import calculus_suite, hopf_suite

    q = Fraction(7, 3)
    hopf_suite(q, seed=seed)
    calculus_suite(seed)
    reads = []
    for name in ("num", "k"):
        derived = getattr(ScalarField, name).fget
        monkeypatch.setattr(ScalarField, name, property(
            lambda f, derived=derived, name=name: reads.append(name) or derived(f)))
    assert ScalarField.phi().k == 0 and reads == ["k"]  # the spy sees a read
    reads.clear()
    checks = hopf_suite(q, seed=seed) + calculus_suite(seed)
    assert reads == []
    assert {c.status for c in checks} == {"pass"}
