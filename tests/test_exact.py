"""Exact coefficient ring: Gaussian rationals, polynomials, phi-denominators."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hkt4.exact import EXP_LIMIT, PHI, Poly, QI, ScalarField, _phi_quotient, _unpack


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
def test_phi_pretest_never_decides_divisibility(p, kind, near):
    """_phi_quotient agrees with generic division on random polynomials, on
    multiples of phi and on polynomials that vanish where phi does."""
    if kind == "multiple":
        p = p * PHI
    elif kind == "near":
        p = p * near
    q, r = p.divmod_poly(PHI)
    assert _phi_quotient(p) == (q if r.is_zero() else None)


def test_phi_quotient_of_zero_is_zero():
    # phi divides 0; the long division must not need a leading term
    assert _phi_quotient(Poly()) == Poly()
    assert _phi_quotient(PHI - PHI) == Poly()


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
    with pytest.raises(ValueError):
        f + ScalarField.inv_phi()  # the phi lift adds x1^2
    with pytest.raises(ValueError):
        (f * ScalarField.inv_phi()).partial(1)  # -2 x1 x1^(2^15 - 1) / phi^2
    g = ScalarField(Poly({(0, 0, 0, top): QI(1)}), 0)
    with pytest.raises(ValueError):
        g * ScalarField(variable(3), 0)
    # numpy exponents are packed as Python ints, so x0's field cannot wrap int64
    wide = Poly({tuple(np.array([EXP_LIMIT // 2, 0, 0, 0])): QI(1)})
    with pytest.raises(ValueError):
        wide * wide
