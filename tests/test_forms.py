"""Exterior calculus: wedge, d, structure action, twisted differential,
(p,q) projections, Hodge star, Lambda contraction, scale pullback."""

import itertools
import random
from fractions import Fraction

import pytest

from hkt4.exact import Poly, QI, ScalarField
from hkt4.forms import (
    ConstantMetric,
    DegreeError,
    RationalForm,
    exterior_d,
    hodge_star,
    lambda_contract,
    pq_project,
    scale_pullback,
    structure_action,
    twisted_d,
    wedge,
)
from hkt4.quaternions import HypercomplexFrame


def variable(i):
    """The coordinate x_i as a polynomial."""
    return Poly({tuple(int(j == i) for j in range(4)): 1})


LEFT = HypercomplexFrame.left()
EUCLID = ConstantMetric.euclidean()


def rand_scalar(rng, complexified=False, max_deg=2):
    coeffs = {}
    for _ in range(rng.randint(1, 3)):
        mono = tuple(rng.randint(0, 1) for _ in range(4))
        re = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        im = Fraction(rng.randint(-3, 3), rng.randint(1, 2)) if complexified else 0
        coeffs[mono] = QI(re, im)
    return ScalarField(Poly(coeffs), rng.randint(0, 1))


def rand_form(rng, degree, complexified=False):
    coeffs = {}
    for t in itertools.combinations(range(4), degree):
        if rng.random() < 0.7:
            coeffs[t] = rand_scalar(rng, complexified)
    return RationalForm(degree, coeffs)


def dx(i):
    return RationalForm.basis((i,))


def test_wedge_basis_and_overflow():
    w = wedge(dx(0), dx(1))
    assert w == RationalForm.basis((0, 1))
    with pytest.raises(DegreeError):
        wedge(RationalForm.basis((0, 1, 2)), RationalForm.basis((1, 3)))


def test_wedge_graded_anticommutativity():
    rng = random.Random(2)
    for da, db in [(1, 1), (1, 2), (2, 2), (0, 3)]:
        a, b = rand_form(rng, da), rand_form(rng, db)
        sign = (-1) ** (da * db)
        lhs = wedge(a, b)
        rhs = wedge(b, a)
        rhs = rhs if sign > 0 else -rhs
        assert (lhs - rhs).is_zero()


def test_wedge_squared_kahler_form():
    omega = RationalForm(2, {(0, 1): ScalarField.const(1), (2, 3): ScalarField.const(1)})
    assert wedge(omega, omega) == RationalForm.basis((0, 1, 2, 3), 2)


def test_exterior_d_basics():
    x0 = ScalarField(variable(0), 0)
    a = RationalForm(1, {(1,): x0})
    assert exterior_d(a) == RationalForm.basis((0, 1))
    phi_form = RationalForm.function(ScalarField.phi())
    dphi = exterior_d(phi_form)
    expected = RationalForm(1, {(i,): ScalarField(variable(i) * 2, 0) for i in range(4)})
    assert dphi == expected


def test_exterior_d_rejects_top_degree():
    with pytest.raises(DegreeError):
        exterior_d(RationalForm.basis((0, 1, 2, 3)))
    with pytest.raises(DegreeError):
        twisted_d(LEFT.I, RationalForm.basis((0, 1, 2, 3)))


def test_d_squared_zero_random():
    rng = random.Random(5)
    for _ in range(30):
        a = rand_form(rng, rng.randint(0, 2))
        assert exterior_d(exterior_d(a)).is_zero()


def test_graded_leibniz():
    rng = random.Random(8)
    for da, db in [(0, 1), (1, 1), (1, 2), (0, 2)]:
        a, b = rand_form(rng, da), rand_form(rng, db)
        lhs = exterior_d(wedge(a, b))
        rhs = wedge(exterior_d(a), b)
        term = wedge(a, exterior_d(b))
        rhs = rhs + (term if da % 2 == 0 else -term)
        assert (lhs - rhs).is_zero()


def test_structure_action_on_covectors():
    # I(dx0) = -dx1 for the left I
    assert structure_action(LEFT.I, dx(0)) == -dx(1)
    assert structure_action(LEFT.I, dx(1)) == dx(0)
    assert structure_action(LEFT.I, dx(2)) == -dx(3)
    assert structure_action(LEFT.I, dx(3)) == dx(2)


def test_structure_action_squares():
    rng = random.Random(12)
    for degree in range(5):
        a = rand_form(rng, degree)
        twice = structure_action(LEFT.J, structure_action(LEFT.J, a))
        expected = a if degree % 2 == 0 else -a
        assert (twice - expected).is_zero()


def test_structure_action_fixes_hermitian_form():
    omega = RationalForm(2, {(0, 1): ScalarField.const(1), (2, 3): ScalarField.const(1)})
    assert structure_action(LEFT.I, omega) == omega


def test_structure_action_rejects_non_acs():
    # in every degree, and again once the first refusal has been seen
    identity = tuple(tuple(Fraction(int(i == j)) for j in range(4)) for i in range(4))
    for degree in (1, 0, 1, 2, 3, 4):
        with pytest.raises(ValueError, match=r"^matrix does not square to -Id$"):
            structure_action(identity, RationalForm.basis(tuple(range(degree))))
    with pytest.raises(ValueError, match=r"^matrix does not square to -Id$"):
        pq_project(identity, dx(0), 1, 0)


@pytest.mark.parametrize("matrix, message", [
    (((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), "symmetric"),
    (((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, Fraction(1, 2)), (0, 0, 0, 1)), "symmetric"),
    (((0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), "positive definite"),
    (((1, 2, 0, 0), (2, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), "positive definite"),
    (((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1)), "positive definite"),
    (((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 0)), "positive definite"),
    (((2, 1, 1, 1), (1, 2, 1, 1), (1, 1, 2, 1), (1, 1, 1, Fraction(-1, 3))),
     "positive definite"),
], ids=["upper", "fraction", "minor1", "minor2", "minor3", "det-zero", "det-negative"])
def test_constant_metric_rejects_with_its_messages(matrix, message):
    with pytest.raises(ValueError, match=rf"^metric must be {message}$"):
        ConstantMetric(matrix)


def test_twisted_d_on_function():
    # d^c_I f(X) = -df(IX): for f = x0 this gives +dx1
    f = RationalForm.function(ScalarField(variable(0), 0))
    res = twisted_d(LEFT.I, f)
    assert res == dx(1)


def test_twisted_d_phi_frozen():
    # hand expansion: -I(dphi) = 2(x0 dx1 - x1 dx0 + x2 dx3 - x3 dx2)
    phi_form = RationalForm.function(ScalarField.phi())
    res = twisted_d(LEFT.I, phi_form)
    x = [ScalarField(variable(i), 0) for i in range(4)]
    expected = RationalForm(1, {(0,): x[1] * -2, (1,): x[0] * 2,
                                (2,): x[3] * -2, (3,): x[2] * 2})
    assert res == expected


def test_ddc_positive_definite():
    phi_form = RationalForm.function(ScalarField.phi())
    ddc = exterior_d(twisted_d(LEFT.I, phi_form))
    assert ddc == RationalForm(2, {(0, 1): ScalarField.const(4),
                                   (2, 3): ScalarField.const(4)})


def test_ddc_antisymmetry_on_functions():
    # d d^c = -d^c d on functions
    rng = random.Random(31)
    for _ in range(10):
        f = RationalForm.function(rand_scalar(rng))
        lhs = exterior_d(twisted_d(LEFT.J, f))
        rhs = twisted_d(LEFT.J, exterior_d(f))
        assert (lhs + rhs).is_zero()


def test_pq_project_covector():
    # (1,0) part of dx0 w.r.t. I is (dx0 - i I(dx0))/2 = (dx0 + i dx1)/2
    res = pq_project(LEFT.I, dx(0), 1, 0)
    half = Fraction(1, 2)
    expected = RationalForm(1, {(0,): ScalarField.const(QI(half)),
                                (1,): ScalarField.const(QI(0, half))})
    assert res == expected


def test_pq_project_complete_and_idempotent():
    rng = random.Random(17)
    for degree in range(5):
        a = rand_form(rng, degree, complexified=True)
        total = RationalForm.zero(degree)
        for p in range(degree + 1):
            q = degree - p
            piece = pq_project(LEFT.J, a, p, q)
            assert (pq_project(LEFT.J, piece, p, q) - piece).is_zero()
            total = total + piece
        assert (total - a).is_zero()


def test_pq_project_30_vanishes():
    rng = random.Random(19)
    for _ in range(10):
        a = rand_form(rng, 3, complexified=True)
        assert pq_project(LEFT.I, a, 3, 0).is_zero()
        assert pq_project(LEFT.I, a, 0, 3).is_zero()


def test_pq_project_eigenvalue():
    # L acts on a (p,q) form as multiplication by i^(p-q)
    rng = random.Random(21)
    a = rand_form(rng, 2, complexified=True)
    for p, q, eig in [(2, 0, QI(-1)), (1, 1, QI(1)), (0, 2, QI(-1))]:
        piece = pq_project(LEFT.I, a, p, q)
        acted = structure_action(LEFT.I, piece)
        assert (acted - piece * eig).is_zero()


def test_pq_project_degree_mismatch():
    with pytest.raises(DegreeError):
        pq_project(LEFT.I, dx(0), 2, 0)


def test_hodge_star_euclidean_basics():
    assert hodge_star(EUCLID, RationalForm.basis((0, 1))) == RationalForm.basis((2, 3))
    assert hodge_star(EUCLID, RationalForm.function(1)) == RationalForm.basis((0, 1, 2, 3))
    assert hodge_star(EUCLID, RationalForm.basis((0, 1, 2, 3))) == RationalForm.function(1)
    # star of dx0 is dx1^dx2^dx3 etc.
    assert hodge_star(EUCLID, dx(0)) == RationalForm.basis((1, 2, 3))


def test_hodge_star_euclidean_frozen_table():
    # the full table on 1- and 3-forms, derived by hand from b ^ *a = <b,a> vol
    table1 = {0: ((1, 2, 3), 1), 1: ((0, 2, 3), -1),
              2: ((0, 1, 3), 1), 3: ((0, 1, 2), -1)}
    for i, (t, sign) in table1.items():
        assert hodge_star(EUCLID, dx(i)) == RationalForm.basis(t, sign)
        # 3-form direction flips: ** = -1 on odd degrees
        assert hodge_star(EUCLID, RationalForm.basis(t)) == dx(i) * Fraction(-sign)


def test_hodge_star_involution_all_degrees_scaled_metric():
    rng = random.Random(53)
    g = ConstantMetric([[1, 0, 0, 0], [0, 4, 0, 0], [0, 0, 1, 0], [0, 0, 0, 4]])
    for degree in range(5):
        sign = (-1) ** (degree * (4 - degree))
        for _ in range(5):
            a = rand_form(rng, degree)
            twice = hodge_star(g, hodge_star(g, a))
            expected = a if sign > 0 else -a
            assert (twice - expected).is_zero()


def test_hodge_star_involution_on_two_forms():
    rng = random.Random(29)
    for _ in range(10):
        a = rand_form(rng, 2)
        assert (hodge_star(EUCLID, hodge_star(EUCLID, a)) - a).is_zero()


def test_hodge_star_isometry_symmetric():
    rng = random.Random(37)
    for degree in (1, 2, 3):
        a, b = rand_form(rng, degree), rand_form(rng, degree)
        lhs = wedge(a, hodge_star(EUCLID, b))
        rhs = wedge(b, hodge_star(EUCLID, a))
        assert (lhs - rhs).is_zero()


def test_hodge_star_scaled_metric():
    g = ConstantMetric([[4, 0, 0, 0], [0, 4, 0, 0], [0, 0, 4, 0], [0, 0, 0, 4]])
    # vol_g = 16 dx0123; <dx01,dx01>_g = 1/16, so *(dx01) = dx23 still
    assert hodge_star(g, RationalForm.basis((0, 1))) == RationalForm.basis((2, 3))
    # on odd degrees ** = -1 in dimension 4
    a = dx(0)
    assert hodge_star(g, hodge_star(g, a)) == -a
    assert hodge_star(EUCLID, hodge_star(EUCLID, a)) == -a


def test_self_dual_and_anti_self_dual_split():
    sd = [RationalForm(2, {(0, 1): ScalarField.const(1), (2, 3): ScalarField.const(1)}),
          RationalForm(2, {(0, 2): ScalarField.const(1), (1, 3): ScalarField.const(-1)}),
          RationalForm(2, {(0, 3): ScalarField.const(1), (1, 2): ScalarField.const(1)})]
    for w in sd:
        assert (hodge_star(EUCLID, w) - w).is_zero()
    asd = RationalForm(2, {(0, 1): ScalarField.const(1), (2, 3): ScalarField.const(-1)})
    assert (hodge_star(EUCLID, asd) + asd).is_zero()


def test_lambda_contract():
    omega = RationalForm(2, {(0, 1): ScalarField.const(1), (2, 3): ScalarField.const(1)})
    assert lambda_contract(omega, omega) == ScalarField.const(2)
    assert lambda_contract(omega, RationalForm.basis((0, 2))) == ScalarField.const(0)
    # anti-self-dual forms contract to zero
    asd = RationalForm(2, {(0, 1): ScalarField.const(1), (2, 3): ScalarField.const(-1)})
    assert lambda_contract(omega, asd) == ScalarField.const(0)
    with pytest.raises(ValueError):
        lambda_contract(RationalForm.basis((0, 1)), omega)


def test_lambda_contract_degenerate():
    with pytest.raises(ValueError):
        lambda_contract(RationalForm.basis((0, 1)), RationalForm.basis((0, 1)))
    # degenerate means omega^omega = 0 even though omega != 0


def test_lambda_matches_pointwise_inner_product():
    rng = random.Random(41)
    omega = RationalForm(2, {(0, 1): ScalarField.const(1), (2, 3): ScalarField.const(1)})
    for _ in range(10):
        a = rand_form(rng, 2)
        lam = lambda_contract(omega, a)
        inner = ScalarField.const(0)
        for t, f in a.coeffs.items():
            if t in omega.coeffs:
                inner = inner + f * omega.coeffs[t]
        assert lam == inner


def test_scale_pullback():
    q = Fraction(2)
    phi_form = RationalForm.function(ScalarField.phi())
    dphi = exterior_d(phi_form)
    assert scale_pullback(dphi, q) == dphi * Fraction(4)
    assert scale_pullback(dx(0), q) == dx(0) * Fraction(2)
    with pytest.raises(ValueError):
        scale_pullback(dx(0), 0)


def test_scale_pullback_commutes_with_d():
    rng = random.Random(43)
    q = Fraction(3, 2)
    for _ in range(10):
        a = rand_form(rng, rng.randint(0, 2))
        assert (scale_pullback(exterior_d(a), q)
                - exterior_d(scale_pullback(a, q))).is_zero()


def test_scale_pullback_fixes_hopf_form():
    # dd^c phi / phi is invariant under x -> qx
    phi_form = RationalForm.function(ScalarField.phi())
    omega = exterior_d(twisted_d(LEFT.I, phi_form)) * ScalarField.inv_phi()
    assert scale_pullback(omega, Fraction(2)) == omega


def test_del_equals_half_d_plus_i_dc():
    # the (p+1,q) piece of d agrees with (d + i d^c_L)/2 on (p,q) forms
    rng = random.Random(47)
    L = LEFT.J
    for degree, p in [(0, 0), (1, 1), (1, 0), (2, 1)]:
        q = degree - p
        a = pq_project(L, rand_form(rng, degree, complexified=True), p, q)
        da = exterior_d(a)
        lhs = pq_project(L, da, p + 1, q)
        rhs = (da + twisted_d(L, a) * QI(0, 1)) * Fraction(1, 2)
        assert (lhs - rhs).is_zero()
