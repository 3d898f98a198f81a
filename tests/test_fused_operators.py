"""Oracles for the integer fast paths of the exact operators: the
compound-matrix pullback against the wedge expansion, and every fused sum
(structure_action, pq_project, hodge_star, metric_from_form, exterior_d,
wedge) against a per-term ScalarField sum."""

import itertools
import random
from fractions import Fraction

import pytest

from hkt4.exact import PHI, Poly, QI, ScalarField, _lincomb
from hkt4.forms import (
    _ALL_TUPLES,
    DC_SIGN,
    ConstantMetric,
    RationalForm,
    _action_matrix,
    _pq_matrix,
    _wedge_covectors,
    exterior_d,
    hodge_star,
    pq_project,
    structure_action,
    twisted_d,
    wedge,
)
from hkt4.hermitian import metric_from_form
from hkt4.quaternions import AxisTriple, HypercomplexFrame
from hkt4.suites import random_rational_axis

FRAMES = (HypercomplexFrame.left(), HypercomplexFrame.right())


def axis_structures(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        axis = random_rational_axis(rng)
        for frame in FRAMES:
            yield frame.span_structure(axis)


def as_dict(column):
    """A column of integer triples as {s: Gaussian rational}."""
    return {s: QI(Fraction(x, d), Fraction(y, d)) for s, x, y, d in column}


def rand_scalar(rng):
    # mixed k up to 2, Gaussian-rational coefficients
    coeffs = {}
    for _ in range(rng.randint(1, 3)):
        mono = tuple(rng.randint(0, 2) for _ in range(4))
        coeffs[mono] = QI(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                          Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    return ScalarField(Poly(coeffs), rng.randint(0, 2))


def rand_form(rng, degree):
    coeffs = {t: rand_scalar(rng) for t in _ALL_TUPLES[degree] if rng.random() < 0.8}
    return RationalForm(degree, coeffs)


def per_term(columns, a, degree):
    """The constant matrix applied to a by ScalarField products and sums, one
    term at a time."""
    out = RationalForm.zero(degree)
    for t, f in a.coeffs.items():
        for s, c in as_dict(columns[_ALL_TUPLES[a.degree].index(t)]).items():
            out = out + RationalForm(degree, {s: f * c})
    return out


def test_action_matrix_is_the_wedge_expansion():
    for L in axis_structures(seed=5, count=50):
        rows = [dict(enumerate(QI.coerce(v) for v in row)) for row in L]
        for degree in range(5):
            cols = _action_matrix(L, degree)
            for t, col in zip(_ALL_TUPLES[degree], cols):
                expected = _wedge_covectors(rows[i] for i in t)
                assert as_dict(col) == expected


def test_structure_action_matches_per_term_sum():
    rng = random.Random(17)
    for L in axis_structures(seed=6, count=6):
        for degree in range(1, 5):
            a = rand_form(rng, degree)
            expected = per_term(_action_matrix(L, degree), a, degree)
            assert structure_action(L, a) == expected


def test_twisted_d_is_the_signed_composition():
    # the sign folded into the last action equals an explicit negation
    rng = random.Random(22)
    frame_structures = [L for frame in FRAMES for L in frame.matrices()]
    for L in frame_structures + list(axis_structures(seed=9, count=20)):
        for degree in range(4):
            a = rand_form(rng, degree)
            composed = structure_action(L, exterior_d(structure_action(L, a)))
            expected = composed if DC_SIGN * (-1) ** degree > 0 else -composed
            assert twisted_d(L, a) == expected


def test_pq_project_matches_per_term_sum():
    rng = random.Random(18)
    for L in axis_structures(seed=7, count=3):
        for degree in range(1, 4):
            a = rand_form(rng, degree)
            for p in range(degree + 1):
                expected = per_term(_pq_matrix(L, degree, p), a, degree)
                assert pq_project(L, a, p, degree - p) == expected


@pytest.mark.parametrize("g", [ConstantMetric.euclidean(),
                               ConstantMetric(((4, 0, 0, 0), (0, 1, 0, 0),
                                               (0, 0, Fraction(9, 4), 0), (0, 0, 0, 1))),
                               ConstantMetric(((2, 1, 0, 0), (1, 2, 0, 0),
                                               (0, 0, 2, 1), (0, 0, 1, 2)))],
                         ids=["euclidean", "diagonal", "coupled"])
def test_hodge_star_matches_per_term_sum(g):
    rng = random.Random(19)
    for degree in range(5):
        a = rand_form(rng, degree)
        expected = per_term(g.star_columns(degree), a, 4 - degree)
        assert hodge_star(g, a) == expected


def test_metric_from_form_matches_per_term_sum():
    rng = random.Random(20)
    for L in axis_structures(seed=8, count=5):
        omega = rand_form(rng, 2)
        W = [[ScalarField.const(0)] * 4 for _ in range(4)]
        for (a, b), f in omega.coeffs.items():
            W[a][b], W[b][a] = f, -f
        got = metric_from_form(omega, L)
        for a, b in itertools.product(range(4), repeat=2):
            expected = ScalarField.const(0)
            for c in range(4):
                expected = expected + W[a][c] * QI(L[c][b])
            assert got[a][b] == expected


def test_lincomb_cancels_to_zero():
    rng = random.Random(21)
    f, g = rand_scalar(rng), rand_scalar(rng)
    total = _lincomb([(2, 1, 3, f), (1, 0, 1, g), (-2, -1, 3, f), (-1, 0, 1, g)])
    assert total.is_zero() and total.k == 0


def test_lincomb_divides_out_phi_at_the_top():
    x = [Poly.variable(i) for i in range(4)]
    top = ScalarField(x[0] * x[0], 1)
    rest = ScalarField(x[1] * x[1] + x[2] * x[2] + x[3] * x[3], 1)
    total = _lincomb([(1, 0, 1, top), (1, 0, 1, rest)])
    assert total == ScalarField.const(1) and total.k == 0
    # one term at the top k is canonical as lifted: x0^2/phi^2 + 1/phi
    mixed = _lincomb([(1, 0, 1, ScalarField(x[0] * x[0], 2)),
                      (1, 0, 1, ScalarField.inv_phi())])
    assert mixed == ScalarField(x[0] * x[0] + PHI, 2) and mixed.k == 2


def test_structure_action_divides_out_phi():
    # column 0 of aI + bJ + cK is (0, a, b, c), so (L u)_0 = a u_1 + b u_2
    L = HypercomplexFrame.left().span_structure(AxisTriple(Fraction(3, 5), Fraction(4, 5), 0))
    x = [Poly.variable(i) for i in range(4)]
    u = RationalForm(1, {(1,): ScalarField(x[0] * x[0], 1) * Fraction(5, 3),
                         (2,): ScalarField(x[1] * x[1] + x[2] * x[2] + x[3] * x[3], 1)
                         * Fraction(5, 4)})
    image = structure_action(L, u)
    assert image.coeffs[(0,)] == ScalarField.const(1) and image.coeffs[(0,)].k == 0


def merge_sign(seq):
    inversions = sum(1 for i, a in enumerate(seq) for b in seq[i + 1:] if a > b)
    return -1 if inversions % 2 else 1


def d_per_term(a):
    """d a by ScalarField.partial and +, one term at a time."""
    out = RationalForm.zero(a.degree + 1)
    for t, f in a.coeffs.items():
        for mu in set(range(4)) - set(t):
            s = tuple(sorted((mu,) + t))
            out = out + RationalForm(a.degree + 1, {s: f.partial(mu) * merge_sign((mu,) + t)})
    return out


def wedge_per_term(a, b):
    """a ^ b by ScalarField * and +, one term at a time."""
    out = RationalForm.zero(a.degree + b.degree)
    for s, f in a.coeffs.items():
        for t, g in b.coeffs.items():
            if not set(s) & set(t):
                out = out + RationalForm(out.degree, {tuple(sorted(s + t)): f * g * merge_sign(s + t)})
    return out


def test_exterior_d_matches_per_term_sum():
    rng = random.Random(22)
    for degree in range(4):
        for _ in range(6):
            a = rand_form(rng, degree)
            assert exterior_d(a) == d_per_term(a)


def test_wedge_matches_per_term_sum():
    # the phi factor on b gives products of a k = 0 factor that phi divides
    rng = random.Random(23)
    for da in range(5):
        for db in range(5 - da):
            for scale in (1, ScalarField.phi()):
                a, b = rand_form(rng, da), rand_form(rng, db) * scale
                assert wedge(a, b) == wedge_per_term(a, b)


def test_wedge_divides_out_phi_of_one_product():
    a = RationalForm(1, {(0,): ScalarField.phi()})
    b = RationalForm(1, {(1,): ScalarField.inv_phi()})
    product = wedge(a, b)
    assert product == RationalForm.basis((0, 1)) and product.coeffs[(0, 1)].k == 0


def test_exterior_d_divides_out_phi_at_the_top():
    # d_0(x0 x1/phi) - d_1(x0^2/phi) = (x1 phi - 2 x0^2 x1 + 2 x0^2 x1)/phi^2
    x = [Poly.variable(i) for i in range(4)]
    a = RationalForm(1, {(0,): ScalarField(x[0] * x[0], 1), (1,): ScalarField(x[0] * x[1], 1)})
    da = exterior_d(a)
    assert da.coeffs[(0, 1)] == ScalarField(x[1], 1) and da.coeffs[(0, 1)].k == 1
    assert da == d_per_term(a)


def test_dd_is_exactly_zero():
    # a = x0 dx1 - x1 dx0, built with phi in and out, so d a = 2 dx0^dx1 only
    # once phi is divided out of the wedge and of d; d d a = 0 holds for any
    # representative, so d a is pinned too
    x = [Poly.variable(i) for i in range(4)]
    a = wedge(RationalForm.function(ScalarField.phi()),
              RationalForm(1, {(0,): ScalarField(-x[1], 1), (1,): ScalarField(x[0], 1)}))
    da = exterior_d(a)
    assert da == RationalForm.basis((0, 1), 2) and da.coeffs[(0, 1)].k == 0
    assert exterior_d(da) == RationalForm.zero(3)
    rng = random.Random(24)
    for degree in range(3):
        for _ in range(4):
            assert exterior_d(exterior_d(rand_form(rng, degree))) == RationalForm.zero(degree + 2)
