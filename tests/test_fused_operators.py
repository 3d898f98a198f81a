"""Oracles for the integer fast paths of the exact operators: the
compound-matrix pullback against the wedge expansion, every fused sum
(structure_action, pq_project, hodge_star, metric_from_form, exterior_d,
wedge) against a per-term ScalarField sum, and the integer forms of the axis
draw, the span of a frame, the minor table and the Hermitian checks against
their Fraction formulas."""

import itertools
import random
from fractions import Fraction

import pytest
import sympy as sp

from hkt4.exact import PHI, Poly, QI, ScalarField, _lincomb
from hkt4.forms import (
    _ALL_TUPLES,
    DC_SIGN,
    ConstantMetric,
    RationalForm,
    _action_matrix,
    _all_minors,
    _pq_matrix,
    _wedge_covectors,
    exterior_d,
    hodge_star,
    pq_project,
    structure_action,
    twisted_d,
    wedge,
)
from hkt4.hermitian import ConformalMetric, check_hermitian, hermitian_form, metric_from_form
from hkt4.quaternions import IDENTITY, AxisTriple, HypercomplexFrame, mat, mat_mul, mat_neg
from hkt4.suites import random_rational_axis


def variable(i):
    """The coordinate x_i as a polynomial."""
    return Poly({tuple(int(j == i) for j in range(4)): 1})


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
    out = RationalForm(degree)
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
    x = [variable(i) for i in range(4)]
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
    x = [variable(i) for i in range(4)]
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
    out = RationalForm(a.degree + 1)
    for t, f in a.coeffs.items():
        for mu in set(range(4)) - set(t):
            s = tuple(sorted((mu,) + t))
            out = out + RationalForm(a.degree + 1, {s: f.partial(mu) * merge_sign((mu,) + t)})
    return out


def wedge_per_term(a, b):
    """a ^ b by ScalarField * and +, one term at a time."""
    out = RationalForm(a.degree + b.degree)
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
    x = [variable(i) for i in range(4)]
    a = RationalForm(1, {(0,): ScalarField(x[0] * x[0], 1), (1,): ScalarField(x[0] * x[1], 1)})
    da = exterior_d(a)
    assert da.coeffs[(0, 1)] == ScalarField(x[1], 1) and da.coeffs[(0, 1)].k == 1
    assert da == d_per_term(a)


def test_dd_is_exactly_zero():
    # a = x0 dx1 - x1 dx0, built with phi in and out, so d a = 2 dx0^dx1 only
    # once phi is divided out of the wedge and of d; d d a = 0 holds for any
    # representative, so d a is pinned too
    x = [variable(i) for i in range(4)]
    a = wedge(RationalForm.function(ScalarField.phi()),
              RationalForm(1, {(0,): ScalarField(-x[1], 1), (1,): ScalarField(x[0], 1)}))
    da = exterior_d(a)
    assert da == RationalForm.basis((0, 1), 2) and da.coeffs[(0, 1)].k == 0
    assert exterior_d(da) == RationalForm(3)
    rng = random.Random(24)
    for degree in range(3):
        for _ in range(4):
            assert exterior_d(exterior_d(rand_form(rng, degree))) == RationalForm(degree + 2)


# ---------------------------------------------------------------------------
# Integer forms against the Fraction formulas they replace


def transpose(m):
    return tuple(zip(*m))


def rand_matrix(rng, density=0.75):
    return mat([[Fraction(rng.randint(-6, 6), rng.randint(1, 5)) if rng.random() < density else 0
                 for _ in range(4)] for _ in range(4)])


def test_random_rational_axis_matches_the_fraction_formula():
    for seed in range(250):
        rng, draws = random.Random(seed), random.Random(seed)
        u = Fraction(draws.randint(-6, 6), draws.randint(1, 5))
        v = Fraction(draws.randint(-6, 6), draws.randint(1, 5))
        s = u * u + v * v
        axis = random_rational_axis(rng)
        assert (axis.a, axis.b, axis.c) == ((1 - s) / (1 + s), 2 * u / (1 + s), 2 * v / (1 + s))
        assert rng.getstate() == draws.getstate()  # the same four draws


def test_span_structure_matches_the_fraction_sum():
    rng = random.Random(31)
    # a frame's span needs no frame identities, so random rational matrices
    # stand for a frame with non-integer entries
    rational = HypercomplexFrame("left", *(rand_matrix(rng) for _ in range(3)))
    axes = [random_rational_axis(rng) for _ in range(20)] + [AxisTriple(0, 0, -1)]
    for frame in (*FRAMES, rational):
        for axis in axes:
            expected = tuple(tuple(sum((w * m[i][j] for w, m in zip(
                (axis.a, axis.b, axis.c), frame.matrices())), Fraction(0))
                for j in range(4)) for i in range(4))
            assert frame.span_structure(axis) == expected


def test_all_minors_match_sympy():
    rng = random.Random(32)
    matrices = [mat([[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]) for _ in range(3)]
    matrices += [rand_matrix(rng, density) for density in (0.3, 0.6, 1.0)]
    matrices += [next(axis_structures(seed=33, count=1)), mat([[0] * 4] * 4)]
    for m in matrices:
        minors = _all_minors(m)
        assert len(minors) == 70
        symbolic = sp.Matrix(4, 4, lambda i, j: sp.Rational(m[i][j].numerator, m[i][j].denominator))
        for k in range(5):
            for t in _ALL_TUPLES[k]:
                for s in _ALL_TUPLES[k]:
                    want = symbolic.extract(list(t), list(s)).det() if k else 1
                    assert minors[t, s] == Fraction(int(sp.numer(want)), int(sp.denom(want)))


def hermitian_bases(rng):
    """Rational positive-definite metrics: the Euclidean one, the average of
    a random one over a frame (Hermitian for it) and random ones."""
    bases = [ConstantMetric.euclidean()]
    for frame in FRAMES:
        g0 = mat([[2, 1, 0, Fraction(1, 3)], [1, 3, 0, 0], [0, 0, 1, 0], [Fraction(1, 3), 0, 0, 5]])
        pulled = [g0] + [mat_mul(transpose(L), mat_mul(g0, L)) for L in frame.matrices()]
        bases.append(ConstantMetric([[sum(m[i][j] for m in pulled) / 4 for j in range(4)]
                                     for i in range(4)]))
    for _ in range(3):
        a = rand_matrix(rng)
        bases.append(ConstantMetric([[sum(a[i][k] * a[j][k] for k in range(4)) + (i == j)
                                      for j in range(4)] for i in range(4)]))
    return bases


def test_check_hermitian_matches_the_fraction_product():
    rng = random.Random(34)
    structures = [L for frame in FRAMES for L in frame.matrices()]
    structures += list(axis_structures(seed=35, count=3))
    # none of these squares to -Id; check_hermitian still answers
    others = [IDENTITY, mat_neg(IDENTITY), mat([[0] * 4] * 4)] + [rand_matrix(rng) for _ in range(4)]
    verdicts = []
    for g in hermitian_bases(rng):
        for L in structures + others:
            expected = mat_mul(transpose(L), mat_mul(g.matrix, L)) == g.matrix
            got = check_hermitian(g, L)
            assert type(got) is bool and got == expected
            verdicts.append(got)
    assert any(verdicts) and not all(verdicts)


def test_hermitian_form_matches_the_fraction_formula():
    rng = random.Random(36)
    factor = ScalarField(Poly.const(4), 1)
    structures = [L for frame in FRAMES for L in frame.matrices()]
    structures += list(axis_structures(seed=37, count=3))
    for base in hermitian_bases(rng):
        for g in (base, ConformalMetric(factor, base)):
            gm = g if isinstance(g, ConformalMetric) else ConformalMetric.from_constant(g)
            for L in structures:
                if not check_hermitian(g, L):
                    with pytest.raises(ValueError):
                        hermitian_form(g, L)
                    continue
                W = mat_mul(transpose(L), base.matrix)
                expected = RationalForm(2, {(a, b): gm.factor * QI(W[a][b])
                                            for a in range(4) for b in range(a + 1, 4) if W[a][b]})
                assert hermitian_form(g, L) == expected
