"""SymPy oracle for the exact engine.

Random phi-rational fields are combined by the engine and, independently, by
SymPy over Q(i); ``sympy.cancel`` gives the reduced quotient, and the
engine's (num, k) must be that quotient with the whole phi-part of the
denominator in phi^k. The ledger's closed forms on the Hopf chart are
recomputed from the potential in SymPy with a small exterior calculus of
its own.
"""

from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import example, given, settings, strategies as st

from hkt4.exact import PHI, Poly, QI, ScalarField, _lincomb
from hkt4.forms import DegreeError, RationalForm, exterior_d, wedge, wedge_sum
from hkt4.hopf import build_hopf
from hkt4.quaternions import HypercomplexFrame


def variable(i):
    """The coordinate x_i as a polynomial."""
    return Poly({tuple(int(j == i) for j in range(4)): 1})


X = sp.symbols("x0:4")
SPHI = sum(x ** 2 for x in X)


def _rat(v: Fraction):
    return sp.Rational(v.numerator, v.denominator)


def poly_sym(p: Poly):
    return sp.Add(*[(_rat(c.re) + sp.I * _rat(c.im))
                    * sp.Mul(*[x ** e for x, e in zip(X, m)])
                    for m, c in p.coeffs.items()])


def field_sym(f: ScalarField):
    return poly_sym(f.num) / SPHI ** f.k


def phi_pow(j: int) -> Poly:
    out = Poly.const(1)
    for _ in range(j):
        out = out * PHI
    return out


def phi_divides(p: Poly) -> bool:
    return p.divmod_poly(PHI)[1].is_zero()


def assert_canonical(f: ScalarField, expr):
    """f is the reduced form of expr: equal values, phi^k is exactly the
    phi-part of the reduced denominator, and phi does not divide num when
    k > 0."""
    n, d = sp.fraction(sp.cancel(sp.together(expr)))
    assert sp.expand(poly_sym(f.num) * d - n * SPHI ** f.k) == 0
    if f.is_zero():
        assert f.k == 0
        return
    assert sp.cancel(d / SPHI ** f.k).is_number
    if f.k > 0:
        assert not phi_divides(f.num)


rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
gaussian = st.builds(QI, rationals, rationals)
monomials = st.tuples(*[st.integers(0, 1)] * 4)
polys = st.dictionaries(monomials, gaussian, max_size=3).map(Poly)


# Numerators are multiplied by phi^j before reduction, so the canonical form
# has phi factors to cancel and k can drop to zero.
def fields(max_k: int = 2):
    return st.builds(lambda p, j, k: ScalarField(p * phi_pow(j), k),
                     polys, st.integers(0, 1), st.integers(0, max_k))


ORACLE = settings(max_examples=40)


@ORACLE
@given(fields(), fields())
def test_sum_matches_sympy(f, g):
    assert_canonical(f + g, field_sym(f) + field_sym(g))
    assert_canonical(f - g, field_sym(f) - field_sym(g))


# k <= 1 per factor: SymPy's gcd over Q(i) takes seconds at phi^4
@ORACLE
@given(fields(1), fields(1))
def test_product_matches_sympy(f, g):
    assert_canonical(f * g, field_sym(f) * field_sym(g))


@ORACLE
@given(fields(), st.integers(0, 3))
def test_partial_matches_sympy(f, i):
    assert_canonical(f.partial(i), sp.diff(field_sym(f), X[i]))


def form_sym(a: RationalForm):
    return {t: field_sym(f) for t, f in a.coeffs.items()}


def assert_form_canonical(form: RationalForm, exprs):
    """Each coefficient of form is the reduced form of its expression in
    ``exprs`` (absent keys are 0), and no stored coefficient is zero."""
    assert all(not f.is_zero() for f in form.coeffs.values())
    for t in set(form.coeffs) | set(exprs):
        assert_canonical(form.coeffs.get(t, ScalarField.const(0)), exprs.get(t, 0))


def assert_form_arithmetic(a: RationalForm, b: RationalForm, f: ScalarField, c: QI):
    A, B = form_sym(a), form_sym(b)
    keys = set(A) | set(B)
    assert_form_canonical(a + b, {t: A.get(t, 0) + B.get(t, 0) for t in keys})
    assert_form_canonical(a - b, {t: A.get(t, 0) - B.get(t, 0) for t in keys})
    assert_form_canonical(-a, {t: -v for t, v in A.items()})
    assert_form_canonical(a * f, {t: v * field_sym(f) for t, v in A.items()})
    assert_form_canonical(a * c, {t: v * poly_sym(Poly.const(c)) for t, v in A.items()})


# three of the six 2-form components, so that two forms share some
two_forms = st.dictionaries(st.sampled_from([(0, 1), (0, 2), (2, 3)]), fields(1),
                            max_size=3).map(lambda coeffs: RationalForm(2, coeffs))


@ORACLE
@given(two_forms, two_forms, fields(1), gaussian)
def test_form_arithmetic_matches_sympy(a, b, f, c):
    assert_form_arithmetic(a, b, f, c)


def _x(i):
    return ScalarField(variable(i), 0)


# (a, b, f): at (0, 1) the top phi power cancels in the first a + b
# (x0^2 / phi + (x1^2 + x2^2 + x3^2) / phi = 1) and in the second a - b
# ((x0 + phi) / phi^2 - x0 / phi^2 = 1 / phi); at (0, 2) the same sums cancel
# to zero; a * phi takes 1 / phi^k to 1 / phi^(k-1)
_PHI_REST = ScalarField(PHI - variable(0) * variable(0), 0)
CANCELLING = [
    (RationalForm(2, {(0, 1): _x(0) * _x(0) * ScalarField.inv_phi(),
                      (0, 2): ScalarField.inv_phi(2)}),
     RationalForm(2, {(0, 1): _PHI_REST * ScalarField.inv_phi(),
                      (0, 2): -ScalarField.inv_phi(2)}),
     ScalarField.phi()),
    (RationalForm(2, {(0, 1): (_x(0) + ScalarField.phi()) * ScalarField.inv_phi(2),
                      (0, 2): _x(1) * ScalarField.inv_phi()}),
     RationalForm(2, {(0, 1): _x(0) * ScalarField.inv_phi(2),
                      (0, 2): _x(1) * ScalarField.inv_phi()}),
     ScalarField.const(0)),
]


@pytest.mark.parametrize("a, b, f", CANCELLING)
def test_form_arithmetic_cancellation_matches_sympy(a, b, f):
    assert_form_arithmetic(a, b, f, QI(Fraction(-2, 3), 1))
    assert_form_arithmetic(a, a, f, QI(0))
    assert (a - a).is_zero() and (a + -a).is_zero()


def test_form_arithmetic_cancellation_examples():
    (a, b, f), (c, e, _) = CANCELLING
    assert (a + b).coeffs == {(0, 1): ScalarField.const(1)}
    assert (c - e).coeffs == {(0, 1): ScalarField.inv_phi()}
    assert (a * f).coeffs == {(0, 1): _x(0) * _x(0),
                              (0, 2): ScalarField.inv_phi()}


def sym_wedge_sum(terms):
    """sum of sign a ^ b in SymPy, coefficient by coefficient."""
    out = {}
    for sign, a, b in terms:
        for s, fs in form_sym(a).items():
            for t, ft in form_sym(b).items():
                merged, parity = _merge(s, t)
                if parity:
                    out[merged] = out.get(merged, 0) + sign * parity * fs * ft
    return out


one_forms = st.dictionaries(st.sampled_from([(0,), (1,), (3,)]), fields(1),
                            max_size=2).map(lambda coeffs: RationalForm(1, coeffs))
wedge_terms = st.lists(st.tuples(st.sampled_from([1, -1]), one_forms, one_forms),
                       min_size=1, max_size=3)


@ORACLE
@given(wedge_terms)
def test_wedge_sum_matches_sympy(terms):
    assert_form_canonical(wedge_sum(terms), sym_wedge_sum(terms))


# In the first sum both products sit at phi^2 and their numerators x0^2 and
# phi - x0^2 add up to phi, which cancels: the sum is dx0 ^ dx1 / phi. In the
# second the product at phi^2 has the k = 0 factor phi, which cancels too:
# phi dx2 ^ dx3 / phi^2 - x1 dx3 ^ dx2 / phi is (1 + x1) dx2 ^ dx3 / phi.
CANCELLING_WEDGES = [
    [(1, RationalForm(1, {(0,): _x(0) * _x(0) * ScalarField.inv_phi()}),
      RationalForm(1, {(1,): ScalarField.inv_phi()})),
     (1, RationalForm(1, {(0,): _PHI_REST * ScalarField.inv_phi()}),
      RationalForm(1, {(1,): ScalarField.inv_phi()}))],
    [(1, RationalForm(1, {(2,): ScalarField.phi()}),
      RationalForm(1, {(3,): ScalarField.inv_phi(2)})),
     (-1, RationalForm(1, {(3,): _x(1)}), RationalForm(1, {(2,): ScalarField.inv_phi()}))],
]


@pytest.mark.parametrize("terms", CANCELLING_WEDGES)
def test_wedge_sum_cancellation_matches_sympy(terms):
    assert_form_canonical(wedge_sum(terms), sym_wedge_sum(terms))


def test_wedge_sum_cancellation_examples():
    first, second = (wedge_sum(terms) for terms in CANCELLING_WEDGES)
    assert first.coeffs == {(0, 1): ScalarField.inv_phi()}
    assert second.coeffs == {(2, 3): (ScalarField.const(1) + _x(1)) * ScalarField.inv_phi()}


def test_wedge_sum_degree_errors():
    dx0, dx1 = RationalForm.basis((0,)), RationalForm.basis((1,))
    with pytest.raises(DegreeError):
        wedge_sum([(1, dx0, dx1), (1, RationalForm.function(1), dx0)])
    with pytest.raises(DegreeError):
        wedge_sum([(1, RationalForm.basis((0, 1)), RationalForm.basis((0, 1, 2)))])
    with pytest.raises(DegreeError):
        wedge_sum([])


@ORACLE
@given(two_forms, two_forms, two_forms, one_forms, one_forms, st.booleans())
def test_equal_forms_have_equal_canonical_forms(a, b, c, f, g, rebuild):
    """Forms built equal in two ways compare equal, and == agrees with a
    zero difference on pairs that are equal or not."""
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert wedge(a, f) == wedge(f, a)
    assert wedge(f, g) == -wedge(g, f)
    assert wedge(a, b) == wedge(b, a)
    y = (a + b) - b if rebuild else b
    assert (a == y) == (a - y).is_zero()
    assert a == y or not rebuild


def in_ring(expr) -> bool:
    """expr is P / phi^k: its reduced denominator is a constant times a
    power of phi."""
    _, d = sp.fraction(sp.cancel(sp.together(expr)))
    degree = sp.Poly(d, *X).total_degree()
    return degree % 2 == 0 and sp.cancel(d / SPHI ** (degree // 2)).is_number


@ORACLE
@given(fields(1), fields(1), gaussian)
def test_div_exact_matches_sympy(f, g, c):
    if not c.is_zero():
        assert_canonical(f.div_exact(ScalarField.const(c)),
                         field_sym(f) / poly_sym(Poly.const(c)))
    if g.is_zero():
        return
    # an exact quotient by construction, whatever the phi factors of g
    assert_canonical((f * g).div_exact(g), field_sym(f))
    # an arbitrary pair: exact iff the quotient is in the ring
    quotient = field_sym(f) / field_sym(g)
    try:
        h = f.div_exact(g)
    except ValueError:
        assert not in_ring(quotient)
    else:
        assert_canonical(h, quotient)


@pytest.mark.parametrize("f, g", [
    (ScalarField.const(1), ScalarField.phi()),
    (ScalarField(variable(0), 0), ScalarField.phi()),
    (ScalarField(variable(0), 1), ScalarField(PHI * PHI * QI(0, 2), 0)),
    (ScalarField(PHI * variable(1), 0), ScalarField(PHI * variable(1), 0)),
])
def test_div_exact_by_phi_multiples(f, g):
    assert in_ring(field_sym(f) / field_sym(g))
    assert_canonical(f.div_exact(g), field_sym(f) / field_sym(g))
    assert_canonical((f * g).div_exact(g), field_sym(f))


def test_div_exact_rejects_quotients_outside_the_ring():
    x0, x1 = (ScalarField(variable(i), 0) for i in range(2))
    for f, g in ((x0, x1), (ScalarField.const(1), x0 * ScalarField.phi())):
        assert not in_ring(field_sym(f) / field_sym(g))
        with pytest.raises(ValueError):
            f.div_exact(g)


@ORACLE
@given(polys, st.integers(0, 2), st.integers(0, 3))
def test_phi_reduction_matches_generic_division(p, j, k):
    num = p * phi_pow(j)
    # the derived numerator has phi factors stripped exactly as repeated
    # generic division strips them
    f = ScalarField(num, k)
    ref_num, ref_k = num, k
    while ref_k > 0 and not ref_num.is_zero():
        q, r = ref_num.divmod_poly(PHI)
        if not r.is_zero():
            break
        ref_num, ref_k = q, ref_k - 1
    assert f.num == ref_num
    assert f.k == (0 if ref_num.is_zero() else ref_k)


@ORACLE
@given(fields(), fields(), st.integers(0, 3))
def test_operations_keep_num_coprime_to_phi(f, g, i):
    for h in (f + g, f * g, f.partial(i)):
        if h.k > 0:
            assert not phi_divides(h.num)


# A polynomial coefficient (k = 0) next to coefficients over phi: where
# their partials meet in d, terms over different phi powers merge into one
# sum (at the 1-form's (1, 2), two partials over phi^2 whose sum has a
# factor phi). Only those sums are
# checked, and every numerator is one term: with two-term numerators
# SymPy's cancel over Q(i) took about 0.1 s per sum and this test 20 s. A
# single partial is test_partial_matches_sympy's.
one_term_polys = st.builds(lambda m, c: Poly({m: c}), monomials, gaussian.filter(bool))
over_phi = st.builds(ScalarField, one_term_polys, st.just(1))


def _monomial_field(exponents, k):
    return ScalarField(Poly({exponents: 1}), k)


@ORACLE
@given(one_term_polys.filter(lambda p: not p.is_constant()), over_phi, over_phi)
# (x1^2 dx1 + x1 x2 dx2) / phi: the two partials at phi^2 in the (1, 2)
# coefficient sum to x2 phi / phi^2, which is x2 / phi
@example(Poly({(1, 0, 0, 0): 1}), _monomial_field((0, 2, 0, 0), 1),
         _monomial_field((0, 1, 1, 0), 1))
def test_d_of_mixed_k_forms_matches_sympy(p, f, g):
    for a, meets in ((RationalForm(1, {(0,): ScalarField(p), (1,): f, (2,): g}),
                      [(0, 1), (0, 2), (1, 2)]),
                     (RationalForm(2, {(0, 1): ScalarField(p), (0, 2): f}), [(0, 1, 2)])):
        da, exprs = exterior_d(a), form_sym(a)
        assert all(not c.is_zero() for c in da.coeffs.values())
        for t in meets:
            # sym_d's coefficient, unexpanded: expanded sums cancel far slower
            expr = sum(sign * sp.diff(exprs[s], X[mu])
                       for mu in range(4) for s in exprs
                       for merged, sign in [_merge((mu,), s)] if merged == t)
            assert_canonical(da.coeffs.get(t, ScalarField.const(0)), expr)


def lincomb_sym(terms):
    return sum(((x + sp.I * y) / d * field_sym(f) for x, y, d, f in terms), sp.S.Zero)


# (x, y, d): the constant (x + y sqrt(-1)) / d, zero among them
constants = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 3))
lincomb_terms = st.lists(st.builds(lambda c, f: (*c, f), constants, fields()),
                         min_size=1, max_size=4)


@ORACLE
@given(lincomb_terms, st.sampled_from([1, -1]))
def test_lincomb_of_mixed_k_fields_matches_sympy(terms, sign):
    assert_canonical(_lincomb(terms), lincomb_sym(terms))
    f = terms[0][3]
    assert _lincomb([(sign, 0, 1, f)]) == (f if sign == 1 else -f)  # the single-term path
    assert_canonical(_lincomb([(sign, 0, 1, f)]), sign * field_sym(f))
    assert _lincomb(terms + [(-x, -y, d, f) for x, y, d, f in terms]).is_zero()


def test_lincomb_with_a_zero_constant_at_the_top_phi_power():
    # the zero term over phi^3 adds nothing: the sum stays over phi, not a
    # numerator phi^2 over phi^3
    terms = [(0, 0, 1, ScalarField.inv_phi(3)), (2, 1, 3, ScalarField.inv_phi())]
    total = _lincomb(terms)
    assert_canonical(total, lincomb_sym(terms))
    assert total.k == 1


# ---------------------------------------------------------------------------
# The ledger's closed forms, recomputed in SymPy

# I+ = left multiplication by i: (x0, x1, x2, x3) -> (-x1, x0, -x3, x2).
I_PLUS = ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0))


def _merge(s, t):
    if set(s) & set(t):
        return None, 0
    inversions = sum(1 for a in s for b in t if a > b)
    return tuple(sorted(s + t)), -1 if inversions % 2 else 1


def _add_term(out, t, c):
    out[t] = sp.expand(out.get(t, 0) + c)


def sym_d(form):
    out = {}
    for t, f in form.items():
        for mu in range(4):
            merged, sign = _merge((mu,), t)
            if sign:
                _add_term(out, merged, sign * sp.diff(f, X[mu]))
    return out


def sym_action(L, form):
    """Pullback by L: dx_i -> sum_j L[i][j] dx_j, extended multiplicatively."""
    out = {}
    for t, f in form.items():
        acc = {(): f}
        for i in t:
            nxt = {}
            for part, c in acc.items():
                for j in range(4):
                    merged, sign = _merge(part, (j,))
                    if sign and L[i][j]:
                        _add_term(nxt, merged, sign * L[i][j] * c)
            acc = nxt
        for s, c in acc.items():
            _add_term(out, s, c)
    return out


def sym_dc(L, form, degree):
    """d^c_L = -(-1)^m L d L on m-forms."""
    sign = -(-1) ** degree
    return {t: sign * c for t, c in sym_action(L, sym_d(sym_action(L, form))).items()}


def assert_form_equals(engine_form, closed):
    keys = set(engine_form.coeffs) | {t for t, c in closed.items() if sp.simplify(c) != 0}
    for t in keys:
        f = engine_form.coeffs.get(t)
        value = field_sym(f) if f is not None else 0
        assert sp.cancel(value - closed.get(t, 0)) == 0, t


def test_ledger_left_frame_matrix():
    I = HypercomplexFrame.left().I
    assert tuple(tuple(int(v) for v in row) for row in I) == I_PLUS
    assert all(v == int(v) for row in I for v in row)


def test_ledger_metric_is_four_over_phi_times_euclid():
    ddc = sym_d(sym_dc(I_PLUS, {(): SPHI}, 0))
    assert {t: c for t, c in ddc.items() if c != 0} == {(0, 1): 4, (2, 3): 4}
    omega = {t: c / SPHI for t, c in ddc.items()}
    # g(X, Y) = omega(X, L Y): entry [a][b] = sum_c W[a][c] L[c][b]
    W = sp.zeros(4, 4)
    for (a, b), c in omega.items():
        W[a, b], W[b, a] = c, -c
    g = (W * sp.Matrix(I_PLUS)).applyfunc(sp.cancel)
    assert g == (4 / SPHI) * sp.eye(4)
    geo = build_hopf(Fraction(2))
    assert sp.cancel(field_sym(geo.metric.factor) - 4 / SPHI) == 0
    assert geo.metric.base.matrix == tuple(tuple(int(i == j) for j in range(4))
                                           for i in range(4))
    assert_form_equals(geo.omegas["I+"], omega)


def test_ledger_torsion_closed_form():
    ddc = sym_d(sym_dc(I_PLUS, {(): SPHI}, 0))
    omega = {t: c / SPHI for t, c in ddc.items()}
    H = sym_dc(I_PLUS, omega, 2)
    x0, x1, x2, x3 = X
    closed = {(0, 1, 2): 8 * x3 / SPHI ** 2, (0, 1, 3): -8 * x2 / SPHI ** 2,
              (0, 2, 3): 8 * x1 / SPHI ** 2, (1, 2, 3): -8 * x0 / SPHI ** 2}
    for t in set(H) | set(closed):
        assert sp.cancel(H.get(t, 0) - closed.get(t, 0)) == 0, t
    geo = build_hopf(Fraction(2))
    assert_form_equals(geo.H_plus, closed)
    assert_form_equals(-geo.H_minus, closed)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_inverse_phi_powers(k):
    assert_canonical(ScalarField.inv_phi(k), 1 / SPHI ** k)
    assert_canonical(ScalarField.phi() * ScalarField.inv_phi(k), SPHI ** (1 - k))
