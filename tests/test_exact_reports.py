"""Pinned results of the exact suites.

``tests/data/exact_reports.json`` holds the name, status, paper_ref and
defect of every check of the exact suites below (timings left out). The
exact engine does not depend on the platform, so any change to these is a
change in what the engine computes. Regenerate the file with

    PYTHONPATH=src python tests/test_exact_reports.py > tests/data/exact_reports.json

The calculus suite decides its (p,q), (3,0) and star identities on the basis
forms. Below, the random forms it drew for them before are the oracle, and
one mutant operator per identity fails exactly that identity's check.
"""

import itertools
import json
import os
import random
import sys
from fractions import Fraction

import pytest

from hkt4 import suites
from hkt4.exact import QI, Poly, ScalarField
from hkt4.forms import ConstantMetric, RationalForm, hodge_star, pq_project
from hkt4.quaternions import HypercomplexFrame

DATA = os.path.join(os.path.dirname(__file__), "data", "exact_reports.json")

RUNS = {
    "hopf_suite(q=2)": lambda: suites.hopf_suite(Fraction(2)),
    "hopf_suite(q=3/2)": lambda: suites.hopf_suite(Fraction(3, 2)),
    "flat_suite()": suites.flat_suite,
    "calculus_suite(seed=0)": lambda: suites.calculus_suite(seed=0),
    "calculus_suite(seed=1)": lambda: suites.calculus_suite(seed=1),
    "calculus_suite(seed=2)": lambda: suites.calculus_suite(seed=2),
}


def records(run) -> list:
    return [{"name": c.name, "status": c.status, "paper_ref": c.paper_ref,
             "defect": c.defect} for c in run()]


def test_exact_suites_match_pinned_reports():
    with open(DATA, encoding="utf-8") as fh:
        pinned = json.load(fh)
    assert sorted(pinned) == sorted(RUNS)
    for key, run in RUNS.items():
        assert records(run) == pinned[key], key


def randint_forms(seed: int, retired: bool = False) -> list:
    """The random forms of ``calculus_suite(seed)`` in draw order, drawn as
    the suite once drew them: one ``randint`` per exponent, numerator,
    denominator, term count, phi power and degree. Per trial that is one
    d^2 form and the two Leibniz forms; with ``retired``, also the (p,q),
    (3,0) and star forms the suite drew after them before it decided those
    identities on the basis forms."""
    rng = random.Random(seed)

    def rand_scalar():
        coeffs = {}
        for _ in range(rng.randint(1, 3)):
            mono = tuple(rng.randint(0, 1) for _ in range(4))
            a, b, c, e = (rng.randint(-3, 3), rng.randint(1, 2),
                          rng.randint(-3, 3), rng.randint(1, 2))
            coeffs[mono] = QI(Fraction(a, b), Fraction(c, e))
        return ScalarField(Poly(coeffs), rng.randint(0, 1))

    def rand_form(degree):
        coeffs = {}
        for t in itertools.combinations(range(4), degree):
            if rng.random() < 0.8:
                coeffs[t] = rand_scalar()
        return RationalForm(degree, coeffs)

    forms = []
    for _ in range(suites.CALCULUS_TRIALS):
        forms.append(rand_form(rng.randint(0, 2)))
        da, db = rng.randint(0, 1), rng.randint(1, 2)
        forms += [rand_form(da), rand_form(db)]
        if retired:
            forms.append(rand_form(rng.randint(1, 3)))
            forms.append(rand_form(3))
            forms.append(rand_form(2))
    return forms


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_calculus_suite_draws_the_randint_forms(monkeypatch, seed):
    drawn = []

    class Recorded(RationalForm):
        def __init__(self, degree, coeffs=None):
            super().__init__(degree, coeffs)
            drawn.append(self)

    monkeypatch.setattr(suites, "RationalForm", Recorded)
    suites.calculus_suite(seed=seed)
    expected = randint_forms(seed)
    assert suites.CALCULUS_TRIALS == 25 and len(drawn) == 3 * 25
    assert [f.degree for f in drawn] == [f.degree for f in expected]
    for got, want in zip(drawn, expected):
        assert list(got.coeffs) == list(want.coeffs)
        for t, f in got.coeffs.items():
            g = want.coeffs[t]
            assert (f.k, f.num.den, f.num.coeffs) == (g.k, g.num.den, g.num.coeffs)


def by_basis(op, a: RationalForm) -> RationalForm:
    """The linear operator ``op`` at a, read off its values on the basis
    forms: the sum of a's coefficients times op(dx_t)."""
    terms = [op(RationalForm.basis(t)) * f for t, f in a.coeffs.items()]
    return sum(terms[1:], terms[0]) if terms else op(RationalForm(a.degree))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_retired_random_forms_agree_with_the_basis_certificate(seed):
    # the 25 random forms per identity that the suite once drew still
    # satisfy the identities, and each operator at each of them is the
    # combination of its basis values the certificate rests on
    frame, euclid = HypercomplexFrame.left(), ConstantMetric.euclidean()
    forms = randint_forms(seed, retired=True)
    pq_forms, forms_30, forms_star = forms[3::6], forms[4::6], forms[5::6]
    assert len(pq_forms) == len(forms_30) == len(forms_star) == suites.CALCULUS_TRIALS
    for b in pq_forms:
        m = b.degree
        pieces = [pq_project(frame.I, b, p, m - p) for p in range(m + 1)]
        assert sum(pieces[1:], pieces[0]) == b
        for p, piece in enumerate(pieces):
            assert pq_project(frame.I, piece, p, m - p) == piece
            assert piece == by_basis(lambda a: pq_project(frame.I, a, p, m - p), b)
    for c in forms_30:
        assert pq_project(frame.J, c, 3, 0).is_zero()
    for w in forms_star:
        star = hodge_star(euclid, w)
        assert hodge_star(euclid, star) == w
        assert star == by_basis(lambda a: hodge_star(euclid, a), w)
    assert {c.status for c in suites.calculus_suite(seed=seed)} == {"pass"}


def _swapped_pq(L, a, p, q):
    return pq_project(L, a, q, p)


def _identity_star(g, a):
    return a


def _nonzero_30_column(L, a, p, q):
    # J's (3,0) projector with column dx012 -> dx012
    if L == HypercomplexFrame.left().J and (p, q) == (3, 0):
        return RationalForm(3, {t: f for t, f in a.coeffs.items() if t == (0, 1, 2)})
    return pq_project(L, a, p, q)


CALCULUS_CHECKS = ["calculus.d-squared", "calculus.leibniz", "calculus.pq-projection",
                   "calculus.30-vanishing", "calculus.lambda-normalization",
                   "calculus.star-involution"]


@pytest.mark.parametrize("name, mutant, failing", [
    ("pq_project", _swapped_pq, "calculus.pq-projection"),
    ("hodge_star", _identity_star, "calculus.star-involution"),
    ("pq_project", _nonzero_30_column, "calculus.30-vanishing"),
], ids=["pq-swapped", "star-identity", "30-column"])
def test_mutant_operator_fails_its_one_check(monkeypatch, name, mutant, failing):
    monkeypatch.setattr(suites, name, mutant)
    statuses = [(c.name, c.status) for c in suites.calculus_suite(seed=0)]
    assert statuses == [(n, "fail" if n == failing else "pass") for n in CALCULUS_CHECKS]


def test_only_the_type_control_sees_swapped_pq():
    # with p and q swapped the projectors stay complete and idempotent on
    # every basis form, so the (1,0) type of the 1-forms is what fails them
    I = HypercomplexFrame.left().I
    for m in (1, 2, 3):
        for t in itertools.combinations(range(4), m):
            b = RationalForm.basis(t)
            pieces = [_swapped_pq(I, b, p, m - p) for p in range(m + 1)]
            assert sum(pieces[1:], pieces[0]) == b
            assert all(_swapped_pq(I, piece, p, m - p) == piece
                       for p, piece in enumerate(pieces))


if __name__ == "__main__":
    json.dump({key: records(run) for key, run in RUNS.items()}, sys.stdout, indent=1)
    sys.stdout.write("\n")
