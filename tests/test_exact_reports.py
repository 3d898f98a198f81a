"""Pinned results of the exact suites.

``tests/data/exact_reports.json`` holds the name, status, paper_ref and
defect of every check of the exact suites below (timings left out). The
exact engine does not depend on the platform, so any change to these is a
change in what the engine computes. Regenerate the file with

    PYTHONPATH=src python tests/test_exact_reports.py > tests/data/exact_reports.json
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
from hkt4.forms import RationalForm

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


def randint_forms(seed: int) -> list:
    """The random forms of ``calculus_suite(seed)`` in draw order, drawn as
    the suite once drew them: one ``randint`` per exponent, numerator,
    denominator, term count, phi power and degree."""
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
    assert suites.CALCULUS_TRIALS == 25 and len(drawn) == 6 * 25
    assert [f.degree for f in drawn] == [f.degree for f in expected]
    for got, want in zip(drawn, expected):
        assert list(got.coeffs) == list(want.coeffs)
        for t, f in got.coeffs.items():
            g = want.coeffs[t]
            assert (f.k, f.num.den, f.num.coeffs) == (g.k, g.num.den, g.num.coeffs)


if __name__ == "__main__":
    json.dump({key: records(run) for key, run in RUNS.items()}, sys.stdout, indent=1)
    sys.stdout.write("\n")
