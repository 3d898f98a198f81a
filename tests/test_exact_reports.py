"""Pinned results of the exact suites.

``tests/data/exact_reports.json`` holds the name, status, paper_ref and
defect of every check of the exact suites below (timings left out). The
exact engine does not depend on the platform, so any change to these is a
change in what the engine computes. Regenerate the file with

    PYTHONPATH=src python tests/test_exact_reports.py > tests/data/exact_reports.json
"""

import json
import os
import sys
from fractions import Fraction

from hkt4 import suites

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


if __name__ == "__main__":
    json.dump({key: records(run) for key, run in RUNS.items()}, sys.stdout, indent=1)
    sys.stdout.write("\n")
