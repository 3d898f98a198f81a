"""Pinned JSON reports of the CLI.

``tests/data/golden_reports.json`` holds, for each command of ``RUNS`` (the
exit-0 commands of ``test_reachability.CLI_RUNS`` that print a JSON report),
the report the command prints with each check's ``ms`` removed. The schema,
ledger hash, check order, names, statuses, paper refs and ``"exact-zero"``
verdicts must match exactly; a numeric defect must match within ``ATOL``
absolute or ``RTOL`` relative, since the lattice suites go through BLAS.
Regenerate the file with

    PYTHONPATH=src python tests/test_report_golden.py > tests/data/golden_reports.json
"""

import json
import math
import os

from click.testing import CliRunner

from hkt4.cli import main
from test_reachability import CLI_RUNS

DATA = os.path.join(os.path.dirname(__file__), "data", "golden_reports.json")
ATOL, RTOL = 1e-12, 1e-9
RUNS = [args for code, args in CLI_RUNS
        if code == 0 and args[0] != "degree" and not any("{tmp}" in a for a in args)]


def run(args) -> dict:
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, (args, result.output)
    report = json.loads(result.output)
    for check in report["checks"]:
        del check["ms"]
    return report


def same_defect(got, want) -> bool:
    if isinstance(got, str) or isinstance(want, str):
        return got == want
    return math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL)


def without(record: dict, key: str) -> dict:
    return {k: v for k, v in record.items() if k != key}


def test_reports_match_golden():
    with open(DATA, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert sorted(golden) == sorted(" ".join(args) for args in RUNS)
    for args in RUNS:
        got, want = run(args), golden[" ".join(args)]
        assert without(got, "checks") == without(want, "checks"), args
        assert [without(c, "defect") for c in got["checks"]] == \
            [without(c, "defect") for c in want["checks"]], args
        bad = [(g["name"], g["defect"], w["defect"])
               for g, w in zip(got["checks"], want["checks"])
               if not same_defect(g["defect"], w["defect"])]
        assert bad == [], args


if __name__ == "__main__":
    print(json.dumps({" ".join(args): run(args) for args in RUNS}, indent=1))
