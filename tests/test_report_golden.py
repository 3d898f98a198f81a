"""Pinned JSON reports of the CLI.

``tests/data/golden_reports.json`` holds, for each command of ``RUNS`` (the
exit-0 commands of ``test_reachability.CLI_RUNS`` that print a JSON report),
the report the command prints with each check's ``ms`` removed. The schema,
ledger hash, check order, names, statuses, paper refs and ``"exact-zero"``
verdicts must match exactly; a numeric defect must match within ``ATOL``
absolute or ``RTOL`` relative, since the lattice suites go through BLAS.
Regenerate the file in place with

    PYTHONPATH=src python tests/test_report_golden.py

which keeps each pinned defect that the new run matches by ``same_defect``,
so the file changes only where a report really moved, not by round-off, and
prints one line per defect it did not keep: command, check, old, new.
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


def keep_pinned(report: dict, pinned: dict) -> list:
    """Set each defect of ``report`` that ``same_defect`` matches to the
    defect of the same check in the ``pinned`` report back to it; return
    ``(check, old, new)`` for each defect not kept, old None if unpinned."""
    defects = {c["name"]: c["defect"] for c in pinned.get("checks", [])}
    moved = []
    for check in report["checks"]:
        want = defects.get(check["name"])
        if want is not None and same_defect(check["defect"], want):
            check["defect"] = want
        else:
            moved.append((check["name"], want, check["defect"]))
    return moved


def test_regeneration_keeps_matching_pinned_defects():
    pinned = {"checks": [{"name": "a", "defect": 0.0947870653973525},
                         {"name": "b", "defect": 1.0},
                         {"name": "c", "defect": "exact-zero"}]}
    report = {"checks": [{"name": "a", "defect": 0.09478706539735063},
                         {"name": "b", "defect": 1.5},
                         {"name": "c", "defect": 3.0},
                         {"name": "d", "defect": 2.0}]}
    assert keep_pinned(report, pinned) == \
        [("b", 1.0, 1.5), ("c", "exact-zero", 3.0), ("d", None, 2.0)]
    assert [c["defect"] for c in report["checks"]] == [0.0947870653973525, 1.5, 3.0, 2.0]


if __name__ == "__main__":
    with open(DATA, encoding="utf-8") as fh:
        golden = json.load(fh)
    regenerated = {}
    for args in RUNS:
        key = " ".join(args)
        regenerated[key] = run(args)
        for name, old, new in keep_pinned(regenerated[key], golden.get(key, {})):
            print(f"{key} | {name} | {old!r} -> {new!r}")
    with open(DATA, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(regenerated, indent=1) + "\n")
