"""Machine-readable verification reports (schema report-v1) and the
convention ledger constants that identify a build of this tool."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import List, Union

from . import __version__

SCHEMA = "report-v1"

# The convention ledger: every sign or normalization choice that the
# verification results depend on. The hash of this block is stamped into
# every report so results from different conventions are never comparable
# by accident. Human-readable discussion lives in docs/conventions.md.
CONVENTIONS = {
    "coordinates": "x = x0 + x1 i + x2 j + x3 k",
    "orientation": "dx0^dx1^dx2^dx3",
    "form_action": "pullback: (L a)(X1..Xm) = a(L X1..L Xm)",
    "twisted_differential_sign": -1,
    "right_frame_K": "-R_k",
    "torsion_ratio_T_over_H": "-1",
    "degree_normalization": "sqrt(-1)/(2*pi)",
    "torus_periods": "unit",
    "induced_structure": "L~ a = sqrt(-1)(a^{0,1} - a^{1,0}) = -L(a)",
}


def convention_ledger_hash() -> str:
    blob = json.dumps(CONVENTIONS, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


EXACT_ZERO = "exact-zero"


@dataclass
class CheckResult:
    """One named check: pass/fail/skipped plus a defect magnitude.

    ``defect`` is the string "exact-zero" for symbolic zero tests and a float
    for numerical ones; the two are never conflated. ``paper_ref`` names the
    mathematical claim being checked, or "plumbing" for infrastructure.
    """

    name: str
    status: str
    defect: Union[str, float]
    paper_ref: str = "plumbing"
    ms: float = 0.0


class CheckRecorder:
    """Collects CheckResults; ``suites._timed`` fills in their wall times."""

    def __init__(self):
        self.checks: List[CheckResult] = []

    def add(self, name, ok, defect, paper_ref="plumbing"):
        self.checks.append(CheckResult(name, "pass" if ok else "fail", defect, paper_ref))

    def exact(self, name: str, form_or_bool, paper_ref: str):
        """Record an exact zero test: a form (defect = its size) or a bool."""
        if isinstance(form_or_bool, bool):
            ok = form_or_bool
            defect = EXACT_ZERO if ok else 1.0
        else:
            ok = form_or_bool.is_zero()
            defect = EXACT_ZERO if ok else form_or_bool.max_abs_coeff()
        self.add(name, ok, defect, paper_ref)
        return ok


@dataclass
class VerificationReport:
    checks: List[CheckResult] = field(default_factory=list)
    tool_version: str = __version__
    seed: int = 0

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def sorted_checks(self) -> List[CheckResult]:
        # failing checks first, otherwise stable
        return sorted(self.checks, key=lambda c: 0 if c.status == "fail" else 1)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "status": "pass" if self.passed else "fail",
            "tool_version": self.tool_version,
            "convention_ledger_hash": convention_ledger_hash(),
            "seed": self.seed,
            "checks": [
                {
                    "name": c.name,
                    "status": c.status,
                    "defect": c.defect if isinstance(c.defect, str) or math.isfinite(c.defect)
                    else str(c.defect),  # "nan", "inf" or "-inf": JSON has no such numbers
                    "paper_ref": c.paper_ref,
                    "ms": round(c.ms, 3),
                }
                for c in self.sorted_checks()
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, allow_nan=False)

    def to_markdown(self) -> str:
        lines = [
            f"# verification report ({'pass' if self.passed else 'FAIL'})",
            "",
            f"- tool version: {self.tool_version}",
            f"- convention ledger: `{convention_ledger_hash()}`",
            f"- seed: {self.seed}",
            "",
            "| check | status | defect | claim | ms |",
            "|---|---|---|---|---|",
        ]
        for c in self.sorted_checks():
            defect = c.defect if isinstance(c.defect, str) else f"{c.defect:.3e}"
            lines.append(f"| {c.name} | {c.status} | {defect} | {c.paper_ref} | {c.ms:.1f} |")
        return "\n".join(lines) + "\n"


def emit_report(report: VerificationReport, fmt: str = "json") -> str:
    """Serialize a report."""
    if fmt == "json":
        return report.to_json()
    if fmt == "markdown":
        return report.to_markdown()
    raise ValueError(f"unknown report format: {fmt}")
