"""The benchmark's four workloads: request plans generated from the workload
seed, one call per request into the public functions of ``hkt4``, and the
checks each output must pass.

Each workload is a closed loop with one client. Its plan is one cold request
followed by an endless sequence of units; a unit is the smallest block of
requests whose mix is the same in every unit (one request; a seeded order
of the problem sizes for ``moduli`` and of the form seeds for ``report``),
so a run that measures whole units always measures the same mix.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Dict, Iterator, List, Tuple

import numpy as np

from hkt4 import moduli, report, suites
from hkt4.lattice import LatticeField
from hkt4.quaternions import HypercomplexFrame

TOL = 1e-10
DENSE_N, DENSE_RANK = 3, 2
DENSE_CHARGES = (math.pi, 0.37, 1.1)
# (N, n, flow eps). The L2-sized N=8 grid is left out: its time does not
# follow the reference kernel, and one 15 s request of it per run made the
# workload's latency_mean_ref spread 0.30 over ten seeds.
MODULI_SIZES = ((4, 2, 1e-2), (4, 3, None))
# Seeds of full_report's random exact forms. The forms take three quarters
# of a report request, and one seed can cost twice as much as another: with
# a seed drawn for each request, the IQR/median of latency_mean_ref over ten
# runs of three requests ranged from 0.07 to 0.20. Every report unit runs
# these three, in a seeded order, each with a seeded q.
REPORT_SEEDS = (0, 1, 2)


@dataclass(frozen=True)
class Request:
    kind: str
    params: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Outcome:
    """One attempted request: its wall time and why it failed, if it did."""

    latency_s: float
    failures: List[str]

    @property
    def ok(self) -> bool:
        return not self.failures


# ---------------------------------------------------------------------------
# output checks


def report_failures(doc: str) -> List[str]:
    """Failures of a JSON report: invalid JSON, or any check whose status is
    not ``pass``. Check names are not matched, so renamed or merged checks
    do not fail a request."""
    try:
        parsed = json.loads(doc)
    except (TypeError, ValueError) as exc:
        return [f"report is not valid JSON: {exc}"]
    checks = parsed.get("checks") if isinstance(parsed, dict) else None
    if not isinstance(checks, list) or not checks:
        return ["report has no checks"]
    return [f"check {c.get('name')!r} is {c.get('status')!r}"
            for c in checks if not isinstance(c, dict) or c.get("status") != "pass"]


def stabiliser_dim(charge: float) -> int:
    """Dimension of the stabiliser in su(2) of the holonomy exp(c i sigma3)
    of the constant Cartan connection c (i sigma3) dx_mu on the unit torus.

    The Cartan line is always fixed; the two root directions turn by
    exp(+-2ic) under the adjoint action and are fixed only when that is 1,
    i.e. when the holonomy is central."""
    roots_fixed = abs(cmath.exp(2j * charge) - 1) < 1e-9
    return 1 + (2 if roots_fixed else 0)


def expected_dense_dim(charge: float) -> int:
    """Slice dimension theory predicts at the Cartan connection: four times
    the stabiliser of the connection."""
    return 4 * stabiliser_dim(charge)


def attempt(execute: Callable[[Request], Any],
            check: Callable[[Request, Any], List[str]],
            req: Request, clock: Callable[[], float]) -> Outcome:
    """Run one request and check its output; anything it raises is a
    failure, never an abort of the run."""
    t0 = clock()
    try:
        out = execute(req)
    except Exception as exc:  # noqa: BLE001 - a raising request is a failure
        return Outcome(clock() - t0, [f"raised {type(exc).__name__}: {exc}"])
    latency = clock() - t0
    try:
        failures = check(req, out)
    except Exception as exc:  # noqa: BLE001 - a malformed output is a failure
        failures = [f"check raised {type(exc).__name__}: {exc}"]
    return Outcome(latency, failures)


# ---------------------------------------------------------------------------
# workloads


def _rational_q(rng: random.Random) -> Fraction:
    den = rng.randint(1, 5)
    return Fraction(den + rng.randint(1, 3 * den), den)


def _seed(rng: random.Random) -> int:
    return rng.randrange(2 ** 31)


class Workload:
    """A named request plan with its call into hkt4 and its output check.
    Why each workload is in the benchmark is recorded in BENCHMARK.json."""

    name: str = ""
    # request time of one unit, in seconds, on a 2-core x86 VM at its usual
    # speed
    unit_s: float

    def cold(self, rng: random.Random) -> Request:
        return self.unit(rng)[0]

    def unit(self, rng: random.Random) -> List[Request]:
        raise NotImplementedError

    def execute(self, req: Request) -> Any:
        raise NotImplementedError

    def check(self, req: Request, out: Any) -> List[str]:
        return report_failures(out)

    def plan(self, seed: int) -> Tuple[Request, Iterator[List[Request]]]:
        """The cold request and the endless sequence of units for a seed."""
        rng = random.Random(f"{self.name}:{seed}")
        cold = self.cold(rng)
        return cold, (self.unit(rng) for _ in itertools.count())

    def units_for(self, seconds: float) -> int:
        """How many units a run of ``seconds`` measures: enough for at least
        that much request time at the usual speed. The count depends only on
        ``seconds``, never on how fast the machine runs, so two runs of one
        seed always measure the same requests."""
        return max(1, math.ceil(seconds / self.unit_s))


class Hopf(Workload):
    """suites.hopf_suite on a seeded rational q > 1, then its JSON report."""

    name = "hopf"
    unit_s = 0.4

    def unit(self, rng):
        return [Request("hopf", {"q": _rational_q(rng), "seed": _seed(rng)})]

    def execute(self, req):
        s = req.params["seed"]
        checks = suites.hopf_suite(req.params["q"], seed=s, axes=5)
        return report.emit_report(report.VerificationReport(checks=checks, seed=s),
                                  "json")


class Report(Workload):
    """suites.full_report as ``hkt4 report`` runs it, then its JSON report."""

    name = "report"
    unit_s = 19.5

    def unit(self, rng):
        seeds = list(REPORT_SEEDS)
        rng.shuffle(seeds)
        return [Request("report", {"q": _rational_q(rng), "seed": s}) for s in seeds]

    def execute(self, req):
        rep = suites.full_report(req.params["q"], grid=3, rank=2, tol=TOL,
                                 seed=req.params["seed"])
        return report.emit_report(rep, "json")


class Moduli(Workload):
    """suites.moduli_suite over a seeded order of the sizes, then its JSON
    report."""

    name = "moduli"
    unit_s = 6.5

    def _request(self, size, rng):
        N, n, eps = size
        return Request(f"moduli({N},{n})", {"N": N, "n": n, "flow_eps": eps,
                                            "seed": _seed(rng)})

    def cold(self, rng):
        return self._request(MODULI_SIZES[0], rng)

    def unit(self, rng):
        sizes = list(MODULI_SIZES)
        rng.shuffle(sizes)
        return [self._request(size, rng) for size in sizes]

    def execute(self, req):
        p = req.params
        checks = suites.moduli_suite(p["N"], p["n"], TOL, p["seed"],
                                     flow_eps=p["flow_eps"])
        return report.emit_report(report.VerificationReport(checks=checks,
                                                            seed=p["seed"]),
                                  "json")


class Dense(Workload):
    """moduli.horizontal_slice at a constant Cartan connection, which takes
    the dense null-space path."""

    name = "dense"
    unit_s = 4.0

    def __init__(self):
        self.frame = HypercomplexFrame.left()

    def unit(self, rng):
        charge = rng.choice(DENSE_CHARGES)
        mu = rng.randrange(4)
        structure = rng.choice("IJK")
        comp = np.zeros((DENSE_N,) * 4 + (DENSE_RANK, DENSE_RANK), dtype=complex)
        comp[...] = charge * np.diag([1j, -1j])
        conn = moduli.Connection(LatticeField(1, DENSE_N, DENSE_RANK,
                                              {(mu,): comp}))
        return [Request("dense", {"charge": charge, "mu": mu,
                                  "structure": structure, "A": conn})]

    def execute(self, req):
        L = getattr(self.frame, req.params["structure"])
        return moduli.horizontal_slice(req.params["A"], L, TOL, frame=self.frame)

    def check(self, req, tb):
        failures = []
        want = expected_dense_dim(req.params["charge"])
        if tb.dimension != want:
            failures.append(f"slice dimension {tb.dimension}, theory predicts {want}")
        if not tb.gap_ok:
            failures.append(f"kernel gap {tb.gap:.3e} below threshold")
        return failures


WORKLOADS: Dict[str, Callable[[], Workload]] = {
    "hopf": Hopf, "report": Report, "moduli": Moduli, "dense": Dense,
}
