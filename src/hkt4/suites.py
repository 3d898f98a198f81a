"""Named check suites composing the verifiers into report entries; the CLI
and the acceptance tests are thin layers over these."""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction
from typing import List, Optional

import numpy as np

from .exact import _PHI_KEY, I_UNIT, QI, Poly, ScalarField, _pack
from .forms import (
    TOP,
    ConstantMetric,
    RationalForm,
    exterior_d,
    hodge_star,
    lambda_contract,
    pq_project,
    structure_action,
    wedge,
    wedge_sum,
)
from .hermitian import hermitian_form
from .hopf import (
    build_flat_control,
    build_hopf,
    verify_44,
    verify_axis_family,
    verify_common_metric,
    verify_descent,
    verify_gauduchon,
    verify_positive_metric,
)
from .invariants import degree, slope
from .lattice import LatticeField
from .lattice import l2_inner  # noqa: F401 - the L^2 metric, in this namespace too
from .moduli import (
    Connection,
    _coulomb_rows,
    horizontal_slice,
    verify_moduli_structure,
    ym_flow,
)
from .quaternions import AxisTriple, HypercomplexFrame, independence_rank
from .report import EXACT_ZERO, CheckRecorder, CheckResult, VerificationReport


def random_rational_axis(rng: random.Random) -> AxisTriple:
    """Exact point ((1 - u^2 - v^2), 2u, 2v) / (1 + u^2 + v^2) on S^2, in integers: for u = P/Q
    and v = R/Q it is (Q^2 - P^2 - R^2, 2PQ, 2RQ) / (Q^2 + P^2 + R^2)."""
    p1, q1, p2, q2 = (rng.randint(-6, 6), rng.randint(1, 5), rng.randint(-6, 6), rng.randint(1, 5))
    P, R, Q = p1 * q2, p2 * q1, q1 * q2
    den = Q * Q + P * P + R * R
    return AxisTriple(*(Fraction(n, den) for n in (Q * Q - P * P - R * R, 2 * P * Q, 2 * R * Q)))


def _timed(checks: List[CheckResult], started: float) -> List[CheckResult]:
    # distribute elapsed time over entries that carry none
    elapsed = (time.perf_counter() - started) * 1000.0
    untimed = [c for c in checks if c.ms == 0.0]
    if untimed:
        share = elapsed / len(untimed)
        for c in untimed:
            c.ms = share
    return checks


def frame_suite() -> List[CheckResult]:
    rec = CheckRecorder()
    left, right = HypercomplexFrame.left(), HypercomplexFrame.right()
    rec.exact("frames.left", not left.failures, "IJ = -JI = K")
    rec.exact("frames.right", not right.failures, "IJ = -JI = K")
    rank = independence_rank(left, right)
    rec.add("frames.independence", rank == 6,
            EXACT_ZERO if rank == 6 else float(6 - rank),
            "rank span{I+,J+,K+,I-,J-,K-} = 6")
    return rec.checks


def hopf_suite(q, seed: int = 0, axes: int = 5) -> List[CheckResult]:
    t0 = time.perf_counter()
    checks = frame_suite()
    geo = build_hopf(q)
    checks += verify_common_metric(geo)
    checks += verify_44(geo)
    checks += verify_descent(geo)
    checks += verify_gauduchon(geo)
    rng = random.Random(seed)
    axis_list = [random_rational_axis(rng) for _ in range(axes)]
    checks += verify_axis_family(geo, axis_list)
    return _timed(checks, t0)


def flat_suite() -> List[CheckResult]:
    t0 = time.perf_counter()
    checks = frame_suite()
    flat = build_flat_control()
    control = verify_positive_metric(flat) + verify_44(flat) + verify_gauduchon(flat)
    for c in control:
        c.name = c.name.replace("hopf.", "flat.", 1)
    checks += control
    return _timed(checks, t0)


def moduli_suite(N: int, n: int, tol: float, seed: int = 0,
                 flow_eps: Optional[float] = None) -> List[CheckResult]:
    if n < 2:
        raise ValueError("bundle rank must be >= 2")
    if flow_eps is not None and not (math.isfinite(flow_eps) and flow_eps != 0):
        raise ValueError(f"flow eps must be finite and nonzero, got {flow_eps}")
    rec = CheckRecorder()
    t0 = time.perf_counter()
    frame = HypercomplexFrame.left()

    A = Connection.flat(N, n)
    tb = horizontal_slice(A, frame.I, tol, frame=frame)
    rec.exact("moduli.flat-curvature", tb.curvature_norm == 0.0,
              "F = 0 for the flat connection")

    rec.checks += verify_moduli_structure(tb)

    rows = _coulomb_rows(frame.matrices())  # equal rows: the identity for every a and A
    worst = float(np.abs(rows[1:] - rows[0]).max())
    rec.add("moduli.coulomb-identity", worst < tol, worst,
            "d*_A a = Lambda d^c_L a + *(d^c_L w_L ^ a)")

    if flow_eps is not None:
        pert = LatticeField.random(1, N, n, np.random.default_rng(seed), scale=flow_eps)
        res = ym_flow(Connection(pert), step=1e-3, max_iters=10_000, reduction=1e-7)
        monotone = all(res.history[i + 1] <= res.history[i]
                       for i in range(len(res.history) - 1))
        factor = res.initial / res.final if res.final > 0 else np.inf
        rec.add("moduli.flow-monotone", monotone, 0.0 if monotone else 1.0,
                "descent on |F+|^2 is monotone")
        rec.add("moduli.flow-reduction", factor >= 1e6,
                float(1e6 / factor) if factor > 0 else 1.0,
                "|F+|^2 reduced by >= 1e6 from a small perturbation")
    return _timed(rec.checks, t0)


# random trials of d^2 = 0 and of the Leibniz rule in calculus_suite
CALCULUS_TRIALS = 25


def calculus_suite(seed: int = 0) -> List[CheckResult]:
    """Exact-form properties of the symbolic engine: d^2 = 0 and the Leibniz
    rule on seeded random forms, the (p,q) projectors and the Hodge star on
    the basis forms."""
    rec = CheckRecorder()
    t0 = time.perf_counter()
    rng = random.Random(seed)
    bits = rng.getrandbits
    frame = HypercomplexFrame.left()
    euclid = ConstantMetric.euclidean()
    omega_I = hermitian_form(euclid, frame.I)

    def below(n):
        # rng.randrange(n) by CPython's _randbelow rule: the same stream as
        # randint draws, without their argument handling
        k = n.bit_length()
        r = bits(k)
        while r >= n:
            r = bits(k)
        return r

    def rand_scalar():
        # a/b + (c/e) sqrt(-1) with b, e in {1, 2}: integer pairs over 2,
        # over phi^k; a multilinear numerator is its own phi-adic digit, so
        # the pairs are stored at t = -k as drawn
        terms = {}
        for _ in range(1 + below(3)):
            mono = _pack((below(2), below(2), below(2), below(2)))
            a, b, c, e = below(7) - 3, 1 + below(2), below(7) - 3, 1 + below(2)
            terms[mono] = (a * (2 // b), c * (2 // e))
        shift = -below(2) * _PHI_KEY
        return ScalarField._make({m + shift: c for m, c in terms.items()}, 2)

    def rand_form(degree):
        coeffs = {}
        for t in itertools.combinations(range(4), degree):
            if rng.random() < 0.8:
                coeffs[t] = rand_scalar()
        return RationalForm(degree, coeffs)

    ok_d2 = ok_leibniz = True
    for _ in range(CALCULUS_TRIALS):
        a = rand_form(below(3))
        ok_d2 = ok_d2 and exterior_d(exterior_d(a)).is_zero()
        da, db = below(2), 1 + below(2)
        f, g = rand_form(da), rand_form(db)
        # canonical forms are unique, so each identity compares its sides
        rhs = wedge_sum([(1, exterior_d(f), g), ((-1) ** da, f, exterior_d(g))])
        ok_leibniz = ok_leibniz and exterior_d(wedge(f, g)) == rhs

    # pq_project and the Euclidean star are constant matrices over the
    # coefficient ring, so an identity of them that holds on the basis forms
    # holds on every form
    basis = {m: [RationalForm.basis(t) for t in itertools.combinations(range(4), m)]
             for m in (1, 2, 3)}
    ok_pq = True
    for m, forms in basis.items():
        for b in forms:
            pieces = [pq_project(frame.I, b, p, m - p) for p in range(m + 1)]
            ok_pq = (ok_pq and sum(pieces[1:], pieces[0]) == b
                     and all(pq_project(frame.I, piece, p, m - p) == piece
                             for p, piece in enumerate(pieces)))
            if m == 1:
                # I is sqrt(-1) on (1,0) forms and -sqrt(-1) on (0,1) forms,
                # the ledger's L~ = -L: fails a projector with p and q swapped
                ok_pq = (ok_pq and structure_action(frame.I, pieces[1]) == pieces[1] * I_UNIT
                         and structure_action(frame.I, pieces[0]) == pieces[0] * -I_UNIT)
    ok_30 = all(pq_project(frame.J, b, 3, 0).is_zero() for b in basis[3])
    # b ^ *b = |b|^2 vol fails a star that is the identity
    vol = RationalForm.basis(TOP)
    ok_star = True
    for b in basis[2]:
        star_b = hodge_star(euclid, b)
        ok_star = ok_star and hodge_star(euclid, star_b) == b and wedge(b, star_b) == vol
    rec.exact("calculus.d-squared", ok_d2, "d d = 0")
    rec.exact("calculus.leibniz", ok_leibniz, "graded Leibniz rule")
    rec.exact("calculus.pq-projection", ok_pq,
              "bidegree projectors are complete and idempotent")
    rec.exact("calculus.30-vanishing", ok_30,
              "no (3,0) forms on the surface chart")
    rec.exact("calculus.lambda-normalization",
              lambda_contract(omega_I, omega_I) == ScalarField.const(2),
              "Lambda w = 2 on a surface")
    rec.exact("calculus.star-involution", ok_star, "** = Id on 2-forms")
    return _timed(rec.checks, t0)


def degree_suite() -> List[CheckResult]:
    rec = CheckRecorder()
    t0 = time.perf_counter()
    omega = RationalForm(2, {(0, 1): ScalarField.const(1),
                             (2, 3): ScalarField.const(1)})
    beta = Poly({(2, 0, 0, 0): I_UNIT, (3, 0, 0, 0): QI(0, -2), (4, 0, 0, 0): I_UNIT})
    F0 = exterior_d(RationalForm(1, {(1,): ScalarField(beta)}))  # d(i x0^2 (1 - x0)^2 dx1)
    rec.exact("degree.flat-line-bundle", degree(F0, omega) == 0.0,
              "flat line bundles have degree zero")
    F = LatticeField(2, 3, 1,
                     {(0, 1): np.full((3, 3, 3, 3, 1, 1), -2j * math.pi)})
    d = degree(F, omega)
    rec.add("degree.unit-chern-magnitude", abs(abs(d) - 1.0) < 1e-12,
            abs(abs(d) - 1.0), "unit first Chern class pairs to magnitude 1")
    F2 = LatticeField(2, 3, 1,
                      {(2, 3): np.full((3, 3, 3, 3, 1, 1), 4j * math.pi)})
    additive = degree(F + F2, omega) == degree(F, omega) + degree(F2, omega)
    rec.exact("degree.additivity", additive, "degree is additive")
    rec.exact("degree.slope-arithmetic",
              slope(Fraction(3), 2) == 1.5 and slope(0.0, 7) == 0.0,
              "slope = degree / rank")
    return _timed(rec.checks, t0)


def full_report(q=Fraction(2), grid: int = 3, rank: int = 2,
                tol: float = 1e-10, seed: int = 0,
                flow_eps: Optional[float] = None) -> VerificationReport:
    # moduli first, so that it refuses bad input before the exact work
    moduli_checks = moduli_suite(grid, rank, tol, seed=seed, flow_eps=flow_eps)
    checks = hopf_suite(q, seed=seed)
    # flat_suite repeats the frame checks of hopf_suite
    checks += [c for c in flat_suite() if not c.name.startswith("frames.")]
    checks += calculus_suite(seed=seed)
    checks += degree_suite()
    return VerificationReport(checks=checks + moduli_checks, seed=seed)
