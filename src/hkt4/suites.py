"""Named check suites composing the verifiers into report entries; the CLI
and the acceptance tests are thin layers over these."""

from __future__ import annotations

import random
import time
from fractions import Fraction
from typing import List, Optional

import numpy as np

from .hopf import (
    build_flat_control,
    build_hopf,
    verify_44,
    verify_axis_family,
    verify_common_metric,
    verify_descent,
    verify_gauduchon,
)
from .lattice import LatticeField, l2_inner
from .moduli import (
    Connection,
    TorusSpec,
    asd_residual,
    coulomb_identity_defect,
    curvature,
    horizontal_slice,
    induced_structure,
    moduli_hermitian_form,
    verify_moduli_structure,
    ym_flow,
)
from .quaternions import AxisTriple, HypercomplexFrame, independence_rank, verify_frame
from .report import EXACT_ZERO, CheckRecorder, CheckResult, VerificationReport


def random_rational_axis(rng: random.Random) -> AxisTriple:
    """Exact point on S^2 from the rational parametrization
    ((1 - u^2 - v^2), 2u, 2v) / (1 + u^2 + v^2)."""
    u = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    v = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    s = u * u + v * v
    den = 1 + s
    return AxisTriple((1 - s) / den, 2 * u / den, 2 * v / den)


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
    rec.exact("frames.left", verify_frame(left).passed, "IJ = -JI = K")
    rec.exact("frames.right", verify_frame(right).passed, "IJ = -JI = K")
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
    control = verify_44(flat) + verify_gauduchon(flat)
    for c in control:
        c.name = c.name.replace("hopf.", "flat.", 1)
    checks += control
    return _timed(checks, t0)


def moduli_suite(N: int, n: int, tol: float, seed: int = 0,
                 flow_eps: Optional[float] = None,
                 hermitian_pairs: int = 100) -> List[CheckResult]:
    rec = CheckRecorder()
    t0 = time.perf_counter()
    spec = TorusSpec(N, n)
    frame = spec.frame
    rng = np.random.default_rng(seed)

    A = Connection.flat(spec.N, spec.n)
    rec.exact("moduli.flat-curvature", curvature(A).norm() == 0.0,
              "F = 0 for the flat connection")

    tb = horizontal_slice(A, frame.I, tol, frame=frame)
    rep = verify_moduli_structure(tb, frame)
    expected = rep.expected_dim
    rec.add("moduli.kernel-dimension", tb.dimension == expected,
            float(abs(tb.dimension - expected)),
            "dim T[A] = 4 (n^2 - 1) at the flat connection")
    rec.add("moduli.kernel-gap", tb.gap_ok,
            0.0 if not np.isfinite(tb.gap) else 1.0 / tb.gap, "plumbing")
    worst = float(tb.residual(tb.basis).max())
    rec.add("moduli.slice-equations", worst < tol, worst,
            "d_A^+ a = 0 and Lambda d^c_L a = 0")

    dims_ok = all(d == expected for d in rep.kernel_dims.values())
    rec.add("moduli.slice-same-for-IJK",
            dims_ok and max(rep.slice_distances.values()) < tol,
            max(rep.slice_distances.values()),
            "tangent space independent of the cutting structure")
    for name, defect in rep.identity_defects.items():
        rec.add(f"moduli.structure.{name.replace(' ', '')}", defect < tol,
                defect, "induced structures are quaternionic")
    for name, defect in rep.invariance_defects.items():
        rec.add(f"moduli.slice-invariance.{name}", defect < tol, defect,
                "induced structures preserve the slice")
    for name, defect in rep.metric_defects.items():
        rec.add(f"moduli.metric-invariance.{name}", defect < tol, defect,
                "L^2 metric Hermitian for each induced structure")

    # Hermitian 2-form against the L^2 metric: one consistent sign
    signs = set()
    worst_rel = 0.0
    for _ in range(hermitian_pairs):
        a1 = tb.element(rng.standard_normal(tb.dimension))
        a2 = tb.element(rng.standard_normal(tb.dimension))
        w = moduli_hermitian_form(tb, a1, a2)
        g = l2_inner(induced_structure(tb.structure, a1), a2)
        if abs(g) > 1e-9:
            signs.add(1 if w * g > 0 else -1)
            worst_rel = max(worst_rel, abs(abs(w) - abs(g)) / abs(g))
    rec.add("moduli.hermitian-form-sign",
            len(signs) == 1 and worst_rel < 1e-8, worst_rel,
            "omega~(a1,a2) = +/- (I~ a1, a2) with one global sign")

    worst = 0.0
    for _ in range(5):
        a = LatticeField.random(1, N, n, rng)
        for L in frame.matrices():
            worst = max(worst, coulomb_identity_defect(a, L))
    rec.add("moduli.coulomb-identity", worst < tol, worst,
            "d*_A a = Lambda d^c_L a + *(d^c_L w_L ^ a)")

    if flow_eps is not None:
        pert = LatticeField.random(1, N, n, rng, scale=flow_eps)
        A0 = Connection(pert)
        _, r0 = asd_residual(curvature(A0))
        res = ym_flow(A0, step=1e-3, max_iters=10_000, target=r0 ** 2 * 1e-7)
        monotone = all(res.history[i + 1] <= res.history[i]
                       for i in range(len(res.history) - 1))
        factor = res.initial / res.final if res.final > 0 else np.inf
        rec.add("moduli.flow-monotone", monotone, 0.0 if monotone else 1.0,
                "descent on |F+|^2 is monotone")
        rec.add("moduli.flow-reduction", factor >= 1e6,
                float(1e6 / factor) if factor > 0 else 1.0,
                "|F+|^2 reduced by >= 1e6 from a small perturbation")
    return _timed(rec.checks, t0)


def calculus_suite(seed: int = 0, trials: int = 25) -> List[CheckResult]:
    """Seeded random exact-form properties of the symbolic engine."""
    import itertools

    from .exact import Poly, QI, ScalarField
    from .forms import (
        ConstantMetric,
        RationalForm,
        exterior_d,
        hodge_star,
        lambda_contract,
        pq_project,
        wedge,
    )
    from .hermitian import hermitian_form

    rec = CheckRecorder()
    t0 = time.perf_counter()
    rng = random.Random(seed)
    frame = HypercomplexFrame.left()
    euclid = ConstantMetric.euclidean()
    omega_I = hermitian_form(euclid, frame.I)

    def rand_scalar():
        coeffs = {}
        for _ in range(rng.randint(1, 3)):
            mono = tuple(rng.randint(0, 1) for _ in range(4))
            coeffs[mono] = QI(Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                              Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        return ScalarField(Poly(coeffs), rng.randint(0, 1))

    def rand_form(degree):
        coeffs = {}
        for t in itertools.combinations(range(4), degree):
            if rng.random() < 0.8:
                coeffs[t] = rand_scalar()
        return RationalForm(degree, coeffs)

    ok_d2 = ok_leibniz = ok_pq = ok_30 = ok_star = True
    for _ in range(trials):
        a = rand_form(rng.randint(0, 2))
        ok_d2 = ok_d2 and exterior_d(exterior_d(a)).is_zero()
        da, db = rng.randint(0, 1), rng.randint(1, 2)
        f, g = rand_form(da), rand_form(db)
        term = wedge(f, exterior_d(g))
        rhs = wedge(exterior_d(f), g) + (term if da % 2 == 0 else -term)
        ok_leibniz = ok_leibniz and (exterior_d(wedge(f, g)) - rhs).is_zero()
        m = rng.randint(1, 3)
        b = rand_form(m)
        total = RationalForm.zero(m)
        for p in range(m + 1):
            piece = pq_project(frame.I, b, p, m - p)
            ok_pq = ok_pq and (pq_project(frame.I, piece, p, m - p) - piece).is_zero()
            total = total + piece
        ok_pq = ok_pq and (total - b).is_zero()
        ok_30 = ok_30 and pq_project(frame.J, rand_form(3), 3, 0).is_zero()
        w2 = rand_form(2)
        ok_star = ok_star and (hodge_star(euclid, hodge_star(euclid, w2)) - w2).is_zero()
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
    import math

    from .exact import ScalarField
    from .forms import RationalForm
    from .invariants import degree, slope
    from .lattice import LatticeField

    rec = CheckRecorder()
    t0 = time.perf_counter()
    omega = RationalForm(2, {(0, 1): ScalarField.const(1),
                             (2, 3): ScalarField.const(1)})
    rec.exact("degree.flat-line-bundle",
              degree(RationalForm.zero(2), omega) == 0.0,
              "flat line bundles have degree zero")
    F = LatticeField(2, 3, 1,
                     {(0, 1): np.full((3, 3, 3, 3, 1, 1), -2j * math.pi)},
                     project=False)
    d = degree(F, omega)
    rec.add("degree.unit-chern-magnitude", abs(abs(d) - 1.0) < 1e-12,
            abs(abs(d) - 1.0), "unit first Chern class pairs to magnitude 1")
    F2 = LatticeField(2, 3, 1,
                      {(2, 3): np.full((3, 3, 3, 3, 1, 1), 4j * math.pi)},
                      project=False)
    additive = degree(F + F2, omega) == degree(F, omega) + degree(F2, omega)
    rec.exact("degree.additivity", additive, "degree is additive")
    rec.exact("degree.slope-arithmetic",
              slope(Fraction(3), 2) == 1.5 and slope(0.0, 7) == 0.0,
              "slope = degree / rank")
    return _timed(rec.checks, t0)


def full_report(q=Fraction(2), grid: int = 3, rank: int = 2,
                tol: float = 1e-10, seed: int = 0,
                flow_eps: Optional[float] = None) -> VerificationReport:
    checks = hopf_suite(q, seed=seed)
    checks += flat_suite()
    checks += calculus_suite(seed=seed)
    checks += degree_suite()
    checks += moduli_suite(grid, rank, tol, seed=seed, flow_eps=flow_eps,
                           hermitian_pairs=25)
    return VerificationReport(checks=checks, seed=seed)
