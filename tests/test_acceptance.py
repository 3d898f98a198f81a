"""Acceptance suite: the exit criteria of the toolkit, one test per
criterion, each printing a pass/fail line (run pytest with -s to see them).

Symbolic criteria certify with exact arithmetic (defect forms identically
zero); numerical criteria run at the stated tolerances on the stated grids.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from hkt4.exact import Poly, QI, ScalarField
from hkt4.forms import (
    ConstantMetric,
    RationalForm,
    exterior_d,
    hodge_star,
    lambda_contract,
    pq_project,
    scale_pullback,
    twisted_d,
    wedge,
)
from hkt4.hermitian import bismut_torsion, hermitian_form
from hkt4.hopf import build_hopf, build_flat_control
from hkt4.invariants import degree, slope
from hkt4.lattice import LatticeField, l2_inner
from hkt4.moduli import (
    Connection,
    coulomb_identity_defect,
    horizontal_slice,
    induced_structure,
    moduli_hermitian_form,
    verify_moduli_structure,
    ym_flow,
)
from hkt4.quaternions import HypercomplexFrame, independence_rank

LEFT = HypercomplexFrame.left()
EUCLID = ConstantMetric.euclidean()
SEED = 20250810


def report(label: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {label}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, label


@pytest.fixture(scope="module")
def geo():
    return build_hopf(Fraction(2))


def test_criterion_01_hopf_strong_hkt(geo):
    t0 = time.perf_counter()
    HI = twisted_d(geo.structures["I+"], geo.omegas["I+"])
    HJ = twisted_d(geo.structures["J+"], geo.omegas["J+"])
    HK = twisted_d(geo.structures["K+"], geo.omegas["K+"])
    ok = ((HI - HJ).is_zero() and (HJ - HK).is_zero()
          and exterior_d(HI).is_zero() and not HI.is_zero())
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60
    report("criterion 1: strong HKT identities on the Hopf chart (exact)",
           ok, f"{elapsed:.2f}s")


def test_criterion_02_44_opposition(geo):
    t0 = time.perf_counter()
    ok = (geo.H_plus + geo.H_minus).is_zero()
    ok = ok and independence_rank(geo.left, geo.right) == 6
    for lname, rname in itertools.product(("I+", "J+", "K+"), ("I-", "J-", "K-")):
        plus = bismut_torsion(geo.metric, geo.structures[lname])
        ok = ok and plus.bihermitian_with(bismut_torsion(geo.metric, geo.structures[rname]))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60
    report("criterion 2: opposite torsions, independence, bi-Hermitian pairs "
           "(exact)", ok, f"{elapsed:.2f}s")


def test_criterion_03_common_metric(geo):
    from hkt4.hermitian import metric_from_form
    mats = [metric_from_form(geo.omegas[name], geo.structures[name])
            for name in geo.structures]
    ok = all(m == mats[0] for m in mats[1:])
    report("criterion 3: the six bilinear forms induce one metric (exact)", ok)


def test_criterion_04_descent(geo):
    q = geo.q
    ok = all(scale_pullback(geo.omegas[name], q) == geo.omegas[name]
             for name in geo.structures)
    ok = ok and scale_pullback(geo.H_plus, q) == geo.H_plus
    ok = ok and scale_pullback(geo.H_minus, q) == geo.H_minus
    report("criterion 4: quotient descent of all forms (exact)", ok)


def test_criterion_05_gauduchon(geo):
    from hkt4.hermitian import gauduchon_defect
    ok = all(gauduchon_defect(geo.metric, L).is_zero()
             for L in geo.structures.values())
    report("criterion 5: Gauduchon for every structure (exact)", ok)


def test_criterion_06_flat_control():
    ok = True
    for frame in (HypercomplexFrame.left(), HypercomplexFrame.right()):
        for L in frame.matrices():
            rep = bismut_torsion(EUCLID, L)
            ok = ok and rep.torsion_H.is_zero()
    flat = build_flat_control()
    ok = ok and flat.H_plus.is_zero() and flat.H_minus.is_zero()
    report("criterion 6: flat control has zero torsion (exact)", ok)


def test_criterion_07_moduli_tangent_model():
    t0 = time.perf_counter()
    tol = 1e-10
    ok = True
    details = []
    for n, want in ((2, 12), (3, 32)):
        tb = horizontal_slice(Connection.flat(4, n), LEFT.I, tol, frame=LEFT)
        # the cuts (their dimensions and span), the structure identities
        # and the slice and metric invariance
        checks = [c for c in verify_moduli_structure(tb) if c.name.startswith(
            ("moduli.slice-same-for-IJK", "moduli.structure.", "moduli.slice-invariance.",
             "moduli.metric-invariance."))]
        ok = ok and tb.dimension == want and all(c.status == "pass" for c in checks)
        worst = max(c.defect for c in checks if c.name.startswith("moduli.structure."))
        details.append(f"n={n}: dim {tb.dimension}, max defect {worst:.1e}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300
    report("criterion 7: moduli tangent model at the flat connection "
           "(N=4, su(2) and su(3))", ok, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_08_moduli_hermitian_form():
    tol = 1e-8
    tb = horizontal_slice(Connection.flat(4, 2), LEFT.I, 1e-10, frame=LEFT)
    rng = np.random.default_rng(SEED)
    signs = set()
    worst = 0.0
    pairs = 0
    while pairs < 100:
        a1 = tb.element(rng.standard_normal(tb.dimension))
        a2 = tb.element(rng.standard_normal(tb.dimension))
        g = l2_inner(induced_structure(tb.structure, a1), a2)
        if abs(g) < 1e-9:
            continue
        w = moduli_hermitian_form(tb, a1, a2)
        signs.add(1 if w * g > 0 else -1)
        worst = max(worst, abs(abs(w) - abs(g)) / abs(g))
        pairs += 1
    ok = len(signs) == 1 and worst < tol
    report("criterion 8: moduli Hermitian form matches the L^2 metric with "
           "one sign (100 pairs)", ok, f"sign {signs}, rel defect {worst:.1e}")


def test_criterion_09_coulomb_identity():
    tol = 1e-10
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for _ in range(10):
        a = LatticeField.random(1, 4, 2, rng)
        worst = max(worst, coulomb_identity_defect(a, LEFT.matrices()))
    ok = worst < tol
    report("criterion 9: codifferential identity on random lattice 1-forms",
           ok, f"max defect {worst:.1e}")


def test_criterion_10_asd_flow():
    rng = np.random.default_rng(SEED + 2)
    pert = LatticeField.random(1, 4, 2, rng, scale=1e-2)
    A0 = Connection(pert)
    res = ym_flow(A0, step=1e-3, max_iters=10_000, reduction=1e-7)
    monotone = all(res.history[i + 1] <= res.history[i]
                   for i in range(len(res.history) - 1))
    factor = res.initial / res.final
    ok = monotone and factor >= 1e6 and res.iterations <= 10_000
    report("criterion 10: descent flow reduces |F+|^2 monotonically by 1e6",
           ok, f"factor {factor:.2e} in {res.iterations} iterations")


def test_criterion_11_degree_and_slope():
    import math
    omega = RationalForm(2, {(0, 1): ScalarField.const(1),
                             (2, 3): ScalarField.const(1)})
    ok = degree(RationalForm(2), omega) == 0.0
    comps = {(0, 1): np.full((3, 3, 3, 3, 1, 1), -2j * math.pi)}
    F = LatticeField(2, 3, 1, comps)
    d = degree(F, omega)
    ok = ok and abs(abs(d) - 1.0) < 1e-12
    # additivity (exact for exactly representable inputs) and slope arithmetic
    F2 = LatticeField(2, 3, 1, {(2, 3): np.full((3, 3, 3, 3, 1, 1), 4j * math.pi)})
    ok = ok and degree(F + F2, omega) == degree(F, omega) + degree(F2, omega)
    ok = ok and slope(Fraction(3), 2) == 1.5 and slope(0.0, 7) == 0.0
    report("criterion 11: degree normalization, additivity, slope arithmetic",
           ok, f"unit Chern degree {d:+.12f}")


def rand_scalar(rng, complexified=True):
    coeffs = {}
    for _ in range(rng.randint(1, 3)):
        mono = tuple(rng.randint(0, 1) for _ in range(4))
        re = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        im = Fraction(rng.randint(-3, 3), rng.randint(1, 2)) if complexified else 0
        coeffs[mono] = QI(re, im)
    return ScalarField(Poly(coeffs), rng.randint(0, 1))


def rand_form(rng, degree, complexified=True):
    coeffs = {}
    for t in itertools.combinations(range(4), degree):
        if rng.random() < 0.8:
            coeffs[t] = rand_scalar(rng, complexified)
    return RationalForm(degree, coeffs)


def test_criterion_12_calculus_property_suite():
    rng = random.Random(SEED)
    trials = 100
    ok = True
    omega_I = hermitian_form(EUCLID, LEFT.I)
    for _ in range(trials):
        # d^2 = 0
        a = rand_form(rng, rng.randint(0, 2))
        ok = ok and exterior_d(exterior_d(a)).is_zero()
        # graded Leibniz
        da, db = rng.randint(0, 1), rng.randint(1, 2)
        f, g = rand_form(rng, da), rand_form(rng, db)
        lhs = exterior_d(wedge(f, g))
        sign_term = wedge(f, exterior_d(g))
        rhs = wedge(exterior_d(f), g) + (sign_term if da % 2 == 0 else -sign_term)
        ok = ok and (lhs - rhs).is_zero()
        # pq completeness and idempotence
        m = rng.randint(1, 3)
        b = rand_form(rng, m)
        total = RationalForm(m)
        for p in range(m + 1):
            piece = pq_project(LEFT.I, b, p, m - p)
            ok = ok and (pq_project(LEFT.I, piece, p, m - p) - piece).is_zero()
            total = total + piece
        ok = ok and (total - b).is_zero()
        # (3,0) vanishes on the surface chart
        c = rand_form(rng, 3)
        ok = ok and pq_project(LEFT.J, c, 3, 0).is_zero()
        # Lambda omega = 2
        ok = ok and lambda_contract(omega_I, omega_I) == ScalarField.const(2)
        # star is an involution on 2-forms
        w2 = rand_form(rng, 2)
        ok = ok and (hodge_star(EUCLID, hodge_star(EUCLID, w2)) - w2).is_zero()
        if not ok:
            break
    report("criterion 12: calculus property suite on 100 random exact forms", ok)
