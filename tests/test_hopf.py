"""End-to-end exact verification of the Hopf chart geometry."""

import dataclasses
import json
import random
from fractions import Fraction

import pytest

from hkt4.exact import QI, Poly, ScalarField
from hkt4.forms import RationalForm, exterior_d, scale_pullback, twisted_action, twisted_d
from hkt4.hermitian import ConformalMetric, metric_from_form
from hkt4.hopf import (
    PAIRS,
    STRUCTURE_NAMES,
    HopfSpec,
    _axis_family,
    _metric_at,
    _potential_form,
    _torsion_at,
    build_flat_control,
    build_hopf,
    verify_44,
    verify_axis_family,
    verify_common_metric,
    verify_descent,
    verify_gauduchon,
    verify_positive_metric,
    verify_strong_hkt,
)
from hkt4.quaternions import AxisTriple, HypercomplexFrame
from hkt4.suites import random_rational_axis


def variable(i):
    """The coordinate x_i as a polynomial."""
    return Poly({tuple(int(j == i) for j in range(4)): 1})


def all_pass(checks):
    return all(c.status == "pass" for c in checks)


@pytest.fixture(scope="module")
def geo():
    return build_hopf(HopfSpec(2))


def test_spec_validation():
    with pytest.raises(ValueError):
        HopfSpec(1)
    with pytest.raises(ValueError):
        HopfSpec(Fraction(1, 2))
    HopfSpec(Fraction(3, 2))


def test_build_invariants_pass(geo):
    assert set(geo.omegas) == {"I+", "J+", "K+", "I-", "J-", "K-"}
    # the common metric is 4/phi times the euclidean metric
    assert geo.metric.factor == ScalarField(Poly.const(4), 1)
    base = metric_from_form(geo.omegas["I+"], geo.structures["I+"])
    assert all(metric_from_form(geo.omegas[name], L) == base
               for name, L in geo.structures.items())


def test_omegas_do_not_depend_on_q(geo):
    other = build_hopf(HopfSpec(Fraction(3, 2)))
    for name in geo.omegas:
        assert geo.omegas[name] == other.omegas[name]


def test_left_omegas_frozen(geo):
    inv = ScalarField.inv_phi()
    assert geo.omegas["I+"] == RationalForm(
        2, {(0, 1): inv * 4, (2, 3): inv * 4})
    assert geo.omegas["J+"] == RationalForm(
        2, {(0, 2): inv * 4, (1, 3): inv * -4})
    assert geo.omegas["K+"] == RationalForm(
        2, {(0, 3): inv * 4, (1, 2): inv * 4})
    # right-frame forms are anti-self-dual counterparts
    assert geo.omegas["I-"] == RationalForm(
        2, {(0, 1): inv * 4, (2, 3): inv * -4})


def test_strong_hkt_left_and_right(geo):
    assert all_pass(verify_strong_hkt(geo, "left"))
    assert all_pass(verify_strong_hkt(geo, "right"))
    with pytest.raises(ValueError):
        verify_strong_hkt(geo, "middle")


def test_torsion_opposition(geo):
    assert (geo.H_plus + geo.H_minus).is_zero()
    assert not geo.H_plus.is_zero()
    assert exterior_d(geo.H_plus).is_zero()


def test_verify_44(geo):
    checks = verify_44(geo)
    assert all_pass(checks)
    names = {c.name for c in checks}
    assert "hopf.torsion-opposition" in names
    assert "hopf.frame-independence" in names
    assert sum(1 for n in names if n.startswith("hopf.bihermitian.")) == 9
    assert "hopf.hyperkahler-degenerate" not in names


def test_verify_44_flat_control_flagged():
    flat = build_flat_control()
    checks = verify_44(flat)
    assert all_pass(checks)
    names = {c.name for c in checks}
    assert "hopf.hyperkahler-degenerate" in names
    assert "hopf.left.torsion-zero" in names


def test_flat_control_strong_hkt_zero_torsion():
    flat = build_flat_control()
    checks = verify_strong_hkt(flat, "left")
    assert all_pass(checks)
    assert flat.H_plus.is_zero() and flat.H_minus.is_zero()


def test_verify_descent(geo):
    checks = verify_descent(geo)
    assert all_pass(checks)
    # dphi scales by q^2: the non-invariance control really moves
    dphi = exterior_d(RationalForm.function(geo.phi))
    assert scale_pullback(dphi, geo.q) == dphi * Fraction(4)


def test_verify_common_metric(geo):
    checks = verify_common_metric(geo)
    assert all_pass(checks)
    names = {c.name for c in checks}
    assert "hopf.common-metric.conformal" in names
    assert sum(1 for n in names if n.startswith("hopf.hermitian-form.")) == 6


def test_tampered_geometry_fails_common_metric(geo):
    # phi * w_I+ is not g(I+., .); w_J+ in place of w_I+ pairs with I+ to a
    # bilinear form that is not conformally Euclidean
    for omega in (geo.omegas["I+"] * geo.phi, geo.omegas["J+"]):
        fake = dataclasses.replace(geo, omegas={**geo.omegas, "I+": omega})
        failed = {c.name for c in verify_common_metric(fake)
                  if c.status == "fail"}
        assert {"hopf.common-metric.conformal", "hopf.common-metric.J+",
                "hopf.hermitian-form.I+"} <= failed
        assert "hopf.hermitian-form.J+" not in failed


@pytest.mark.parametrize("factor", [
    ScalarField(Poly.const(-4), 1),
    ScalarField(Poly.const(QI(0, 4)), 1),
    ScalarField(Poly.const(4) + variable(0) * variable(0) * 4, 1),
], ids=["negative", "imaginary", "not-constant"])
def test_common_metric_positive_fails_off_positive_constants(geo, factor):
    fake = dataclasses.replace(geo, metric=ConformalMetric(factor, geo.metric.base))
    assert [(c.name, c.status) for c in verify_positive_metric(fake)] == \
        [("hopf.common-metric.positive", "fail")]


def test_flipped_dc_sign_fails_the_positive_metric():
    # d^c with the other sign negates every w_L, hence the metric and every
    # torsion alike: each identity still holds, and only the sign of the
    # metric shows the flip
    import os
    import subprocess
    import sys

    import hkt4

    code = ("import json, hkt4.forms as forms; forms.DC_SIGN = -forms.DC_SIGN; "
            "from hkt4.suites import flat_suite, hopf_suite; "
            "print(json.dumps([c.name for c in hopf_suite(2) + flat_suite() "
            "if c.status != 'pass']))")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(hkt4.__file__))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["hopf.common-metric.positive",
                                       "flat.common-metric.positive"]


def test_verify_gauduchon(geo):
    assert all_pass(verify_gauduchon(geo))
    assert all_pass(verify_gauduchon(build_flat_control()))


def test_axis_family(geo):
    axes = [AxisTriple(1, 0, 0),
            AxisTriple(Fraction(3, 5), Fraction(4, 5), 0),
            AxisTriple(Fraction(2, 3), Fraction(2, 3), Fraction(1, 3)),
            AxisTriple(Fraction(1, 3), Fraction(2, 3), Fraction(-2, 3)),
            AxisTriple(Fraction(12, 13), Fraction(3, 13), Fraction(4, 13))]
    assert all_pass(verify_axis_family(geo, axes))


FRACTION_OPS = [f"__{r}{op}__" for op in ("add", "sub", "mul", "truediv", "pow")
                for r in ("", "r")]


def test_axis_family_makes_no_fraction_arithmetic(geo):
    # five fresh axes, drawn and verified on a warm geometry: the two frames'
    # certificates and the evaluations at each axis run in integers
    verify_axis_family(geo, [AxisTriple(1, 0, 0)])
    calls = []

    def counted(name, op):
        return lambda *args: calls.append(name) or op(*args)

    saved = {name: Fraction.__dict__[name] for name in FRACTION_OPS}
    try:
        for name, op in saved.items():
            setattr(Fraction, name, counted(name, op))
        rng = random.Random(2006)
        checks = verify_axis_family(geo, [random_rational_axis(rng) for _ in range(5)])
    finally:
        for name, op in saved.items():
            setattr(Fraction, name, op)
    assert len(checks) == 14 and all_pass(checks)
    assert calls == []


def _tampered_frame(geo):
    # the right frame replaced by the left one
    return dataclasses.replace(geo, right=geo.left,
                               structures={**geo.structures,
                                           "I-": geo.structures["I+"],
                                           "J-": geo.structures["J+"],
                                           "K-": geo.structures["K+"]})


def test_tampered_frame_fails_44(geo):
    # replacing the right frame by the left one breaks opposition and
    # independence
    checks = verify_44(_tampered_frame(geo))
    failed = {c.name for c in checks if c.status == "fail"}
    assert "hopf.torsion-opposition" in failed
    assert "hopf.frame-independence" in failed


# Every check verify_44 and verify_gauduchon report, in order.
CHECKS_44_GAUDUCHON = (
    [f"hopf.{side}.{name}" for side in ("left", "right")
     for name in ("torsion-equal-IJ", "torsion-equal-JK", "torsion-closed",
                  "torsion-nonzero", "del-Omega-zero")]
    + ["hopf.torsion-opposition", "hopf.torsion-plus-closed",
       "hopf.torsion-minus-closed", "hopf.frame-independence"]
    + [f"hopf.bihermitian.{p}{m}" for p in ("I+", "J+", "K+") for m in ("I-", "J-", "K-")]
    + [f"hopf.gauduchon.{name}" for name in ("I+", "J+", "K+", "I-", "J-", "K-")])


def _tampered_metric(geo):
    # (4 + 4 x0^2) / phi: still Hermitian for all six structures, but no
    # longer strong or Gauduchon
    x0 = variable(0)
    factor = ScalarField(Poly.const(4) + x0 * x0 * 4, 1)
    return dataclasses.replace(geo, metric=ConformalMetric(factor, geo.metric.base))


def _tampered_structure(geo):
    # I- read as I+, while the right frame keeps R_i: the pairs (L+, I-)
    # become same-side pairs
    return dataclasses.replace(geo, structures={**geo.structures,
                                                "I-": geo.structures["I+"]})


# The failing checks of each tampered geometry, recorded on the verifier
# that computed two torsion reports per bi-Hermitian pair; sharing one report
# per structure must not change any status.
@pytest.mark.parametrize("tamper, failing", [
    (_tampered_metric,
     {"hopf.left.torsion-closed", "hopf.right.torsion-closed",
      "hopf.torsion-plus-closed", "hopf.torsion-minus-closed"}
     | {f"hopf.bihermitian.{p}{m}" for p in ("I+", "J+", "K+") for m in ("I-", "J-", "K-")}
     | {f"hopf.gauduchon.{name}" for name in ("I+", "J+", "K+", "I-", "J-", "K-")}),
    (_tampered_structure,
     {"hopf.bihermitian.I+I-", "hopf.bihermitian.J+I-", "hopf.bihermitian.K+I-"}),
], ids=["metric-factor", "structure"])
def test_shared_torsion_reports_keep_every_status(geo, tamper, failing):
    fake = tamper(geo)
    statuses = [(c.name, c.status) for c in verify_44(fake) + verify_gauduchon(fake)]
    assert statuses == [(name, "fail" if name in failing else "pass")
                        for name in CHECKS_44_GAUDUCHON]


def _tampered_omega(omega_I_plus):
    return lambda geo: dataclasses.replace(
        geo, omegas={**geo.omegas, "I+": omega_I_plus(geo)})


@pytest.mark.parametrize("tamper", [
    _tampered_omega(lambda geo: geo.omegas["I+"] * geo.phi),
    _tampered_omega(lambda geo: geo.omegas["J+"]),
    _tampered_frame, _tampered_metric, _tampered_structure,
], ids=["omega-times-phi", "omega-swapped", "frame", "metric-factor", "structure"])
def test_torsion_closed_checks_agree_on_tampered_geometry(geo, tamper):
    # T+- are the torsions of the frames' I, so dT+- = 0 has the verdict of
    # each side's strong HKT check dH = 0
    status = {c.name: c.status for c in verify_44(tamper(geo))}
    assert status["hopf.torsion-plus-closed"] == status["hopf.left.torsion-closed"]
    assert status["hopf.torsion-minus-closed"] == status["hopf.right.torsion-closed"]


def test_hopf_suite_repeats_no_exact_work(geo, monkeypatch):
    # each (L, form) is twisted once, and w_I+(., I+.) is read once, when
    # the geometry is built, for the metric and the six metric matrices; the flat
    # control reads only its own w_I+(., I+.)
    from hkt4 import forms, hermitian, hopf
    from hkt4.suites import flat_suite, hopf_suite

    I_plus = (geo.omegas["I+"], geo.structures["I+"])
    twisted, metrics = [], []

    def counted_twisted_d(L, a):
        twisted.append((L, a))
        return forms.twisted_d(L, a)

    def counted_metric(omega, L):
        metrics.append((omega, L))
        return hermitian.metric_from_form(omega, L)

    for module in (hopf, hermitian):
        monkeypatch.setattr(module, "twisted_d", counted_twisted_d)
    monkeypatch.setattr(hopf, "metric_from_form", counted_metric)
    assert all_pass(hopf_suite(Fraction(2), seed=0))
    assert len(set(twisted)) == len(twisted)
    assert metrics.count(I_plus) == 1
    twisted.clear()
    metrics.clear()
    assert all_pass(flat_suite())
    assert len(set(twisted)) == len(twisted)
    assert len(metrics) == 1


def test_passing_suites_build_no_sum_of_forms(monkeypatch):
    # a passing identity is decided by comparing canonical sides
    from hkt4.suites import flat_suite, hopf_suite

    calls = []
    combine = RationalForm._combine
    monkeypatch.setattr(RationalForm, "_combine",
                        lambda self, other, sign: calls.append(sign) or combine(self, other, sign))
    assert all_pass(hopf_suite(Fraction(2), seed=0))
    assert all_pass(flat_suite())
    assert calls == []


def test_verify_44_negates_each_right_torsion_once(monkeypatch):
    # the nine pairs and the opposition T+ = -T- share three negations
    fresh = build_hopf(Fraction(5, 2))
    right = {id(fresh.torsions[L].torsion_H) for L in fresh.right.matrices()}
    negated = []
    neg = RationalForm.__neg__
    monkeypatch.setattr(RationalForm, "__neg__", lambda a: negated.append(id(a)) or neg(a))
    assert all_pass(verify_44(fresh))
    assert sorted(negated) == sorted(right)


AXES = [AxisTriple(1, 0, 0), AxisTriple(Fraction(2, 3), Fraction(2, 3), Fraction(1, 3))]
AXIS_TORSIONS = {f"hopf.axis-torsion.({a.a},{a.b},{a.c})" for a in AXES}


def _scratch_structure(frame, axis):
    """L = a I + b J + c K and w_L = d d^c_L phi / phi built from scratch:
    the oracle of the axis family."""
    L = frame.span_structure(axis)
    return L, _potential_form(L, ScalarField.phi(), ScalarField.inv_phi())


def _identity_differences(geo):
    """Each identity the verifiers decide by comparing sides, with the
    difference of its sides: its defect when the check fails. An axis
    torsion's sides are those of the scratch oracle, which reads no
    ``geo.omegas``."""
    torsion = {L: rep.torsion_H for L, rep in geo.torsions.items()}
    out = {}
    for side, frame in (("left", geo.left), ("right", geo.right)):
        out[f"hopf.{side}.torsion-equal-IJ"] = torsion[frame.I] - torsion[frame.J]
        out[f"hopf.{side}.torsion-equal-JK"] = torsion[frame.J] - torsion[frame.K]
    out["hopf.torsion-opposition"] = geo.H_plus + geo.H_minus
    for name, L in geo.structures.items():
        out[f"hopf.hermitian-form.{name}"] = geo.torsions[L].omega - geo.omegas[name]
    for name in STRUCTURE_NAMES:
        omega = geo.omegas[name]
        out[f"hopf.descent.omega-{name}"] = scale_pullback(omega, geo.q) - omega
    out["hopf.descent.H-plus"] = scale_pullback(geo.H_plus, geo.q) - geo.H_plus
    out["hopf.descent.H-minus"] = scale_pullback(geo.H_minus, geo.q) - geo.H_minus
    for axis in AXES:
        L, omega = _scratch_structure(geo.left, axis)
        out[f"hopf.axis-torsion.({axis.a},{axis.b},{axis.c})"] = \
            twisted_d(L, omega) - geo.H_plus
    return out


def _swapped_torsion(geo):
    # the torsion report of J+ replaced by that of J-
    fake = dataclasses.replace(geo)
    fake.torsions = {**geo.torsions, geo.left.J: geo.torsions[geo.right.J]}
    return fake


HERMITIAN_FORMS = {f"hopf.hermitian-form.{name}" for name in STRUCTURE_NAMES}


# The failing compared identities of each tampered geometry. The axis
# torsions read the geometry's w_I+, w_J+ and w_K+, so a tampered w_I+ fails
# them too (AXIS_TORSIONS), where the scratch oracle, which builds w_L from
# phi, does not see the tamper: those sets only grew.
@pytest.mark.parametrize("tamper, failing", [
    (_tampered_omega(lambda geo: geo.omegas["I+"] * geo.phi),
     {"hopf.hermitian-form.I+", "hopf.descent.omega-I+"} | AXIS_TORSIONS),
    (_tampered_omega(lambda geo: geo.omegas["J+"]), {"hopf.hermitian-form.I+"} | AXIS_TORSIONS),
    (_tampered_frame, {"hopf.torsion-opposition", "hopf.hermitian-form.I-",
                       "hopf.hermitian-form.J-", "hopf.hermitian-form.K-"}),
    (_tampered_metric, HERMITIAN_FORMS | {"hopf.descent.H-plus", "hopf.descent.H-minus"}
     | AXIS_TORSIONS),
    (_tampered_structure, {"hopf.hermitian-form.I-"}),
    (_swapped_torsion, {"hopf.left.torsion-equal-IJ", "hopf.left.torsion-equal-JK",
                        "hopf.hermitian-form.J+"}),
], ids=["omega-times-phi", "omega-swapped", "frame", "metric-factor", "structure",
        "torsion-swapped"])
def test_compared_identities_keep_status_and_defect(geo, tamper, failing):
    # each status and defect is the one the difference of the two sides
    # gives; an axis torsion may fail on a tampered w where the oracle does not
    fake = tamper(geo)
    checks = {c.name: c for c in verify_44(fake) + verify_common_metric(fake)
              + verify_descent(fake) + verify_axis_family(fake, AXES)}
    differences = _identity_differences(fake)
    assert {name for name in differences if checks[name].status == "fail"} == failing
    for name, difference in differences.items():
        got = checks[name]
        if not difference.is_zero():
            assert (got.status, got.defect) == ("fail", difference.max_abs_coeff()), name
        elif name in failing:
            assert name in AXIS_TORSIONS and fake.omegas is not geo.omegas, name
            assert got.status == "fail" and got.defect > 0, name
        else:
            assert (got.status, got.defect) == ("pass", "exact-zero"), name


FRAMES = [("left", STRUCTURE_NAMES[:3]), ("right", STRUCTURE_NAMES[3:])]


@pytest.mark.parametrize("side, names", FRAMES, ids=["left", "right"])
def test_axis_family_equals_the_scratch_oracle(geo, side, names):
    # the bilinear forms at a unit axis are the metric and the torsion of
    # the structure built from scratch there, on either frame
    frame = geo.left if side == "left" else geo.right
    metric, torsion = _axis_family(geo, names)
    rng = random.Random(41)
    axes = [random_rational_axis(rng) for _ in range(20)] + [AxisTriple(0, 0, -1)]
    for axis in axes:
        L, omega = _scratch_structure(frame, axis)
        assert _torsion_at(axis, torsion) == twisted_d(L, omega), axis
        assert _metric_at(axis, metric) == metric_from_form(omega, L), axis
    # every cross sum vanishes while the terms it sums do not
    assert all(torsion[p].is_zero() for p in PAIRS)
    assert not twisted_action(geo.structures[names[0]],
                              exterior_d(geo.omegas[names[1]])).is_zero()


def _plus_constant(name, form):
    return lambda geo: dataclasses.replace(geo, omegas={**geo.omegas,
                                                        name: geo.omegas[name] + form})


DX01 = RationalForm.basis((0, 1))
X0_DX23 = RationalForm(2, {(2, 3): variable(0)})


@pytest.mark.parametrize("tamper, failing", [
    # a constant 2-form is closed: it breaks a metric cross sum only
    (_plus_constant("J+", DX01), {"hopf.axis-family.left.metric"}),
    (_plus_constant("J-", DX01), {"hopf.axis-family.right.metric"}),
    # x0 dx2^dx3 is not closed: it breaks a torsion cross sum too
    (_plus_constant("K+", X0_DX23), {"hopf.axis-family.left.metric",
                                     "hopf.axis-family.left.torsion"}),
    (_plus_constant("K-", X0_DX23), {"hopf.axis-family.right.metric",
                                     "hopf.axis-family.right.torsion"}),
], ids=["left-constant", "right-constant", "left-open", "right-open"])
def test_axis_family_certificates_fail_on_tampered_omegas(geo, tamper, failing):
    fake = tamper(geo)
    checks = {c.name: c for c in verify_axis_family(fake, [])}
    assert {name for name, c in checks.items() if c.status == "fail"} == failing
    # the defect is the size of the first cross sum, in PAIRS order, that
    # does not vanish, each sum built here from its two scratch terms
    for side, names in FRAMES:
        w = [fake.omegas[name] for name in names]
        L = [fake.structures[name] for name in names]
        metric_sums = [[metric_from_form(w[i], L[j])[r][c] + metric_from_form(w[j], L[i])[r][c]
                        for r in range(4) for c in range(4)] for i, j in PAIRS]
        torsion_sums = [twisted_action(L[i], exterior_d(w[j])) + twisted_action(L[j], exterior_d(w[i]))
                        for i, j in PAIRS]
        sizes = {"metric": [max(f.max_abs_coeff() for f in s) for s in metric_sums],
                 "torsion": [s.max_abs_coeff() for s in torsion_sums]}
        for kind, size in sizes.items():
            got = checks[f"hopf.axis-family.{side}.{kind}"]
            nonzero = [x for x in size if x]
            assert got.defect == (nonzero[0] if nonzero else "exact-zero"), (side, kind)


def test_fresh_axes_build_no_structure(geo, monkeypatch):
    # a warm request evaluates the certificates at its axes: no axis
    # structure is spanned and no compound-matrix table is built
    from hkt4 import forms
    from hkt4.suites import hopf_suite

    hopf_suite(Fraction(2), seed=0, axes=5)
    spans = []
    span = HypercomplexFrame.span_structure
    monkeypatch.setattr(HypercomplexFrame, "span_structure",
                        lambda self, axis: spans.append(axis) or span(self, axis))
    misses = forms._minors.cache_info().misses
    assert all_pass(hopf_suite(Fraction(7, 3), seed=2006, axes=5))
    assert spans == []
    assert forms._minors.cache_info().misses == misses


def test_build_hopf_accepts_plain_rational():
    build_hopf(2)
    build_hopf(Fraction(5, 2))
    with pytest.raises(ValueError):
        build_hopf(1)


def test_torsions_computed_once_per_geometry(monkeypatch):
    from hkt4 import hermitian, hopf

    calls = []

    def counted(g, L):
        calls.append(L)
        return hermitian.bismut_torsion(g, L)

    monkeypatch.setattr(hopf, "bismut_torsion", counted)
    fresh = build_hopf(Fraction(3, 2))
    checks = (verify_common_metric(fresh) + verify_44(fresh) + verify_gauduchon(fresh)
              + verify_strong_hkt(fresh, "left"))
    assert all_pass(checks)
    assert sorted(calls) == sorted(fresh.structures.values())
    # a replaced geometry does not inherit the reports of the original
    tampered = _tampered_metric(fresh)
    assert not all_pass(verify_gauduchon(tampered))
    assert len(calls) == 12


def test_operator_caches_stay_bounded_over_fresh_axes():
    # fresh axes add no operator: after a first request every lookup hits
    from hkt4 import forms
    from hkt4.suites import hopf_suite

    caches = (forms._minors, forms._action_matrix, forms._pq_matrix)
    hopf_suite(Fraction(2), seed=999)
    misses = [cache.cache_info().misses for cache in caches]
    for seed in range(1000, 1070):
        hopf_suite(Fraction(2), seed=seed)
        assert [cache.cache_info().misses for cache in caches] == misses
        assert all(cache.cache_info().currsize <= forms.OPERATOR_CACHE_SIZE for cache in caches)


def test_each_structure_is_checked_once(monkeypatch):
    # from cold caches, one hopf_suite checks each structure the compound
    # matrices meet once, whatever the degrees and projectors it asks for
    from hkt4 import forms
    from hkt4.suites import hopf_suite

    for cache in (forms._minors, forms._action_matrix, forms._pq_matrix):
        cache.cache_clear()
    checked, met = [], set()
    integer_matrix, action_matrix = forms._integer_matrix, forms._action_matrix

    def counted(L):
        checked.append(L)
        return integer_matrix(L)

    def spied(L, degree):
        met.add(L)
        return action_matrix(L, degree)

    monkeypatch.setattr(forms, "_integer_matrix", counted)
    monkeypatch.setattr(forms, "_action_matrix", spied)
    hopf_suite(Fraction(7, 3), seed=4)
    frames = (HypercomplexFrame.left(), HypercomplexFrame.right())
    assert met == {L for frame in frames for L in frame.matrices()}
    assert sorted(checked) == sorted(met)
