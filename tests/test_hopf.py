"""End-to-end exact verification of the Hopf chart geometry."""

import dataclasses
from fractions import Fraction

import pytest

from hkt4.exact import Poly, ScalarField
from hkt4.forms import RationalForm, exterior_d, scale_pullback
from hkt4.hermitian import ConformalMetric, metric_from_form
from hkt4.hopf import (
    HopfSpec,
    build_flat_control,
    build_hopf,
    verify_44,
    verify_axis_family,
    verify_common_metric,
    verify_descent,
    verify_gauduchon,
    verify_strong_hkt,
)
from hkt4.quaternions import AxisTriple


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
    from hkt4 import forms
    from hkt4.suites import hopf_suite

    for seed in range(1000, 1070):
        hopf_suite(Fraction(2), seed=seed)
        for cache in (forms._minors, forms._action_matrix, forms._pq_matrix):
            assert cache.cache_info().currsize <= forms.OPERATOR_CACHE_SIZE
    for cache in (forms._minors, forms._action_matrix):
        assert cache.cache_info().currsize == forms.OPERATOR_CACHE_SIZE


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
    assert len(met) > 6
    assert sorted(checked) == sorted(met)
