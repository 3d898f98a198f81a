"""Hermitian forms, Bismut torsion, Gauduchon defects, HKT and bi-Hermitian
checks on the flat chart and the conformally flat Hopf chart."""

from fractions import Fraction

import pytest

from hkt4.exact import Poly, QI, ScalarField
from hkt4.forms import (
    ConstantMetric,
    RationalForm,
    exterior_d,
    pq_project,
    structure_action,
    wedge,
)
from hkt4.hermitian import (
    ConformalMetric,
    bismut_torsion,
    check_hermitian,
    gauduchon_defect,
    hermitian_form,
    hkt_report,
    metric_from_form,
)
from hkt4.hopf import build_hopf
from hkt4.quaternions import AxisTriple, HypercomplexFrame, mat_mul


def transpose(m):
    return tuple(zip(*m))


def is_hkt(rep):
    """The three Bismut torsions of the frame coincide."""
    HI, HJ, HK = rep.torsions
    return HI == HJ == HK


def variable(i):
    """The coordinate x_i as a polynomial."""
    return Poly({tuple(int(j == i) for j in range(4)): 1})


LEFT = HypercomplexFrame.left()
RIGHT = HypercomplexFrame.right()
EUCLID = ConstantMetric.euclidean()


def hopf_metric():
    # 4/phi times the Euclidean metric, the common metric of the Hopf chart
    return ConformalMetric(ScalarField(Poly.const(4), 1), EUCLID)


def test_check_hermitian():
    assert check_hermitian(EUCLID, LEFT.I)
    assert check_hermitian(EUCLID, RIGHT.K)
    g = ConstantMetric([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert not check_hermitian(g, LEFT.I)


def test_hermitian_form_frozen_examples():
    # derived by evaluating g(L e_a, e_b) from the structure matrices
    w_i = hermitian_form(EUCLID, LEFT.I)
    assert w_i == RationalForm(2, {(0, 1): ScalarField.const(1),
                                   (2, 3): ScalarField.const(1)})
    w_j = hermitian_form(EUCLID, LEFT.J)
    assert w_j == RationalForm(2, {(0, 2): ScalarField.const(1),
                                   (1, 3): ScalarField.const(-1)})
    w_k = hermitian_form(EUCLID, LEFT.K)
    assert w_k == RationalForm(2, {(0, 3): ScalarField.const(1),
                                   (1, 2): ScalarField.const(1)})


def test_hermitian_form_normalization():
    for L in LEFT.matrices():
        w = hermitian_form(EUCLID, L)
        assert wedge(w, w) == RationalForm.basis((0, 1, 2, 3)) * Fraction(2)


def test_hermitian_form_rejects_bad_metric():
    g = ConstantMetric([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(ValueError):
        hermitian_form(g, LEFT.I)


def test_hermitian_form_is_11():
    for L in (*LEFT.matrices(), *RIGHT.matrices()):
        w = hermitian_form(hopf_metric(), L)
        assert pq_project(L, w, 2, 0).is_zero()
        assert (pq_project(L, w, 1, 1) - w).is_zero()


def test_bismut_torsion_flat():
    for L in (*LEFT.matrices(), *RIGHT.matrices()):
        rep = bismut_torsion(EUCLID, L)
        assert rep.torsion_H.is_zero()
        assert rep.strong


def test_bismut_torsion_hopf_nonzero_closed():
    rep = bismut_torsion(hopf_metric(), LEFT.I)
    assert not rep.torsion_H.is_zero()
    assert rep.dH.is_zero()
    # torsion of a conformally flat metric: frozen hand expansion
    x = [ScalarField(variable(i), 1) for i in range(4)]  # x_i / phi
    expected = RationalForm(3, {
        (0, 1, 2): x[3] * ScalarField(Poly.const(8), 1),
        (0, 1, 3): x[2] * ScalarField(Poly.const(-8), 1),
        (0, 2, 3): x[1] * ScalarField(Poly.const(8), 1),
        (1, 2, 3): x[0] * ScalarField(Poly.const(-8), 1),
    })
    assert rep.torsion_H == expected


def test_torsion_convention_T_equals_minus_H():
    # the ledger's T / H = -1: T = L(d omega_L) is -d^c_L omega_L for every
    # L-Hermitian metric, since L omega_L = omega_L
    geo = build_hopf(2)
    x0 = variable(0)
    tampered = ConformalMetric(ScalarField(Poly.const(4) + x0 * x0 * 4, 1), EUCLID)
    axes = (AxisTriple(Fraction(3, 5), Fraction(4, 5), 0),
            AxisTriple(Fraction(2, 3), Fraction(2, 3), Fraction(1, 3)),
            AxisTriple(Fraction(12, 13), Fraction(3, 13), Fraction(4, 13)))
    six = (*LEFT.matrices(), *RIGHT.matrices())
    cases = ([(geo.metric, L) for L in geo.structures.values()]
             + [(EUCLID, L) for L in six] + [(tampered, L) for L in six]
             + [(geo.metric, frame.span_structure(axis))
                for frame in (LEFT, RIGHT) for axis in axes])
    for g, L in cases:
        rep = bismut_torsion(g, L)
        T = structure_action(L, exterior_d(rep.omega))
        assert (T + rep.torsion_H).is_zero()


def test_hkt_Omega_is_20_for_I():
    for g in (hopf_metric(), EUCLID):
        for frame in (LEFT, RIGHT):
            Omega = hkt_report(g, frame).Omega
            assert not Omega.is_zero()
            assert (pq_project(frame.I, Omega, 2, 0) - Omega).is_zero()


def test_gauduchon_defect_flat_and_hopf():
    assert gauduchon_defect(EUCLID, LEFT.J).is_zero()
    for L in (*LEFT.matrices(), *RIGHT.matrices()):
        assert gauduchon_defect(hopf_metric(), L).is_zero()


def test_gauduchon_defect_generic_conformal_factor():
    # (1 + x0^2) * euclidean breaks the condition; frozen expansion gives
    # d d^c w = 2 dx0123
    factor = ScalarField(Poly.const(1) + variable(0) * variable(0), 0)
    g = ConformalMetric(factor, EUCLID)
    defect = gauduchon_defect(g, LEFT.I)
    assert defect == RationalForm.basis((0, 1, 2, 3)) * Fraction(2)


def test_hkt_report_flat_is_hyperkahler():
    rep = hkt_report(EUCLID, LEFT)
    assert is_hkt(rep) and rep.strong and rep.hyperkahler
    assert rep.del_Omega.is_zero()
    # Omega = w_J + i w_K is dz1 ^ dz2
    half = QI(1)
    expected = RationalForm(2, {(0, 2): ScalarField.const(half),
                                (1, 3): ScalarField.const(-half),
                                (0, 3): ScalarField.const(QI(0, 1)),
                                (1, 2): ScalarField.const(QI(0, 1))})
    assert rep.Omega == expected


def test_hkt_report_hopf():
    rep = hkt_report(hopf_metric(), LEFT)
    assert is_hkt(rep) and rep.strong
    assert not rep.hyperkahler


def test_hkt_report_del_omega_vanishes_even_for_odd_metrics():
    # any hyperhermitian metric on the 4-chart has del Omega = 0 since there
    # are no (3,0) forms; use a random metric averaged over 1, I, J, K
    g0 = ((2, 1, 0, 0), (1, 3, 0, 0), (0, 0, 1, 0), (0, 0, 0, 5))
    pulled = [g0] + [mat_mul(transpose(L), mat_mul(g0, L)) for L in LEFT.matrices()]
    g = ConstantMetric([[Fraction(sum(m[i][j] for m in pulled), 4) for j in range(4)]
                        for i in range(4)])
    rep = hkt_report(g, LEFT)
    assert rep.del_Omega.is_zero()


def test_hkt_report_conformal_non_gauduchon():
    # a conformal rescaling of a hyperhermitian metric stays HKT on the
    # 4-chart (no (3,0) forms), but a generic factor breaks strong-ness
    factor = ScalarField(Poly.const(1) + variable(0) * variable(0), 0)
    g = ConformalMetric(factor, EUCLID)
    rep = hkt_report(g, LEFT)
    assert is_hkt(rep)       # the three torsion forms still coincide
    assert not rep.strong    # dH = 2 dx0123 != 0
    assert not rep.hyperkahler
    assert rep.del_Omega.is_zero()


def test_hkt_report_rejects_non_hyperhermitian():
    g = ConstantMetric([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(ValueError):
        hkt_report(g, LEFT)


def test_metric_from_form_recovers_metric():
    w = hermitian_form(hopf_metric(), LEFT.J)
    M = metric_from_form(w, LEFT.J)
    factor = ScalarField(Poly.const(4), 1)
    for a in range(4):
        for b in range(4):
            expected = factor if a == b else ScalarField.const(0)
            assert M[a][b] == expected


def test_bihermitian_check():
    g = hopf_metric()
    assert bismut_torsion(g, LEFT.I).bihermitian_with(bismut_torsion(g, RIGHT.I))
    assert bismut_torsion(g, LEFT.J).bihermitian_with(bismut_torsion(g, RIGHT.K))
    # same-side pairs have equal (not opposite) nonzero torsions
    assert not bismut_torsion(g, LEFT.I).bihermitian_with(bismut_torsion(g, LEFT.J))
    # flat: both torsions vanish, opposition is trivial
    flat_i = bismut_torsion(EUCLID, LEFT.I)
    assert flat_i.bihermitian_with(bismut_torsion(EUCLID, RIGHT.I))
    assert flat_i.bihermitian_with(flat_i)


def test_bihermitian_check_self_pair_iff_torsion_free():
    hopf_i = bismut_torsion(hopf_metric(), LEFT.I)
    assert not hopf_i.bihermitian_with(hopf_i)
    flat_j = bismut_torsion(EUCLID, LEFT.J)
    assert flat_j.bihermitian_with(flat_j)
