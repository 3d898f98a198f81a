"""Degree and slope certificates."""

import math
from fractions import Fraction

import numpy as np
import pytest

from hkt4.exact import QI, ScalarField
from hkt4.forms import RationalForm
from hkt4.invariants import degree, slope
from hkt4.lattice import LatticeField

OMEGA = RationalForm(2, {(0, 1): ScalarField.const(1),
                         (2, 3): ScalarField.const(1)})


def u1_field(entries, N=3):
    comps = {}
    for t, val in entries.items():
        comps[t] = np.full((N, N, N, N, 1, 1), val, dtype=complex)
    return LatticeField(2, N, 1, comps)


def test_flat_line_bundle_degree_zero():
    assert degree(RationalForm.zero(2), OMEGA) == 0.0
    assert degree(u1_field({}), OMEGA) == 0.0


def test_degree_suite_fails_on_a_wrong_unit_cell_weight(monkeypatch):
    # degree.flat-line-bundle integrates F = d(i x0^2 (1 - x0)^2 dx1), whose
    # integral is 0 only under the weights 1/(e + 1) of the monomials x^e
    from hkt4 import invariants, suites

    def off_by_one(f):
        total = QI(0)
        for mono, c in f.num.coeffs.items():
            total = total + c * Fraction(1, math.prod(e + 2 for e in mono))
        return total

    def status():
        (check,) = [c for c in suites.degree_suite() if c.name == "degree.flat-line-bundle"]
        return check.status

    assert status() == "pass"
    monkeypatch.setattr(invariants, "_integrate_unit_cell", off_by_one)
    assert status() == "fail"


def test_unit_chern_class_degree():
    # F = -2 pi i dx0^dx1 on the unit torus pairs to magnitude 1
    F = u1_field({(0, 1): -2j * math.pi})
    d = degree(F, OMEGA)
    assert abs(abs(d) - 1.0) < 1e-12
    assert abs(d - 1.0) < 1e-12  # ledger sign: +1


def test_symbolic_degree_matches_lattice():
    # rational stand-in: F = i dx0^dx1, degree = -1/(2 pi)
    F_sym = RationalForm(2, {(0, 1): ScalarField.const(QI(0, 1))})
    d_sym = degree(F_sym, OMEGA)
    F_lat = u1_field({(0, 1): 1j})
    d_lat = degree(F_lat, OMEGA)
    assert abs(d_sym - d_lat) < 1e-14
    assert abs(d_sym - (-1.0 / (2 * math.pi))) < 1e-15


def test_degree_additivity():
    F1 = u1_field({(0, 1): -2j * math.pi})
    F2 = u1_field({(2, 3): 4j * math.pi, (0, 1): -2j * math.pi})
    lhs = degree(F1 + F2, OMEGA)
    rhs = degree(F1, OMEGA) + degree(F2, OMEGA)
    assert abs(lhs - rhs) < 1e-12


def test_degree_exact_form_vanishes():
    # F = d(beta) for periodic beta: single-mode exact 2-form
    N = 4
    x = np.arange(N) / N
    wave = np.exp(2j * np.pi * x)
    beta = np.zeros((N, N, N, N, 1, 1), dtype=complex)
    beta[..., 0, 0] = 1j * wave[None, :, None, None]  # beta = i e^{2pi i x1} dx0
    from hkt4.lattice import d_raw
    beta_field = LatticeField(1, N, 1, {(0,): beta})
    F = LatticeField(2, N, 1, d_raw(beta_field.data, 1, N))
    assert abs(degree(F, OMEGA)) < 1e-12


def test_degree_rejects_matrix_curvature():
    bad = LatticeField.zeros(2, 3, 2)
    with pytest.raises(ValueError):
        degree(bad, OMEGA)


def test_degree_rejects_real_symbolic_coefficients():
    F = RationalForm(2, {(0, 1): ScalarField.const(1)})
    with pytest.raises(ValueError):
        degree(F, OMEGA)


def test_degree_linear_in_omega():
    F = u1_field({(0, 1): -2j * math.pi})
    w2 = RationalForm(2, {(0, 1): ScalarField.const(2),
                          (2, 3): ScalarField.const(2)})
    assert abs(degree(F, w2) - 2 * degree(F, OMEGA)) < 1e-12


def test_slope():
    assert slope(0.0, 5) == 0.0
    assert slope(3.0, 2) == 1.5
    assert slope(Fraction(3), 2) == 1.5
    with pytest.raises(ValueError):
        slope(1.0, 0)
    # direct sums average by total rank
    d1, r1, d2, r2 = 2.0, 2, -1.0, 3
    assert slope(d1 + d2, r1 + r2) == (d1 + d2) / (r1 + r2)
    # scaling
    assert slope(7 * 3.0, 2) == 7 * slope(3.0, 2)

