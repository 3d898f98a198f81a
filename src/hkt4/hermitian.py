"""Hermitian forms, Bismut torsion 3-forms, Gauduchon and strong-KT checks,
HKT and bi-Hermitian verification on the flat chart.

The metric may carry an exact conformal factor (a ScalarField), which is how
the Hopf metric enters: factor * constant base metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .exact import QI, ScalarField, _lincomb
from .forms import (
    RationalForm,
    exterior_d,
    pq_project,
    twisted_d,
    ConstantMetric,
)
from .quaternions import (
    HypercomplexFrame,
    Matrix,
    mat_mul,
    mat_transpose,
)


@dataclass(frozen=True)
class ConformalMetric:
    """factor * base with an exact ScalarField factor, positive on the chart.

    Positivity of the factor is the caller's responsibility; the factors used
    here (constants and 1/phi multiples) are manifestly positive.
    """

    factor: ScalarField
    base: ConstantMetric

    @staticmethod
    def from_constant(base: ConstantMetric) -> "ConformalMetric":
        return ConformalMetric(ScalarField.const(1), base)


def _as_conformal(g) -> ConformalMetric:
    if isinstance(g, ConformalMetric):
        return g
    if isinstance(g, ConstantMetric):
        return ConformalMetric.from_constant(g)
    raise TypeError(f"not a metric: {g!r}")


def check_hermitian(g, L: Matrix) -> bool:
    """Exact check of g(LX, LY) = g(X, Y); the conformal factor is immaterial."""
    base = _as_conformal(g).base.matrix
    return mat_mul(mat_transpose(L), mat_mul(base, L)) == base


def hermitian_form(g, L: Matrix) -> RationalForm:
    """The 2-form omega_L = g(L., .) of an L-Hermitian metric."""
    gm = _as_conformal(g)
    if not check_hermitian(gm, L):
        raise ValueError("metric is not Hermitian for the given structure")
    W = mat_mul(mat_transpose(L), gm.base.matrix)
    coeffs = {}
    for a in range(4):
        for b in range(a + 1, 4):
            if W[a][b] != 0:
                coeffs[(a, b)] = gm.factor * QI(W[a][b])
    return RationalForm(2, coeffs)


def metric_from_form(omega: RationalForm, L: Matrix):
    """Bilinear form omega(., L.) as a 4x4 matrix of ScalarFields: entry
    (a, b) is sum_c omega_ac L_cb, one fused linear combination."""
    def entry(a, b):
        terms = []
        for c in range(4):
            v = L[c][b]
            f = omega.coeffs.get((a, c) if a < c else (c, a)) if v and a != c else None
            if f is not None:
                x = v.numerator if a < c else -v.numerator
                terms.append((x, 0, v.denominator, f))
        return _lincomb(terms)

    return tuple(tuple(entry(a, b) for b in range(4)) for a in range(4))


@dataclass
class TorsionReport:
    """Torsion data of the Bismut connection for one Hermitian pair (g, L):
    the torsion 3-form torsion_H = d^c_L omega_L and its differential. For
    an L-Hermitian metric L omega_L = omega_L, so L(d omega_L) = -torsion_H;
    the tests pin that convention."""

    omega: RationalForm
    torsion_H: RationalForm
    dH: RationalForm

    @property
    def strong(self) -> bool:
        return self.dH.is_zero()

    def bihermitian_with(self, other: "TorsionReport") -> bool:
        """True iff the two Bismut torsion 3-forms are exact negatives of
        each other and both are closed (dH = 0)."""
        return self.torsion_H == -other.torsion_H and self.strong and other.strong


def bismut_torsion(g, L: Matrix) -> TorsionReport:
    omega = hermitian_form(g, L)
    H = twisted_d(L, omega)
    return TorsionReport(omega=omega, torsion_H=H, dH=exterior_d(H))


def gauduchon_defect(g, L: Matrix) -> RationalForm:
    """The 4-form d d^c_L omega_L; zero exactly when g is Gauduchon for L
    (surface case of the dd^c condition)."""
    return bismut_torsion(g, L).dH


@dataclass
class HKTReport:
    """HKT data of a hyperhermitian pair (g, frame) with respect to I; the
    torsion differences are I - J, J - K and I - K."""

    Omega: RationalForm
    del_Omega: RationalForm
    torsion_differences: Tuple[RationalForm, RationalForm, RationalForm]
    strong: bool
    H: RationalForm

    @property
    def hyperkahler(self) -> bool:
        return self.H.is_zero()


def hkt_report(g, frame: HypercomplexFrame) -> HKTReport:
    return hkt_from_torsions(frame, [bismut_torsion(g, L) for L in frame.matrices()])


def hkt_from_torsions(frame: HypercomplexFrame, reports) -> HKTReport:
    """HKT data of (g, frame) from the torsion reports of g for I, J, K."""
    HI, HJ, HK = (rep.torsion_H for rep in reports)
    Omega = reports[1].omega + reports[2].omega * QI(0, 1)
    del_Omega = pq_project(frame.I, exterior_d(Omega), 3, 0)
    return HKTReport(Omega=Omega, del_Omega=del_Omega,
                     torsion_differences=(HI - HJ, HJ - HK, HI - HK),
                     strong=reports[0].strong, H=HI)
