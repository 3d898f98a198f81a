"""Hermitian forms, Bismut torsion 3-forms, Gauduchon and strong-KT checks,
HKT and bi-Hermitian verification on the flat chart.

The metric may carry an exact conformal factor (a ScalarField), which is how
the Hopf metric enters: factor * constant base metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

from .exact import ScalarField, _lincomb
from .forms import (
    RationalForm,
    _form,
    _form_sum,
    exterior_d,
    pq_project,
    twisted_d,
    ConstantMetric,
)
from .quaternions import (
    HypercomplexFrame,
    Matrix,
    _dense_product,
    _integer_form,
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


def _pullback(g, L: Matrix):
    """(W, D D_B, W M == D^2 B): L^T g as W = M^T B over D D_B, and whether
    L^T g L = g, for the integer forms (D, M) of L and (D_B, B) of g's base."""
    D, M = _integer_form(L)
    DB, B = _integer_form(_as_conformal(g).base.matrix)
    W = _dense_product(list(zip(*M)), B)
    return W, D * DB, _dense_product(W, M) == [[D * D * b for b in row] for row in B]


def check_hermitian(g, L: Matrix) -> bool:
    """Exact check of g(LX, LY) = g(X, Y); the conformal factor is immaterial."""
    return _pullback(g, L)[2]


def hermitian_form(g, L: Matrix) -> RationalForm:
    """The 2-form omega_L = g(L., .) of an L-Hermitian metric, from ``_pullback``."""
    gm = _as_conformal(g)
    W, den, hermitian = _pullback(gm, L)
    if not hermitian:
        raise ValueError("metric is not Hermitian for the given structure")
    return _form(2, {(a, b): [(W[a][b], 0, den, gm.factor)]
                     for a in range(4) for b in range(a + 1, 4)}, _lincomb)


def metric_from_form(omega: RationalForm, L: Matrix):
    """Bilinear form omega(., L.) as a 4x4 matrix of ScalarFields: entry
    (a, b) is sum_c omega_ac L_cb, one fused linear combination over L's lcm D."""
    D, M = _integer_form(L)

    def entry(a, b):
        terms = []
        for c in range(4):
            v = M[c][b]
            f = omega.coeffs.get((a, c) if a < c else (c, a)) if v and a != c else None
            if f is not None:
                terms.append((v if a < c else -v, 0, D, f))
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

    @cached_property
    def minus_H(self) -> RationalForm:
        """-torsion_H, negated once per report."""
        return -self.torsion_H

    def bihermitian_with(self, other: "TorsionReport") -> bool:
        """True iff the two Bismut torsion 3-forms are exact negatives of
        each other and both are closed (dH = 0)."""
        return self.torsion_H == other.minus_H and self.strong and other.strong


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
    """HKT data of a hyperhermitian pair (g, frame) with respect to I: the
    three Bismut torsions of I, J and K, which coincide on an HKT pair, and
    H, the torsion of I."""

    Omega: RationalForm
    del_Omega: RationalForm
    torsions: Tuple[RationalForm, RationalForm, RationalForm]
    strong: bool

    @property
    def H(self) -> RationalForm:
        return self.torsions[0]

    @property
    def hyperkahler(self) -> bool:
        return self.H.is_zero()


def hkt_report(g, frame: HypercomplexFrame) -> HKTReport:
    return hkt_from_torsions(frame, [bismut_torsion(g, L) for L in frame.matrices()])


def hkt_from_torsions(frame: HypercomplexFrame, reports) -> HKTReport:
    """HKT data of (g, frame) from the torsion reports of g for I, J, K;
    Omega = w_J + sqrt(-1) w_K is one fused sum per coefficient."""
    Omega = _form_sum(2, [(1, 0, 1, reports[1].omega), (0, 1, 1, reports[2].omega)])
    del_Omega = pq_project(frame.I, exterior_d(Omega), 3, 0)
    return HKTReport(Omega=Omega, del_Omega=del_Omega,
                     torsions=tuple(rep.torsion_H for rep in reports),
                     strong=reports[0].strong)
