"""Quaternionic Hopf surface verifier.

All computation happens on the punctured chart; invariance of the forms
under x -> q x certifies descent to the quotient. Built from the potential
phi = r^2: the six Hermitian forms d d^c_L phi / phi, the common metric they
induce, and the torsion 3-forms of both frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional

from .exact import ScalarField, _frac
from .forms import ConstantMetric, RationalForm, exterior_d, scale_pullback, twisted_d
from .hermitian import (
    ConformalMetric,
    TorsionReport,
    bismut_torsion,
    hkt_from_torsions,
    metric_from_form,
)
from .quaternions import HypercomplexFrame, Matrix, independence_rank
from .report import EXACT_ZERO, CheckRecorder, CheckResult

STRUCTURE_NAMES = ("I+", "J+", "K+", "I-", "J-", "K-")


@dataclass(frozen=True)
class HopfSpec:
    """Real multiplier q > 1 of the cyclic group acting by x -> q x."""

    q: Fraction

    def __init__(self, q):
        q = _frac(q)
        if q <= 1:
            raise ValueError("the multiplier must satisfy q > 1")
        object.__setattr__(self, "q", q)


@dataclass
class HopfGeometry:
    """Chart data built from the potential phi = r^2: the six forms
    w_L = d d^c_L phi * s and the metric read off w_I+(., I+.). The torsion
    reports, T+-, and the six metric matrices are derived from these on first
    use. ``spec`` is None for the flat control, which has no quotient.
    Nothing is checked here; the verifiers below report."""

    spec: Optional[HopfSpec]
    phi: ScalarField
    left: HypercomplexFrame
    right: HypercomplexFrame
    structures: Dict[str, Matrix]
    omegas: Dict[str, RationalForm]
    metric: Optional[ConformalMetric] = None
    _matrices: Dict[str, tuple] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.metric = self.metric or ConformalMetric(self.metric_matrix("I+")[0][0],
                                                     ConstantMetric.euclidean())

    @property
    def q(self) -> Fraction:
        return self.spec.q

    @cached_property
    def torsions(self) -> Dict[Matrix, TorsionReport]:
        """The torsion report of ``metric`` for each structure of ``structures``
        and both frames, computed on first use; every verifier reads these."""
        return {L: bismut_torsion(self.metric, L) for L in {
            *self.structures.values(), *self.left.matrices(), *self.right.matrices()}}

    @property
    def H_plus(self) -> RationalForm:
        """T+ = d^c_I+ w_I+, the Bismut torsion of ``metric`` for I+."""
        return self.torsions[self.left.I].torsion_H

    @property
    def H_minus(self) -> RationalForm:
        """T- = d^c_I- w_I-, the Bismut torsion of ``metric`` for I-."""
        return self.torsions[self.right.I].torsion_H

    def metric_matrix(self, name: str) -> tuple:
        """w_L(., L.) of the named structure, computed once per geometry; a
        dataclasses.replace copy starts afresh from its own omegas."""
        if name not in self._matrices:
            self._matrices[name] = metric_from_form(self.omegas[name], self.structures[name])
        return self._matrices[name]


def _potential_form(L: Matrix, phi: ScalarField, scale) -> RationalForm:
    """w_L = d d^c_L phi * scale."""
    return exterior_d(twisted_d(L, RationalForm.function(phi))) * scale


def _build(spec: Optional[HopfSpec], scale: ScalarField | Fraction) -> HopfGeometry:
    phi = ScalarField.phi()
    left = HypercomplexFrame.left()
    right = HypercomplexFrame.right()
    structures = dict(zip(STRUCTURE_NAMES, (*left.matrices(), *right.matrices())))
    omegas = {name: _potential_form(L, phi, scale) for name, L in structures.items()}
    return HopfGeometry(spec=spec, phi=phi, left=left, right=right,
                        structures=structures, omegas=omegas)


def build_hopf(spec: HopfSpec | Fraction | int) -> HopfGeometry:
    """The Hopf chart: w_L = d d^c_L phi / phi, metric (4/phi) Euclid."""
    if not isinstance(spec, HopfSpec):
        spec = HopfSpec(spec)
    return _build(spec, ScalarField.inv_phi())


def build_flat_control() -> HopfGeometry:
    """Euclidean control: w_L = d d^c_L phi / 4 = g(L., .) for the flat
    metric, so every torsion form vanishes (the hyperkahler regime)."""
    return _build(None, Fraction(1, 4))


def verify_strong_hkt(geo: HopfGeometry, side: str) -> List[CheckResult]:
    """Certify that the metric is strong HKT for the requested frame: the
    three torsion 3-forms coincide, the common value is d-closed, and it is
    nonzero unless the metric is constant (the flat control)."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    rec = CheckRecorder()
    reports = geo.torsions
    frame = geo.left if side == "left" else geo.right
    tag = "+" if side == "left" else "-"
    rep = hkt_from_torsions(frame, [reports[L] for L in frame.matrices()])
    HI, HJ, HK = rep.torsions
    rec.equal(f"hopf.{side}.torsion-equal-IJ", HI, HJ,
              f"d^c_I{tag} w_I{tag} = d^c_J{tag} w_J{tag}")
    rec.equal(f"hopf.{side}.torsion-equal-JK", HJ, HK,
              f"d^c_J{tag} w_J{tag} = d^c_K{tag} w_K{tag}")
    rec.exact(f"hopf.{side}.torsion-closed", reports[frame.I].dH,
              "dH = 0 (strong HKT)")
    factor = geo.metric.factor
    if factor.k == 0 and factor.num.is_constant():
        rec.exact(f"hopf.{side}.torsion-zero", rep.H.is_zero(),
                  "hyperkahler iff H = 0")
    else:
        rec.exact(f"hopf.{side}.torsion-nonzero", not rep.H.is_zero(),
                  "H != 0 off the hyperkahler locus")
    rec.exact(f"hopf.{side}.del-Omega-zero", rep.del_Omega,
              "del Omega = 0 (hyperhermitian implies HKT on surfaces)")
    return rec.checks


def verify_44(geo: HopfGeometry) -> List[CheckResult]:
    """Certify the two-frame structure: opposite closed torsions and
    independent frames. A zero-torsion input passes the opposition trivially
    and is flagged as hyperkahler-degenerate. Both strong-HKT sides and the
    nine pairs read the torsion reports of ``geo.torsions``."""
    rec = CheckRecorder()
    reports = geo.torsions
    for side in ("left", "right"):
        rec.checks += verify_strong_hkt(geo, side)
    rec.equal("hopf.torsion-opposition", geo.H_plus, reports[geo.right.I].minus_H,
              "T+ = -T-")
    rec.exact("hopf.torsion-plus-closed", reports[geo.left.I].dH, "dT+ = 0")
    rec.exact("hopf.torsion-minus-closed", reports[geo.right.I].dH, "dT- = 0")
    rank = independence_rank(geo.left, geo.right)
    rec.add("hopf.frame-independence", rank == 6,
            EXACT_ZERO if rank == 6 else float(6 - rank),
            "rank span{I+,J+,K+,I-,J-,K-} = 6")
    for lname in ("I+", "J+", "K+"):
        for rname in ("I-", "J-", "K-"):
            ok = reports[geo.structures[lname]].bihermitian_with(
                reports[geo.structures[rname]])
            rec.exact(f"hopf.bihermitian.{lname}{rname}", ok,
                      "cross pairs (L+, L-) are bi-Hermitian")
    if geo.H_plus.is_zero():
        rec.add("hopf.hyperkahler-degenerate", True, EXACT_ZERO,
                "zero-torsion case: trivial opposition")
    return rec.checks


def verify_descent(geo: HopfGeometry) -> List[CheckResult]:
    """Pullback under x -> qx fixes the six Hermitian forms and both torsion
    forms; a deliberately non-invariant form keeps the check honest."""
    rec = CheckRecorder()
    q = geo.q
    for name in STRUCTURE_NAMES:
        rec.equal(f"hopf.descent.omega-{name}",
                  scale_pullback(geo.omegas[name], q), geo.omegas[name],
                  "forms descend to the quotient")
    rec.equal("hopf.descent.H-plus", scale_pullback(geo.H_plus, q), geo.H_plus,
              "torsion descends to the quotient")
    rec.equal("hopf.descent.H-minus", scale_pullback(geo.H_minus, q), geo.H_minus,
              "torsion descends to the quotient")
    dphi = exterior_d(RationalForm.function(geo.phi))
    rec.exact("hopf.descent.nonvacuous-control", scale_pullback(dphi, q) != dphi,
              "plumbing")
    return rec.checks


def verify_common_metric(geo: HopfGeometry) -> List[CheckResult]:
    """Compare the six bilinear forms w_L(., L.) pairwise, check that the
    common one is conformally Euclidean with the factor of ``geo.metric``,
    and that each w_L is the Hermitian form g(L., .) of that metric."""
    rec = CheckRecorder()
    base = geo.metric_matrix("I+")
    for name in STRUCTURE_NAMES[1:]:
        ok = geo.metric_matrix(name) == base
        rec.exact(f"hopf.common-metric.{name}", ok,
                  "the six w_L(., L.) induce one metric")
    factor, zero = geo.metric.factor, ScalarField.const(0)
    conformal = all(base[a][b] == (factor if a == b else zero)
                    for a in range(4) for b in range(4))
    rec.exact("hopf.common-metric.conformal", conformal,
              "the common metric is conformally Euclidean")
    for name, L in geo.structures.items():
        rec.equal(f"hopf.hermitian-form.{name}", geo.torsions[L].omega, geo.omegas[name],
                  "w_L = g(L., .) for the common metric")
    return rec.checks


def verify_gauduchon(geo: HopfGeometry) -> List[CheckResult]:
    """d d^c_L w_L = 0 for the six structures: the ``dH`` of each torsion
    report, which is ``hermitian.gauduchon_defect``."""
    rec = CheckRecorder()
    for name, L in geo.structures.items():
        rec.exact(f"hopf.gauduchon.{name}", geo.torsions[L].dH,
                  "d d^c_L w_L = 0 for every structure")
    return rec.checks


def verify_axis_family(geo: HopfGeometry, axes) -> List[CheckResult]:
    """Spot check: structures a I+ + b J+ + c K+ on rational unit axes give
    the same metric and the same torsion 3-form."""
    rec = CheckRecorder()
    inv_phi = ScalarField.inv_phi()
    reference = geo.metric_matrix("I+")
    for axis in axes:
        L = geo.left.span_structure(axis)
        omega = _potential_form(L, geo.phi, inv_phi)
        label = f"({axis[0]},{axis[1]},{axis[2]})" if not hasattr(axis, "a") \
            else f"({axis.a},{axis.b},{axis.c})"
        same_metric = metric_from_form(omega, L) == reference
        rec.exact(f"hopf.axis-metric.{label}", same_metric,
                  "every induced structure gives the same metric")
        rec.equal(f"hopf.axis-torsion.{label}", twisted_d(L, omega), geo.H_plus,
                  "every induced structure gives the same torsion")
    return rec.checks
