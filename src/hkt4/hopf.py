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

from .exact import _PHI_KEY, ScalarField, _frac, _lincomb
from .forms import (
    ConstantMetric,
    RationalForm,
    _form_sum,
    exterior_d,
    scale_pullback,
    twisted_action,
    twisted_d,
)
from .hermitian import (
    ConformalMetric,
    TorsionReport,
    bismut_torsion,
    hkt_from_torsions,
    metric_from_form,
    metric_from_forms,
)
from .quaternions import AxisTriple, HypercomplexFrame, Matrix, _integer_form, independence_rank
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
    if not any(geo.metric.factor.terms):  # a constant: its one key is 0
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
    rec.checks += verify_positive_metric(geo)
    for name, L in geo.structures.items():
        rec.equal(f"hopf.hermitian-form.{name}", geo.torsions[L].omega, geo.omegas[name],
                  "w_L = g(L., .) for the common metric")
    return rec.checks


def verify_positive_metric(geo: HopfGeometry) -> List[CheckResult]:
    """The factor of ``geo.metric`` is c / phi^k for a rational c > 0 and
    k >= 0, read off its one stored term c phi^t: positive off the origin,
    so the common metric is a Riemannian metric and not its negative."""
    terms, ok = geo.metric.factor.terms, False
    if len(terms) == 1:
        [(key, (re, im))] = terms.items()
        t, m = divmod(key, _PHI_KEY)
        ok = m == 0 and t <= 0 and re > 0 and im == 0
    rec = CheckRecorder()
    rec.exact("hopf.common-metric.positive", ok,
              "the common metric is positive definite")
    return rec.checks


def verify_gauduchon(geo: HopfGeometry) -> List[CheckResult]:
    """d d^c_L w_L = 0 for the six structures: the ``dH`` of each torsion
    report, which is ``hermitian.gauduchon_defect``."""
    rec = CheckRecorder()
    for name, L in geo.structures.items():
        rec.exact(f"hopf.gauduchon.{name}", geo.torsions[L].dH,
                  "d d^c_L w_L = 0 for every structure")
    return rec.checks


# the pairs (i, j), i < j, of a frame's (I, J, K): the keys of the cross
# sums, in the order a failing family check looks for one that is not zero
PAIRS = ((0, 1), (0, 2), (1, 2))


def _axis_family(geo: HopfGeometry, names):
    """The bilinear forms over the axes of the frame of the named structures
    (L_0, L_1, L_2), from its w_i = geo.omegas: the metric terms
    M_ij = w_i(., L_j .) and the torsion terms T_ij = DC_SIGN L_i(d w_j), each
    as {(i, i): the diagonal term} and {(i, j): the cross sum of PAIRS}.
    For L = sum_i a_i L_i on the unit sphere, w_L(., L.) = sum_ij a_i a_j M_ij,
    and d^c_L w_L = sum_ij a_i a_j T_ij when w_L is L-invariant
    (docs/conventions.md, the axis family)."""
    omegas = [geo.omegas[name] for name in names]
    Ls = [geo.structures[name] for name in names]
    dw = [exterior_d(w) for w in omegas]
    T = [[twisted_action(L, d) for d in dw] for L in Ls]
    metric = {(i, i): geo.metric_matrix(name) for i, name in enumerate(names)}
    torsion = {(i, i): T[i][i] for i in range(3)}
    for i, j in PAIRS:
        metric[i, j] = metric_from_forms([(omegas[i], Ls[j]), (omegas[j], Ls[i])])
        torsion[i, j] = _form_sum(3, [(1, 0, 1, T[i][j]), (1, 0, 1, T[j][i])])
    return metric, torsion


def _matrix_is_zero(m) -> bool:
    return not any(map(any, m))


def _matrix_size(m) -> float:
    return max(f.max_abs_coeff() for row in m for f in row)


# how each kind of family term is tested for zero and sized
_TERM_KINDS = (("metric", _matrix_is_zero, _matrix_size),
               ("torsion", RationalForm.is_zero, RationalForm.max_abs_coeff))


def _at_axis(axis: AxisTriple, family):
    """The terms (x, 0, D^2, f) of sum_i a_i^2 f_ii + sum_(i<j) a_i a_j f_ij
    for the axis (a_0, a_1, a_2) = (A_0, A_1, A_2) / D in integers."""
    D, [A] = _integer_form([(axis.a, axis.b, axis.c)])
    return [(A[i] * A[j], 0, D * D, f) for (i, j), f in family.items()]


def _metric_at(axis: AxisTriple, metric) -> tuple:
    """The metric family of ``_axis_family`` at the axis, entry by entry."""
    terms = _at_axis(axis, metric)
    return tuple(tuple(_lincomb([(x, y, d, m[r][c]) for x, y, d, m in terms]) for c in range(4))
                 for r in range(4))


def _torsion_at(axis: AxisTriple, torsion) -> RationalForm:
    """The torsion family of ``_axis_family`` at the axis."""
    return _form_sum(3, _at_axis(axis, torsion))


def verify_axis_family(geo: HopfGeometry, axes) -> List[CheckResult]:
    """Every structure a I + b J + c K on the unit sphere gives the same
    metric and the same torsion 3-form, for both frames: the bilinear forms
    of ``_axis_family``, whose diagonal terms the common-metric and
    torsion-equal checks compare, are constant on the sphere iff their
    cross sums vanish (``hopf.axis-family.*``; a failing check's defect is
    the size of the first cross sum of PAIRS that does not). The left
    frame's forms are then evaluated at the rational unit ``axes``, against
    the metric of I+ and T+ (``hopf.axis-metric.*``, ``hopf.axis-torsion.*``)."""
    rec = CheckRecorder()
    families = {}
    for side, names in (("left", STRUCTURE_NAMES[:3]), ("right", STRUCTURE_NAMES[3:])):
        tag = "+" if side == "left" else "-"
        families[side] = _axis_family(geo, names)
        for (kind, is_zero, size), family in zip(_TERM_KINDS, families[side]):
            bad = [family[pair] for pair in PAIRS if not is_zero(family[pair])]
            rec.add(f"hopf.axis-family.{side}.{kind}", not bad,
                    size(bad[0]) if bad else EXACT_ZERO,
                    f"every a I{tag} + b J{tag} + c K{tag} on the sphere gives the same {kind}")
    metric, torsion = families["left"]
    reference = geo.metric_matrix("I+")
    for axis in axes:
        if not isinstance(axis, AxisTriple):
            axis = AxisTriple(*axis)
        label = f"({axis.a},{axis.b},{axis.c})"
        rec.exact(f"hopf.axis-metric.{label}", _metric_at(axis, metric) == reference,
                  "every induced structure gives the same metric")
        rec.equal(f"hopf.axis-torsion.{label}", _torsion_at(axis, torsion), geo.H_plus,
                  "every induced structure gives the same torsion")
    return rec.checks
