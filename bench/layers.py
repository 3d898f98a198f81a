"""The traced layers of ``hkt4`` and the per-layer metrics the traced run
reports, per request.

Each group notes the end-to-end metric it should move, on which workload,
and where it should not move. These are the predictions later changes to a
layer are judged by.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

from .spans import NO_REQUEST, Target, Tracer, self_times

# Computed, not measured: deriv's FFT, symbol product and inverse FFT each
# read one array of the input's size and write one.
DERIV_PASSES = 6


def _deriv_bytes(tracer: Tracer, args: tuple, result) -> None:
    tracer.count("lattice.deriv.bytes", DERIV_PASSES * args[0].nbytes)


def _flow_iterations(tracer: Tracer, args: tuple, result) -> None:
    tracer.count("moduli.ym_flow.iterations", result.iterations)


def _t(name: str, attr: str = "", observe=None) -> Target:
    """A target in ``hkt4.<module>`` named ``<module>.<function>``."""
    mod, _, func = name.partition(".")
    return Target(name, f"hkt4.{mod}", attr or func, observe)


# Spans with .calls and .self_ms.
TIMED: List[Target] = [
    # exact: latency_mean_ref and requests_per_s on hopf and report; nothing
    # on moduli or dense.
    _t("exact.ScalarField.mul", "ScalarField.__mul__"),
    _t("exact.ScalarField.add", "ScalarField.__add__"),
    _t("exact.ScalarField.div_exact", "ScalarField.div_exact"),
    _t("exact.ScalarField.partial", "ScalarField.partial"),
    _t("exact.Poly.divmod_poly", "Poly.divmod_poly"),
    _t("exact.QI.mul", "QI.__mul__"),
    # quaternions: hopf.
    _t("quaternions.mat_mul"),
    # forms: exterior_d, twisted_d, structure_action move hopf; pq_project,
    # hodge_star, wedge move report.
    _t("forms.exterior_d"),
    _t("forms.twisted_d"),
    _t("forms.structure_action"),
    _t("forms.pq_project"),
    _t("forms.hodge_star"),
    _t("forms.wedge"),
    # hermitian and hopf: hopf (verify_44 is about half of hopf_suite).
    _t("hermitian.bismut_torsion"),
    _t("hermitian.hermitian_form"),
    _t("hermitian.gauduchon_defect"),
    _t("hopf.build_hopf"),
    _t("hopf.verify_44"),
    _t("hopf.verify_descent"),
    _t("hopf.verify_axis_family"),
    # lattice: moduli, and dense through d_raw on stacked arrays; not hopf.
    _t("lattice.l2_inner"),
    _t("lattice.deriv", observe=_deriv_bytes),
    _t("lattice.d_raw"),
    # moduli: moduli; horizontal_slice also dense. horizontal_slice.calls is
    # 3 per moduli request, one slice for each of I, J and K.
    _t("moduli.horizontal_slice"),
    _t("moduli.verify_moduli_structure"),
    _t("moduli.induced_structure"),
    _t("moduli.moduli_hermitian_form"),
    _t("moduli.coulomb_identity_defect"),
    _t("moduli.curvature"),
    _t("moduli.ym_flow", observe=_flow_iterations),
    # kernel: thousands of 7x4 mode symbols on moduli, one large matrix on
    # dense; latency_mean_ref on both, peak_rss_mb on dense. Calls numpy
    # makes itself, as in norm(M, 2), count too.
    Target("linalg.svd", "numpy.linalg", "svd"),
    # invariants and report: report.
    _t("invariants.degree"),
    _t("report.emit_report"),
]

# Spans with .calls only: allocation churn of lattice fields.
COUNTED: List[Target] = [_t("lattice.LatticeField.init", "LatticeField.__init__")]

# Suite spans, reported inclusive as .ms: report.
SUITES: List[Target] = [_t(f"suites.{s}") for s in (
    "hopf_suite", "flat_suite", "calculus_suite", "degree_suite", "moduli_suite")]

TARGETS: List[Target] = TIMED + COUNTED + SUITES


def metric_units() -> Dict[str, tuple]:
    """Every per-layer metric name with its unit and better direction."""
    out: Dict[str, tuple] = {}
    for t in TIMED:
        out[f"{t.name}.calls"] = ("count", "lower")
        out[f"{t.name}.self_ms"] = ("ms", "lower")
    for t in COUNTED:
        out[f"{t.name}.calls"] = ("count", "lower")
    for t in SUITES:
        out[f"{t.name}.ms"] = ("ms", "lower")
    out["forms.action_matrix.hit_ratio"] = ("ratio", "higher")
    out["lattice.deriv.bytes"] = ("bytes", "lower")
    out["moduli.ym_flow.iterations"] = ("count", "lower")
    out["moduli.ym_flow.accept_ratio"] = ("ratio", "higher")
    out["trace.overhead"] = ("ratio", "lower")
    return out


def layer_metrics(tracer: Tracer, requests: int, cache_hits: int,
                  cache_lookups: int, overhead: float) -> Dict[str, float]:
    """Per-request layer metrics from the spans of ``requests`` traced
    requests. Spans outside a request (request id -1) are left out."""
    start, end, parent = tracer.start, tracer.end, tracer.parent
    own = self_times(start, end, parent)
    calls: Dict[str, int] = defaultdict(int)
    self_s: Dict[str, float] = defaultdict(float)
    incl_s: Dict[str, float] = defaultdict(float)
    flow_spans = set()
    for sid, nid in enumerate(tracer.name_id):
        if tracer.request[sid] == NO_REQUEST:
            continue
        name = tracer.names[nid]
        calls[name] += 1
        self_s[name] += own[sid]
        incl_s[name] += end[sid] - start[sid]
        if name == "moduli.ym_flow":
            flow_spans.add(sid)
    evaluations = sum(1 for sid, nid in enumerate(tracer.name_id)
                      if tracer.names[nid] == "moduli.curvature"
                      and parent[sid] in flow_spans)

    out: Dict[str, float] = {}
    for t in TIMED:
        out[f"{t.name}.calls"] = calls[t.name] / requests
        out[f"{t.name}.self_ms"] = 1000.0 * self_s[t.name] / requests
    for t in COUNTED:
        out[f"{t.name}.calls"] = calls[t.name] / requests
    for t in SUITES:
        out[f"{t.name}.ms"] = 1000.0 * incl_s[t.name] / requests
    out["forms.action_matrix.hit_ratio"] = (cache_hits / cache_lookups
                                            if cache_lookups else 0.0)
    out["lattice.deriv.bytes"] = tracer.counters["lattice.deriv.bytes"] / requests
    iterations = tracer.counters["moduli.ym_flow.iterations"]
    out["moduli.ym_flow.iterations"] = iterations / requests
    out["moduli.ym_flow.accept_ratio"] = (iterations / evaluations
                                          if evaluations else 0.0)
    out["trace.overhead"] = overhead
    return out
