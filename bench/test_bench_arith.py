"""Tests of the benchmark's own arithmetic: self time of nested spans,
medians, means and normalisation, the expected dense slice dimension, and
failure counting."""

import json
import math
import os

import pytest

from bench import measure, run, spans, workloads
from bench.workloads import Request, attempt


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    parent = [spans.NO_PARENT, 0, 0, 2]
    assert spans.self_times(start, end, parent) == [3.0, 3.0, 3.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    start = [0.0, 1.0, 2.0]
    end = [10.0, 5.0, 6.0]
    parent = [spans.NO_PARENT, 0, 0]
    assert spans.self_times(start, end, parent)[0] == 5.0


def test_tracer_records_parents_requests_and_self_time():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    traced_leaf = tracer.wrap("leaf", leaf)

    def outer():
        clock.now += 1.0
        traced_leaf()
        traced_leaf()
        clock.now += 1.0

    tracer.request_id = 7
    tracer.wrap("outer", outer)()
    assert [tracer.names[i] for i in tracer.name_id] == ["outer", "leaf", "leaf"]
    assert list(tracer.parent) == [spans.NO_PARENT, 0, 0]
    assert list(tracer.request) == [7, 7, 7]
    assert spans.self_times(tracer.start, tracer.end, tracer.parent) == [2.0, 2.0, 2.0]


def test_install_wraps_every_binding_and_uninstall_restores():
    from hkt4 import lattice, moduli, suites

    original = lattice.l2_inner
    tracer = spans.Tracer()
    installed = spans.Installed(tracer, [spans.Target("lattice.l2_inner",
                                                      "hkt4.lattice", "l2_inner")])
    try:
        assert lattice.l2_inner is not original
        assert moduli.l2_inner is lattice.l2_inner
        assert suites.l2_inner is lattice.l2_inner
        assert installed.per_target["lattice.l2_inner"] >= 3
    finally:
        installed.uninstall()
    assert lattice.l2_inner is original and suites.l2_inner is original


def test_install_wraps_methods_and_their_aliases():
    from hkt4.exact import QI

    original = QI.__dict__["__mul__"]
    tracer = spans.Tracer()
    installed = spans.Installed(tracer, [spans.Target("exact.QI.mul", "hkt4.exact",
                                                      "QI.__mul__")])
    try:
        assert QI(2) * QI(3) == QI(6)
        assert 2 * QI(3) == QI(6)  # __rmul__ is the same function
        assert len(tracer) == 2
    finally:
        installed.uninstall()
    assert QI.__dict__["__mul__"] is original and QI.__dict__["__rmul__"] is original


def test_normalisation():
    assert measure.normalised(0.3, 0.03) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        measure.normalised(1.0, 0.0)


def test_request_metrics_divide_each_request_by_its_own_kernel_time():
    got = measure.request_metrics([0.1, 0.2, 0.6], [0.01, 0.04, 0.02])
    assert got["requests_per_s"] == pytest.approx(3 / 0.9)
    assert got["latency_p50_ms"] == pytest.approx(200.0)
    assert got["latency_mean_ref"] == pytest.approx((10.0 + 5.0 + 30.0) / 3)
    with pytest.raises(ValueError):
        measure.request_metrics([0.1, 0.2], [0.01])


def test_setup_metrics_use_each_interpreters_own_kernel():
    got = measure.setup_metrics([0.2, 0.4, 0.3], [0.02, 0.05, 0.03])
    assert got["setup_s"] == pytest.approx(0.3)
    assert got["setup_ref"] == pytest.approx(10.0)


def test_expected_dense_dimension():
    assert workloads.expected_dense_dim(math.pi) == 12
    assert workloads.expected_dense_dim(-math.pi) == 12
    assert workloads.expected_dense_dim(0.37) == 4
    assert workloads.expected_dense_dim(1.1) == 4
    assert workloads.expected_dense_dim(0.0) == 12


def _report(*statuses):
    return json.dumps({"checks": [{"name": f"c{i}", "status": s}
                                  for i, s in enumerate(statuses)]})


def test_report_failures_ignore_check_names():
    assert workloads.report_failures(_report("pass", "pass")) == []
    assert len(workloads.report_failures(_report("pass", "fail", "skipped"))) == 2
    assert workloads.report_failures("{not json")
    assert workloads.report_failures(json.dumps({"checks": []}))


class FakeWorkload:
    """Requests that raise, emit invalid JSON, fail a check, or pass."""

    unit_s = 1.0

    def execute(self, req):
        if req.kind == "raise":
            raise RuntimeError("boom")
        return {"invalid": "{", "fail": _report("pass", "fail")}.get(req.kind,
                                                                    _report("pass"))

    def check(self, req, out):
        return workloads.report_failures(out)


class StepRef:
    """A reference clock whose samples read 1, 2, 3, ..."""

    def __init__(self):
        self.samples = 0

    def sample(self, share_of_s):
        self.samples += 1
        return float(self.samples)


def test_failures_are_counted_against_attempts():
    wl = FakeWorkload()
    units = iter([[Request(k)] for k in ("ok", "raise", "invalid", "fail", "ok")])
    phase = run.run_phase(wl, units, n_units=5, ref=StepRef())
    assert (phase.attempted, phase.failed) == (5, 3)
    assert len(phase.latencies) == 5
    assert any("raised RuntimeError" in f for f in phase.failures)


def test_each_request_uses_the_kernel_samples_on_either_side():
    wl = FakeWorkload()
    units = iter([[Request("ok"), Request("ok")], [Request("ok")]])
    done = []
    phase = run.run_phase(wl, units, n_units=2, ref=StepRef(),
                          after_unit=done.append)
    assert phase.refs == [1.5, 2.5, 3.5]
    assert done == [1, 2]


def test_unit_count_depends_only_on_seconds():
    hopf = workloads.Hopf()
    assert hopf.units_for(20) == math.ceil(20 / hopf.unit_s)
    assert workloads.Report().units_for(0.5) == 1


def test_dense_request_fails_on_wrong_dimension():
    class Basis:
        dimension, gap_ok, gap = 4, True, 1e9

    dense = workloads.Dense()
    req = Request("dense", {"charge": math.pi})
    out = attempt(lambda r: Basis(), dense.check, req, FakeClock())
    assert not out.ok and "theory predicts 12" in out.failures[0]
    ok = attempt(lambda r: Basis(), dense.check,
                 Request("dense", {"charge": 0.37}), FakeClock())
    assert ok.ok


def test_benchmark_json_names_every_metric_a_run_prints():
    from bench import env, layers

    with open(os.path.join(env.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert ({m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]}
            == layers.metric_units())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_layer_metrics_per_request_and_flow_accept_ratio():
    from bench import layers

    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def curvature():
        clock.now += 1.0

    traced_curvature = tracer.wrap("moduli.curvature", curvature)

    def flow():
        for _ in range(4):  # four residual evaluations, three accepted steps
            traced_curvature()
        return type("Result", (), {"iterations": 3})()

    traced_flow = tracer.wrap("moduli.ym_flow", flow, layers._flow_iterations)
    traced_curvature()  # outside any request: left out
    for request in (0, 1):
        tracer.request_id = request
        traced_flow()
        tracer.request_id = spans.NO_REQUEST
    got = layers.layer_metrics(tracer, requests=2, cache_hits=3, cache_lookups=4,
                               overhead=1.1)
    assert got["moduli.ym_flow.calls"] == 1.0
    assert got["moduli.curvature.calls"] == 4.0
    assert got["moduli.curvature.self_ms"] == 4000.0
    assert got["moduli.ym_flow.self_ms"] == 0.0
    assert got["moduli.ym_flow.iterations"] == 3.0
    assert got["moduli.ym_flow.accept_ratio"] == 0.75
    assert got["forms.action_matrix.hit_ratio"] == 0.75
    assert set(got) == set(layers.metric_units())
