"""Benchmark of the hkt4 verifiers, in process.

    python3 bench/run.py --workload {hopf,report,moduli,dense} --seed N \
        --seconds S --trace {0,1}

Each workload is a closed loop with one client calling the public functions
of ``hkt4.suites``, ``hkt4.moduli`` and ``hkt4.report``. Every output is
checked. A fixed reference kernel runs between requests, and each timing
has a twin divided by the kernel's time, which cancels the drift in speed
that all code on the machine shares. A run measures a number of units of
requests set by ``--seconds`` alone, so two runs of one seed measure the
same requests however fast the machine is.

With ``--trace 0`` the run prints the end-to-end metrics, and the
wall-clock ``requests_per_s`` and ``latency_p50_ms`` in its header line;
with ``--trace 1`` it runs the requests untraced and then traced, and
prints the per-layer metrics. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

Seed 20061114 is held out: develop with other seeds and use it only to
confirm a claim. Modules that import numpy are imported inside functions,
after the BLAS threads are pinned.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from bench import env  # noqa: E402

HELD_OUT_SEED = 20061114
SETUP_PROBES = 9
REF_WARMUPS = 2
# After each request the reference kernel is timed, at least once, until its
# time is this share of the request's: long requests get as many samples of
# the machine's speed, per second, as short ones.
REF_SHARE = 0.1
PROBE_TIMEOUT_S = 60
SPANS_DIR = os.path.join(env.ROOT, "bench", "out")
END_TO_END_UNITS = {
    "setup_s": "s", "setup_ref": "ratio", "latency_mean_ref": "ratio",
    "peak_rss_mb": "MB",
}
# Wall-clock request metrics, printed in the header line but not gated: on a
# shared 2-core VM the machine's speed swings by up to 1.7x within minutes,
# which moves them by more than the largest bound a gated metric may have,
# a quarter of its median.
WALL_CLOCK = ("requests_per_s", "latency_p50_ms")


@dataclass
class Phase:
    """The requests of one closed loop: latencies of the measured requests,
    the kernel time around each, and failures of every attempted one."""

    latencies: List[float] = field(default_factory=list)
    refs: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def record(self, outcome) -> None:
        self.attempted += 1
        if not outcome.ok:
            self.failed += 1
            self.failures.extend(outcome.failures)


def run_phase(wl, units: Iterator[list], n_units: int, ref, tracer=None,
              after_unit: Callable[[int], None] = lambda done: None) -> Phase:
    """Run ``n_units`` whole units. The reference kernel is timed before
    the first request and after every request; each request's reference
    time is the mean of the samples on either side of it."""
    from bench.spans import NO_REQUEST
    from bench.workloads import attempt

    phase = Phase()
    before = ref.sample(REF_SHARE * wl.unit_s)
    for done in range(1, n_units + 1):
        for req in next(units):
            if tracer is not None:
                tracer.request_id = phase.attempted
            outcome = attempt(wl.execute, wl.check, req, time.perf_counter)
            if tracer is not None:
                tracer.request_id = NO_REQUEST
            phase.record(outcome)
            after = ref.sample(REF_SHARE * outcome.latency_s)
            phase.latencies.append(outcome.latency_s)
            phase.refs.append((before + after) / 2)
            before = after
        after_unit(done)
    return phase


def probe_setup(workload: str, seed: int) -> dict:
    """Set-up time and kernel time of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.join(env.ROOT, "bench", "probe.py"),
         "--workload", workload, "--seed", str(seed)],
        cwd=env.ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha() -> str:
    """The checkout's commit, read from .git without running git."""
    git = os.path.join(env.ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def header(args, threads: Dict[str, str]) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "cpu_count": os.cpu_count(),
        "threads": threads,
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": args.seed == HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def cold_request(wl, cold, info: dict) -> Phase:
    """The first request, after the kernel's warm-up passes; recorded, checked
    and counted, but not measured."""
    from bench.refkernel import run_kernel
    from bench.workloads import attempt

    for _ in range(REF_WARMUPS):
        run_kernel()
    warm = Phase()
    outcome = attempt(wl.execute, wl.check, cold, time.perf_counter)
    warm.record(outcome)
    info["cold_request_ms"] = 1000.0 * outcome.latency_s
    return warm


def timed_run(wl, args, info: dict) -> dict:
    from bench import measure
    from bench.refkernel import RefClock

    probes = [probe_setup(args.workload, args.seed)]
    cold, units = wl.plan(args.seed)
    warm = cold_request(wl, cold, info)
    n_units = wl.units_for(args.seconds)

    def probe_when_due(done: int) -> None:
        # spread the probes between the first and the last through the run
        while len(probes) < 1 + (SETUP_PROBES - 2) * done // n_units:
            probes.append(probe_setup(args.workload, args.seed))

    ref = RefClock()
    phase = run_phase(wl, units, n_units, ref, after_unit=probe_when_due)
    while len(probes) < SETUP_PROBES:
        probes.append(probe_setup(args.workload, args.seed))

    values = measure.setup_metrics([p["setup_s"] for p in probes],
                                   [p["ref_s"] for p in probes])
    values.update(measure.request_metrics(phase.latencies, phase.refs))
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    info.update({k: values.pop(k) for k in WALL_CLOCK})
    info.update(ref_ms=1000.0 * statistics.median(ref.walls()),
                requests=len(phase.latencies), units=n_units,
                setup_probes_s=[p["setup_s"] for p in probes])
    valid = ref.valid and all(p["cpu_bound"] for p in probes)
    return finish(valid, [warm, phase], info,
                  {k: metric(v, END_TO_END_UNITS[k]) for k, v in values.items()})


def traced_run(wl, args, info: dict) -> dict:
    """The same requests twice, untraced then traced, half the run's units
    each; the per-layer metrics come from the traced half."""
    from bench import layers, measure, spans
    from bench.refkernel import RefClock
    from hkt4 import forms

    cold, _ = wl.plan(args.seed)
    warm = cold_request(wl, cold, info)
    n_units = max(1, wl.units_for(args.seconds) // 2)
    ref_a, ref_b = RefClock(), RefClock()
    untraced = run_phase(wl, wl.plan(args.seed)[1], n_units, ref_a)

    tracer = spans.Tracer()
    cache_before = forms._action_matrix.cache_info()
    installed = spans.Installed(tracer, layers.TARGETS)
    try:
        traced = run_phase(wl, wl.plan(args.seed)[1], n_units, ref_b, tracer=tracer)
    finally:
        installed.uninstall()
    cache_after = forms._action_matrix.cache_info()
    hits = cache_after.hits - cache_before.hits
    lookups = hits + cache_after.misses - cache_before.misses

    overhead = (measure.request_metrics(traced.latencies, traced.refs)["latency_mean_ref"]
                / measure.request_metrics(untraced.latencies, untraced.refs)["latency_mean_ref"])
    values = layers.layer_metrics(tracer, len(traced.latencies), hits, lookups, overhead)
    os.makedirs(SPANS_DIR, exist_ok=True)
    spans_path = os.path.join(SPANS_DIR, f"spans-{args.workload}.npz")
    tracer.save(spans_path)
    info.update(ref_ms=1000.0 * statistics.median(ref_a.walls() + ref_b.walls()),
                requests=len(traced.latencies), units=n_units,
                spans=len(tracer), spans_file=os.path.relpath(spans_path, env.ROOT),
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                wrapped_bindings=installed.per_target)
    units = layers.metric_units()
    return finish(ref_a.valid and ref_b.valid, [warm, untraced, traced], info,
                  {k: metric(v, units[k][0]) for k, v in values.items()})


def finish(valid: bool, phases: List[Phase], info: dict, metrics: dict) -> dict:
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    failures = [f for p in phases for f in p.failures]
    info.update(valid=valid, failures=failures[:20])
    if not valid:
        info["invalid"] = ("the process used more CPU than wall time during the "
                           "reference kernel: another thread was busy")
    return {"correct": valid and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("hopf", "report", "moduli", "dense"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    threads = env.pin_threads()
    env.import_hkt4()
    from bench import workloads

    wl = workloads.WORKLOADS[args.workload]()
    info: dict = {}
    run = traced_run if args.trace else timed_run
    result = run(wl, args, info)
    print("bench-header " + json.dumps({**header(args, threads), **info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
