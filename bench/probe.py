"""Set-up probe: in a fresh interpreter, time importing hkt4 and what a run
sets up before its first request (the workload's plan, which builds the
cold request), then time the reference kernel in the same interpreter.
Prints one JSON line. Usage: probe.py --workload NAME --seed N"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from bench import env  # noqa: E402

KERNEL_WARMUPS, KERNEL_RUNS = 1, 4


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    env.pin_threads()
    env.import_hkt4()
    from bench import workloads

    workloads.WORKLOADS[args.workload]().plan(args.seed)
    setup_s = time.perf_counter() - T0

    from bench import refkernel

    for _ in range(KERNEL_WARMUPS):
        refkernel.run_kernel()
    timings = [refkernel.run_kernel() for _ in range(KERNEL_RUNS)]
    print(json.dumps({"setup_s": setup_s,
                      "ref_s": statistics.median(t.wall_s for t in timings),
                      "cpu_bound": all(t.cpu_bound for t in timings)}))


if __name__ == "__main__":
    main()
