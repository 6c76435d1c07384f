"""One benchmark run, in the fresh interpreter that ``run.py`` starts.

Set-up (importing ``varmech.cli`` and building the workload's catalogue
systems) ends with a ``READY`` line on standard output, which the
parent times.  The worker then repeats whole rounds of the workload's
operations until ``--seconds`` have passed, and prints one JSON object
as its last line: correctness, operations attempted and failed, and
the metrics (without ``setup_s``, which only the parent can time).

With ``--trace 1`` rounds alternate untraced and traced; the traced
ones give the per-layer metrics and the pair gives the tracing
overhead.  All load comes from this one process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import numpy as np

# Median time of calibrate() on the machine the benchmark was tuned on
# (2 cores, Python 3.11.7, numpy 2.4.6).
CALIBRATION_REFERENCE_S = 0.0085


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", required=True,
                        help="the checkout's src directory; varmech must load from it")
    parser.add_argument("--out-dir", required=True)
    return parser.parse_args(argv)


def calibrate(loops=400):
    """Seconds for a fixed mix of small numpy operations and Python calls,
    like the program's own inner loops.

    The machine is shared: its speed for this process drifts by 20% and
    more over minutes.  The calibration runs before every operation, and
    its median over a run tells how fast the machine ran meanwhile.
    """
    a = np.eye(4) * 2.0 + 0.1
    b = np.arange(4.0)
    total = 0.0
    start = time.perf_counter()
    for _ in range(loops):
        x = np.asarray(b, dtype=float)
        y = np.concatenate([x, x])
        z = np.linalg.solve(a, x)
        total += float(np.max(np.abs(z))) + float(y @ y) + len(format(total, ".17g"))
    return time.perf_counter() - start


def run_round(operations, calibrations):
    """Run every operation once, each after a calibration; returns the
    timed seconds and the outcome of each."""
    times, outcomes = [], []
    for op in operations:
        calibrations.append(calibrate())
        start = time.perf_counter()
        raw = op.execute()
        times.append(time.perf_counter() - start)
        outcomes.append(op.verify(raw))
    return times, outcomes


def work_rate(rounds):
    """Units per second from per-operation medians over the rounds, so
    that one round slowed by a neighbour on the machine moves it little."""
    per_op = list(zip(*rounds))
    units = sum(statistics.median(o.units for _, o in op) for op in per_op)
    seconds = sum(statistics.median(t for t, _ in op) for op in per_op)
    return units / seconds


def main(argv=None):
    args = parse_args(argv)
    import varmech.cli  # noqa: F401 - part of the timed set-up

    loaded = os.path.realpath(varmech.cli.__file__)
    if not loaded.startswith(os.path.realpath(args.src) + os.sep):
        print(f"varmech loaded from {loaded}, not from {args.src}", file=sys.stderr)
        return 1
    import bench_workloads

    operations = bench_workloads.build(args.workload, args.seed, args.out_dir)
    print("READY", flush=True)

    tracer = None
    if args.trace:
        from bench_trace import Tracer
        tracer = Tracer()

    deadline = time.perf_counter() + args.seconds
    plain, traced, calibrations = [], [], []
    while True:
        tracing = tracer is not None and len(plain) > len(traced)
        if tracing:
            tracer.install()
        try:
            times, outcomes = run_round(operations, calibrations)
        finally:
            if tracing:
                tracer.uninstall()
        (traced if tracing else plain).append(list(zip(times, outcomes)))
        if time.perf_counter() >= deadline and (tracer is None or traced):
            break

    everything = [o for rounds in (plain, traced) for r in rounds for _, o in r]
    attempted = len(everything)
    failed = sum(o.failed for o in everything)
    problems = [p for o in everything for p in o.problems]

    for line in dict.fromkeys(problems):
        print(f"check failed: {line}", file=sys.stderr)
    if tracer is None:
        raw = work_rate(plain)
        speed = statistics.median(calibrations) / CALIBRATION_REFERENCE_S
        with open(os.path.join(args.out_dir, "timing.json"), "w",
                  encoding="utf-8") as handle:
            json.dump({"rounds": len(plain), "raw_work_per_s": raw,
                       "calibration_median_s": statistics.median(calibrations),
                       "calibration_reference_s": CALIBRATION_REFERENCE_S}, handle)
        metrics = {
            "work_per_s": {"value": raw * speed, "unit": "work/s"},
            "peak_rss_mib": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MiB"},
        }
    else:
        metrics = tracer.metrics(len(traced))
        tracer.write(os.path.join(args.out_dir, "trace.json"), len(traced))
        base = statistics.median(sum(t for t, _ in r) for r in plain)
        overhead = statistics.median(sum(t for t, _ in r) for r in traced) - base
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["trace.overhead_pct"] = {"value": 100.0 * overhead / base, "unit": "%"}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
