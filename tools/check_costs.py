"""Per-operation CPU costs of the benchmark's sampled checks.

    python tools/check_costs.py [--points N] [--rounds R] [--seed S]

Runs the 16 ``varmech check`` command lines of the verdict-sweep
workload (``CHECKS`` in ``bench/bench_workloads.py``) in this process,
through ``varmech.cli.main``, with ``--points N`` (default: the
workload's 128) and ``--seed S``; chc keeps its fixed jets, as in the
workload.  One untimed warm-up round comes first.  Each of the R rounds
that follow runs every check once, timed by this thread's CPU clock
(``time.thread_time``), so that time spent waiting for a shared core is
left out.  Prints each check's median over the rounds in milliseconds,
then the median round total.  Every run is verified as the benchmark
verifies it; the exit code is 1 if one fails.  numpy and BLAS are held
to one thread, as in the benchmark.  Run from the root of a checkout
with the package importable (``PYTHONPATH=src``).
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def positive(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--points", type=positive, default=None,
                        help="sample points per check (default: the workload's)")
    parser.add_argument("--rounds", type=positive, default=15)
    parser.add_argument("--seed", type=int, default=1)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    for name in SINGLE_THREAD:  # before numpy is first imported
        os.environ.setdefault(name, "1")
    sys.path.insert(0, str(BENCH))
    import bench_workloads

    points = args.points or bench_workloads.CHECK_POINTS
    times, problems = {}, []
    with tempfile.TemporaryDirectory() as out_dir:
        operations = [
            (" ".join(part for part in key if part),
             bench_workloads._check(key, os.path.join(out_dir, f"check-{i:02d}.json"),
                                    points, args.seed))
            for i, key in enumerate(bench_workloads.CHECKS)]
        for timed in [False] + [True] * args.rounds:
            for label, op in operations:
                start = time.thread_time()
                raw = op.execute()
                elapsed = time.thread_time() - start
                problems += op.verify(raw).problems
                if timed:
                    times.setdefault(label, []).append(elapsed)
    width = max(len(label) for label in times)
    print(f"{'operation':<{width}}  median_ms  ({args.rounds} rounds, --points {points})")
    for label, series in times.items():
        print(f"{label:<{width}}  {1e3 * statistics.median(series):9.3f}")
    rounds = [sum(column) for column in zip(*times.values())]
    print(f"{'round':<{width}}  {1e3 * statistics.median(rounds):9.3f}")
    for line in dict.fromkeys(problems):
        print(f"check failed: {line}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
