"""The varmech benchmark: one run of one workload.

    python3 bench/run.py --workload disk-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload runs in a fresh
``python3`` process (``bench/worker.py``) with numpy and BLAS held to
one thread; this process only starts it, times its set-up, waits for
it and prints its result.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: ``setup_s``, ``work_per_s`` and ``peak_rss_mib`` with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The exit
code is 0 only when such a line was printed.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("disk-sweep", "oscillator-march", "verdict-sweep")
# A run must end within 180 s; the worker stops starting rounds after
# --seconds, so this only bounds a hang.
TIMEOUT_S = 170.0
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    out_dir = os.path.join(HERE, "_work", args.workload)
    env = dict(os.environ)
    env.update({name: "1" for name in SINGLE_THREAD})
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--src", src, "--out-dir", out_dir]

    start = time.perf_counter()
    worker = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                              env=env, cwd=ROOT)
    try:
        ready, _, _ = select.select([worker.stdout], [], [], TIMEOUT_S)
        first = worker.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - start
        if first.strip() != "READY":
            raise RuntimeError("worker set-up failed")
        remaining = TIMEOUT_S - (time.perf_counter() - start)
        rest, _ = worker.communicate(timeout=remaining)
        if worker.returncode != 0:
            raise RuntimeError(f"worker exited with code {worker.returncode}")
        result = json.loads(rest.strip().splitlines()[-1])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if worker.poll() is None:
            worker.kill()
        worker.wait()
        worker.stdout.close()

    if not args.trace:
        result["metrics"] = {"setup_s": {"value": setup_s, "unit": "s"},
                             **result["metrics"]}
    line = json.dumps(result)
    with open(os.path.join(out_dir, f"result-trace{args.trace}.json"), "w",
              encoding="utf-8") as handle:
        handle.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
