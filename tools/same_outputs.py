"""Compare what two source trees of varmech write, byte for byte.

    python tools/same_outputs.py OTHER_SRC [--points N]

Runs a fixed list of ``varmech`` command lines through
``varmech.cli.main``, in one fresh process per tree: this checkout's
``src/`` and OTHER_SRC, the ``src`` directory of another checkout (for
example a ``git worktree`` of the parent commit).  The list is the 16
check lines of the verdict-sweep workload (``CHECKS`` in
``bench/bench_workloads.py``) at seeds 0 and 1234, with ``--points N``
(default: the workload's 128; chc keeps its fixed jets), and
``simulate --steps 3000`` of every simulable system.  Each command's
stdout, stderr, exit code and the bytes of its ``--out`` file are
compared; every difference is printed, and the exit code is 1 if there
is one, else 0.  Each tree's process runs in a temporary directory of
its own, with numpy and BLAS held to one thread.  Run from the root of
a checkout with the package importable (``PYTHONPATH=src``).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1234)
SIMULATE_STEPS = 3000
SIMULABLE = ("toy-free-particle", "harmonic-exact", "backward-error", "rolling-disk",
             "exp-recurrence")
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
FIELDS = ("exit code", "stdout", "stderr", "out file")

# The program each tree's process runs: argv lists on stdin, one
# [exit code, stdout, stderr, --out file as latin-1 text or None] per
# command on stdout, after the path of the varmech it imported.
WORKER = r"""
import contextlib, io, json, os, sys
import varmech, varmech.cli as cli
real_stdout, results = sys.stdout, []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    path = argv[argv.index("--out") + 1] if "--out" in argv else None
    data = None
    if path is not None and os.path.exists(path):
        with open(path, "rb") as handle:
            data = handle.read().decode("latin-1")
    results.append([code, out.getvalue(), err.getvalue(), data])
json.dump([varmech.__file__, results], real_stdout)
"""


def positive(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def commands(points=None):
    """The fixed list of command lines, as argv lists; ``points``
    defaults to the workload's."""
    sys.path.insert(0, str(ROOT / "bench"))
    import bench_workloads

    points = points or bench_workloads.CHECK_POINTS
    out = []
    for seed in SEEDS:
        for which, system, fiber, rule in bench_workloads.CHECKS:
            argv = ["check", which, "--system", system]
            if fiber is not None:
                argv += ["--fiber", fiber, "--rule", rule]
            if which != "chc":
                argv += ["--points", str(points)]
            out.append(argv + ["--seed", str(seed), "--out", f"check-{len(out):03d}.json"])
    return out + [["simulate", "--system", name, "--steps", str(SIMULATE_STEPS)]
                  for name in SIMULABLE]


def run_tree(src, argvs):
    """Run every command line in one fresh process on the package in
    ``src``; returns one [exit code, stdout, stderr, out file] per
    command."""
    src = Path(src).resolve()
    env = dict(os.environ, PYTHONPATH=str(src))
    for name in SINGLE_THREAD:
        env.setdefault(name, "1")
    with tempfile.TemporaryDirectory() as work:
        proc = subprocess.run([sys.executable, "-c", WORKER], input=json.dumps(argvs),
                              capture_output=True, text=True, cwd=work, env=env)
    if proc.returncode != 0:
        raise SystemExit(f"the run on {src} failed:\n{proc.stderr}")
    module, results = json.loads(proc.stdout)
    if not Path(module).resolve().is_relative_to(src):
        raise SystemExit(f"the run on {src} imported varmech from {module}")
    return results


def differences(argvs, mine, other):
    """One line per field of a command whose two results differ."""
    for argv, a, b in zip(argvs, mine, other):
        for field, x, y in zip(FIELDS, a, b):
            if x != y:
                yield f"{' '.join(argv)}: {field} differs{_first_difference(x, y)}"


def _first_difference(x, y):
    if not (isinstance(x, str) and isinstance(y, str)):
        return f": {x!r} against {y!r}"
    xs, ys = x.splitlines(), y.splitlines()
    for k, (u, v) in enumerate(zip(xs, ys)):
        if u != v:
            return f" at line {k + 1}:\n  {u}\n  {v}"
    return f": {len(xs)} lines against {len(ys)}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("other_src", metavar="OTHER_SRC",
                        help="the src directory of the tree to compare with")
    parser.add_argument("--points", type=positive, default=None,
                        help="sample points per check (default: the workload's)")
    args = parser.parse_args(argv)
    argvs = commands(args.points)
    found = list(differences(argvs, run_tree(ROOT / "src", argvs),
                             run_tree(args.other_src, argvs)))
    for line in found:
        print(line)
    print(f"{len(argvs)} command lines, {len(found)} differences")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
