"""Every correctness check of the benchmark can fail.

Each checker first accepts a genuine output of ``varmech`` and then
rejects the same output with one defect put in: a coordinate nudged by
1e-9, an Euler-rule energy series presented as symmetric, a flipped
verdict, a trajectory generated with h = 0.1 + 1e-9.
"""

import json
import math

import numpy as np
import pytest

import bench_checks as checks
from bench_workloads import DISK_COORDS, run_cli

NUDGE = 1e-9


def simulate(tmp_path, args, steps, coords):
    out = tmp_path / "traj.csv"
    code, err = run_cli(["simulate"] + args + ["--steps", str(steps),
                                               "--out", str(out)])
    assert code == 0, err
    return checks.parse_csv(out.read_text(), coords)


def disk(tmp_path, spec, steps=400):
    q0 = [0.5, 0.3, 1.0, 1.0]
    q1 = checks.disk_next_point(spec, q0, 0.025, 0.05)
    return simulate(tmp_path, ["--system", "rolling-disk", "--rule", spec,
                               "--q0=" + ",".join(map(repr, q0)),
                               "--q1=" + ",".join(map(repr, q1))],
                    steps, DISK_COORDS)


def nudged(table, row, column):
    points = table.points.copy()
    points[row, column] += NUDGE
    return checks.Table(table.coords, table.energy_names, points,
                        table.energies, table.failed_at)


@pytest.mark.parametrize("spec", ["alpha:0.25", "euler-b"])
@pytest.mark.parametrize("column", range(4))
def test_disk_check_rejects_a_nudged_coordinate(tmp_path, spec, column):
    table = disk(tmp_path, spec)
    assert checks.check_disk(table, spec) == []
    assert checks.check_disk(nudged(table, 200, column), spec)


def test_disk_energy_check_tells_symmetric_from_one_sided(tmp_path):
    symmetric = disk(tmp_path, "midpoint")
    euler = disk(tmp_path, "euler-a")
    assert checks.check_disk(symmetric, "midpoint") == []
    assert checks.check_disk(euler, "euler-a") == []
    presented = checks.Table(symmetric.coords, symmetric.energy_names,
                             symmetric.points, euler.energies, None)
    problems = checks.check_disk(presented, "midpoint")
    assert len(problems) == 1 and "energies drift" in problems[0]


def test_length_check_follows_the_failure_marker(tmp_path):
    table = disk(tmp_path, "midpoint", steps=20)
    assert checks.check_length(table, 20) == []
    assert checks.check_length(table, 21)
    table.failed_at = 20
    assert checks.check_length(table, 30) == []
    table.failed_at = 19
    assert checks.check_length(table, 30)


def oscillator(tmp_path, system, h, x0, x1, extra=()):
    return simulate(tmp_path, ["--system", system, f"--h={h!r}",
                               f"--q0={x0!r}", f"--q1={x1!r}", *extra],
                    2000, ("x",))


CASES = {
    "harmonic-exact": ((), lambda h: h, ("oscillation",)),
    "backward-error": (("--gauge", "1"), checks.backward_error_theta, ()),
    "exp-recurrence": ((), lambda h: 0.0, ("kinetic",)),
}


@pytest.mark.parametrize("system", sorted(CASES))
def test_recurrence_check_rejects_a_nudged_coordinate(tmp_path, system):
    extra, theta, conserved = CASES[system]
    h = 0.1 if system != "exp-recurrence" else 3e-4
    x0 = 0.8
    x1 = x0 * math.cos(h) if system == "harmonic-exact" else x0 + h
    table = oscillator(tmp_path, system, h, x0, x1, extra)
    assert checks.check_recurrence(table, theta(h), x0, x1, conserved) == []
    assert checks.check_recurrence(nudged(table, 1000, 0), theta(h), x0, x1,
                                   conserved)


def test_recurrence_check_rejects_a_shifted_step(tmp_path):
    h, x0, x1 = 0.1, 1.0, math.cos(0.1)
    table = oscillator(tmp_path, "harmonic-exact", h + NUDGE, x0, x1)
    assert checks.check_recurrence(table, h, x0, x1)


def test_trace_power_check_rejects_drift():
    rows = np.tile([8.0, 32.0], (100, 1))
    assert checks.check_trace_powers(rows) == []
    rows[50, 1] *= 1.0 + NUDGE
    assert checks.check_trace_powers(rows)


def check_report(tmp_path, key, points=8):
    which, system, fiber, rule = key
    out = tmp_path / "report.json"
    argv = ["check", which, "--system", system, "--points", str(points),
            "--out", str(out)]
    if fiber is not None:
        argv += ["--fiber", fiber, "--rule", rule]
    code, _ = run_cli(argv)
    return json.loads(out.read_text()), code


@pytest.mark.parametrize("key", [
    ("isotropy", "rolling-disk", "doubled-rate", "midpoint"),
    ("isotropy", "rolling-disk", "doubled-rate", "euler-a"),
    ("chc", "implicit-exp", None, None),
])
def test_verdict_check_rejects_a_flipped_verdict(tmp_path, key):
    report, code = check_report(tmp_path, key)
    points = None if key[0] == "chc" else 8
    assert checks.check_verdict(key, report, code, points) == []
    flipped = dict(report, verdict="fail" if report["verdict"] == "pass" else "pass")
    assert checks.check_verdict(key, flipped, code, points)
    assert checks.check_verdict(key, report, 3 - code, points)


def test_verdict_check_rejects_a_report_for_another_rule(tmp_path):
    report, code = check_report(
        tmp_path, ("isotropy", "rolling-disk", "doubled-rate", "euler-a"))
    key = ("isotropy", "rolling-disk", "doubled-rate", "midpoint")
    assert checks.check_verdict(key, report, code, 8)
