"""Correctness checks for the benchmark, computed apart from the program.

Every checker takes what the program wrote (a parsed CSV trajectory, a
JSON report, an array of trace powers) plus the inputs the benchmark
chose, and returns a list of problems; an empty list means the output
is right.  Nothing here imports varmech: the rule nodes, closed forms
and known verdicts are the benchmark's own copies, so a change in the
program that alters its answers shows up as a failed check instead of
moving the reference along with it.

Tolerances sit one to three orders of magnitude above the largest error
seen on working code, and low enough that a single coordinate nudged by
1e-9 is rejected: by the constraint, uniformity and ratio checks on the
disk, by the local residual on the one-dimensional recurrences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Per-segment residuals of the discrete rolling constraints, second
# differences of phi and the theta increment ratio.  Working code stays
# below 2e-14 on the trajectories the benchmark generates.
DISK_TOL = 1e-11
# Relative energy range: symmetric rules conserve the three disk
# energies to rounding; the one-sided Euler rules drift visibly.
SYMMETRIC_ENERGY_TOL = 1e-8
EULER_DRIFT_FLOOR = 1e-4
# Two-term linear recurrences x_{k+1} = 2 cos(theta) x_k - x_{k-1}:
# the local residual is rounding-level (near 3e-16), the closed form
# accumulates rounding over the run (near 5e-12 after 10000 steps).
RECURRENCE_LOCAL_TOL = 1e-12
RECURRENCE_GLOBAL_TOL = 1e-10
# Relative drift of a conserved energy column or trace power (near 3e-12).
INVARIANT_TOL = 1e-10


@dataclass
class Table:
    """A trajectory CSV as written by ``varmech simulate``."""

    coords: list
    energy_names: list
    points: np.ndarray
    energies: np.ndarray
    failed_at: int | None

    @property
    def steps(self):
        return self.points.shape[0] - 2


def parse_csv(text: str, coords: list) -> Table:
    """Parse the CSV text; ``coords`` are the expected coordinate names.

    Raises ValueError on a malformed file (wrong header, bad step
    column, ragged rows).
    """
    lines = text.splitlines()
    header = lines[0].split(",")
    if header[0] != "k" or header[1:1 + len(coords)] != list(coords):
        raise ValueError(f"unexpected CSV header {header}")
    failed_at = None
    body = []
    for line in lines[1:]:
        if line.startswith("# failed at step "):
            failed_at = int(line.rsplit(" ", 1)[1])
        else:
            body.append(line.split(","))
    if any(len(row) != len(header) for row in body):
        raise ValueError("ragged CSV rows")
    index = [int(row[0]) for row in body]
    if index != list(range(len(body))):
        raise ValueError("step column is not 0, 1, 2, ...")
    table = np.array([[float(c) if c else math.nan for c in row[1:]]
                      for row in body])
    d = len(coords)
    return Table(coords=list(coords), energy_names=header[1 + d:],
                 points=table[:, :d], energies=table[:-1, d:],
                 failed_at=failed_at)


def check_length(table: Table, steps: int) -> list:
    """A finished run has steps + 2 rows; a failed one stops at the
    recorded step with every earlier row kept."""
    if table.failed_at is None:
        if table.steps != steps:
            return [f"{table.steps + 2} rows, expected {steps + 2}"]
        return []
    if table.steps != table.failed_at or table.failed_at >= steps:
        return [f"failed at step {table.failed_at} but kept "
                f"{table.steps + 2} rows of a {steps}-step run"]
    return []


# ---------------------------------------------------------------------------
# rolling disk


def rule_nodes(spec: str):
    """Interior nodes (a, b, weight) of a constraint rule: the node
    angle is a*phi_k + b*phi_{k+1}."""
    if spec == "midpoint":
        return ((0.5, 0.5, 1.0),)
    if spec == "euler-a":
        return ((1.0, 0.0, 1.0),)
    if spec == "euler-b":
        return ((0.0, 1.0, 1.0),)
    if spec.startswith("alpha:"):
        alpha = float(spec.split(":", 1)[1])
        return ((1.0 - alpha, alpha, 0.5), (alpha, 1.0 - alpha, 0.5))
    raise ValueError(f"unknown rule {spec!r}")


def disk_next_point(spec: str, q0, dtheta: float, dphi: float):
    """The point after q0 = (theta, phi, x, y) with the given angle
    increments, completing (x, y) so the rule's constraints hold."""
    theta, phi, x, y = q0
    phi1 = phi + dphi
    cs = sum(w * math.cos(a * phi + b * phi1) for a, b, w in rule_nodes(spec))
    sn = sum(w * math.sin(a * phi + b * phi1) for a, b, w in rule_nodes(spec))
    return [theta + dtheta, phi1, x + dtheta * cs, y + dtheta * sn]


def check_disk(table: Table, spec: str) -> list:
    """Constraints, uniform phi, closed-form theta ratio and energy
    behaviour of a rolling-disk trajectory under rule ``spec``."""
    problems = []
    q = table.points
    theta, phi, x, y = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    dth, dph = np.diff(theta), np.diff(phi)
    cs = np.zeros_like(dth)
    sn = np.zeros_like(dth)
    for a, b, w in rule_nodes(spec):
        angle = a * phi[:-1] + b * phi[1:]
        cs += w * np.cos(angle)
        sn += w * np.sin(angle)
    worst = max(_worst(np.diff(x) - dth * cs), _worst(np.diff(y) - dth * sn))
    if worst > DISK_TOL:
        problems.append(f"discrete constraints violated by {worst:.3e}")
    worst = _worst(np.diff(dph))
    if worst > DISK_TOL:
        problems.append(f"phi does not advance uniformly ({worst:.3e})")
    num = 1.0 + sum(w * np.cos(a * dph[:-1]) for a, b, w in rule_nodes(spec))
    den = 1.0 + sum(w * np.cos(b * dph[:-1]) for a, b, w in rule_nodes(spec))
    worst = _worst(dth[1:] - dth[:-1] * num / den)
    if worst > DISK_TOL:
        problems.append(f"theta increments leave the closed-form ratio "
                        f"({worst:.3e})")
    ranges = [_relative_range(table.energies[:, j])
              for j in range(table.energies.shape[1])]
    if not spec.startswith("euler"):
        if not ranges or max(ranges) > SYMMETRIC_ENERGY_TOL:
            problems.append(f"symmetric rule {spec} lets energies drift: "
                            f"{ranges}")
    elif not ranges or max(ranges) <= EULER_DRIFT_FLOOR:
        problems.append(f"one-sided rule {spec} shows no energy drift: "
                        f"{ranges}")
    return problems


# ---------------------------------------------------------------------------
# linear oscillators and free motion


def recurrence_closed_form(x0: float, x1: float, theta: float, count: int):
    """Solution of x_{k+1} = 2 cos(theta) x_k - x_{k-1}, k = 0..count-1.

    theta = 0 is the free-motion limit x0 + k (x1 - x0).
    """
    k = np.arange(count, dtype=float)
    if theta == 0.0:
        return x0 + k * (x1 - x0)
    b = (x1 - x0 * math.cos(theta)) / math.sin(theta)
    return x0 * np.cos(k * theta) + b * np.sin(k * theta)


def check_recurrence(table: Table, theta: float, x0: float, x1: float,
                     conserved=()) -> list:
    """A one-dimensional trajectory started from (x0, x1) against the
    recurrence with angle ``theta``, locally and in closed form; the
    energy columns named in ``conserved`` must stay constant.

    harmonic-exact steps along the exact flow, so theta = h and
    x_k = A cos(kh + phase).
    """
    problems = []
    x = table.points[:, 0]
    if x[0] != x0 or x[1] != x1:
        problems.append(f"initial pair ({x[0]!r}, {x[1]!r}) is not the "
                        f"requested ({x0!r}, {x1!r})")
    scale = max(1.0, float(np.max(np.abs(x))))
    local = _worst(x[2:] - 2.0 * math.cos(theta) * x[1:-1] + x[:-2])
    if local > RECURRENCE_LOCAL_TOL * scale:
        problems.append(f"recurrence residual {local:.3e}")
    gap = _worst(x - recurrence_closed_form(x0, x1, theta, x.size))
    if gap > RECURRENCE_GLOBAL_TOL * scale:
        problems.append(f"trajectory leaves the closed form by {gap:.3e}")
    for name in conserved:
        drift = _relative_range(table.energies[:, table.energy_names.index(name)])
        if drift > INVARIANT_TOL:
            problems.append(f"conserved {name} drifts by {drift:.3e}")
    return problems


def backward_error_theta(h: float) -> float:
    """x_{k+1} = (2 - h^2) x_k - x_{k-1}: cos(theta) = 1 - h^2/2."""
    return 2.0 * math.asin(0.5 * h)


def check_trace_powers(rows) -> list:
    """Trace powers of the recursion operator are constant on an orbit."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] < 2:
        return [f"trace powers have shape {rows.shape}"]
    drift = max(_relative_range(rows[:, j]) for j in range(rows.shape[1]))
    if not drift <= INVARIANT_TOL:
        return [f"trace powers drift by {drift:.3e} along the orbit"]
    return []


# ---------------------------------------------------------------------------
# verdicts


# Verdicts known from the theory, keyed by the check's CLI arguments.
# The three that fail: the one-sided euler-a rule breaks isotropy, the
# turn-ratio fiber map is not a Legendre transform of any Lagrangian,
# and the exponential force law is not an Euler-Lagrange expression
# as written (it is variational only against the velocity momentum,
# which the implicit ihc test finds).
KNOWN_VERDICTS = {
    ("isotropy", "rolling-disk", "doubled-rate", "midpoint"): True,
    ("isotropy", "rolling-disk", "doubled-increment", "midpoint"): True,
    ("isotropy", "rolling-disk", "doubled-rate", "alpha:0.3"): True,
    ("isotropy", "rolling-disk", "doubled-rate", "alpha:0.85"): True,
    ("isotropy", "rolling-disk", "doubled-rate", "euler-a"): False,
    ("isotropy", "rolling-disk", "turn-ratio", "midpoint"): False,
    ("isotropy", "harmonic-exact", None, None): True,
    ("dhc-explicit", "toy-free-particle", None, None): True,
    ("dhc-explicit", "harmonic-exact", None, None): True,
    ("dhc-explicit", "backward-error", None, None): True,
    ("dhc-implicit", "exp-recurrence", None, None): True,
    ("dhc-implicit", "harmonic-exact", None, None): True,
    ("chc", "implicit-exp", None, None): False,
    ("ihc", "implicit-exp", None, None): True,
    ("two-form", "extended-disk", None, None): True,
    ("two-form", "harmonic-exact", None, None): True,
}

# cHC3 of (exp(qdd0 - q0) - 1, qdd1 - q1) along a jet is
# |2 exp(qdd0 - q0) (qd0 - qddd0)|; on the catalogue's jet (q, qd, qdd,
# qddd) = (0, (1, 1), 0, 0) that is 2, the largest over its jets.
CHC3_WORST = 2.0


def check_verdict(key, report: dict, exit_code: int, points: int | None) -> list:
    """A check report against the known verdict for ``key``.

    ``points`` is the sample count the check was asked for (None for
    chc, which runs on the system's fixed jets).
    """
    problems = []
    expected = KNOWN_VERDICTS[key]
    want_code = 0 if expected else 3
    if exit_code != want_code:
        problems.append(f"exit code {exit_code}, expected {want_code}")
    want = "pass" if expected else "fail"
    if report.get("verdict") != want:
        problems.append(f"verdict {report.get('verdict')!r}, expected {want!r}")
    if points is not None and report.get("params", {}).get("points") != points:
        problems.append("report does not record the requested sample count")
    conditions = report.get("conditions") or []
    if not conditions:
        problems.append("report has no conditions")
    over = [c["name"] for c in conditions if not c["max_residual"] < c["tol"]]
    if expected and over:
        problems.append(f"passing check has conditions at or over tolerance: {over}")
    if not expected and not over:
        problems.append("failing check has no condition over tolerance")
    if key[0] == "chc":
        worst = {c["name"]: c["max_residual"] for c in conditions}.get("cHC3")
        if worst is None or abs(worst - CHC3_WORST) > 1e-6 * CHC3_WORST:
            problems.append(f"cHC3 worst residual {worst}, expected {CHC3_WORST}")
    return problems


def _worst(values) -> float:
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return 0.0
    worst = float(np.max(np.abs(values)))
    return worst if math.isfinite(worst) else math.inf


def _relative_range(values) -> float:
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return 0.0
    spread = float(np.ptp(values)) / abs(float(np.mean(values)))
    return spread if math.isfinite(spread) else math.inf
