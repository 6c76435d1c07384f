"""Command-line front end: trajectory runs and variationality checks.

Two subcommands share one flat configuration schema.  ``simulate``
integrates a built-in system and writes a CSV trajectory; ``check``
runs one of the sampled variationality tests and writes a JSON report.

    varmech simulate --system rolling-disk --rule alpha:0.25 \
        --steps 200 --out disk.csv
    varmech check isotropy --system rolling-disk --fiber doubled-rate

Options may come from a ``key=value`` config file (``--config``), with
command-line flags taking precedence.  Unknown keys are rejected.
Output files are written atomically (temp file plus rename) and a rerun
with identical configuration produces byte-identical output.

Exit codes: 0 success (check verdict pass), 1 configuration error,
2 solver failure during a run, 3 check verdict fail (the report is
still written).
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericsError, StepFailure, UnknownSystem
from .helmholtz import (TwoFormField, check_chc, check_dhc_explicit,
                        check_dhc_implicit, check_ihc, check_isotropy,
                        check_two_form, gamma_embedding, sample_box)
from .lagrangian import DiscreteLagrangian
from .lagrangian import simulate as lagrangian_simulate
from .nonholonomic import dla_simulate, rule_from_spec
from .numkit import DEFAULT_NEWTON, PAIR_CHUNK, NewtonConfig, march, pair_series
from .sode import explicit_to_implicit, implicit_step
from .systems import (ImplicitForceSystem, ImplicitRecurrenceSystem,
                      RollingDisk, VariationalSystem, make_system,
                      system_names)

DEFAULT_STEPS = 100
DEFAULT_POINTS = 32


# ---------------------------------------------------------------------------
# configuration


def _cast_str(key, text):
    return str(text)


def _cast_float(key, text):
    try:
        return float(text)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} expects a number, got {text!r}") from None


def _cast_int(key, text):
    try:
        return int(str(text).strip())
    except (TypeError, ValueError):
        raise ConfigError(f"{key} expects an integer, got {text!r}") from None


def _cast_vector(key, text):
    parts = [p.strip() for p in str(text).split(",")]
    if any(p == "" for p in parts):
        raise ConfigError(f"{key} expects comma-separated numbers, got {text!r}")
    try:
        return np.array([float(p) for p in parts])
    except ValueError:
        raise ConfigError(f"{key} expects comma-separated numbers, got {text!r}") from None


_CASTERS = {
    "system": _cast_str,
    "rule": _cast_str,
    "h": _cast_float,
    "steps": _cast_int,
    "dim": _cast_int,
    "gauge": _cast_float,
    "q0": _cast_vector,
    "q1": _cast_vector,
    "fiber": _cast_str,
    "tol": _cast_float,
    "points": _cast_int,
    "box": _cast_float,
    "seed": _cast_int,
    "out": _cast_str,
}


@dataclass
class RunConfig:
    """One flat bag of run settings shared by both subcommands.

    Fields a given command does not use are simply ignored, so the same
    config file can drive a simulation and the checks on one system.
    """

    system: str | None = None
    rule: str | None = None
    h: float | None = None
    steps: int | None = None
    dim: int | None = None
    gauge: float | None = None
    q0: np.ndarray | None = None
    q1: np.ndarray | None = None
    fiber: str | None = None
    tol: float | None = None
    points: int | None = None
    box: float | None = None
    seed: int | None = None
    out: str | None = None


def parse_config_file(path: str) -> dict:
    """Read a flat key=value file; '#' starts a comment."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    data = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CASTERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in data:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        data[key] = value
    return data


def load_config(ns: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file, then explicit flags; cast and check."""
    raw = {}
    if getattr(ns, "config", None) is not None:
        raw.update(parse_config_file(ns.config))
    for key in _CASTERS:
        value = getattr(ns, key, None)
        if value is not None:
            raw[key] = value
    values = {key: _CASTERS[key](key, text) for key, text in raw.items()}
    cfg = RunConfig(**values)

    if cfg.system is None:
        raise ConfigError("system is required (--system or system= in a config file)")
    if cfg.h is not None and not cfg.h > 0.0:
        raise ConfigError(f"h must be positive, got {cfg.h}")
    if cfg.steps is not None and cfg.steps < 0:
        raise ConfigError(f"steps must be nonnegative, got {cfg.steps}")
    if cfg.points is not None and cfg.points < 1:
        raise ConfigError(f"points must be at least 1, got {cfg.points}")
    if cfg.box is not None and not cfg.box > 0.0:
        raise ConfigError(f"box must be positive, got {cfg.box}")
    if cfg.tol is not None and not cfg.tol > 0.0:
        raise ConfigError(f"tol must be positive, got {cfg.tol}")
    return cfg


def build_bundle(cfg: RunConfig):
    """Instantiate the requested system, folding builder complaints
    (unknown name, rejected or out-of-range parameters) into ConfigError."""
    params = {}
    if cfg.h is not None:
        params["h"] = cfg.h
    if cfg.dim is not None:
        params["dim"] = cfg.dim
    if cfg.gauge is not None:
        params["gauge"] = cfg.gauge
    try:
        return make_system(cfg.system, **params)
    except UnknownSystem as exc:
        raise ConfigError(str(exc.args[0])) from exc
    except TypeError as exc:
        raise ConfigError(
            f"system {cfg.system!r} does not accept these parameters: {exc}") from exc
    except NumericsError as exc:
        raise ConfigError(f"invalid parameters for {cfg.system!r}: {exc}") from exc


def _resolve_rule(spec: str):
    try:
        return rule_from_spec(spec)
    except NumericsError as exc:
        raise ConfigError(str(exc)) from exc


def _newton_config(cfg: RunConfig) -> NewtonConfig:
    if cfg.tol is None:
        return DEFAULT_NEWTON
    return NewtonConfig(abs_tol=cfg.tol)


# ---------------------------------------------------------------------------
# output


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".varmech-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _emit(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _atomic_write(out, text)


def render_csv(coords, energy_funcs, points, failed_at=None) -> str:
    """CSV text: header ``k,<coords>,<energies>``, one row per point.

    Values carry 17 significant digits so parsing them back recovers
    the exact binary floats.  Energy cells on row k are evaluated on the
    pair (q_k, q_{k+1}); the last row leaves them empty.  A failed run
    ends with a ``# failed at step K`` comment line.  Rows are formatted
    PAIR_CHUNK at a time, each with one ``%``-format string: the bytes
    of ``format(v, ".17g")`` per cell.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    series = pair_series(energy_funcs, points)
    lines = ["k," + ",".join(list(coords) + list(series))]
    total, dim = points.shape
    row = "%d" + ",%.17g" * (dim + len(series))
    for start in range(0, total - 1, PAIR_CHUNK):
        stop = min(start + PAIR_CHUNK, total - 1)
        block = np.column_stack([points[start:stop]]
                                + [values[start:stop] for values in series.values()])
        lines.extend(row % (k, *cells) for k, cells in enumerate(block.tolist(), start))
    if total:
        last = "%d" + ",%.17g" * dim + "," * len(series)
        lines.append(last % (total - 1, *points[-1].tolist()))
    if failed_at is not None:
        lines.append(f"# failed at step {failed_at}")
    lines.append("")  # the final newline, without copying the joined text
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# simulate


def _initial_pair(cfg: RunConfig, default, dim: int):
    if (cfg.q0 is None) != (cfg.q1 is None):
        raise ConfigError("q0 and q1 must be given together")
    if cfg.q0 is None:
        return default
    if cfg.q0.shape != (dim,) or cfg.q1.shape != (dim,):
        raise ConfigError(f"q0 and q1 must have {dim} components for this system")
    return cfg.q0, cfg.q1


@dataclass
class _SimulationPlan:
    coords: tuple
    energy_funcs: dict
    run: object


def plan_simulation(cfg: RunConfig, bundle) -> _SimulationPlan:
    steps = DEFAULT_STEPS if cfg.steps is None else cfg.steps
    newton = _newton_config(cfg)

    if isinstance(bundle, RollingDisk):
        rule = _resolve_rule(cfg.rule or "midpoint")
        q0, q1 = _initial_pair(cfg, bundle.initial_pair(rule), bundle.dim)

        def run():
            traj, _, _ = dla_simulate(bundle.system, rule, q0, q1, steps,
                                      cfg=newton)
            return traj.points

        return _SimulationPlan(bundle.coord_names(), bundle.energies, run)

    if cfg.rule is not None:
        raise ConfigError("rule only applies to the rolling-disk system")

    if isinstance(bundle, VariationalSystem):
        q0, q1 = _initial_pair(cfg, bundle.initial, bundle.dim)

        def run():
            traj, _ = lagrangian_simulate(bundle.lagrangian, q0, q1, steps,
                                          cfg=newton)
            return traj.points

        return _SimulationPlan(bundle.coord_names(), bundle.energies, run)

    if isinstance(bundle, ImplicitRecurrenceSystem):
        q0, q1 = _initial_pair(cfg, bundle.initial, bundle.dim)
        equation = bundle.equation

        def run():
            return march(lambda a, b: implicit_step(equation, a, b, cfg=newton),
                         q0, q1, steps, "implicit step")

        return _SimulationPlan(bundle.coord_names(), bundle.energies, run)

    simulable = "toy-free-particle, harmonic-exact, backward-error, rolling-disk, exp-recurrence"
    raise ConfigError(
        f"system {cfg.system!r} has no time stepper; simulable systems: {simulable}")


def cmd_simulate(cfg: RunConfig, bundle) -> int:
    plan = plan_simulation(cfg, bundle)
    try:
        points = plan.run()
    except StepFailure as exc:
        if exc.partial is not None:
            text = render_csv(plan.coords, plan.energy_funcs, exc.partial,
                              failed_at=exc.step)
            _emit(cfg.out, text)
        print(f"simulate: {exc}", file=sys.stderr)
        return 2
    _emit(cfg.out, render_csv(plan.coords, plan.energy_funcs, points))
    return 0


# ---------------------------------------------------------------------------
# check


def _box_samples(cfg: RunConfig, bundle, params: dict):
    """Pair points in the sampling box; records box and h in params."""
    box = cfg.box if cfg.box is not None else 1.0
    params.update(box=box, h=bundle.h)
    return sample_box(2 * bundle.dim, params["points"], box=box, seed=params["seed"])


def _check_dhc_explicit(cfg: RunConfig, bundle, params: dict):
    if not isinstance(bundle, VariationalSystem):
        raise ConfigError(
            f"dhc-explicit needs a system with an explicit recurrence and a "
            f"momentum map; {cfg.system!r} does not provide them")
    samples = _box_samples(cfg, bundle, params)
    return check_dhc_explicit(bundle.fiber, bundle.recurrence, samples,
                              tol=params["tol"], system=bundle.name, params=params)


def _check_dhc_implicit(cfg: RunConfig, bundle, params: dict):
    if isinstance(bundle, ImplicitRecurrenceSystem):
        fiber, equation = bundle.fiber, bundle.equation
    elif isinstance(bundle, VariationalSystem):
        fiber, equation = bundle.fiber, explicit_to_implicit(bundle.recurrence)
    else:
        raise ConfigError(
            f"dhc-implicit needs a second-order recurrence; {cfg.system!r} "
            f"does not provide one")
    samples = _box_samples(cfg, bundle, params)
    return check_dhc_implicit(fiber, equation, samples, tol=params["tol"],
                              system=bundle.name, params=params)


def _check_isotropy(cfg: RunConfig, bundle, params: dict):
    if isinstance(bundle, RollingDisk):
        if cfg.box is not None:
            raise ConfigError(
                "box does not apply to rolling-disk isotropy: its "
                "constraint-chart sampler has fixed ranges")
        fiber_name = cfg.fiber or "doubled-rate"
        if fiber_name not in bundle.fibers:
            known = ", ".join(sorted(bundle.fibers))
            raise ConfigError(
                f"unknown fiber map {fiber_name!r}; choose from {known}")
        rule_name = cfg.rule or "midpoint"
        rule = _resolve_rule(rule_name)
        params.update(h=bundle.h, fiber=fiber_name, rule=rule_name,
                      sampler="constraint-chart")
        embedding = bundle.chart_embedding(bundle.fibers[fiber_name], rule)
        samples = bundle.chart_samples(params["points"], params["seed"])
        return check_isotropy(embedding, samples, tol=params["tol"],
                              system=cfg.system, params=params)
    if isinstance(bundle, VariationalSystem):
        samples = _box_samples(cfg, bundle, params)
        embedding = gamma_embedding(bundle.fiber, bundle.recurrence)
        return check_isotropy(embedding, samples, tol=params["tol"],
                              system=bundle.name, params=params,
                              lagrangian_dim=2 * bundle.dim)
    raise ConfigError(
        f"isotropy needs a momentum-map embedding; {cfg.system!r} "
        f"does not provide one")


def _require_force_system(cfg: RunConfig, bundle, which: str):
    if not isinstance(bundle, ImplicitForceSystem):
        raise ConfigError(
            f"{which} needs a continuous force system such as implicit-exp; "
            f"got {cfg.system!r}")


def _check_chc(cfg: RunConfig, bundle, params: dict):
    _require_force_system(cfg, bundle, "chc")
    # chc runs on the system's fixed jets: no points or seed to record
    params = {"tol": params["tol"], "jets": len(bundle.jets)}
    return check_chc(bundle.force, bundle.jets, tol=params["tol"],
                     system=bundle.name, params=params)


def _check_ihc(cfg: RunConfig, bundle, params: dict):
    _require_force_system(cfg, bundle, "ihc")
    if cfg.box is not None:
        probes = bundle.probes(params["points"], seed=params["seed"], box=cfg.box)
        params.update(box=cfg.box)
    else:
        probes = bundle.probes(params["points"], seed=params["seed"])
    return check_ihc(bundle.momentum, bundle.ode, probes, tol=params["tol"],
                     system=bundle.name, params=params)


def _check_two_form(cfg: RunConfig, bundle, params: dict):
    if isinstance(bundle, VariationalSystem):
        omega, name = bundle.two_form(), bundle.name
    elif isinstance(bundle, DiscreteLagrangian):
        omega, name = TwoFormField.from_lagrangian(bundle), cfg.system
    else:
        raise ConfigError(
            f"two-form needs a discrete Lagrangian; {cfg.system!r} does "
            f"not provide one")
    samples = _box_samples(cfg, bundle, params)
    return check_two_form(omega, samples, tol=params["tol"], system=name,
                          params=params)


# check name -> (default verdict tolerance, report builder); the builders
# call the check_* functions by their module-level names at call time.
CHECKS = {
    "dhc-explicit": (1e-8, _check_dhc_explicit),
    "dhc-implicit": (1e-8, _check_dhc_implicit),
    "isotropy": (1e-6, _check_isotropy),
    "chc": (1e-7, _check_chc),
    "ihc": (1e-7, _check_ihc),
    "two-form": (1e-6, _check_two_form),
}


def cmd_check(cfg: RunConfig, which: str, bundle) -> int:
    default_tol, build_report = CHECKS[which]
    params = {"tol": cfg.tol if cfg.tol is not None else default_tol,
              "points": cfg.points if cfg.points is not None else DEFAULT_POINTS,
              "seed": cfg.seed if cfg.seed is not None else 0}
    report = build_report(cfg, bundle, params)
    _emit(cfg.out, report.to_json() + "\n")
    return 0 if report.verdict else 3


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE",
                        help="flat key=value config file; flags override it")
    parser.add_argument("--system", metavar="NAME",
                        help="built-in system: " + ", ".join(system_names()))
    parser.add_argument("--rule", metavar="RULE",
                        help="constraint rule for rolling-disk: midpoint, "
                             "trapezoidal, alpha:<x>, euler-a, euler-b")
    parser.add_argument("--h", metavar="H", help="time step override")
    parser.add_argument("--steps", metavar="N",
                        help=f"number of steps to integrate (default {DEFAULT_STEPS})")
    parser.add_argument("--dim", metavar="D",
                        help="dimension override (toy-free-particle)")
    parser.add_argument("--gauge", metavar="G",
                        help="boundary-term coefficient (backward-error)")
    parser.add_argument("--q0", metavar="V",
                        help="first point, comma-separated components")
    parser.add_argument("--q1", metavar="V",
                        help="second point, comma-separated components")
    parser.add_argument("--fiber", metavar="NAME",
                        help="momentum map for rolling-disk isotropy: "
                             "doubled-rate, doubled-increment, turn-ratio")
    parser.add_argument("--tol", metavar="T",
                        help="tolerance: Newton for simulate, verdict for check")
    parser.add_argument("--points", metavar="N",
                        help=f"sample count for checks (default {DEFAULT_POINTS})")
    parser.add_argument("--box", metavar="B",
                        help="half-width of the sampling box (default 1)")
    parser.add_argument("--seed", metavar="S",
                        help="sampling seed (default 0)")
    parser.add_argument("--out", metavar="FILE",
                        help="output path (default: stdout); written atomically")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="varmech",
                     description="Integrate discrete mechanical systems and "
                                 "test difference equations for variationality.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{simulate,check}")
    sim = sub.add_parser(
        "simulate",
        help="integrate a built-in system and write a CSV trajectory",
        description="Integrate a built-in system from its default or given "
                    "initial pair and write k,<coordinates>,<energies> rows.")
    _add_run_options(sim)
    chk = sub.add_parser(
        "check",
        help="run a sampled variationality test and write a JSON report",
        description="Run one variationality test on a built-in system and "
                    "write a JSON condition report.")
    chk.add_argument("which", choices=tuple(CHECKS),
                     help="which condition family to test")
    _add_run_options(chk)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        cfg = load_config(ns)
        bundle = build_bundle(cfg)
        if ns.command == "simulate":
            return cmd_simulate(cfg, bundle)
        return cmd_check(cfg, ns.which, bundle)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except StepFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
