"""Command-line front end: trajectory runs and variationality checks.

Two subcommands share one flat configuration schema, the ``OPTIONS``
table: each run option's flag, config-file key, cast, range rule and
help are stated there once.  ``simulate`` integrates a built-in system
and writes a CSV trajectory; ``check`` runs one of the sampled
variationality tests and writes a JSON report.

    varmech simulate --system rolling-disk --rule alpha:0.25 \
        --steps 200 --out disk.csv
    varmech check isotropy --system rolling-disk --fiber doubled-rate

Options may come from a ``key=value`` config file (``--config``), with
command-line flags taking precedence.  Unknown keys are rejected, and
file values pass the same casts and range checks as flags; a
non-finite number is a configuration error.  Output files are written
atomically (temp file plus rename) and a rerun with identical
configuration produces byte-identical output.

Exit codes: 0 success (check verdict pass), 1 configuration error or
an output file that cannot be written (whatever the run's outcome),
2 solver failure during a run, 3 check verdict fail (the report is
still written).

``main`` may be called many times in one process: the argument parser
is built by the first call and reused; nothing else persists between
calls.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile

import numpy as np

from .errors import ConfigError, NumericsError, StepFailure, UnknownSystem
from .helmholtz import (TwoFormField, check_chc, check_dhc_explicit,
                        check_dhc_implicit, check_ihc, check_isotropy,
                        check_two_form, gamma_embedding, sample_box)
from .lagrangian import DiscreteLagrangian
from .lagrangian import simulate as lagrangian_simulate
from .nonholonomic import dla_simulate, rule_from_spec
from .numkit import PAIR_CHUNK, march, pair_series
from .sode import explicit_to_implicit, implicit_step
from .systems import (ImplicitForceSystem, ImplicitRecurrenceSystem,
                      RollingDisk, VariationalSystem, make_system,
                      system_names)

DEFAULT_STEPS = 100
DEFAULT_POINTS = 32
# Largest step and sample count: a run holds all its points, and a
# check all its samples, in memory, so a larger count is a mistake (and
# beyond numpy's largest shape, a crash).
MAX_COUNT = 10 ** 9


# ---------------------------------------------------------------------------
# configuration


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _finite_vector(text):
    return np.array([_finite(part) for part in text.split(",")])


# Cast kinds, (cast raising ValueError on bad text, what it expects),
# and the range rule, (predicate, complaint), shared by several options.
_TEXT = (str, None)
_INTEGER = (int, "an integer")
_NUMBER = (_finite, "a finite number")
_VECTOR = (_finite_vector, "comma-separated numbers")
_POSITIVE = (lambda value: value > 0.0, "must be positive")

# The one schema of run options: each row gives the --flag and config
# key, then the argparse metavar, the cast kind, the range rule and the
# help.  Options a command does not use are ignored, so one config file
# can drive a simulation and the checks on one system.
OPTIONS = {
    "system": ("NAME", _TEXT, None, "built-in system: " + ", ".join(system_names())),
    "rule": ("RULE", _TEXT, None, "constraint rule for rolling-disk: midpoint, "
                                  "trapezoidal, alpha:<x>, euler-a, euler-b"),
    "h": ("H", _NUMBER, _POSITIVE, "time step override"),
    "steps": ("N", _INTEGER, (lambda n: 0 <= n <= MAX_COUNT,
                              f"must be between 0 and {MAX_COUNT}"),
              f"number of steps to integrate (default {DEFAULT_STEPS})"),
    "dim": ("D", _INTEGER, None, "dimension override (toy-free-particle)"),
    "gauge": ("G", _NUMBER, None, "boundary-term coefficient (backward-error)"),
    "q0": ("V", _VECTOR, None, "first point, comma-separated components"),
    "q1": ("V", _VECTOR, None, "second point, comma-separated components"),
    "fiber": ("NAME", _TEXT, None, "momentum map for rolling-disk isotropy: "
                                   "doubled-rate, doubled-increment, turn-ratio"),
    "tol": ("T", _NUMBER, _POSITIVE, "tolerance: Newton for simulate, verdict for check"),
    "points": ("N", _INTEGER, (lambda n: 1 <= n <= MAX_COUNT,
                               f"must be between 1 and {MAX_COUNT}"),
               f"sample count for checks (default {DEFAULT_POINTS})"),
    "box": ("B", _NUMBER, _POSITIVE, "half-width of the sampling box (default 1)"),
    "seed": ("S", _INTEGER, None, "sampling seed (default 0)"),
    "out": ("FILE", _TEXT, None, "output path (default: stdout); written atomically"),
}


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
        if key not in OPTIONS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in data:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        data[key] = value
    return data


def load_config(ns: argparse.Namespace) -> argparse.Namespace:
    """Merge the config file, then explicit flags, into one namespace
    with an attribute per option (None where given nowhere); cast and
    check each value by its ``OPTIONS`` row."""
    raw = {} if ns.config is None else parse_config_file(ns.config)
    raw.update((key, getattr(ns, key)) for key in OPTIONS if getattr(ns, key) is not None)
    values = {}
    for key, text in raw.items():
        cast, expects = OPTIONS[key][1]
        try:
            values[key] = cast(text)
        except ValueError:
            raise ConfigError(f"{key} expects {expects}, got {text!r}") from None
    if "system" not in values:
        raise ConfigError("system is required (--system or system= in a config file)")
    for key, (_, _, rule, _) in OPTIONS.items():
        if rule is not None and key in values and not rule[0](values[key]):
            raise ConfigError(f"{key} {rule[1]}, got {values[key]}")
    return argparse.Namespace(**{key: values.get(key) for key in OPTIONS})


def build_bundle(cfg: argparse.Namespace):
    """Instantiate the requested system, folding builder complaints
    (unknown name, rejected or out-of-range parameters) into ConfigError."""
    params = {key: getattr(cfg, key) for key in ("h", "dim", "gauge")
              if getattr(cfg, key) is not None}
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


# ---------------------------------------------------------------------------
# output


def _atomic_write(path: str, text: str) -> None:
    """Write through a temp file and a rename.  An OSError (no such
    directory, a directory at ``path``, no permission) becomes a
    ConfigError naming ``path``; no temp file is left behind."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".varmech-")
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        if isinstance(exc, OSError):
            # strerror, not str(exc), which names the random temp file
            raise ConfigError(
                f"cannot write output file {path}: {exc.strerror or exc}") from exc
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


def cmd_simulate(cfg: argparse.Namespace, bundle) -> int:
    """Each simulable system type picks its stepper and default seed
    pair; the seed check, the CSV and the partial CSV of a failed run
    are shared."""
    steps = DEFAULT_STEPS if cfg.steps is None else cfg.steps
    if isinstance(bundle, RollingDisk):
        rule = _resolve_rule(cfg.rule or "midpoint")
        pair = bundle.initial_pair(rule)

        def run(q0, q1):
            return dla_simulate(bundle.system, rule, q0, q1, steps, tol=cfg.tol)[0]
    elif cfg.rule is not None:
        raise ConfigError("rule only applies to the rolling-disk system")
    elif isinstance(bundle, VariationalSystem):
        pair = bundle.initial

        def run(q0, q1):
            return lagrangian_simulate(bundle.lagrangian, q0, q1, steps, tol=cfg.tol)[0]
    elif isinstance(bundle, ImplicitRecurrenceSystem):
        pair = bundle.initial

        def run(q0, q1):
            return march(lambda a, b: implicit_step(bundle.equation, a, b, tol=cfg.tol),
                         q0, q1, steps, "implicit step")
    else:
        simulable = ("toy-free-particle, harmonic-exact, backward-error, rolling-disk, "
                     "exp-recurrence")
        raise ConfigError(
            f"system {cfg.system!r} has no time stepper; simulable systems: {simulable}")

    if (cfg.q0 is None) != (cfg.q1 is None):
        raise ConfigError("q0 and q1 must be given together")
    if cfg.q0 is not None:
        if cfg.q0.shape != (bundle.dim,) or cfg.q1.shape != (bundle.dim,):
            raise ConfigError(f"q0 and q1 must have {bundle.dim} components for this system")
        pair = cfg.q0, cfg.q1
    coords = bundle.coord_names()
    try:
        points = run(*pair)
    except StepFailure as exc:
        if exc.partial is not None:
            _emit(cfg.out, render_csv(coords, bundle.energies, exc.partial,
                                      failed_at=exc.step))
        print(f"simulate: {exc}", file=sys.stderr)
        return 2
    _emit(cfg.out, render_csv(coords, bundle.energies, points))
    return 0


# ---------------------------------------------------------------------------
# check


def _box_samples(cfg: argparse.Namespace, bundle, params: dict):
    """Pair points in the sampling box; records box and h in params."""
    box = cfg.box if cfg.box is not None else 1.0
    params.update(box=box, h=bundle.h)
    return sample_box(2 * bundle.dim, params["points"], box=box, seed=params["seed"])


def _check_dhc_explicit(cfg: argparse.Namespace, bundle, params: dict):
    if not isinstance(bundle, VariationalSystem):
        raise ConfigError(
            f"dhc-explicit needs a system with an explicit recurrence and a "
            f"momentum map; {cfg.system!r} does not provide them")
    samples = _box_samples(cfg, bundle, params)
    return check_dhc_explicit(bundle.fiber, bundle.recurrence, samples,
                              tol=params["tol"], system=bundle.name, params=params)


def _check_dhc_implicit(cfg: argparse.Namespace, bundle, params: dict):
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


def _check_isotropy(cfg: argparse.Namespace, bundle, params: dict):
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


def _require_force_system(cfg: argparse.Namespace, bundle, which: str):
    if not isinstance(bundle, ImplicitForceSystem):
        raise ConfigError(
            f"{which} needs a continuous force system such as implicit-exp; "
            f"got {cfg.system!r}")


def _check_chc(cfg: argparse.Namespace, bundle, params: dict):
    _require_force_system(cfg, bundle, "chc")
    # chc runs on the system's fixed jets: no points or seed to record
    params = {"tol": params["tol"], "jets": len(bundle.jets)}
    return check_chc(bundle.force, bundle.jets, tol=params["tol"],
                     system=bundle.name, params=params)


def _check_ihc(cfg: argparse.Namespace, bundle, params: dict):
    _require_force_system(cfg, bundle, "ihc")
    if cfg.box is not None:
        probes = bundle.probes(params["points"], seed=params["seed"], box=cfg.box)
        params.update(box=cfg.box)
    else:
        probes = bundle.probes(params["points"], seed=params["seed"])
    return check_ihc(bundle.momentum, bundle.ode, probes, tol=params["tol"],
                     system=bundle.name, params=params)


def _check_two_form(cfg: argparse.Namespace, bundle, params: dict):
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


def cmd_check(cfg: argparse.Namespace, which: str, bundle) -> int:
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
    for key, (metavar, _, _, text) in OPTIONS.items():
        parser.add_argument("--" + key, metavar=metavar, help=text)


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


# The parser, built by the first main call and reused by later ones;
# parse_args keeps each call's state in the Namespace it returns.
_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    ns = _PARSER.parse_args(argv)
    try:
        # numpy's floating-point warnings off: a non-finite value is
        # reported by the NumericsError it raises, in one line
        with np.errstate(all="ignore"):
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
