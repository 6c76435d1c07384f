"""Per-layer tracing from outside the program.

The tracer replaces public functions of the varmech modules with timing
wrappers, in every namespace that looks them up at call time (so
``cli.implicit_step`` is wrapped as well as ``sode.implicit_step``),
and puts the originals back on ``uninstall``.  The program itself is
not modified.  Each wrapper keeps running totals rather than a span
list, so memory stays flat however many calls a run makes:

* calls, and calls that raised;
* self time: the span's duration minus the time of wrapped spans
  called inside it;
* a per-span count where one exists (CSV rows rendered, samples
  decided), and the lu_solve calls made inside newton_solve spans.

``invariants.recursion_operator`` returns a closure; the closure is
wrapped under the same name, so its span covers building the operator
field and every evaluation of it.  ``FiberMap.__call__`` is counted,
not timed.  ``bridge`` is not traced: no workload calls it.
"""

from __future__ import annotations

import inspect
import json
import time
from dataclasses import asdict, dataclass

_CHECKS = {
    # public check function -> the parameter holding its sample points
    "check_dhc_explicit": "samples",
    "check_dhc_implicit": "samples",
    "check_isotropy": "samples",
    "check_chc": "jets",
    "check_ihc": "points",
    "check_two_form": "samples",
    "check_functional": "points",
}


@dataclass
class SpanStats:
    calls: int = 0
    failed: int = 0
    self_s: float = 0.0
    items: int = 0
    inner_solves: int = 0


class Tracer:
    """Timing wrappers over varmech's public functions.

    Build one per process and call ``install``/``uninstall`` around the
    traced work; totals accumulate across installs.
    """

    def __init__(self):
        import varmech.cli as cli
        from varmech import (helmholtz, invariants, lagrangian, nonholonomic,
                             numkit, sode, systems)

        self.stats = {}
        self.fiber_evals = 0
        self._stack = []
        self._newton_depth = 0
        self._patches = []

        self._span("cli.render_csv", [(cli, "render_csv")],
                   count=lambda args, kwargs: len(args[2] if len(args) > 2
                                                  else kwargs["points"]))
        self._span("nonholonomic.dla_step", [(nonholonomic, "dla_step")])
        self._span("lagrangian.del_step", [(lagrangian, "del_step")])
        self._span("sode.implicit_step",
                   [(sode, "implicit_step"), (cli, "implicit_step"),
                    (helmholtz, "implicit_step")])
        self._span("numkit.newton_solve", [(numkit, "newton_solve")],
                   newton=True)
        self._span("numkit.lu_solve", [(numkit, "lu_solve")], solve=True)
        self._span("numkit.fd_jacobian4", [(numkit, "fd_jacobian4")])
        for name, param in _CHECKS.items():
            owners = [(helmholtz, name)] + ([(cli, name)] if hasattr(cli, name) else [])
            self._span("helmholtz.check", owners,
                       count=_bound_length(getattr(helmholtz, name), param))
        self._span("helmholtz.sample_box",
                   [(helmholtz, "sample_box"), (cli, "sample_box"),
                    (systems, "sample_box")])
        self._span("invariants.recursion_operator",
                   [(invariants, "recursion_operator")], wrap_result=True)
        self._span("systems.make_system",
                   [(systems, "make_system"), (cli, "make_system")])

        original_call = helmholtz.FiberMap.__call__

        def counted_call(fiber, q0, q1):
            self.fiber_evals += 1
            return original_call(fiber, q0, q1)

        self._patches.append((helmholtz.FiberMap, "__call__", original_call,
                              counted_call))

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _span(self, name, owners, count=None, newton=False, solve=False,
              wrap_result=False):
        stats = self.stats.setdefault(name, SpanStats())
        for owner, attr in owners:
            original = getattr(owner, attr)
            wrapper = self._wrap(stats, original, count, newton, solve,
                                 wrap_result)
            self._patches.append((owner, attr, original, wrapper))

    def _wrap(self, stats, fn, count, newton, solve, wrap_result):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if count is not None:
                stats.items += count(args, kwargs)
            if solve and self._newton_depth:
                stats.inner_solves += 1
            if newton:
                self._newton_depth += 1
            child = [0.0]
            stack.append(child)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats.failed += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                if newton:
                    self._newton_depth -= 1
                stats.calls += 1
                stats.self_s += elapsed - child[0]
                if stack:
                    stack[-1][0] += elapsed
            if wrap_result:
                return self._wrap(stats, result, None, False, False, False)
            return result

        return wrapper

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics, each a per-round average over ``rounds``
        traced rounds."""
        s = self.stats
        newton = s["numkit.newton_solve"]
        checks = s["helmholtz.check"]
        values = {
            "nonholonomic.dla_step.calls": (s["nonholonomic.dla_step"].calls, "count"),
            "nonholonomic.dla_step.self_s": (s["nonholonomic.dla_step"].self_s, "s"),
            "lagrangian.del_step.calls": (s["lagrangian.del_step"].calls, "count"),
            "lagrangian.del_step.self_s": (s["lagrangian.del_step"].self_s, "s"),
            "sode.implicit_step.calls": (s["sode.implicit_step"].calls, "count"),
            "sode.implicit_step.self_s": (s["sode.implicit_step"].self_s, "s"),
            "numkit.newton_solve.calls": (newton.calls, "count"),
            "numkit.newton_solve.self_s": (newton.self_s, "s"),
            "numkit.newton_solve.failed": (newton.failed, "count"),
            "numkit.lu_solve.calls": (s["numkit.lu_solve"].calls, "count"),
            "numkit.lu_solve.self_s": (s["numkit.lu_solve"].self_s, "s"),
            "numkit.fd_jacobian4.calls": (s["numkit.fd_jacobian4"].calls, "count"),
            "numkit.fd_jacobian4.self_s": (s["numkit.fd_jacobian4"].self_s, "s"),
            "helmholtz.check.self_s": (checks.self_s, "s"),
            "helmholtz.sample_box.self_s": (s["helmholtz.sample_box"].self_s, "s"),
            "helmholtz.samples": (checks.items, "count"),
            "cli.render_csv.self_s": (s["cli.render_csv"].self_s, "s"),
            "cli.render_csv.rows": (s["cli.render_csv"].items, "count"),
            "invariants.recursion_operator.calls":
                (s["invariants.recursion_operator"].calls, "count"),
            "invariants.recursion_operator.self_s":
                (s["invariants.recursion_operator"].self_s, "s"),
            "systems.make_system.self_s": (s["systems.make_system"].self_s, "s"),
        }
        out = {name: {"value": value / rounds, "unit": unit}
               for name, (value, unit) in values.items()}
        out["numkit.newton.iters_per_solve"] = {
            "value": s["numkit.lu_solve"].inner_solves / newton.calls
            if newton.calls else 0.0,
            "unit": "count/solve"}
        out["helmholtz.fiber_evals_per_sample"] = {
            "value": self.fiber_evals / checks.items if checks.items else 0.0,
            "unit": "count/sample"}
        return out


    def write(self, path: str, rounds: int):
        """Write the raw per-span totals of ``rounds`` traced rounds."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"rounds": rounds, "fiber_evals": self.fiber_evals,
                       "spans": {name: asdict(stats)
                                 for name, stats in self.stats.items()}},
                      handle, indent=2)


def _bound_length(fn, param):
    signature = inspect.signature(fn)

    def count(args, kwargs):
        return len(signature.bind(*args, **kwargs).arguments[param])

    return count
