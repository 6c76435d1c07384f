"""Discrete Lagrange-d'Alembert integration for constrained systems.

A nonholonomic system here is a discrete Lagrangian together with a
field of constraint one-forms w(q) (rows of an m-by-n matrix).  One
step solves the coupled system

    D1 L_d(q1, q2) + D2 L_d(q0, q1) = w(q1)^T lambda,
    constraint(q1, q2) = 0,

for the new point q2 and the multipliers lambda, where the discrete
constraint averages w along the segment according to a quadrature rule
and contracts with the divided difference (q2 - q1)/h.

The rules are defined by interior nodes a*qk + b*qk1 with weights.  The
named ones (midpoint, trapezoidal and the two one-sided endpoint rules)
are a table of node tuples that ``rule_from_spec`` reads, next to the
one-parameter family ``alpha_rule`` interpolating midpoint and
trapezoidal; any other node tuple makes a custom rule.  Different rules
give dynamics with visibly different energy behavior even though all
are consistent discretizations of the same constraint distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import numkit
from .errors import DomainError
from .lagrangian import DiscreteLagrangian


@dataclass(frozen=True)
class DiscretizationRule:
    """Quadrature nodes for discretizing constraint one-forms.

    Each node (a, b, weight) contributes weight * w(a*qk + b*qk1) @ v
    with v the divided difference along the segment; a + b = 1 for a
    consistent rule.
    """

    name: str
    nodes: tuple

    def points(self, qk, qk1):
        """The node points a*qk + b*qk1 of the segment, in node order."""
        return [a * qk + b * qk1 for a, b, _ in self.nodes]


# the named rules' nodes; the alpha family is parsed apart
_NAMED_RULES = {
    "midpoint": ((0.5, 0.5, 1.0),),
    "trapezoidal": ((1.0, 0.0, 0.5), (0.0, 1.0, 0.5)),
    "euler-a": ((1.0, 0.0, 1.0),),
    "euler-b": ((0.0, 1.0, 1.0),),
}


def alpha_rule(alpha):
    """Two symmetric interior nodes; 0 or 1 is trapezoidal, 1/2 is midpoint."""
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must lie in [0, 1], got {alpha}")
    return DiscretizationRule(
        f"alpha:{alpha:g}",
        ((1.0 - alpha, alpha, 0.5), (alpha, 1.0 - alpha, 0.5)),
    )


def rule_from_spec(spec: str) -> DiscretizationRule:
    """Parse a rule name: midpoint, trapezoidal, euler-a, euler-b, or
    alpha:<value>."""
    spec = spec.strip().lower()
    if spec in _NAMED_RULES:
        return DiscretizationRule(spec, _NAMED_RULES[spec])
    if spec.startswith("alpha:"):
        try:
            value = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise DomainError(f"bad alpha value in rule spec {spec!r}") from exc
        return alpha_rule(value)
    raise DomainError(f"unknown discretization rule {spec!r}")


@dataclass
class NonholonomicSystem:
    """Discrete Lagrangian plus constraint one-forms.

    constraint_forms(q) returns the m-by-n matrix whose rows are the
    one-forms; constraint_grad, when given, returns the (m, n, n)
    derivative tensor grad[a, s, j] = d w[a, s] / d q_j.  Together with
    the Lagrangian's d12 it makes the analytic Newton Jacobian of
    ``dla_step``; without either, Newton differences the whole residual.
    """

    lagrangian: DiscreteLagrangian
    n_constraints: int
    constraint_forms: Callable
    constraint_grad: Callable | None = None
    name: str = ""

    @property
    def dim(self):
        return self.lagrangian.dim

    def forms(self, q):
        """The constraint matrix at q, checked to be (m, n): DomainError
        otherwise."""
        w = np.asarray(self.constraint_forms(np.asarray(q, dtype=float)), dtype=float)
        shape = (self.n_constraints, self.dim)
        if w.shape != shape:
            raise DomainError(f"constraint matrix has shape {w.shape}, expected {shape}")
        return w


def _constraint_at_nodes(rule, v, ws, out):
    """discrete_constraint from the divided difference ``v`` and the
    forms ``ws`` at the rule's node points, added into ``out`` (zeros)."""
    for (_, _, wt), w in zip(rule.nodes, ws):
        out += wt * (w @ v)
    return out


def discrete_constraint(system: NonholonomicSystem, rule: DiscretizationRule, qk, qk1):
    """The rule's discretization of the constraints on a segment."""
    qk = np.asarray(qk, dtype=float)
    qk1 = np.asarray(qk1, dtype=float)
    ws = [system.forms(point) for point in rule.points(qk, qk1)]
    return _constraint_at_nodes(rule, (qk1 - qk) / system.lagrangian.h, ws,
                                np.zeros(system.n_constraints))


def dla_step(system: NonholonomicSystem, rule: DiscretizationRule, q0, q1,
             *, tol: float | None = None):
    """One constrained step: returns (q2, multipliers).

    The Newton unknown stacks q2 with the multipliers; the initial
    guess continues the segment linearly with zero multipliers.  The
    convergence tolerance is scaled by the size of the incoming
    momentum, since the stationarity residual inherits that magnitude;
    with ``tol`` None, the default, it is also floored
    at the residual's rounding level, which grows with |q| over long
    runs (see ``numkit.newton_solve``).

    The Jacobian follows the package's one policy: the analytic Newton
    matrix [[D12, -w(q1)^T], [dC/dq2, 0]] when the system supplies all
    of it, the Lagrangian's d12 and the system's constraint_grad, and
    Newton's differences of the whole residual otherwise.  The matrix
    is one block per step, refilled in place each iterate; Newton calls
    it at the iterate of its last residual, whose node points, forms
    and divided difference dC/dq2 reuses: one forms evaluation per node
    per iterate.  The Lagrangian's analytic d1 is called directly, the
    D1 fallback when absent.
    """
    q0 = np.asarray(q0, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    n = system.dim
    m = system.n_constraints
    lag = system.lagrangian
    h = lag.h
    d1 = lag.D1 if lag.d1 is None else lag.d1
    d2_prev = lag.D2(q0, q1)
    w1t = system.forms(q1).T
    base = [(a * q1, b) for a, b, _ in rule.nodes]  # the q1 parts of the node points
    last = [None, None, None]  # the last residual's v, node points and forms

    def residual(u):
        q2 = u[:n]
        points = [q1_part + b * q2 for q1_part, b in base]
        ws = [system.forms(point) for point in points]
        v = (q2 - q1) / h
        last[:] = v, points, ws
        r = np.zeros(n + m)
        r[:n] = d1(q1, q2) + d2_prev - w1t @ u[n:]
        _constraint_at_nodes(rule, v, ws, r[n:])
        return r

    jacobian = None
    d12, grad = lag.d12, system.constraint_grad
    if d12 is not None and grad is not None:
        block = np.zeros((n + m, n + m))
        block[:n, n:] = -w1t

        def jacobian(u):
            v, points, ws = last
            block[:n, :n] = d12(q1, u[:n])
            dc = block[n:, :n]
            dc[...] = 0.0
            for (_, b, wt), point, w in zip(rule.nodes, points, ws):
                dc += (wt / h) * w
                if b != 0.0:
                    dc += (wt * b) * (v @ np.asarray(grad(point), dtype=float))
            return block

    guess = np.zeros(n + m)
    guess[:n] = 2 * q1 - q0
    u = numkit.newton_solve(residual, guess, tol=tol, jacobian=jacobian,
                            tol_scale=max(1.0, float(np.maximum.reduce(np.absolute(d2_prev)))))
    return u[:n], u[n:]


def dla_simulate(system: NonholonomicSystem, rule: DiscretizationRule, q0, q1,
                 steps: int, energies: dict | None = None, *, tol: float | None = None):
    """March dla_step.  Returns (points, energy series, multipliers).

    points has shape (steps + 2, dim).  Energy functions take a
    consecutive pair and are evaluated on all steps + 1 of them; the
    multiplier array has one row per solved step.  The seed points must
    have shape (system.dim,) (DomainError).  Numerical failures are
    wrapped in StepFailure with the step index.  ``tol`` is each step's
    Newton tolerance (see ``dla_step``).
    """
    lams = np.empty((max(steps, 0), system.n_constraints))  # march rejects steps < 0
    rows = iter(lams)

    def step(a, b):
        q2, lam = dla_step(system, rule, a, b, tol=tol)
        next(rows)[:] = lam
        return q2

    points = numkit.march(step, q0, q1, steps, "constrained step", dim=system.dim)
    return points, numkit.pair_series(energies or {}, points), lams


def midpoint_energy(func: Callable, h: float) -> Callable:
    """Discretize an energy density E(q, v) at segment midpoints with
    divided-difference velocities: a function of a consecutive pair.

    It carries ``func``'s complex-safe mark, so a density that computes
    over leading axes gets a whole block of pairs from ``pair_series``
    in one call.
    """

    def energy(q0, q1):
        q0 = np.asarray(q0)
        q1 = np.asarray(q1)
        return func(0.5 * (q0 + q1), (q1 - q0) / h)

    return numkit.complex_safe(energy, func)
