"""Discrete Lagrange-d'Alembert integration for constrained systems.

A nonholonomic system here is a discrete Lagrangian together with a
field of constraint one-forms w(q) (rows of an m-by-n matrix).  One
step solves the coupled system

    D1 L_d(q1, q2) + D2 L_d(q0, q1) = w(q1)^T lambda,
    constraint(q1, q2) = 0,

for the new point q2 and the multipliers lambda, where the discrete
constraint averages w along the segment according to a quadrature rule
and contracts with the divided difference (q2 - q1)/h.

The rules are defined by interior nodes a*qk + b*qk1 with weights; the
usual menagerie (midpoint, trapezoidal, the one-parameter family
interpolating them, and the two one-sided endpoint rules) is provided,
plus a small parser for selecting rules from strings on a command
line.  Different rules give dynamics with visibly different energy
behavior even though all are consistent discretizations of the same
constraint distribution.
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


def midpoint_rule():
    return DiscretizationRule("midpoint", ((0.5, 0.5, 1.0),))


def trapezoidal_rule():
    return DiscretizationRule("trapezoidal", ((1.0, 0.0, 0.5), (0.0, 1.0, 0.5)))


def alpha_rule(alpha):
    """Two symmetric interior nodes; 0 or 1 is trapezoidal, 1/2 is midpoint."""
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must lie in [0, 1], got {alpha}")
    return DiscretizationRule(
        f"alpha:{alpha:g}",
        ((1.0 - alpha, alpha, 0.5), (alpha, 1.0 - alpha, 0.5)),
    )


def euler_a_rule():
    return DiscretizationRule("euler-a", ((1.0, 0.0, 1.0),))


def euler_b_rule():
    return DiscretizationRule("euler-b", ((0.0, 1.0, 1.0),))


def rule_from_spec(spec: str) -> DiscretizationRule:
    """Parse a rule name: midpoint, trapezoidal, euler-a, euler-b, or
    alpha:<value>."""
    spec = spec.strip().lower()
    simple = {
        "midpoint": midpoint_rule,
        "trapezoidal": trapezoidal_rule,
        "euler-a": euler_a_rule,
        "euler-b": euler_b_rule,
    }
    if spec in simple:
        return simple[spec]()
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
    derivative tensor grad[a, s, j] = d w[a, s] / d q_j used for the
    analytic Newton Jacobian (finite differences otherwise).
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
        """The constraint matrix at q, checked to be (m, n)."""
        return _node_forms(self, [np.asarray(q, dtype=float)])[0]


def _node_forms(system, points):
    """The constraint matrices at each of ``points`` (the node points of
    a segment), each checked to be (m, n): DomainError otherwise."""
    forms = system.constraint_forms
    shape = (system.n_constraints, system.dim)
    ws = []
    for point in points:
        w = np.asarray(forms(point), dtype=float)
        if w.shape != shape:
            raise DomainError(f"constraint matrix has shape {w.shape}, expected {shape}")
        ws.append(w)
    return ws


def _constraint_at_nodes(rule, v, ws, out):
    """discrete_constraint from the divided difference ``v`` and the
    node forms ``ws`` of ``_node_forms``, added into ``out`` (zeros)."""
    for (_, _, wt), w in zip(rule.nodes, ws):
        out += wt * (w @ v)
    return out


def _grad_jacobian_at_nodes(system, rule, v, points, ws, out):
    """The analytic _constraint_jacobian, written into ``out`` (m, n),
    from ``v`` and the segment's ``_node_forms``; needs
    ``system.constraint_grad``."""
    h = system.lagrangian.h
    grad = system.constraint_grad
    out[...] = 0.0
    for (_, b, wt), point, w in zip(rule.nodes, points, ws):
        out += (wt / h) * w
        if b != 0.0:
            out += (wt * b) * (v @ np.asarray(grad(point), dtype=float))
    return out


def discrete_constraint(system: NonholonomicSystem, rule: DiscretizationRule, qk, qk1):
    """The rule's discretization of the constraints on a segment."""
    qk = np.asarray(qk, dtype=float)
    qk1 = np.asarray(qk1, dtype=float)
    ws = _node_forms(system, rule.points(qk, qk1))
    return _constraint_at_nodes(rule, (qk1 - qk) / system.lagrangian.h, ws,
                                np.zeros(system.n_constraints))


def _constraint_jacobian(system, rule, q1, q2):
    """Derivative of the discrete constraint with respect to q2."""
    if system.constraint_grad is None:
        return numkit.fd_jacobian(
            lambda q: discrete_constraint(system, rule, q1, q), q2)
    points = rule.points(q1, q2)
    ws = _node_forms(system, points)
    return _grad_jacobian_at_nodes(system, rule, (q2 - q1) / system.lagrangian.h,
                                   points, ws, np.empty((system.n_constraints, system.dim)))


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

    The Newton matrix [[D12, -w(q1)^T], [dC/dq2, 0]] is one block per
    step, refilled in place each iterate.  Newton calls the Jacobian at
    the iterate of its last residual, whose node points, forms and
    divided difference the analytic constraint Jacobian reuses: one
    forms evaluation per node per iterate.  The Lagrangian's analytic
    d1 and d12 are called directly, the D1/D12 fallbacks when absent.
    """
    q0 = np.asarray(q0, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    n = system.dim
    m = system.n_constraints
    lag = system.lagrangian
    h = lag.h
    d1 = lag.D1 if lag.d1 is None else lag.d1
    d12 = lag.D12 if lag.d12 is None else lag.d12
    analytic = system.constraint_grad is not None
    d2_prev = lag.D2(q0, q1)
    w1t = system.forms(q1).T
    base = [(a * q1, b) for a, b, _ in rule.nodes]  # the q1 parts of the node points
    last = [None, None, None, None]  # the last residual's iterate, v, node points and forms

    def residual(u):
        q2 = u[:n]
        points = [q1_part + b * q2 for q1_part, b in base]
        ws = _node_forms(system, points)
        v = (q2 - q1) / h
        last[:] = u, v, points, ws
        r = np.zeros(n + m)
        r[:n] = d1(q1, q2) + d2_prev - w1t @ u[n:]
        _constraint_at_nodes(rule, v, ws, r[n:])
        return r

    block = np.zeros((n + m, n + m))
    block[:n, n:] = -w1t

    def jacobian(u):
        q2 = u[:n]
        block[:n, :n] = d12(q1, q2)
        if analytic and last[0] is u:
            _grad_jacobian_at_nodes(system, rule, last[1], last[2], last[3], block[n:, :n])
        else:
            block[n:, :n] = _constraint_jacobian(system, rule, q1, q2)
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
