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
from .lagrangian import DiscreteLagrangian, Trajectory
from .numkit import NewtonConfig, DEFAULT_NEWTON


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
        return [(a * qk + b * qk1, wt) for a, b, wt in self.nodes]


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
        w = np.asarray(self.constraint_forms(np.asarray(q, dtype=float)), dtype=float)
        if w.shape != (self.n_constraints, self.dim):
            raise DomainError(f"constraint matrix has shape {w.shape}, "
                              f"expected {(self.n_constraints, self.dim)}")
        return w


def _node_forms(system, rule, qk, qk1):
    """The rule's node points on a segment, each with the constraint
    forms there: a list of (point, forms) pairs."""
    points = [a * qk + b * qk1 for a, b, _ in rule.nodes]
    return [(point, system.forms(point)) for point in points]


def _constraint_at_nodes(system, rule, qk, qk1, nodes):
    """discrete_constraint from the segment's ``_node_forms``."""
    v = (qk1 - qk) / system.lagrangian.h
    out = np.zeros(system.n_constraints)
    for (_, _, wt), (_, w) in zip(rule.nodes, nodes):
        out += wt * (w @ v)
    return out


def _grad_jacobian_at_nodes(system, rule, q1, q2, nodes):
    """The analytic _constraint_jacobian from the segment's
    ``_node_forms``; needs ``system.constraint_grad``."""
    h = system.lagrangian.h
    v = (q2 - q1) / h
    out = np.zeros((system.n_constraints, system.dim))
    for (_, b, wt), (point, w) in zip(rule.nodes, nodes):
        out += (wt / h) * w
        if b != 0.0:
            grad = np.asarray(system.constraint_grad(point), dtype=float)
            out += (wt * b) * (v @ grad)
    return out


def discrete_constraint(system: NonholonomicSystem, rule: DiscretizationRule, qk, qk1):
    """The rule's discretization of the constraints on a segment."""
    qk = np.asarray(qk, dtype=float)
    qk1 = np.asarray(qk1, dtype=float)
    return _constraint_at_nodes(system, rule, qk, qk1, _node_forms(system, rule, qk, qk1))


def _constraint_jacobian(system, rule, q1, q2):
    """Derivative of the discrete constraint with respect to q2."""
    if system.constraint_grad is None:
        return numkit.fd_jacobian(
            lambda q: discrete_constraint(system, rule, q1, q), q2)
    return _grad_jacobian_at_nodes(system, rule, q1, q2, _node_forms(system, rule, q1, q2))


def dla_step(system: NonholonomicSystem, rule: DiscretizationRule, q0, q1,
             guess=None, cfg: NewtonConfig = DEFAULT_NEWTON):
    """One constrained step: returns (q2, multipliers).

    The Newton unknown stacks q2 with the multipliers; the initial
    guess continues the segment linearly with zero multipliers unless
    one is supplied.  The convergence tolerance is scaled by the size
    of the incoming momentum, since the stationarity residual inherits
    that magnitude; unless ``cfg.abs_tol`` is set it is also floored
    at the residual's rounding level, which grows with |q| over long
    runs (see ``numkit.newton_solve``).

    The Newton matrix [[D12, -w(q1)^T], [dC/dq2, 0]] is one block per
    step, refilled in place each iterate.  Newton calls the Jacobian at
    the iterate of its last residual, whose node points and forms the
    analytic constraint Jacobian reuses: one forms evaluation per node
    per iterate.
    """
    q0 = np.asarray(q0, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    n = system.dim
    m = system.n_constraints
    lag = system.lagrangian
    d2_prev = lag.D2(q0, q1)
    w1t = system.forms(q1).T
    last = [None, None]  # the iterate of the last residual and its node forms

    def residual(u):
        q2, lam = u[:n], u[n:]
        nodes = _node_forms(system, rule, q1, q2)
        last[:] = u, nodes
        return np.concatenate([lag.D1(q1, q2) + d2_prev - w1t @ lam,
                               _constraint_at_nodes(system, rule, q1, q2, nodes)])

    block = np.zeros((n + m, n + m))
    block[:n, n:] = -w1t

    def jacobian(u):
        q2 = u[:n]
        block[:n, :n] = lag.D12(q1, q2)
        if system.constraint_grad is None or last[0] is not u:
            block[n:, :n] = _constraint_jacobian(system, rule, q1, q2)
        else:
            block[n:, :n] = _grad_jacobian_at_nodes(system, rule, q1, q2, last[1])
        return block

    if guess is None:
        guess = np.concatenate([2 * q1 - q0, np.zeros(m)])
    u = numkit.newton_solve(residual, guess, cfg, jacobian=jacobian,
                            tol_scale=max(1.0, float(abs(d2_prev).max())))
    return u[:n], u[n:]


def dla_simulate(system: NonholonomicSystem, rule: DiscretizationRule, q0, q1,
                 steps: int, energies: dict | None = None,
                 cfg: NewtonConfig = DEFAULT_NEWTON):
    """March dla_step.  Returns (trajectory, energy series, multipliers).

    The trajectory holds steps + 2 points.  Energy functions take a
    consecutive pair and are evaluated on all steps + 1 of them; the
    multiplier array has one row per solved step.  Numerical failures
    are wrapped in StepFailure with the step index.
    """
    lams = np.empty((max(steps, 0), system.n_constraints))  # march rejects steps < 0
    rows = iter(lams)

    def step(a, b):
        q2, lam = dla_step(system, rule, a, b, cfg=cfg)
        next(rows)[:] = lam
        return q2

    points = numkit.march(step, q0, q1, steps, "constrained step")
    return (Trajectory(points=points, h=system.lagrangian.h),
            numkit.pair_series(energies or {}, points), lams)


def midpoint_energy(func: Callable, h: float) -> Callable:
    """Discretize an energy density E(q, v) at segment midpoints with
    divided-difference velocities."""

    def wrapped(q0, q1):
        q0 = np.asarray(q0, dtype=float)
        q1 = np.asarray(q1, dtype=float)
        return float(func(0.5 * (q0 + q1), (q1 - q0) / h))

    return wrapped
