"""Bridge between continuous Lagrangian systems and their discretizations.

The constructions here start from a continuous system (a Lagrangian with
its acceleration field) and produce discrete objects:

* the exact discrete Lagrangian, the action integral along the
  two-point boundary solution over one step;
* the exponential-map discretization, a second-order recurrence built
  by inverting the one-step boundary problem and following the flow for
  two steps;
* the discrete momentum map induced by the boundary inversion.

A small toolkit for modified-equation (backward error) studies of the
one-dimensional oscillator step lives at the bottom: the truncated
shadow system, the closed-form phase step, and an order study of the
gap between the stepping Lagrangian and the exact discrete Lagrangian
of the shadow system.

Boundary inversions are solved by Newton iteration on the initial
velocity to a position residual of 1e-12; actions are integrated by
composite Gauss-Legendre quadrature, doubling the panel count until two
successive answers agree to 1e-10 (the 8-point panels make the first
doubling decisive for smooth flows).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import numkit, systems
from .errors import NoConvergence
from .helmholtz import FiberMap
from .lagrangian import DiscreteLagrangian
from .sode import ExplicitSOdE

SHOOT_TOL = 1e-12
QUAD_TOL = 1e-10
QUAD_NODES = 8
FLOW_MAX_STEP = 1e-3


@dataclass
class ContinuousSystem:
    """A regular Lagrangian system on R^dim.

    ``lagrangian(q, v)`` is the scalar Lagrangian, ``gamma(q, v)`` the
    acceleration field of its Euler-Lagrange equations, and ``dv`` the
    fiber derivative (momentum) when available in closed form.  An
    analytic ``flow(q, v, t) -> (q_t, v_t)`` shortcuts the integrator.
    """

    dim: int
    lagrangian: Callable
    gamma: Callable
    dv: Callable | None = None
    flow: Callable | None = None

    def flow_to(self, q, v, t):
        """State (q_t, v_t) reached from (q, v) after time t."""
        q = np.asarray(q, dtype=float)
        v = np.asarray(v, dtype=float)
        if self.flow is not None:
            qt, vt = self.flow(q, v, t)
            return np.asarray(qt, dtype=float), np.asarray(vt, dtype=float)
        n = self.dim

        def field(_, y):
            return np.concatenate([y[n:], self.gamma(y[:n], y[n:])])

        y = numkit.rk4(field, np.concatenate([q, v]), 0.0, t,
                       max_step=FLOW_MAX_STEP)
        return y[:n], y[n:]

    def momentum(self, q, v):
        if self.dv is not None:
            return np.asarray(self.dv(q, v), dtype=float)
        return numkit.fd_gradient(lambda u: self.lagrangian(q, u), v)


def continuous_free_particle(dim: int = 2) -> ContinuousSystem:
    return ContinuousSystem(
        dim=dim,
        lagrangian=lambda q, v: 0.5 * float(v @ v),
        gamma=lambda q, v: np.zeros(dim),
        dv=lambda q, v: v.copy(),
        flow=lambda q, v, t: (q + t * v, v),
    )


def continuous_oscillator() -> ContinuousSystem:
    return ContinuousSystem(
        dim=1,
        lagrangian=lambda q, v: 0.5 * float(v @ v - q @ q),
        gamma=lambda q, v: -q,
        dv=lambda q, v: v.copy(),
        flow=lambda q, v, t: (q * math.cos(t) + v * math.sin(t),
                              v * math.cos(t) - q * math.sin(t)),
    )


def shoot_initial_velocity(system: ContinuousSystem, q0, q1, h: float, guess=None):
    """Initial velocity whose trajectory reaches q1 from q0 in time h."""
    q0 = np.asarray(q0, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    if guess is None:
        guess = (q1 - q0) / h

    def residual(v):
        return system.flow_to(q0, v, h)[0] - q1

    return numkit.newton_solve(residual, guess, tol=SHOOT_TOL)


def _composite_quadrature(integrand: Callable, length: float,
                          tol: float = QUAD_TOL, max_panels: int = 64):
    """Integrate over [0, length] on doubling Gauss-Legendre panels."""
    nodes, weights = numkit.gauss_legendre(QUAD_NODES)
    previous = None
    panels = 1
    while panels <= max_panels:
        width = length / panels
        total = 0.0
        for k in range(panels):
            left = k * width
            for x, w in zip(nodes, weights):
                total += w * integrand(left + x * width)
        total *= width
        if previous is not None and abs(total - previous) < tol:
            return total
        previous = total
        panels *= 2
    raise NoConvergence(
        f"action quadrature still moving after {max_panels} panels",
        residual=abs(total - previous), iterations=max_panels,
    )


def exact_discrete_lagrangian(system: ContinuousSystem, h: float) -> DiscreteLagrangian:
    """Action integral along the one-step boundary solution, as a
    discrete Lagrangian.

    The slot derivatives are the endpoint momenta of the boundary
    solution (negated in the first slot), so no differentiation of the
    quadrature is ever needed.
    """

    def solve(q0, q1):
        v0 = shoot_initial_velocity(system, q0, q1, h)
        return v0

    def value(q0, q1):
        v0 = solve(q0, q1)

        def integrand(t):
            q, v = system.flow_to(q0, v0, t)
            return system.lagrangian(q, v)

        return _composite_quadrature(integrand, h)

    def d1(q0, q1):
        return -system.momentum(q0, solve(q0, q1))

    def d2(q0, q1):
        v0 = solve(q0, q1)
        qh, vh = system.flow_to(q0, v0, h)
        return system.momentum(qh, vh)

    return DiscreteLagrangian(dim=system.dim, h=h, value=value, d1=d1, d2=d2)


def exp_map_discretize(system: ContinuousSystem, h: float) -> ExplicitSOdE:
    """Second-order recurrence from the flow: invert the one-step
    boundary problem for the starting velocity, then follow the flow
    for two steps."""

    def gamma(q0, q1):
        v0 = shoot_initial_velocity(system, q0, q1, h)
        return system.flow_to(q0, v0, 2.0 * h)[0]

    return ExplicitSOdE(dim=system.dim, gamma=gamma)


def discrete_fiber_map(system: ContinuousSystem, h: float) -> FiberMap:
    """Momentum of the boundary solution at its left endpoint, as a
    discrete momentum map on pairs."""

    def func(q0, q1):
        return system.momentum(q0, shoot_initial_velocity(system, q0, q1, h))

    return FiberMap(dim=system.dim, func=func)


# ---------------------------------------------------------------------------
# modified-equation study of the oscillator step


def modified_oscillator(h: float, gauge: float = 0.0) -> ContinuousSystem:
    """First-order shadow system of the oscillator step: the harmonic
    dynamics with an order-h total-derivative correction to the
    Lagrangian (it shifts momenta, never trajectories)."""
    base = continuous_oscillator()
    return ContinuousSystem(
        dim=1,
        lagrangian=lambda q, v: (0.5 * float(v @ v - q @ q)
                                 + h * float(gauge * v[0] + 0.5 * q[0] * v[0])),
        gamma=base.gamma,
        dv=lambda q, v: v + h * (gauge + 0.5 * q),
        flow=base.flow,
    )


@dataclass
class BackwardErrorCase:
    """Oscillator step bundled with its first-order shadow data."""

    system: systems.VariationalSystem
    shadow: ContinuousSystem
    h: float
    gauge: float

    def phase_step(self, x: float, p: float):
        """Closed-form phase-space step implied by the two discrete
        momentum maps; exact in floating point."""
        h = self.h
        return ((1.0 - h * h) * x + h * p - self.gauge * h * h, p - h * x)

    def shadow_energy(self, x: float, p: float):
        """The shadow Hamiltonian that ``phase_step`` conserves exactly,
        the catalogue's ``shadow`` monitor of backward-error."""
        h, gauge = self.h, self.gauge
        return (0.5 * (x * x + p * p) - h * (gauge * p + 0.5 * x * p)
                + 0.5 * gauge * h * h * x)

    def exact_shadow_lagrangian(self) -> DiscreteLagrangian:
        return exact_discrete_lagrangian(self.shadow, self.h)


def backward_error_objects(h: float = 0.1, gauge: float = 0.0) -> BackwardErrorCase:
    return BackwardErrorCase(
        system=systems.backward_error(h=h, gauge=gauge),
        shadow=modified_oscillator(h, gauge),
        h=h,
        gauge=gauge,
    )


def order_study_backward(gauge: float = 0.0, x0: float = 1.0, v0: float = 0.65,
                         h_values=None, along_solution: bool = True):
    """Gap between the stepping Lagrangian and the exact discrete
    Lagrangian of its shadow system, swept over step sizes.

    Returns (h_values, gaps, slope).  Along solution-generated pairs the
    gap closes at third order; over a fixed pair it only closes at
    first order, which separates genuine shadow agreement from the
    trivial smallness of any O(h) quantity.
    """
    if h_values is None:
        h_values = np.geomspace(1e-3, 1e-1, 6)
    h_values = np.asarray(h_values, dtype=float)
    gaps = np.empty_like(h_values)
    for k, h in enumerate(h_values):
        case = backward_error_objects(h=h, gauge=gauge)
        shadow_ld = case.exact_shadow_lagrangian()
        a = np.array([x0])
        if along_solution:
            b = case.shadow.flow_to(a, np.array([v0]), h)[0]
        else:
            b = np.array([x0 + v0])
        gaps[k] = abs(case.system.lagrangian.value(a, b) - shadow_ld.value(a, b))
    return h_values, gaps, numkit.fit_order(h_values, gaps)
