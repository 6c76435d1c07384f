"""Catalogue of worked example systems with closed-form reference data.

Every entry packages a small mechanical system whose exact behavior is
known, so integrators and variationality tests elsewhere in the package
can be exercised against hand-checkable numbers:

* ``toy-free-particle``: planar free motion, affine solutions;
* ``harmonic-exact``: the unit oscillator discretized through its exact
  flow, with a quadratic invariant and a second, quartic Lagrangian
  generating the same recurrence (the pair feeds the recursion-operator
  machinery);
* ``rolling-disk``: the vertically rolling disk with knife-edge style
  constraints, integrated by the constrained stepper under a choice of
  constraint discretization rule;
* ``extended-disk``: an unconstrained Lagrangian on the full disk
  configuration space whose stationarity equations collapse to the
  constrained dynamics on constraint-satisfying triples;
* ``backward-error``: a one-dimensional oscillator step whose momentum
  carries a gauge term, used to study modified-equation expansions;
* ``implicit-exp``: a two-component implicit force law with an
  exponential acceleration term, testing the continuous machinery;
* ``exp-recurrence``: an implicit one-dimensional recurrence whose
  solution set is free motion in disguise.

Builders take keyword parameters (step size and system constants) and
return small bundles of callables; ``make_system`` looks entries up by
name for the command line.  Every fiber map, recurrence and energy
monitor here is marked by ``numkit.complex_safe``, and so are
extended-disk's and harmonic-exact's ``d12`` and implicit-exp's force
law, ``c`` and momentum, so the checks differentiate them by the
complex step and ``numkit.pair_series`` hands the monitors a block of
pairs at a time; like every marked callable they index coordinates
with ``[..., k]`` and so also take points stacked on leading axes.
They write squares as products, which round alike on a block and on
one pair.  The ``d12`` of the other Lagrangians stays unmarked:
del_step's Newton calls it once per iteration at one point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, UnknownSystem
from .helmholtz import FiberMap, TwoFormField, sample_box
from .lagrangian import DiscreteLagrangian
from .nonholonomic import (DiscretizationRule, NonholonomicSystem,
                           midpoint_energy, midpoint_rule)
from .numkit import complex_safe
from .sode import ExplicitSOdE, ImplicitSOdE


@dataclass
class VariationalSystem:
    """A discrete Lagrangian system bundled with its recurrence, its
    minus-type momentum map, default initial data and energy monitors."""

    name: str
    lagrangian: DiscreteLagrangian
    recurrence: ExplicitSOdE
    fiber: FiberMap
    initial: tuple
    energies: dict = field(default_factory=dict)
    alternate_lagrangian: DiscreteLagrangian | None = None
    invariant: Callable | None = None

    def coord_names(self):
        if self.dim == 1:
            return ("x",)
        return tuple(f"q{i + 1}" for i in range(self.dim))

    @property
    def dim(self):
        return self.lagrangian.dim

    @property
    def h(self):
        return self.lagrangian.h

    def two_form(self):
        return TwoFormField.from_lagrangian(self.lagrangian)

    def alternate_two_form(self):
        if self.alternate_lagrangian is None:
            raise DomainError(f"{self.name} has no alternate Lagrangian")
        return TwoFormField.from_lagrangian(self.alternate_lagrangian)


# ---------------------------------------------------------------------------
# free particle


def free_particle(h: float = 0.1, dim: int = 2) -> VariationalSystem:
    """Kinetic-only Lagrangian on R^dim; solutions are affine in the
    step index and the velocity energy is conserved exactly."""
    if dim < 1:
        raise DomainError("dim must be at least 1")

    lag = DiscreteLagrangian(
        dim=dim, h=h,
        value=lambda q0, q1: float((q1 - q0) @ (q1 - q0)) / (2.0 * h),
        d1=lambda q0, q1: -(q1 - q0) / h,
        d2=lambda q0, q1: (q1 - q0) / h,
        d12=lambda q0, q1: -np.eye(dim) / h,
    )
    velocity = 1.0 / (1.0 + np.arange(dim))
    return VariationalSystem(
        name="toy-free-particle",
        lagrangian=lag,
        recurrence=ExplicitSOdE(dim=dim, gamma=complex_safe(lambda q0, q1: 2 * q1 - q0)),
        fiber=FiberMap(dim=dim, func=complex_safe(lambda q0, q1: (q1 - q0) / h)),
        initial=(np.zeros(dim), h * velocity),
        energies={"kinetic": complex_safe(
            lambda q0, q1: np.square(q1 - q0).sum(axis=-1) / (2 * h * h))},
    )


# ---------------------------------------------------------------------------
# exactly discretized oscillator


def exact_oscillator(h: float = 0.1) -> VariationalSystem:
    """Unit oscillator sampled along its exact flow.

    The quadratic Lagrangian generates x2 = 2 cos(h) x1 - x0, conserves
    q0^2 - 2 cos(h) q0 q1 + q1^2 exactly, and coexists with a quartic
    Lagrangian generating the same recurrence; the ratio of their
    two-forms supplies conserved quantities via trace powers.
    """
    if not 0.0 < h < np.pi:
        raise DomainError("step must lie in (0, pi) for the exact oscillator")
    c, s = np.cos(h), np.sin(h)

    lag = DiscreteLagrangian(
        dim=1, h=h,
        value=lambda q0, q1: float(c * (q0[0] ** 2 + q1[0] ** 2) - 2 * q0[0] * q1[0]) / (2 * s),
        d1=lambda q0, q1: (c * q0 - q1) / s,
        d2=lambda q0, q1: (c * q1 - q0) / s,
        # constant; 0 * (q0 + q1) gives it the points' dtype and leading axes
        d12=complex_safe(lambda q0, q1: (0.0 * (q0 + q1) - 1.0 / s)[..., None]),
    )

    # quartic alternate: same recurrence, cubic momentum
    a4 = (c / s) * (1.0 + (c / s) ** 2 / 3.0)
    b4 = 4.0 / (3.0 * s ** 3)
    c4 = 2.0 * c / s ** 3

    def alt_value(q0, q1):
        x0, x1 = q0[0], q1[0]
        return float(a4 * (x0 ** 4 + x1 ** 4) - b4 * (x0 * x1 ** 3 + x0 ** 3 * x1)
                     + c4 * x0 ** 2 * x1 ** 2)

    alt = DiscreteLagrangian(
        dim=1, h=h,
        value=alt_value,
        d1=lambda q0, q1: 4 * a4 * q0 ** 3 - b4 * (q1 ** 3 + 3 * q0 ** 2 * q1) + 2 * c4 * q0 * q1 ** 2,
        d2=lambda q0, q1: 4 * a4 * q1 ** 3 - b4 * (3 * q0 * q1 ** 2 + q0 ** 3) + 2 * c4 * q0 ** 2 * q1,
        d12=complex_safe(lambda q0, q1: (
            -3 * b4 * (q0 * q0 + q1 * q1) + 4 * c4 * q0 * q1)[..., None]),
    )

    @complex_safe
    def invariant(q0, q1):
        x0, x1 = q0[..., 0], q1[..., 0]
        return x1 * x1 - 2 * c * x0 * x1 + x0 * x0

    return VariationalSystem(
        name="harmonic-exact",
        lagrangian=lag,
        recurrence=ExplicitSOdE(dim=1, gamma=complex_safe(lambda q0, q1: 2 * c * q1 - q0)),
        fiber=FiberMap(dim=1, func=complex_safe(lambda q0, q1: (q1 - c * q0) / s)),
        initial=(np.array([1.0]), np.array([c])),
        energies={"oscillation": complex_safe(
            lambda q0, q1: invariant(q0, q1) / (2 * s * s), invariant)},
        alternate_lagrangian=alt,
        invariant=invariant,
    )


# ---------------------------------------------------------------------------
# vertically rolling disk


def _rule_trig(rule: DiscretizationRule, phi0, phi1):
    """Weighted averages of cos and sin at the rule's interior angles,
    elementwise in stacked angles."""
    cs = 0.0
    sn = 0.0
    for a, b, wt in rule.nodes:
        angle = a * phi0 + b * phi1
        cs += wt * np.cos(angle)
        sn += wt * np.sin(angle)
    return cs, sn


@dataclass
class RollingDisk:
    """The constrained disk: kinetic Lagrangian on (theta, phi, x, y)
    with rolling constraints dx = cos(phi) dtheta, dy = sin(phi) dtheta.

    Under every interior-node rule the heading and rolling angles obey
    closed-form recurrences (uniform for the symmetric family, geometric
    damping or growth for the endpoint rules), which this bundle exposes
    alongside the general constrained stepper inputs.
    """

    h: float
    system: NonholonomicSystem
    energies: dict
    fibers: dict
    base_point: np.ndarray
    next_angles: tuple

    def coord_names(self):
        return ("theta", "phi", "x", "y")

    @property
    def dim(self):
        return 4

    def complete_pair(self, rule: DiscretizationRule, q0=None, theta1=None, phi1=None):
        """Fill in (x1, y1) from the discrete constraints given the new
        angles; defaults reproduce the documented initial data.  Given
        values keep their dtype, so complex points pass through, and may
        be stacked on leading axes."""
        q0 = self.base_point if q0 is None else np.asarray(q0)
        theta1 = self.next_angles[0] if theta1 is None else theta1
        phi1 = self.next_angles[1] if phi1 is None else phi1
        cs, sn = _rule_trig(rule, q0[..., 1], phi1)
        dth = theta1 - q0[..., 0]
        return q0, np.stack([theta1, phi1, q0[..., 2] + dth * cs, q0[..., 3] + dth * sn],
                            axis=-1)

    def reduced_recurrence(self, rule: DiscretizationRule) -> ExplicitSOdE:
        """Closed-form advance on constraint-satisfying pairs.

        The heading angle is always uniform; the rolling angle extends
        with ratio (1 + sum w cos(a dphi)) / (1 + sum w cos(b dphi)),
        which is 1 for every symmetric rule and a geometric factor for
        the endpoint rules.
        """
        h = self.h

        def gamma(q0, q1):
            dth = q1[..., 0] - q0[..., 0]
            dph = q1[..., 1] - q0[..., 1]
            num = 1.0 + sum(wt * np.cos(a * dph) for a, b, wt in rule.nodes)
            den = 1.0 + sum(wt * np.cos(b * dph) for a, b, wt in rule.nodes)
            if np.any(np.abs(den) < 1e-12):
                raise DomainError("degenerate heading increment for this rule")
            dth2 = dth * num / den
            phi2 = 2 * q1[..., 1] - q0[..., 1]
            cs, sn = _rule_trig(rule, q1[..., 1], phi2)
            return np.stack([q1[..., 0] + dth2, phi2,
                             q1[..., 2] + dth2 * cs, q1[..., 3] + dth2 * sn], axis=-1)

        return ExplicitSOdE(dim=4, gamma=complex_safe(gamma))

    def chart_embedding(self, fiber: FiberMap, rule: DiscretizationRule) -> Callable:
        """Embedding of the six-dimensional constraint chart
        (theta0, phi0, x0, y0, theta1, phi1) into two cotangent copies,
        completing (x1, y1) by the rule and advancing by the closed
        form.  Feed the result to the isotropy pullback; it is
        complex-safe when ``fiber``'s ``func`` is."""
        advance = self.reduced_recurrence(rule)

        def embed(z):
            q0, q1 = self.complete_pair(rule, z[..., :4], z[..., 4], z[..., 5])
            q2 = advance(q0, q1)
            return np.concatenate([q0, fiber(q0, q1), q1, fiber(q1, q2)], axis=-1)

        return complex_safe(embed, fiber.func, advance.gamma)

    def chart_samples(self, count: int, seed: int = 0):
        """Chart points with angle increments kept in [0.1, 0.6] so the
        ratio-style momentum map stays well defined."""
        raw = sample_box(6, count, seed=seed)
        out = np.empty_like(raw)
        out[:, :4] = raw[:, :4]
        out[:, 4] = raw[:, 0] + 0.35 + 0.25 * raw[:, 4]
        out[:, 5] = raw[:, 1] + 0.35 + 0.25 * raw[:, 5]
        return out

    def initial_pair(self, rule: DiscretizationRule):
        return self.complete_pair(rule)


def rolling_disk(h: float = 0.05) -> RollingDisk:
    d12_const = -np.eye(4) / (h * h)
    lag = DiscreteLagrangian(
        dim=4, h=h,
        value=lambda q0, q1: float((q1 - q0) @ (q1 - q0)) / (2.0 * h * h),
        d1=lambda q0, q1: -(q1 - q0) / (h * h),
        d2=lambda q0, q1: (q1 - q0) / (h * h),
        d12=lambda q0, q1: d12_const.copy(),
    )

    forms_template = np.array([[0.0, 0.0, 1.0, 0.0],
                               [0.0, 0.0, 0.0, 1.0]])

    def forms(q):
        w = forms_template.copy()
        w[0, 0] = -math.cos(q[1])
        w[1, 0] = -math.sin(q[1])
        return w

    def forms_grad(q):
        grad = np.zeros((2, 4, 4))
        grad[0, 0, 1] = math.sin(q[1])
        grad[1, 0, 1] = -math.cos(q[1])
        return grad

    system = NonholonomicSystem(
        lagrangian=lag, n_constraints=2,
        constraint_forms=forms, constraint_grad=forms_grad,
        name="rolling-disk",
    )

    def parts(q, v):
        """The squared rates and the rolling term, over leading axes."""
        sq = v * v
        roll = v[..., 0] * (np.cos(q[..., 1]) * v[..., 2] + np.sin(q[..., 1]) * v[..., 3])
        return sq[..., 0], sq[..., 1], sq[..., 2], sq[..., 3], roll

    @complex_safe
    def k1(q, v):
        s0, s1, s2, s3, roll = parts(q, v)
        return 0.5 * (s0 + s1 - s2 - s3) + roll

    @complex_safe
    def k2(q, v):
        s0, s1, s2, s3, roll = parts(q, v)
        return 0.5 * (-s0 + s1 - s2 - s3) + roll

    @complex_safe
    def k3(q, v):
        s0, s1, s2, s3, roll = parts(q, v)
        return h * h * (-0.5 * (s2 + s3) + (1.0 / h - 0.5) * s0 + s1 / (2 * h) + roll)

    def turn_ratio(q0, q1):
        dth = q1[..., 0] - q0[..., 0]
        dph = q1[..., 1] - q0[..., 1]
        mu = 0.5 * (q0[..., 1] + q1[..., 1])
        ratio = dth / dph
        second = dph / h - (dth ** 2 / (2 * dph ** 2)) * (1 + np.cos(mu) + np.sin(mu))
        return np.stack([ratio, second, ratio, ratio], axis=-1)

    def doubled_rate(q0, q1):
        dth = q1[..., 0] - q0[..., 0]
        zero = np.zeros_like(dth)
        return np.stack([2 * dth / h, (q1[..., 1] - q0[..., 1]) / h, zero, zero], axis=-1)

    def doubled_increment(q0, q1):
        dth = q1[..., 0] - q0[..., 0]
        zero = np.zeros_like(dth)
        return np.stack([2 * dth, q1[..., 1] - q0[..., 1], zero, zero], axis=-1)

    fibers = {
        "doubled-rate": FiberMap(dim=4, func=complex_safe(doubled_rate)),
        "doubled-increment": FiberMap(dim=4, func=complex_safe(doubled_increment)),
        "turn-ratio": FiberMap(dim=4, func=complex_safe(turn_ratio)),
    }

    return RollingDisk(
        h=h,
        system=system,
        energies={"K1d": midpoint_energy(k1, h),
                  "K2d": midpoint_energy(k2, h),
                  "K3d": midpoint_energy(k3, h)},
        fibers=fibers,
        base_point=np.array([0.5, 0.3, 1.0, 1.0]),
        next_angles=(0.525, 0.31),
    )


# ---------------------------------------------------------------------------
# extended disk Lagrangian (unconstrained, same dynamics on triples)


def extended_disk(h: float = 0.05) -> DiscreteLagrangian:
    """Unconstrained Lagrangian on the full disk configuration space.

    On triples satisfying the midpoint discrete constraints its x and y
    stationarity equations vanish identically, while the theta and phi
    equations are -2/h respectively -1/h times the deviation of those
    angles from uniform progression.
    """

    def split(q0, q1):
        d = q1 - q0
        mu = 0.5 * (q0[1] + q1[1])
        return d, mu, np.cos(mu), np.sin(mu)

    def value(q0, q1):
        d, _, cs, sn = split(q0, q1)
        return float(-0.5 * (d[2] ** 2 + d[3] ** 2) + (1.0 / h - 0.5) * d[0] ** 2
                     + d[1] ** 2 / (2 * h) + d[0] * (cs * d[2] + sn * d[3]))

    def d1(q0, q1):
        d, _, cs, sn = split(q0, q1)
        twist = 0.5 * d[0] * (-sn * d[2] + cs * d[3])
        return np.array([
            -(2.0 / h - 1.0) * d[0] - (cs * d[2] + sn * d[3]),
            -d[1] / h + twist,
            d[2] - d[0] * cs,
            d[3] - d[0] * sn,
        ])

    def d2(q0, q1):
        d, _, cs, sn = split(q0, q1)
        twist = 0.5 * d[0] * (-sn * d[2] + cs * d[3])
        return np.array([
            (2.0 / h - 1.0) * d[0] + cs * d[2] + sn * d[3],
            d[1] / h + twist,
            -d[2] + d[0] * cs,
            -d[3] + d[0] * sn,
        ])

    def d12(q0, q1):
        # over leading axes: coordinates [..., k], rows stacked on axis -2
        d = q1 - q0
        d0, d2, d3 = d[..., 0], d[..., 2], d[..., 3]
        mu = 0.5 * (q0[..., 1] + q1[..., 1])
        cs, sn = np.cos(mu), np.sin(mu)
        one, zero = np.ones_like(mu), np.zeros_like(mu)
        rows = [
            [-(2.0 / h - 1.0) * one, 0.5 * (sn * d2 - cs * d3), -cs, -sn],
            [0.5 * (-sn * d2 + cs * d3),
             -1.0 / h - 0.25 * d0 * (cs * d2 + sn * d3),
             -0.5 * d0 * sn, 0.5 * d0 * cs],
            [-cs, 0.5 * d0 * sn, one, zero],
            [-sn, -0.5 * d0 * cs, zero, one],
        ]
        return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)

    return DiscreteLagrangian(dim=4, h=h, value=value, d1=d1, d2=d2,
                              d12=complex_safe(d12))


# ---------------------------------------------------------------------------
# backward-error oscillator step


def backward_error(h: float = 0.1, gauge: float = 0.0) -> VariationalSystem:
    """One-dimensional oscillator step whose Lagrangian carries a total
    difference term with coefficient ``gauge``.

    The gauge term never enters the recurrence x2 = (2 - h^2) x1 - x0
    but shifts the momentum map and hence the phase-space step
    (x0, p0) -> ((1 - h^2) x0 + h p0 - gauge h^2, p0 - h x0).
    The modified-energy monitor evaluates the shadow Hamiltonian
    (x^2 + p^2)/2 - h (gauge p + x p/2) + gauge h^2 x/2, which that step
    conserves exactly, at the minus momentum of each pair.
    """
    lag = DiscreteLagrangian(
        dim=1, h=h,
        value=lambda q0, q1: float((q1[0] - q0[0]) ** 2 / (2 * h)
                                   - h * q0[0] ** 2 / 2
                                   + gauge * h * (q1[0] - q0[0])),
        d1=lambda q0, q1: -(q1 - q0) / h - h * q0 - gauge * h,
        d2=lambda q0, q1: (q1 - q0) / h + gauge * h,
        d12=lambda q0, q1: np.array([[-1.0 / h]]),
    )
    fiber = FiberMap(dim=1, func=complex_safe(
        lambda q0, q1: (q1 - q0) / h + h * q0 + gauge * h))

    @complex_safe
    def shadow_energy(q0, q1):
        x = q0[..., 0]
        p = fiber(q0, q1)[..., 0]
        return (0.5 * (x * x + p * p) - h * (gauge * p + 0.5 * x * p)
                + 0.5 * gauge * h * h * x)

    x0 = np.array([1.0])
    return VariationalSystem(
        name="backward-error",
        lagrangian=lag,
        recurrence=ExplicitSOdE(
            dim=1, gamma=complex_safe(lambda q0, q1: (2 - h * h) * q1 - q0)),
        fiber=fiber,
        initial=(x0, np.array([(1 - h * h) * x0[0] - gauge * h * h])),
        energies={"shadow": shadow_energy},
    )


# ---------------------------------------------------------------------------
# implicit continuous force law


@dataclass
class ImplicitForceSystem:
    """Implicit second-order force law with a candidate momentum map and
    jets at which the classical test's failure has a closed form."""

    name: str
    ode: ImplicitSOdE
    momentum: Callable
    jets: list
    worst_residual_reference: Callable

    @property
    def dim(self):
        return self.ode.dim

    @property
    def force(self):
        """The force expression (q, qd, qdd) -> phi, complex-safe when
        ``phi`` is."""
        return complex_safe(lambda q, qd, qdd: self.ode(q, qd, qdd), self.ode.phi)

    def probes(self, count: int, seed: int = 0, box: float = 0.8):
        """Stacked (q, qd) sample points for the implicit test."""
        return sample_box(2 * self.dim, count, box=box, seed=seed)


def implicit_exp() -> ImplicitForceSystem:
    """Force law (exp(qdd0 - q0) - 1, qdd1 - q1): not variational as a
    force expression, but variational once tested against the plain
    velocity momentum through the implicit machinery.  The law is an
    ``ImplicitSOdE`` with slots (q, qd, qdd), the type of the implicit
    recurrences, with its analytic acceleration Jacobian as ``c``."""

    def phi(q, qd, qdd):
        out = qdd - q
        out[..., 0] = np.exp(out[..., 0]) - 1.0
        return out

    def c(q, qd, qdd):
        e = np.exp(qdd[..., 0] - q[..., 0])
        out = np.zeros(e.shape + (2, 2), dtype=e.dtype)
        out[..., 0, 0] = e
        out[..., 1, 1] = 1.0
        return out

    jets = [
        (np.zeros(2), np.array([1.0, 1.0]), np.zeros(2), np.zeros(2)),
        (np.array([0.3, -0.1]), np.array([0.5, 0.2]),
         np.array([0.3, -0.1]), np.array([0.7, 0.4])),
    ]

    def reference(jet):
        q, qd, qdd, qddd = jet
        return abs(-2.0 * np.exp(qdd[0] - q[0]) * (qd[0] - qddd[0]))

    return ImplicitForceSystem(
        name="implicit-exp",
        ode=ImplicitSOdE(dim=2, phi=complex_safe(phi), c=complex_safe(c)),
        momentum=complex_safe(lambda q, qd: qd.copy()),
        jets=jets,
        worst_residual_reference=reference,
    )


# ---------------------------------------------------------------------------
# implicit exponential recurrence


@dataclass
class ImplicitRecurrenceSystem:
    """Implicit second-order recurrence with a candidate momentum map."""

    name: str
    equation: ImplicitSOdE
    fiber: FiberMap
    initial: tuple
    h: float
    energies: dict = field(default_factory=dict)

    def coord_names(self):
        return ("x",)

    @property
    def dim(self):
        return self.equation.dim


def exp_recurrence(h: float = 0.1) -> ImplicitRecurrenceSystem:
    """exp(q2 - 2 q1 + q0) = 1: free motion written so that no slot can
    be isolated without taking logarithms."""
    eq = ImplicitSOdE(
        dim=1,
        phi=complex_safe(lambda q0, q1, q2: np.exp(q2 - 2 * q1 + q0) - 1.0),
        c=lambda q0, q1, q2: np.exp(q2 - 2 * q1 + q0).reshape(1, 1),
    )
    return ImplicitRecurrenceSystem(
        name="exp-recurrence",
        equation=eq,
        fiber=FiberMap(dim=1, func=complex_safe(lambda q0, q1: (q1 - q0) / h)),
        initial=(np.array([0.0]), np.array([h])),
        h=h,
        energies={"kinetic": complex_safe(
            lambda q0, q1: np.square(q1[..., 0] - q0[..., 0]) / (2 * h * h))},
    )


# ---------------------------------------------------------------------------
# one-dimensional functional compatibility pairs


@dataclass
class FunctionalPair:
    """Candidate solution (f, g) of the compatibility equation
    g(y, f(x, y)) df/dx + g(x, y) = 0 with its admissibility region."""

    name: str
    f: Callable
    g: Callable
    fx: Callable | None = None
    admissible: Callable | None = None

    def samples(self, count: int = 32, seed: int = 0, box: float = 1.0):
        return sample_box(2, count, box=box, seed=seed, predicate=self.admissible)


def functional_catalog() -> list:
    """The five catalogued solution pairs, each exact on its region."""
    a = 1.3
    b = (a ** 3 - 1.0) / a
    weight = 0.7
    return [
        FunctionalPair(
            name="identity",
            f=lambda x, y: x,
            g=lambda x, y: x - y,
            fx=lambda x, y: 1.0,
        ),
        FunctionalPair(
            name="reflection-constant",
            f=lambda x, y: -x + 2.0 * y,
            g=lambda x, y: 3.0,
            fx=lambda x, y: -1.0,
        ),
        FunctionalPair(
            name="contracting-scaling",
            f=lambda x, y: -0.5 * x,
            g=lambda x, y: 1.0 / abs(x * y),
            fx=lambda x, y: -0.5,
            admissible=lambda p: abs(p[0]) > 0.2 and abs(p[1]) > 0.2,
        ),
        FunctionalPair(
            name="expanding-scaling",
            f=lambda x, y: 2.0 * x,
            g=lambda x, y: 1.0 / (x * abs(y)) - 1.0 / (y * abs(x)),
            fx=lambda x, y: 2.0,
            admissible=lambda p: p[0] * p[1] < -0.04,
        ),
        FunctionalPair(
            name="affine-mixing",
            f=lambda x, y: a * x + b * y,
            g=lambda x, y: -a * a * weight * x + weight * y,
            fx=lambda x, y: a,
            admissible=lambda p: abs(p[0]) + abs(p[1]) > 0.3,
        ),
    ]


# ---------------------------------------------------------------------------
# registry


SYSTEM_BUILDERS = {
    "toy-free-particle": free_particle,
    "harmonic-exact": exact_oscillator,
    "rolling-disk": rolling_disk,
    "extended-disk": extended_disk,
    "backward-error": backward_error,
    "implicit-exp": implicit_exp,
    "exp-recurrence": exp_recurrence,
}


def system_names():
    return sorted(SYSTEM_BUILDERS)


def make_system(name: str, **params):
    """Build a catalogue entry by name; parameters are builder keywords
    (unknown names raise TypeError, bad values DomainError)."""
    try:
        builder = SYSTEM_BUILDERS[name]
    except KeyError:
        raise UnknownSystem(
            f"unknown system {name!r}; available: {', '.join(system_names())}"
        ) from None
    return builder(**params)
