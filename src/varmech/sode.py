"""Second-order equations in explicit and implicit form.

An explicit equation advances a pair of points, q2 = gamma(q0, q1).  An
implicit one is the zero set of a map phi(a, b, c) whose partial
derivative in the last slot (called C here) must be invertible for the
equation to determine c locally.  One type, ``ImplicitSOdE``, holds both
implicit kinds: a recurrence phi(q0, q1, q2) = 0, stepped by
``implicit_step``, and a force law phi(q, qd, qdd) = 0, whose
acceleration ``helmholtz.chc_implicit`` solves.  Both take their three
slot Jacobians from ``ImplicitSOdE.jacobians`` and solve the last slot
with ``ImplicitSOdE.solve_last``.

For implicit recurrences the solution set M = {phi = 0} is a submanifold
of triple space; ``tangent_basis`` returns the 2n vector fields

    A_i = d/dq0^i - (C^{-1} dphi/dq0)[:, i] . d/dq2
    B_i = d/dq1^i - (C^{-1} dphi/dq1)[:, i] . d/dq2

that span its tangent space in the chart (q0, q1).  They are the raw
material for the implicit variationality conditions in ``helmholtz``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import numkit
from .errors import DomainError, OffManifold


@dataclass
class ExplicitSOdE:
    """Explicit recurrence q2 = gamma(q0, q1) on an n-dimensional space.

    A ``gamma`` marked by ``numkit.complex_safe`` makes the maps built
    from the recurrence complex-safe.  Any ``gamma`` takes points stacked
    on leading axes, through ``numkit.pointwise``.
    """

    dim: int
    gamma: Callable

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError("dim must be at least 1")

    def __call__(self, q0, q1):
        """``gamma``'s next point, one per point of the leading axes,
        checked for shape by ``numkit.pointwise``."""
        return numkit.pointwise(self.gamma, (q0, q1), (self.dim,), "gamma")

    def flow(self, q0, q1):
        """The pair-space map (q0, q1) -> (q1, gamma(q0, q1))."""
        q1 = np.asarray(q1, dtype=float)
        return q1, self(q0, q1)

    def flow_map(self, z):
        """Same map in stacked coordinates z = (q0, q1) of length 2n."""
        z = np.asarray(z, dtype=float)
        n = self.dim
        return np.concatenate([z[n:], self(z[:n], z[n:])])


@dataclass
class ImplicitSOdE:
    """Implicit second-order equation phi(a, b, c) = 0: a recurrence
    phi(q0, q1, q2) = 0 or a force law phi(q, qd, qdd) = 0.

    ``c`` may carry the analytic last-slot Jacobian C; otherwise C comes
    from differences of phi.  The equation is well posed near points
    where C is invertible.  ``c`` serves the Newton solve of
    ``solve_last`` and the slot Jacobians of ``jacobians`` alike.  A
    ``phi`` marked by ``numkit.complex_safe`` makes ``jacobians``
    differentiate it by the complex step; any ``phi`` and ``c`` take
    triples stacked on leading axes, through ``numkit.pointwise``.
    """

    dim: int
    phi: Callable
    c: Callable | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError("dim must be at least 1")

    def __call__(self, q0, q1, q2):
        """``phi`` at the triple, one value per point of the leading axes,
        checked for shape by ``numkit.pointwise``."""
        return numkit.pointwise(self.phi, (q0, q1, q2), (self.dim,), "phi")

    def C(self, q0, q1, q2):
        """Jacobian of phi in the last slot, shape (n, n): the analytic
        ``c`` when given, one matrix per triple of the leading axes,
        checked for shape by ``numkit.pointwise``; else order-2
        differences at one triple."""
        if self.c is not None:
            return np.asarray(numkit.pointwise(self.c, (q0, q1, q2), (self.dim, self.dim),
                                               "c"), dtype=float)
        return numkit.fd_jacobian(lambda q: self(q0, q1, q), q2)

    def jacobians(self, q0, q1, q2):
        """(dphi/dq0, dphi/dq1, C) at the triple, each (n, n), from one
        Jacobian of the map (q0, q1, q2) -> phi: the complex step for a
        complex-safe ``phi``, order-4 differences otherwise.  C is the
        analytic ``c`` when given.  Triples stacked on leading axes give
        stacks of all three."""
        n = self.dim
        q0, q1, q2 = (np.asarray(q, dtype=float) for q in (q0, q1, q2))
        jac = numkit.fd_jacobian4(
            numkit.complex_safe(lambda z: self(z[..., :n], z[..., n:2 * n], z[..., 2 * n:]),
                                self.phi),
            np.concatenate([q0, q1, q2], axis=-1))
        cmat = jac[..., 2 * n:] if self.c is None else self.C(q0, q1, q2)
        return jac[..., :n], jac[..., n:2 * n], cmat

    def solve_last(self, q0, q1, guess, *, tol: float | None = None):
        """The last slot solving phi(q0, q1, .) = 0, by Newton from
        ``guess`` with ``C`` as its Jacobian; ``tol`` is the Newton
        tolerance of ``numkit.newton_solve``.  q0 and q1 are single 1-D
        points."""
        return numkit.newton_solve(lambda q2: self(q0, q1, q2), guess, tol=tol,
                                   jacobian=lambda q2: self.C(q0, q1, q2))

    def is_regular(self, q0, q1, q2):
        """Whether C is invertible at the triple, by ``numkit.is_regular``:
        the test of the solves in ``solve_last``.  ``tangent_basis``
        solves with the C of ``jacobians``, which is this one when ``c``
        is given."""
        return numkit.is_regular(self.C(q0, q1, q2))

    def require_on_manifold(self, q0, q1, q2, tol: float = 1e-8):
        res = float(np.max(np.abs(self(q0, q1, q2))))
        if res > tol:
            raise OffManifold(f"point violates phi = 0 by {res:.3e}")


def implicit_step(eq: ImplicitSOdE, q0, q1, *, tol: float | None = None):
    """Solve phi(q0, q1, .) = 0 for q2 by ``eq.solve_last``.

    The starting point is the linear predictor 2 q1 - q0, which selects
    the solution branch connected to uniform motion.  ``tol`` is the
    Newton tolerance of ``numkit.newton_solve``.
    """
    q0 = np.asarray(q0, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    return eq.solve_last(q0, q1, 2.0 * q1 - q0, tol=tol)


def tangent_basis(eq: ImplicitSOdE, q0, q1, q2, tol: float = 1e-8):
    """Bases A, B of the tangent space of {phi = 0} at an on-manifold
    triple, each of shape (n, 3n); row i holds the coefficients of A_i
    (resp. B_i) in the coordinate frame (q0, q1, q2).

    Triples stacked on a leading axis (S, n) give stacks (S, n, 3n) of
    both bases.  The slot Jacobians and C come from ``eq.jacobians``.
    Raises SingularJacobian where C is singular at working precision."""
    eq.require_on_manifold(q0, q1, q2, tol)
    n = eq.dim
    d0, d1, cmat = eq.jacobians(q0, q1, q2)
    corr0 = numkit.lu_solve(cmat, d0)
    corr1 = numkit.lu_solve(cmat, d1)
    a = np.zeros(cmat.shape[:-2] + (n, 3 * n))
    b = np.zeros_like(a)
    a[..., :n] = np.eye(n)
    a[..., 2 * n:] = -np.swapaxes(corr0, -1, -2)
    b[..., n:2 * n] = np.eye(n)
    b[..., 2 * n:] = -np.swapaxes(corr1, -1, -2)
    return a, b


def explicit_to_implicit(eq: ExplicitSOdE) -> ImplicitSOdE:
    """Rewrite q2 = gamma(q0, q1) as phi = q2 - gamma(q0, q1) = 0; the
    last-slot Jacobian is the identity, supplied analytically.  ``phi``
    is complex-safe when ``gamma`` is."""
    return ImplicitSOdE(
        dim=eq.dim,
        phi=numkit.complex_safe(lambda q0, q1, q2: q2 - eq(q0, q1), eq.gamma),
        c=lambda q0, q1, q2: np.eye(eq.dim),
    )
