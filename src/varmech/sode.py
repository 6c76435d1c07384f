"""Second-order difference equations in explicit and implicit form.

An explicit equation advances a pair of points, q2 = gamma(q0, q1).  An
implicit one is the zero set of a map phi(q0, q1, q2) whose partial
derivative in the last slot (called C here) must be invertible for the
equation to determine q2 locally.

For implicit equations the solution set M = {phi = 0} is a submanifold
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
    from the recurrence complex-safe.
    """

    dim: int
    gamma: Callable

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError("dim must be at least 1")

    def __call__(self, q0, q1):
        """``gamma``'s next point, one per point of the leading axes,
        checked for shape; the points and the value keep their dtype, so
        complex points pass through."""
        q0 = np.asarray(q0)
        q1 = np.asarray(q1)
        q2 = np.asarray(self.gamma(q0, q1))
        expected = numkit.lead_shape(q0, q1) + (self.dim,)
        if q2.shape != expected:
            raise DomainError(f"gamma returned shape {q2.shape}, expected {expected}")
        return q2

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
    """Implicit recurrence phi(q0, q1, q2) = 0.

    ``c`` may carry the analytic last-slot Jacobian; otherwise central
    differences are used.  The equation is well posed near points where
    that matrix is invertible.  A ``phi`` marked by
    ``numkit.complex_safe`` makes ``tangent_basis`` differentiate it,
    C included, by the complex step, on stacks of triples too; ``c``
    then serves the Newton solve of ``implicit_step``.
    """

    dim: int
    phi: Callable
    c: Callable | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError("dim must be at least 1")

    def __call__(self, q0, q1, q2):
        """``phi`` at the triple, one value per point of the leading axes,
        checked for shape; the points and the value keep their dtype, so
        complex points pass through."""
        q0 = np.asarray(q0)
        q1 = np.asarray(q1)
        q2 = np.asarray(q2)
        val = np.asarray(self.phi(q0, q1, q2))
        expected = numkit.lead_shape(q0, q1, q2) + (self.dim,)
        if val.shape != expected:
            raise DomainError(f"phi returned shape {val.shape}, expected {expected}")
        return val

    def C(self, q0, q1, q2):
        """Jacobian of phi in the q2 slot, shape (n, n)."""
        if self.c is not None:
            return np.asarray(self.c(q0, q1, q2), dtype=float)
        return numkit.fd_jacobian(lambda q: self(q0, q1, q), q2)

    def is_regular(self, q0, q1, q2):
        """Whether C is invertible at the triple, by ``numkit.is_regular``:
        the test of the solves in ``implicit_step`` and ``tangent_basis``."""
        return numkit.is_regular(self.C(q0, q1, q2))

    def require_on_manifold(self, q0, q1, q2, tol: float = 1e-8):
        res = float(np.max(np.abs(self(q0, q1, q2))))
        if res > tol:
            raise OffManifold(f"point violates phi = 0 by {res:.3e}")


def implicit_step(eq: ImplicitSOdE, q0, q1, *, tol: float | None = None):
    """Solve phi(q0, q1, .) = 0 for q2 by Newton.

    The starting point is the linear predictor 2 q1 - q0, which selects
    the solution branch connected to uniform motion.  ``tol`` is the
    Newton tolerance of ``numkit.newton_solve``.
    """
    q0 = np.asarray(q0, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    return numkit.newton_solve(lambda q2: eq(q0, q1, q2), 2.0 * q1 - q0, tol=tol,
                               jacobian=lambda q2: eq.C(q0, q1, q2))


def tangent_basis(eq: ImplicitSOdE, q0, q1, q2, tol: float = 1e-8):
    """Bases A, B of the tangent space of {phi = 0} at an on-manifold
    triple, each of shape (n, 3n); row i holds the coefficients of A_i
    (resp. B_i) in the coordinate frame (q0, q1, q2).

    For a complex-safe ``phi`` one complex step of the map (q0, q1, q2)
    -> phi gives the slot Jacobians and C together, and the triples may
    be stacked on a leading axis (S, n), giving stacks (S, n, 3n) of
    both bases.  Otherwise the slot Jacobians come from order-2
    differences of (q0, q1) -> phi(q0, q1, q2) and C from
    ``ImplicitSOdE.C``, at one triple.  Raises SingularJacobian where C
    is singular at working precision."""
    eq.require_on_manifold(q0, q1, q2, tol)
    n = eq.dim
    q0, q1, q2 = (np.asarray(q, dtype=float) for q in (q0, q1, q2))
    if numkit.is_complex_safe(eq.phi):
        jac = numkit.fd_jacobian(
            numkit.complex_safe(lambda z: eq(z[..., :n], z[..., n:2 * n], z[..., 2 * n:]),
                                eq.phi),
            np.concatenate([q0, q1, q2], axis=-1))
        slots, cmat = jac[..., :2 * n], jac[..., 2 * n:]
    else:
        cmat = eq.C(q0, q1, q2)
        slots = numkit.fd_jacobian(lambda z: eq(z[:n], z[n:], q2), np.concatenate([q0, q1]))
    corr0 = numkit.lu_solve(cmat, slots[..., :n])
    corr1 = numkit.lu_solve(cmat, slots[..., n:])
    a = np.zeros(q0.shape[:-1] + (n, 3 * n))
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
