"""Discrete Lagrangian systems on pairs of configuration points.

A discrete Lagrangian assigns a number to a pair (q0, q1) of points; its
stationary-sum equations

    D1 L(q_k, q_{k+1}) + D2 L(q_{k-1}, q_k) = 0

define a second-order recurrence solved here with Newton's method.  The
two slot derivatives double as discrete Legendre transforms, and the
mixed second derivative D12 gives both the regularity test and the
coefficient block of the associated two-form on pair space.

Derivative conventions used throughout the package:

* ``D1``/``D2`` are gradients in the first/second slot;
* ``D12[i, j] = d^2 L / d q0^i d q1^j``, so the two-form on (q0, q1)
  has block matrix [[0, D12], [-D12^T, 0]];
* the minus Legendre transform is (q0, -D1), the plus one is (q1, D2).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import numkit
from .errors import DomainError


@dataclass
class DiscreteLagrangian:
    """Scalar function of two configuration points with optional analytic
    slot derivatives.

    Attributes:
        dim: configuration dimension n.
        h: time step the discretization was built with (h > 0).
        value: callable (q0, q1) -> float.
        d1, d2: optional analytic gradients, (q0, q1) -> (n,).
        d12: optional analytic mixed second derivative, (q0, q1) -> (n, n)
            with entry [i, j] = d^2 L / d q0^i d q1^j.
    """

    dim: int
    h: float
    value: Callable
    d1: Callable | None = None
    d2: Callable | None = None
    d12: Callable | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError("dim must be at least 1")
        if self.h <= 0:
            raise DomainError("step h must be positive")

    def __call__(self, q0, q1):
        return float(self.value(np.asarray(q0, dtype=float), np.asarray(q1, dtype=float)))

    def D1(self, q0, q1):
        q0 = np.asarray(q0, dtype=float)
        q1 = np.asarray(q1, dtype=float)
        if self.d1 is not None:
            return np.asarray(self.d1(q0, q1), dtype=float)
        return numkit.fd_gradient(lambda a: self.value(a, q1), q0)

    def D2(self, q0, q1):
        q0 = np.asarray(q0, dtype=float)
        q1 = np.asarray(q1, dtype=float)
        if self.d2 is not None:
            return np.asarray(self.d2(q0, q1), dtype=float)
        return numkit.fd_gradient(lambda b: self.value(q0, b), q1)

    def D12(self, q0, q1):
        q0 = np.asarray(q0, dtype=float)
        q1 = np.asarray(q1, dtype=float)
        if self.d12 is not None:
            return np.asarray(self.d12(q0, q1), dtype=float)
        return numkit.fd_mixed_hessian(self.value, q0, q1)

    def is_regular(self, q0, q1):
        """Whether D12 is invertible at (q0, q1) at working precision,
        by ``numkit.is_regular``, the test of the linear solves; it is
        invariant under rescaling the Lagrangian.  When D12 comes from
        the nested differences of ``numkit.fd_mixed_hessian`` its
        entries carry noise near 4e-9 times the function scale, so rows
        below that floor count as zero.
        """
        m = self.D12(q0, q1)
        if self.d12 is None:
            floor = 4e-8 * max(1.0, abs(self(q0, q1)))
            if np.any(np.linalg.norm(m, axis=1) < floor):
                return False
        return numkit.is_regular(m)

    def validate(self, probes: int = 8, seed: int = 0, tol: float = 1e-6):
        """Check analytic derivatives against finite differences at seeded
        random probe pairs; raises DomainError on mismatch."""
        rng = np.random.default_rng(seed)
        fd = dataclasses.replace(self, d1=None, d2=None, d12=None)
        for _ in range(probes):
            q0 = rng.uniform(-1.0, 1.0, self.dim)
            q1 = rng.uniform(-1.0, 1.0, self.dim)
            for name in ("d1", "d2", "d12"):
                if getattr(self, name) is None:
                    continue
                slot = name.upper()  # the D1/D2/D12 method
                analytic = getattr(self, slot)(q0, q1)
                diff = np.abs(analytic - getattr(fd, slot)(q0, q1))
                scale = np.maximum(1.0, np.abs(analytic))
                if np.any(diff > tol * scale):
                    worst = float(np.max(diff / scale))
                    raise DomainError(
                        f"analytic {name} disagrees with finite differences "
                        f"(relative error {worst:.2e} at q0={q0}, q1={q1})"
                    )

    def scaled(self, factor: float) -> "DiscreteLagrangian":
        """The Lagrangian multiplied by a nonzero constant; solutions of
        the stationarity equations are unchanged."""
        if factor == 0.0:
            raise DomainError("scaling factor must be nonzero")

        def wrap(fn):
            return None if fn is None else (lambda a, b: factor * np.asarray(fn(a, b)))

        return DiscreteLagrangian(
            dim=self.dim,
            h=self.h,
            value=lambda a, b: factor * self.value(a, b),
            d1=wrap(self.d1),
            d2=wrap(self.d2),
            d12=wrap(self.d12),
        )


def del_residual(lag: DiscreteLagrangian, q0, q1, q2):
    """Stationarity residual D1 L(q1, q2) + D2 L(q0, q1)."""
    return lag.D1(q1, q2) + lag.D2(q0, q1)


def del_step(lag: DiscreteLagrangian, q0, q1, *, tol: float | None = None):
    """Advance the recurrence one step: solve for q2 given (q0, q1).

    Newton starts from the linear predictor 2 q1 - q0.  The Jacobian is
    the analytic D12(q1, q2) when available.  With ``tol`` None, the
    default, the tolerance is floored at the residual's rounding level,
    which grows with |q| (see ``numkit.newton_solve``).  Note
    the residual floor of finite-difference derivatives is about 1e-10,
    so Lagrangians without analytic d1/d2 need a looser Newton
    tolerance than the default.
    """
    q0 = np.asarray(q0, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    fixed = lag.D2(q0, q1)
    jacobian = None if lag.d12 is None else (lambda q2: lag.D12(q1, q2))
    return numkit.newton_solve(lambda q2: lag.D1(q1, q2) + fixed, 2.0 * q1 - q0,
                               tol=tol, jacobian=jacobian)


def legendre_minus(lag: DiscreteLagrangian, q0, q1):
    """Momentum covector at the left endpoint: (q0, -D1 L(q0, q1))."""
    q0 = np.asarray(q0, dtype=float)
    return q0, -lag.D1(q0, q1)


def legendre_plus(lag: DiscreteLagrangian, q0, q1):
    """Momentum covector at the right endpoint: (q1, D2 L(q0, q1))."""
    q1 = np.asarray(q1, dtype=float)
    return q1, lag.D2(q0, q1)


def lagrangian_two_form(lag: DiscreteLagrangian, q0, q1):
    """Coefficient matrix of the two-form on pair space at (q0, q1).

    In coordinates z = (q0, q1) the form is D12[i, j] dq0^i ^ dq1^j, so
    the matrix has blocks [[0, D12], [-D12^T, 0]].
    """
    return pair_form_matrix(lag.D12(q0, q1))


def pair_form_matrix(d12):
    """The block matrix [[0, D12], [-D12^T, 0]] of the pair-space two-form
    with mixed block D12, or a stack of them for a stack (..., n, n) of
    D12; it keeps D12's dtype, so complex values pass through."""
    n = d12.shape[-1]
    out = np.zeros(d12.shape[:-2] + (2 * n, 2 * n), dtype=d12.dtype)
    out[..., :n, n:] = d12
    out[..., n:, :n] = -d12.swapaxes(-1, -2)
    return out


def hamiltonian_map(lag: DiscreteLagrangian, q0, p0, *, tol: float | None = None):
    """One step of the momentum-space map the recurrence induces.

    Solves -D1 L(q0, q1) = p0 for q1, then pushes forward with the plus
    Legendre transform: returns (q1, D2 L(q0, q1)).  Needs D12 regular
    along the way; a singular solve raises SingularJacobian.  ``tol`` is
    the Newton tolerance of ``numkit.newton_solve``.
    """
    q0 = np.asarray(q0, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    jacobian = None if lag.d12 is None else (lambda q1: lag.D12(q0, q1))
    q1 = numkit.newton_solve(lambda q1: lag.D1(q0, q1) + p0, q0 + lag.h * p0,
                             tol=tol, jacobian=jacobian)
    return q1, lag.D2(q0, q1)


def simulate(lag: DiscreteLagrangian, q0, q1, steps: int,
             energies: dict[str, Callable] | None = None, *, tol: float | None = None):
    """March del_step from the seed pair (q0, q1).

    Returns (points, energy dict): points has shape (steps + 2, dim)
    and each energy series one value per consecutive pair.  The
    seed points must have shape (lag.dim,) (DomainError).  A
    numerical failure in a step raises StepFailure carrying the step
    index; other exceptions propagate unchanged.  ``tol`` is each
    step's Newton tolerance (see ``del_step``).
    """
    points = numkit.march(lambda a, b: del_step(lag, a, b, tol=tol), q0, q1, steps,
                          "del_step", dim=lag.dim)
    return points, numkit.pair_series(energies or {}, points)
