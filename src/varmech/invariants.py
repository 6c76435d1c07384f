"""Conserved quantities from a pair of invariant two-forms.

When a recurrence preserves two two-forms on pair space and the first
is nondegenerate, the mixed endomorphism A = W1^{-1} W2 is conjugated
along the dynamics, so its trace powers and eigenvalues are constants
of motion.  This module builds A from two coefficient fields and offers
small helpers for monitoring such quantities along orbits.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import numkit
from .errors import DomainError
from .helmholtz import TwoFormField


def recursion_operator(primary: TwoFormField, secondary: TwoFormField) -> Callable:
    """The field z -> W_primary(z)^{-1} W_secondary(z).

    Points stacked on leading axes (S, m) give a stack (S, m, m) of
    operators, each with the bits of the operator at its point alone.
    Raises SingularJacobian through the linear solver wherever the
    primary form is degenerate.
    """
    if primary.dim != secondary.dim:
        raise DomainError(
            f"two-forms live on different charts: {primary.dim} vs {secondary.dim}"
        )

    def operator(z):
        w1 = primary(z)
        w2 = secondary(z)
        # one solve per column: a single matrix solve rounds differently
        # in the last bits, which would move the orbit values
        cols = [numkit.lu_solve(w1, w2[..., j]) for j in range(secondary.dim)]
        return np.stack(cols, axis=-1)

    return operator


def trace_powers(operator: Callable, z, max_power: int = 2):
    """Traces of A(z)^k for k = 1 .. max_power; points stacked on leading
    axes, which ``operator`` must take as ``recursion_operator``'s does,
    give one row of traces per point."""
    if max_power < 1:
        raise DomainError("max_power must be at least 1")
    a = np.asarray(operator(z), dtype=float)
    out = np.empty(a.shape[:-2] + (max_power,))
    current = a
    out[..., 0] = np.trace(current, axis1=-2, axis2=-1)
    for k in range(1, max_power):
        current = current @ a
        out[..., k] = np.trace(current, axis1=-2, axis2=-1)
    return out


def spectrum(operator: Callable, z):
    """Eigenvalues of A(z), sorted by real then imaginary part."""
    return np.sort_complex(np.linalg.eigvals(np.asarray(operator(z), dtype=float)))


def series_along_orbit(recurrence: Callable, q0, q1, steps: int,
                       observable: Callable):
    """Evaluate a pair observable along an orbit of the recurrence.

    Returns one value per consecutive pair, steps + 1 in all: a 1-D
    array for a scalar observable, (steps + 1, k) for one returning a
    length-k vector.  The orbit runs in ``numkit.march``, so the seed
    points must be 1-D of one shape (DomainError) and a NumericsError in
    the recurrence surfaces as StepFailure.
    """
    points = numkit.march(recurrence, q0, q1, steps, "recurrence")
    return numkit.pair_series({"observable": observable}, points)["observable"]


def pair_operator_on_orbit(operator: Callable, recurrence: Callable, q0, q1,
                           steps: int, max_power: int = 2):
    """Trace powers of the operator along an orbit, stacked row-wise.

    The operator, such as ``recursion_operator``'s, must take pairs
    stacked on leading axes: the trace powers are evaluated a block of
    pairs at a time (``numkit.pair_series``), each row with the bits of
    ``trace_powers`` at its pair alone.
    """
    # marked as computing over leading axes; it is never differentiated
    return series_along_orbit(recurrence, q0, q1, steps, numkit.complex_safe(
        lambda a, b: trace_powers(operator, np.concatenate([a, b], axis=-1), max_power)))
