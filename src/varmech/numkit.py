"""Small numerical kernel: finite differences, Newton, the stepping loop,
RK4, quadrature.

All geometry modules sit on top of these routines, so their conventions
are fixed here once:

* finite-difference steps are relative, ``eps * max(1, |x_i|)``, with
  ``eps`` a module constant per stencil (FD_STEP_SCALE, FD2_STEP_SCALE,
  FD4_STEP_SCALE);
* the central differences (``fd_jacobian``, ``fd_gradient``,
  ``fd_jacobian4``, ``fd_directional4``) run in one kernel over a
  stencil table, which rejects a non-finite difference, so a NaN at any
  stencil point raises EvaluationError;
* a callable marked by ``complex_safe`` (one that computes with complex
  points as it does with real ones, so its values are analytic in
  them) is differentiated by that kernel's complex-step row instead:
  one evaluation per direction at a step of COMPLEX_STEP_SCALE, the
  derivative ``Im f(x + i t e_k) / t``, which takes no difference and is
  exact to rounding.  The catalogue's fiber maps and explicit
  recurrences carry the mark, and so do the embeddings and slot maps
  ``helmholtz`` and ``systems`` build from marked parts; every other
  callable keeps its stencil;
* every linear system goes through one path, ``lu_solve``: LAPACK's
  partial-pivot LU plus a row-scaled conditioning test, so a singular or
  near-singular Jacobian surfaces as SingularJacobian instead of NaNs or
  a huge step, for vector and matrix right-hand sides alike;
* whether a matrix is regular is decided by that same test
  (``is_regular``: ``lu_solve`` accepts it against the identity), not
  by a determinant threshold of its own;
* every time-stepping integrator runs in ``march``, which turns a
  numerical failure (NumericsError) into StepFailure and lets any other
  exception through untouched;
* the default Newton tolerance (``tol=None``) is floored at the
  residual's rounding level, which grows with the size of the points;
  a numeric ``tol`` is taken literally;
* the reference ODE propagator is fixed-step classical RK4.

Everything is pure and allocation-light; callers may evaluate these
routines concurrently on different points.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import (DomainError, EvaluationError, NoConvergence, NumericsError,
                     SingularJacobian, StepFailure)

# Relative step of the first-order central differences.
FD_STEP_SCALE = 2.0 ** -17
# Relative step of the mixed second-difference cross stencil: about
# mach**(1/4), the optimum for second differences rather than first ones.
FD2_STEP_SCALE = 1.2e-4
# Wider step for the order-4 stencil (optimum grows with stencil order).
FD4_STEP_SCALE = 1e-3
# Relative step of the complex-step row: far below the rounding level of
# x, which the row can afford because it subtracts nothing, and far
# above underflow.
COMPLEX_STEP_SCALE = 1e-30
# Stencils for _central: (relative step, offsets, weights, denominator).
# The terms are summed left to right, hi - lo and -f1 + 8 f2 - 8 f3 + f4,
# which fixes the rounding of every difference.  The complex-step row
# has one imaginary offset and sums the imaginary part of its value.
_CENTRAL2 = (FD_STEP_SCALE, (1.0, -1.0), (1.0, -1.0), 2.0)
_CENTRAL4 = (FD4_STEP_SCALE, (2.0, 1.0, -1.0, -2.0), (-1.0, 8.0, -8.0, 1.0), 12.0)
_COMPLEX_STEP = (COMPLEX_STEP_SCALE, (1j,), (1.0,), 1.0)
# The attribute of the complex-safe mark.
_MARK = "complex_safe"
# Singularity threshold of lu_solve: a row-scaled condition number above
# 1/PIVOT_FLOOR counts as singular at working precision.
PIVOT_FLOOR = 1e-14
# Newton residual tolerance of newton_solve(tol=None), and its
# iteration limit.
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
EPS = float(np.finfo(float).eps)
# Most pairs pair_series hands to an energy monitor's ``series`` at once,
# which bounds the temporaries of a long run.
PAIR_CHUNK = 1024


_FLOAT = np.dtype(float)
_maxreduce = np.maximum.reduce


def _asvec(x):
    """``x`` as a 1-D float array; a 1-D float64 ndarray passes as is."""
    if x.__class__ is np.ndarray and x.ndim == 1 and x.dtype is _FLOAT:
        return x
    return np.atleast_1d(np.asarray(x, dtype=float))


def _check_finite(value, where):
    if not np.all(np.isfinite(value)):
        raise EvaluationError(f"non-finite value encountered {where}")


def complex_safe(f, *parts):
    """Mark ``f`` complex-safe and return it; given ``parts``, only when
    every part carries the mark, so a map built from marked callables
    inherits it.

    The mark declares that ``f`` computes with complex points as it does
    with real ones, with no cast to float, no ``math`` function and no
    branch on a value, and so returns the analytic continuation of its
    real values.  The difference kernel then takes its derivatives by
    the complex step.
    """
    if all(getattr(part, _MARK, False) for part in parts):
        setattr(f, _MARK, True)
    return f


def _central(f, x, stencil, name, direction=None):
    """The one difference kernel behind the fd_* wrappers.

    ``stencil`` is (relative step, offsets, weights, denominator); a
    derivative along d at step t is sum_k w_k f(x + (o_k t) d) /
    (denominator t), summed left to right.  Without ``direction`` the
    result is the Jacobian, one column per coordinate i along e_i at
    step ``scale * max(1, |x_i|)``; with it, the derivative along
    ``direction`` at step ``scale * max(1, ||x||_inf) / ||direction||_inf``,
    shaped like f's values.  An ``f`` marked by ``complex_safe`` gets the
    complex-step row in place of ``stencil``: its one value per
    direction must be complex, or f has dropped the imaginary part, and
    its imaginary part over t is the derivative; its real part, f(x),
    must be finite too.  Each finished derivative must be finite, so a
    non-finite value at any stencil point raises EvaluationError.
    """
    complex_step = getattr(f, _MARK, False)
    scale, offsets, weights, denom = _COMPLEX_STEP if complex_step else stencil
    x = _asvec(x)
    if direction is None:
        directions = np.eye(x.size)
        steps = scale * np.maximum(1.0, np.abs(x))
    else:
        directions = (_asvec(direction),)
        nd = float(np.max(np.abs(directions[0])))
        if nd == 0.0:
            return np.zeros_like(np.asarray(f(x), dtype=float))
        steps = (scale * max(1.0, float(np.max(np.abs(x)))) / nd,)
    diffs = []
    for i, (d, t) in enumerate(zip(directions, steps)):
        total = None
        for o, w in zip(offsets, weights):
            value = f(x + (o * t) * d)
            if complex_step:
                value = np.asarray(value)
                if not np.iscomplexobj(value):
                    raise EvaluationError(
                        f"complex-safe callable returned real values in {name}, "
                        f"direction {i}")
                if i == 0:  # the real part is f(x) in every direction
                    _check_finite(value.real, f"in {name} at x")
                value = value.imag
            term = w * np.asarray(value, dtype=float)
            total = term if total is None else total + term
        diff = total / (denom * t)
        if not np.all(np.isfinite(diff)):
            raise EvaluationError(f"non-finite value in {name}, direction {i}")
        diffs.append(diff)
    return np.column_stack(diffs) if direction is None else diffs[0]


def fd_jacobian(f, x):
    """Jacobian of ``f`` at ``x`` by central differences, shape (m, n)."""
    return _central(f, x, _CENTRAL2, "fd_jacobian")


def fd_gradient(f, x):
    """Gradient of a scalar function, shape (n,)."""
    return _central(lambda z: float(f(z)), x, _CENTRAL2, "fd_gradient")[0]


def fd_jacobian4(f, x):
    """Order-4 five-point Jacobian; use where nested differencing needs
    more accuracy than the plain central stencil delivers."""
    return _central(f, x, _CENTRAL4, "fd_jacobian4")


def fd_directional4(f, x, direction):
    """Order-4 derivative of ``t -> f(x + t*direction)`` at t = 0.

    ``f`` may return an array of any shape; the result has that shape.
    """
    return _central(f, x, _CENTRAL4, "fd_directional4", direction)


def fd_mixed_hessian(f, a, b):
    """Matrix of mixed second partials ``d^2 f / da_i db_j`` of a scalar
    two-slot function, by the four-point cross stencil at relative step
    FD2_STEP_SCALE."""
    a = _asvec(a)
    b = _asvec(b)
    sa = FD2_STEP_SCALE * np.maximum(1.0, np.abs(a))
    sb = FD2_STEP_SCALE * np.maximum(1.0, np.abs(b))
    out = np.empty((a.size, b.size))
    for i in range(a.size):
        ea = np.zeros_like(a)
        ea[i] = sa[i]
        for j in range(b.size):
            eb = np.zeros_like(b)
            eb[j] = sb[j]
            v = (
                float(f(a + ea, b + eb))
                - float(f(a + ea, b - eb))
                - float(f(a - ea, b + eb))
                + float(f(a - ea, b - eb))
            )
            if not np.isfinite(v):
                raise EvaluationError(
                    f"non-finite value in fd_mixed_hessian at entry ({i}, {j})"
                )
            out[i, j] = v / (4.0 * sa[i] * sb[j])
    return out


def antisymmetrize(m):
    """Antisymmetric part (M - M^T) / 2."""
    m = np.asarray(m, dtype=float)
    return 0.5 * (m - m.T)


def lu_solve(a, rhs):
    """Solve ``a x = rhs``, raising SingularJacobian on degeneracy.

    The package's one linear-solve path: LAPACK's partial-pivot LU
    (``np.linalg.solve``), then one conditioning test.  After scaling
    each row of the system by the row's largest entry of ``a``, a
    solution larger than the scaled right-hand side over PIVOT_FLOOR
    proves a condition number above 1/PIVOT_FLOOR: singular at working
    precision.  An exactly singular matrix or a non-finite solution
    raises too.  ``rhs`` may be a vector of shape (n,) or a matrix of
    shape (n, k) whose columns are k right-hand sides.
    """
    a = np.asarray(a, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("lu_solve needs a square matrix")
    try:
        x = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularJacobian(f"matrix is singular: {exc}") from exc
    # np.maximum.reduce: the value of abs(x).max(), NaN included, without
    # the method dispatch
    size = _maxreduce(np.absolute(x), None)
    # rhs.T puts the row index of a matrix right-hand side last, where
    # the row maxima broadcast; a vector passes as itself
    scaled_rhs = _maxreduce(np.absolute(rhs.T) / _maxreduce(np.absolute(a), 1), None)
    if not size < np.inf or size * PIVOT_FLOOR > scaled_rhs:
        raise SingularJacobian(
            f"solution of size {size:.3e} against a row-scaled right-hand "
            f"side of {scaled_rhs:.3e}: condition number above {1 / PIVOT_FLOOR:.0e}")
    return x


def is_regular(a):
    """Whether the square matrix ``a`` is regular at working precision:
    the package's one singularity test, ``lu_solve``'s own."""
    try:
        lu_solve(a, np.eye(len(a)))
    except SingularJacobian:
        return False
    return True


def _rounding_floor(jac, x):
    """A few times the rounding level of a residual with Jacobian ``jac``
    near ``x``; no tolerance below it can be met."""
    return 4.0 * EPS * float(abs(jac).sum(axis=1).max()) * max(1.0, float(abs(x).max()))


def newton_solve(f, x0, *, tol: float | None = None,
                 jacobian: Callable | None = None, tol_scale: float = 1.0):
    """Solve ``f(x) = 0`` from ``x0``; returns the root.

    The Jacobian is the caller's analytic ``jacobian`` when given, else
    central differences; it is always called at the point of the last
    residual evaluation.  Iteration stops once the largest residual
    component is at most the tolerance times ``tol_scale``, the
    residual's natural size.  With ``tol`` None, the default, the
    tolerance is NEWTON_TOL, floored at the residual's rounding level
    ``4 eps ||J||_inf max(1, ||x||_inf)`` with J the last Newton matrix,
    which long integrations reach as |x| grows; the floor is only
    evaluated when an iterate misses the plain tolerance.  A numeric
    ``tol`` is taken literally.

    Raises EvaluationError on a non-finite residual, NoConvergence after
    NEWTON_MAX_ITER iterations and SingularJacobian when a linear solve
    fails.
    """
    floored = tol is None
    tol = (NEWTON_TOL if floored else tol) * tol_scale
    limit = tol
    x = _asvec(x0).copy()
    r = _asvec(f(x))
    best = _residual_size(r)
    for _ in range(NEWTON_MAX_ITER):
        if best <= limit:
            return x
        jac = jacobian(x) if jacobian is not None else fd_jacobian(f, x)
        x = x - lu_solve(jac, r)
        r = _asvec(f(x))
        best = _residual_size(r)
        if floored and best > tol:
            limit = max(tol, _rounding_floor(jac, x))
    if best <= limit:
        return x
    raise NoConvergence(
        f"newton_solve stalled at residual {best:.3e} after {NEWTON_MAX_ITER} iterations",
        residual=best,
        iterations=NEWTON_MAX_ITER,
    )


def _residual_size(r):
    """Largest residual component; NaN or inf there means a non-finite
    entry, so the one reduction is also the finiteness check."""
    size = float(_maxreduce(np.absolute(r), None))
    if not size < np.inf:
        raise EvaluationError("non-finite value encountered in newton_solve residual")
    return size


def march(step, q0, q1, steps: int, label: str = "step", dim: int | None = None):
    """The package's one stepping loop: iterate ``q_{k+2} = step(q_k,
    q_{k+1})`` from the seed pair into a (steps + 2, dim) array.

    The seed points must be 1-D of one shape, and of shape (dim,) when
    ``dim`` is given; DomainError otherwise.  A NumericsError in step k
    becomes StepFailure carrying k, the cause and the points computed
    before it; any other exception, such as a bug in a user callable,
    propagates as itself.
    """
    if steps < 0:
        raise DomainError("steps must be nonnegative")
    q0 = np.asarray(q0, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    if q0.ndim != 1 or q0.shape != q1.shape or (dim is not None and q0.shape != (dim,)):
        expected = "1-D points of one shape" if dim is None else f"points of shape ({dim},)"
        raise DomainError(f"seed pair has shapes {q0.shape} and {q1.shape}; "
                          f"{label} needs {expected}")
    points = np.empty((steps + 2, q0.size))
    points[0] = q0
    points[1] = q1
    for k in range(steps):
        try:
            points[k + 2] = step(points[k], points[k + 1])
        except NumericsError as exc:
            raise StepFailure(f"{label} failed at step {k}: {exc}", step=k,
                              cause=exc, partial=points[: k + 2].copy()) from exc
    return points


def pair_series(funcs, points):
    """Each function of a consecutive pair evaluated along ``points``:
    a dict of arrays of length len(points) - 1, in the order of
    ``funcs``.  A scalar function gives a 1-D array, one returning a
    vector of length k an (len(points) - 1, k) array.

    A function with a ``series`` method (such as the wrapper of
    ``nonholonomic.midpoint_energy``) gets the points in blocks of at
    most PAIR_CHUNK + 1 rows and returns the values on their
    consecutive pairs, which must equal its per-pair values; any other
    function is called once per pair.
    """
    count = max(len(points) - 1, 0)
    out = {}
    for name, fn in funcs.items():
        series = getattr(fn, "series", None)
        if series is None:
            out[name] = np.array([fn(a, b) for a, b in zip(points[:-1], points[1:])],
                                 dtype=float)
            continue
        values = np.empty(count)
        for start in range(0, count, PAIR_CHUNK):
            values[start:start + PAIR_CHUNK] = series(points[start:start + PAIR_CHUNK + 1])
        out[name] = values
    return out


def rk4(f, y0, t0, t1, max_step: float = 1e-3):
    """Integrate ``y' = f(t, y)`` from t0 to t1 with fixed-step RK4.

    The number of substeps is chosen so the internal step never exceeds
    ``max_step`` in magnitude.
    """
    y = _asvec(y0).copy()
    span = t1 - t0
    if span == 0.0:
        return y
    nsteps = max(1, int(np.ceil(abs(span) / max_step)))
    dt = span / nsteps
    t = t0
    for _ in range(nsteps):
        k1 = _asvec(f(t, y))
        k2 = _asvec(f(t + dt / 2, y + dt / 2 * k1))
        k3 = _asvec(f(t + dt / 2, y + dt / 2 * k2))
        k4 = _asvec(f(t + dt, y + dt * k3))
        y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
    _check_finite(y, "in rk4")
    return y


def gauss_legendre(n):
    """Nodes and weights on [0, 1], shape ((n,), (n,))."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def fit_order(h_values, err_values):
    """Least-squares slope of log(err) against log(h).

    This is the observed convergence order of whatever produced the
    errors.  Raises DomainError on fewer than two points or nonpositive
    entries (a zero error has no logarithm; perturb or drop it first).
    """
    h = np.asarray(h_values, dtype=float)
    e = np.asarray(err_values, dtype=float)
    if h.size != e.size or h.size < 2:
        raise DomainError("fit_order needs matching arrays of at least 2 points")
    if np.any(h <= 0) or np.any(e <= 0):
        raise DomainError("fit_order needs positive step sizes and errors")
    slope, _ = np.polyfit(np.log(h), np.log(e), 1)
    return float(slope)
