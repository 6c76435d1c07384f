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
  them, and over leading axes of stacked points) is differentiated by
  that kernel's complex-step row instead: one evaluation per direction
  at a step of COMPLEX_STEP_SCALE, the derivative
  ``Im f(x + i t e_k) / t``, which takes no difference and is exact to
  rounding.  All directions of all points of a stack (S, n) go to the
  callable in one call.  The catalogue's fiber maps and recurrences
  carry the mark, as do extended-disk's ``d12`` and implicit-exp's
  ``phi``, ``c`` and momentum, and so do the embeddings, slot maps and
  two-form fields ``helmholtz``, ``sode`` and ``systems`` build from
  marked parts.  Every other callable keeps its stencil, one point at a
  time, except in a derivative along directions at a stack of points:
  there all stencil points of the stack go to the callable in one
  call, so it must compute over the leading axis (ihc takes the time
  derivative of a complex-step Jacobian so);
* every linear system goes through one path, ``lu_solve``: LAPACK's
  partial-pivot LU plus a row-scaled conditioning test, so a singular or
  near-singular Jacobian surfaces as SingularJacobian instead of NaNs or
  a huge step, for vector and matrix right-hand sides alike, and for a
  stack of matrices, whose members are each tested so;
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
# (_complex_step) has one imaginary offset and takes the imaginary part
# of its value.
_CENTRAL2 = (FD_STEP_SCALE, (1.0, -1.0), (1.0, -1.0), 2.0)
_CENTRAL4 = (FD4_STEP_SCALE, (2.0, 1.0, -1.0, -2.0), (-1.0, 8.0, -8.0, 1.0), 12.0)
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


def is_complex_safe(*fs):
    """Whether every callable in ``fs`` carries the complex-safe mark."""
    return all(getattr(f, _MARK, False) for f in fs)


def complex_safe(f, *parts):
    """Mark ``f`` complex-safe and return it; given ``parts``, only when
    every part carries the mark, so a map built from marked callables
    inherits it.

    The mark declares that ``f`` computes with complex points as it does
    with real ones, with no cast to float, no ``math`` function and no
    branch on a value, and so returns the analytic continuation of its
    real values.  It also declares that ``f`` computes over leading
    axes: given points stacked as (..., n), indexing coordinates with
    ``[..., k]``, it returns its values stacked the same way.  The
    difference kernel then takes its derivatives by the complex step,
    with one call on all its complex-step points.
    """
    if is_complex_safe(*parts):
        setattr(f, _MARK, True)
    return f


def lead_shape(*points):
    """The leading (stack) shape of points whose last axis holds the
    coordinates: that of the point with the most axes, against which
    the others broadcast."""
    shape = points[0].shape
    for p in points[1:]:
        if p.ndim > len(shape):
            shape = p.shape
    return shape[:-1]


def _central(f, x, stencil, name, direction=None):
    """The one difference kernel behind the fd_* wrappers.

    ``stencil`` is (relative step, offsets, weights, denominator); a
    derivative along d at step t is sum_k w_k f(x + (o_k t) d) /
    (denominator t), summed left to right.  Without ``direction`` the
    result is the Jacobian, one column per coordinate i along e_i at
    step ``scale * max(1, |x_i|)``; with it, the derivative along
    ``direction`` at step ``scale * max(1, ||x||_inf) / ||direction||_inf``,
    shaped like f's values.  ``x`` may be a stack of points (S, n),
    which gives a stack of Jacobians (S, m, n); an unmarked ``f`` is
    differentiated one point at a time, except along ``direction``
    (one per point, or one for all): then one call of ``f`` covers all
    stencil points of the stack (``_directional_stack``).  An ``f``
    marked by ``complex_safe`` gets the complex-step row instead
    (``_complex_step``).
    Each finished derivative must be finite, so a non-finite value at
    any stencil point raises EvaluationError.
    """
    if getattr(f, _MARK, False):
        return _complex_step(f, x, name, direction)
    x = _asvec(x)
    if x.ndim > 1:
        if direction is not None:
            return _directional_stack(f, x, stencil, name, direction)
        return np.stack([_central(f, p, stencil, name) for p in x])
    scale, offsets, weights, denom = stencil
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
            term = w * np.asarray(f(x + (o * t) * d), dtype=float)
            total = term if total is None else total + term
        diff = total / (denom * t)
        if not np.all(np.isfinite(diff)):
            raise EvaluationError(f"non-finite value in {name}, direction {i}")
        diffs.append(diff)
    return np.column_stack(diffs) if direction is None else diffs[0]


def _directional_stack(f, x, stencil, name, direction):
    """``_central``'s derivative along ``direction`` at a stack of points
    x (S, n), ``direction`` being one per point (S, n) or one for all.

    The stencil points of all S points are stacked offset by offset on
    one leading axis and ``f`` is called once on them, so ``f`` must
    compute over that axis and return its values stacked the same way
    (DomainError otherwise).  Each point keeps its own step and the
    left-to-right sum, so its derivative has the bits of the same
    derivative at that point alone; a point whose direction is zero
    gets zeros.  A non-finite derivative raises EvaluationError.
    """
    scale, offsets, weights, denom = stencil
    count = len(x)
    d = np.broadcast_to(_asvec(direction), x.shape)
    nd = _maxreduce(np.absolute(d), 1)
    still = nd == 0.0
    t = scale * np.maximum(1.0, _maxreduce(np.absolute(x), 1)) / np.where(still, 1.0, nd)
    value = np.asarray(f(np.concatenate([x + (o * t)[:, None] * d for o in offsets])),
                       dtype=float)
    if value.shape[:1] != (len(offsets) * count,):
        raise DomainError(
            f"callable returned shape {value.shape} for {len(offsets) * count} "
            f"stencil points in {name}; it must compute over the leading axis")
    value = value.reshape((len(offsets), count) + value.shape[1:])
    total = None
    for w, v in zip(weights, value):
        term = w * v
        total = term if total is None else total + term
    diff = total / (denom * t).reshape((count,) + (1,) * (total.ndim - 1))
    diff[still] = 0.0
    if not np.all(np.isfinite(diff)):
        raise EvaluationError(f"non-finite value in {name}, direction 0")
    return diff


def _complex_step(f, x, name, direction):
    """``_central``'s complex-step row for a marked ``f``: the derivative
    along d at step t is ``Im f(x + i t d) / t``, t as in ``_central``
    at COMPLEX_STEP_SCALE.

    For a Jacobian, the S n points x_s + i t e_k of all S points (one
    when ``x`` is 1-D) and n directions are stacked on one leading axis
    and ``f`` is called once on them; its values must come stacked the
    same way (DomainError otherwise) and complex, or f has dropped the
    imaginary part (EvaluationError).  The real part of the value along
    e_0, f(x), must be finite, and so must each derivative: the first
    point that fails either, in order, raises EvaluationError, as a
    point-by-point loop would.
    """
    x = _asvec(x)
    if direction is not None:
        d = _asvec(direction)
        nd = float(np.max(np.abs(d)))
        if nd == 0.0:
            return np.zeros_like(np.asarray(f(x), dtype=float))
        t = COMPLEX_STEP_SCALE * max(1.0, float(np.max(np.abs(x)))) / nd
        value = _complex_value(f(x + (1j * t) * d), name)
        if not np.all(np.isfinite(value.real)):
            raise EvaluationError(f"non-finite value encountered in {name} at x")
        diff = value.imag / t
        if not np.all(np.isfinite(diff)):
            raise EvaluationError(f"non-finite value in {name}, direction 0")
        return diff
    stack = x.reshape(-1, x.shape[-1])
    count, n = stack.shape
    steps = COMPLEX_STEP_SCALE * np.maximum(1.0, np.abs(stack))
    points = stack[:, None, :] + (1j * steps)[:, :, None] * np.eye(n)
    value = _complex_value(f(points.reshape(count * n, n)), name)
    if value.shape[:1] != (count * n,):
        raise DomainError(
            f"complex-safe callable returned shape {value.shape} for {count * n} "
            f"points in {name}; it must compute over the leading axis")
    value = value.reshape(count, n, -1)
    # the derivatives divided straight into the Jacobian's layout
    # (point, component, direction): no transposed copy of a block
    jac = np.empty((count, value.shape[2], n))
    np.divide(np.swapaxes(value.imag, 1, 2), steps[:, None, :], out=jac)
    bad_fx = ~np.isfinite(value[:, 0].real).all(axis=1)
    bad_diff = ~np.isfinite(jac).all(axis=1)
    if bad_fx.any() or bad_diff.any():
        s = int(np.argmax(bad_fx | bad_diff.any(axis=1)))
        if bad_fx[s]:
            raise EvaluationError(f"non-finite value encountered in {name} at x")
        raise EvaluationError(
            f"non-finite value in {name}, direction {int(np.argmax(bad_diff[s]))}")
    return jac if x.ndim > 1 else jac[0]


def _complex_value(value, name):
    value = np.asarray(value)
    if not np.iscomplexobj(value):
        raise EvaluationError(f"complex-safe callable returned real values in {name}")
    return value


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
    At a stack of points (S, n), with one direction per point or one for
    all, ``f`` gets all stencil points in one call and must compute over
    the leading axis; the result is the stack of the points' derivatives.
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
    """Antisymmetric part (M - M^T) / 2 of a matrix, or of each matrix of
    a stack."""
    m = np.asarray(m, dtype=float)
    return 0.5 * (m - np.swapaxes(m, -1, -2))


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

    ``a`` may also be a stack of matrices (S, n, n), with ``rhs`` a stack
    of vectors (S, n) or of matrices (S, n, k): one batched LAPACK call
    solves them and each member passes the same test, so the solution
    is that of solving the members one by one, and the first member
    that fails raises what ``lu_solve`` raises for it alone.
    """
    a = np.asarray(a, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        if a.ndim == 3 and a.shape[1] == a.shape[2]:
            return _lu_solve_stack(a, rhs)
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


def _lu_solve_stack(a, rhs):
    """``lu_solve`` on a stack of matrices (S, n, n): one batched solve,
    then the row-scaled test of each member, computed as for the member
    alone.  When a member is exactly singular or fails the test, the
    members are solved one by one, so the first that fails raises."""
    vector = rhs.ndim == 2
    try:
        x = np.linalg.solve(a, rhs[..., None] if vector else rhs)
    except np.linalg.LinAlgError:
        x = None
    else:
        if vector:
            x = x[..., 0]
        size = _maxreduce(np.absolute(x.reshape(len(x), -1)), 1)
        rows = _maxreduce(np.absolute(a), 2)
        scaled = np.absolute(rhs) / (rows if vector else rows[..., None])
        scaled_rhs = _maxreduce(scaled.reshape(len(x), -1), 1)
        if np.all(size < np.inf) and not np.any(size * PIVOT_FLOOR > scaled_rhs):
            return x
    return np.stack([lu_solve(m, r) for m, r in zip(a, rhs)])


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
