"""Small numerical kernel: finite differences, Newton, the stepping loop,
RK4, quadrature.

All geometry modules sit on top of these routines, so their conventions
are fixed here once:

* finite-difference steps are relative, ``eps * max(1, |x_i|)``, with
  ``eps`` a module constant per stencil (FD_STEP_SCALE, FD2_STEP_SCALE,
  FD4_STEP_SCALE);
* the central differences (``fd_jacobian``, ``fd_gradient``,
  ``fd_jacobian4``, ``fd_directional4``, and ``fd_mixed_hessian``, a
  difference of differences) run in one kernel over a stencil table of
  order-2, order-4 and complex-step rows.  It builds all stencil points
  of a stack in one array, sums each row's terms left to right and
  divides once, and it rejects a non-finite derivative, so a NaN at
  any stencil point raises EvaluationError;
* a callable marked by ``complex_safe`` computes with complex points as
  it does with real ones, so its values are analytic in them, and over
  leading axes of stacked points.  In the difference kernel the mark
  selects the complex-step row: one evaluation per direction at a step
  of COMPLEX_STEP_SCALE, the derivative ``Im f(x + i t e_k) / t``,
  which takes no difference and is exact to rounding, with all
  directions of all points of a stack in one call.  Outside the
  kernel it decides one thing: whether ``pointwise``, through which
  every callable meets a stack, hands the stack over in one call or
  calls the callable on each point in order.  That holds for the
  sampled checks and for the pair observables along a run alike
  (``pair_series``: energy monitors, orbit trace powers).  The one
  exception is a derivative along directions at a stack of points:
  the kernel hands all its stencil points to any callable in one call
  (ihc takes the time derivative of a Jacobian so).  The catalogue's
  fiber maps, recurrences and energy monitors carry the mark, as do
  extended-disk's and harmonic-exact's ``d12`` and implicit-exp's
  force law, ``c`` and momentum, and so do the embeddings, slot maps
  and two-form fields built from marked parts;
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
# Relative step of both differences of fd_mixed_hessian: about
# mach**(1/4), the optimum for second differences rather than first ones.
FD2_STEP_SCALE = 1.2e-4
# Wider step for the order-4 stencil (optimum grows with stencil order).
FD4_STEP_SCALE = 1e-3
# Relative step of the complex-step row: far below the rounding level of
# x, which the row can afford because it subtracts nothing, and far
# above underflow.
COMPLEX_STEP_SCALE = 1e-30
# The stencil table of _central: (relative step, offsets, weights,
# denominator), offsets and weights as arrays that broadcast over the
# stencil points of a stack.  The terms are summed left to right,
# hi - lo and -f1 + 8 f2 - 8 f3 + f4, which fixes the rounding of
# every difference.
# The complex-step row, which the complex-safe mark selects, has one
# imaginary offset, and the kernel sums the imaginary part of its value.
_CENTRAL2 = (FD_STEP_SCALE, np.array([1.0, -1.0]), np.array([1.0, -1.0]), 2.0)
_CENTRAL4 = (FD4_STEP_SCALE, np.array([2.0, 1.0, -1.0, -2.0]),
             np.array([-1.0, 8.0, -8.0, 1.0]), 12.0)
_COMPLEX = (COMPLEX_STEP_SCALE, np.array([1j]), np.array([1.0]), 1.0)
# The order-2 row at the second-difference step, taken once per slot by
# fd_mixed_hessian.
_CROSS = (FD2_STEP_SCALE,) + _CENTRAL2[1:]
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
# Most pairs pair_series hands to a marked pair observable at once,
# which bounds the temporaries of a long run.
PAIR_CHUNK = 1024


_FLOAT = np.dtype(float)
_maxreduce = np.maximum.reduce
_all = np.logical_and.reduce


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
    with one call on all its complex-step points, and ``pointwise``
    hands it a stack in one call instead of point by point.
    """
    if is_complex_safe(*parts):
        setattr(f, _MARK, True)
    return f


def pointwise(f, points, tail=None, what="callable"):
    """``f(*points)`` for points whose last axis holds the coordinates,
    stacked on leading axes that broadcast against those of the point
    with the most axes.

    A marked ``f`` computes over the leading axes itself, and 1-D points
    are a single point, so either goes straight to ``f``.  Otherwise
    ``f`` is called on each point of the stack in order, and its values
    are stacked on the leading axes; an empty stack gives zeros of
    shape leading axes + ``tail``.  With ``tail`` given, the value
    must have the shape leading axes + ``tail`` (DomainError naming
    ``what`` otherwise).  The points and the value keep their dtype, so
    complex points pass through.
    """
    arrays = []
    shape = ()
    for p in points:  # one plain loop: the cheapest form on the 1-D Newton path
        p = np.asarray(p)
        arrays.append(p)
        if p.ndim > len(shape):
            shape = p.shape
    lead = shape[:-1]
    if lead and not getattr(f, _MARK, False):
        rows = [np.broadcast_to(p, lead + p.shape[-1:]).reshape(-1, p.shape[-1])
                for p in arrays]
        values = [np.asarray(f(*point)) for point in zip(*rows)]
        # an empty stack has no point to call f on
        value = (np.stack(values).reshape(lead + values[0].shape) if values
                 else np.zeros(lead + (tail or ())))
    else:
        value = np.asarray(f(*arrays))
    if tail is not None and value.shape != lead + tail:
        raise DomainError(f"{what} returned shape {value.shape}, expected {lead + tail}")
    return value


def _central(f, x, stencil, name, direction=None):
    """The one difference kernel behind the fd_* wrappers.

    ``stencil`` is a row of the stencil table, (relative step, offsets,
    weights, denominator); an ``f`` marked by ``complex_safe`` gets the
    complex-step row instead.  The derivative along d at step t is
    sum_j w_j f(x + (o_j t) d) / (denominator t), summed left to right,
    of the imaginary part of f in the complex-step row.  Without
    ``direction`` the result is the Jacobian (m, n), m the size of f's
    value, one column per coordinate i along e_i at step
    ``scale * max(1, |x_i|)``; with it, the derivative along
    ``direction`` at step ``scale * max(1, ||x||_inf) /
    ||direction||_inf``, shaped like f's value, and zero along a zero
    direction.  ``x`` may be points stacked on leading axes (..., n),
    with ``direction`` one per point or one for all: each point keeps
    its own steps, so its derivative has the bits of the same
    derivative at that point alone, and the result is stacked on the
    same leading axes.

    The stencil points of all points, directions and offsets are built
    in one array.  A marked ``f``, and any ``f`` along a direction at a
    stack, gets them in one call, stacked on one leading axis, and must
    return its values stacked so (DomainError otherwise), complex in the
    complex-step row (EvaluationError otherwise); any other ``f`` is
    called on each 1-D stencil point in order of point, direction and
    offset.  Each derivative must be finite, and so must f(x), the real
    part of the complex-step value along the first direction: the
    first point that fails, in order, raises EvaluationError.
    """
    marked = getattr(f, _MARK, False)
    scale, offsets, weights, denom = _COMPLEX if marked else stencil
    x = _asvec(x)
    lead, n = x.shape[:-1], x.shape[-1]
    xs = x.reshape(-1, n)
    if direction is None:
        dirs = np.eye(n)
        steps = scale * np.maximum(1.0, np.absolute(xs))
        still = None
    else:
        d = np.broadcast_to(_asvec(direction), x.shape).reshape(-1, n)
        dirs = d[:, None, :]
        nd = _maxreduce(np.absolute(d), 1)
        still = nd == 0.0
        steps = (scale * np.maximum(1.0, _maxreduce(np.absolute(xs), 1))
                 / np.where(still, 1.0, nd))[:, None]
    # (point, direction, offset, coordinate)
    points = (xs[:, None, None, :]
              + (steps[..., None] * offsets)[..., None] * dirs[..., None, :])
    flat = points.reshape(-1, n)
    if marked or (direction is not None and lead):
        value = np.asarray(f(flat), dtype=None if marked else float)
        if value.shape[:1] != (len(flat),):
            raise DomainError(
                f"callable returned shape {value.shape} for {len(flat)} stencil "
                f"points in {name}; it must compute over the leading axis")
    else:
        value = np.array([f(p) for p in flat], dtype=float)
    shape = value.shape[1:]
    value = value.reshape(points.shape[:3] + (-1,))
    if marked:
        if not np.iscomplexobj(value):
            raise EvaluationError(f"complex-safe callable returned real values in {name}")
        # f(x): the real part of the value along the first direction
        fx_finite = _all(np.isfinite(value[:, 0, 0].real), 1)
        value = value.imag
    # the weighted terms in the Jacobian's layout (point, component,
    # direction, offset), so the sum and the quotient come out in it;
    # rebinding frees the values before the quotient is allocated
    value = np.multiply(value.transpose(0, 3, 1, 2), weights, order="C")
    total = value[..., 0]
    for i in range(1, len(weights)):
        total = total + value[..., i]
    diff = total / (denom * steps)[:, None, :]
    if still is not None:
        diff[still] = 0.0
    # np.maximum.reduce of |diff| is inf for an inf and NaN for a NaN,
    # so one comparison tests every derivative
    if not (_maxreduce(np.absolute(diff), None) < np.inf
            and (not marked or fx_finite.all())):
        # finite (point, direction), after f(x) in the complex-step row
        finite = _all(np.isfinite(diff), 1)
        if marked:
            finite = np.column_stack((fx_finite, finite))
        s = int(np.argmin(_all(finite, 1)))
        j = int(np.argmin(finite[s])) - marked
        if j < 0:
            raise EvaluationError(f"non-finite value encountered in {name} at x")
        raise EvaluationError(f"non-finite value in {name}, direction {j}")
    return diff.reshape(lead + (diff.shape[1:] if direction is None else shape))


def fd_jacobian(f, x):
    """Jacobian of ``f`` at ``x`` by central differences, shape (m, n);
    points stacked on leading axes give Jacobians on the same axes."""
    return _central(f, x, _CENTRAL2, "fd_jacobian")


def fd_gradient(f, x):
    """Gradient of a scalar function, shape (n,); points stacked on
    leading axes give gradients on the same axes."""
    return _central(lambda z: float(f(z)), x, _CENTRAL2, "fd_gradient")[..., 0, :]


def fd_jacobian4(f, x):
    """Order-4 five-point Jacobian; use where nested differencing needs
    more accuracy than the plain central stencil delivers."""
    return _central(f, x, _CENTRAL4, "fd_jacobian4")


def fd_directional4(f, x, direction):
    """Order-4 derivative of ``t -> f(x + t*direction)`` at t = 0.

    ``f`` may return an array of any shape; the result has that shape.
    At points stacked on leading axes, with one direction per point or
    one for all, ``f`` gets all stencil points in one call and must
    compute over the leading axis; the result is the stack of the
    points' derivatives.
    """
    return _central(f, x, _CENTRAL4, "fd_directional4", direction)


def fd_mixed_hessian(f, a, b):
    """Matrix of mixed second partials ``d^2 f / da_i db_j`` of a scalar
    two-slot function, shape (len(a), len(b)): the order-2 difference in
    a of the order-2 gradient in b, both at relative step
    FD2_STEP_SCALE."""
    b = _asvec(b)

    def grad_b(x):
        return _central(lambda y: float(f(x, y)), b, _CROSS, "fd_mixed_hessian")[0]

    return _central(grad_b, a, _CROSS, "fd_mixed_hessian").T


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

    Each function meets blocks of at most PAIR_CHUNK + 1 rows through
    ``pointwise``, as the stacks of their first and second members: a
    function marked by ``complex_safe`` gets each block in one call,
    any other is called once per pair, in order.  Every block must give
    one value of one shape per pair (DomainError otherwise).
    """
    count = max(len(points) - 1, 0)
    out = {}
    for name, fn in funcs.items():
        blocks = []
        for start in range(0, count, PAIR_CHUNK):
            block = points[start:start + PAIR_CHUNK + 1]
            value = np.asarray(pointwise(fn, (block[:-1], block[1:])), dtype=float)
            if value.shape[:1] != (len(block) - 1,) or (
                    blocks and value.shape[1:] != blocks[0].shape[1:]):
                raise DomainError(f"pair observable {name!r} returned shape "
                                  f"{value.shape} for {len(block) - 1} pairs")
            blocks.append(value)
        out[name] = np.concatenate(blocks) if blocks else np.empty(0)
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
