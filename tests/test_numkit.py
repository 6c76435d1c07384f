"""Kernel routines: differences, Newton, LU, RK4, quadrature, order fits."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from varmech import numkit
from varmech.errors import (DomainError, EvaluationError, NoConvergence,
                            SingularJacobian, StepFailure)


def test_fd_jacobian_quadratic_map():
    # f(x, y) = (x^2, x*y) has Jacobian [[2x, 0], [y, x]]; at (1, 2) that
    # is [[2, 0], [2, 1]].
    f = lambda z: np.array([z[0] ** 2, z[0] * z[1]])
    jac = numkit.fd_jacobian(f, np.array([1.0, 2.0]))
    assert_allclose(jac, [[2.0, 0.0], [2.0, 1.0]], atol=1e-9)


def test_fd_jacobian_step_is_relative():
    # At x = 1e6 an absolute step of 2^-17 would be swallowed by roundoff;
    # the relative step keeps the derivative accurate.
    f = lambda z: np.array([z[0] ** 2])
    jac = numkit.fd_jacobian(f, np.array([1.0e6]))
    assert_allclose(jac[0, 0], 2.0e6, rtol=1e-9)


def test_fd_jacobian4_beats_central_on_exponential():
    f = lambda z: np.array([np.exp(z[0])])
    x = np.array([0.3])
    err2 = abs(numkit.fd_jacobian(f, x)[0, 0] - np.exp(0.3))
    err4 = abs(numkit.fd_jacobian4(f, x)[0, 0] - np.exp(0.3))
    assert err4 < 1e-11
    assert err4 < err2


def test_fd_gradient_matches_jacobian_row():
    f = lambda z: z[0] ** 2 * z[1] + np.sin(z[1])
    x = np.array([0.7, -0.4])
    g = numkit.fd_gradient(f, x)
    assert_allclose(g, [2 * 0.7 * -0.4, 0.7 ** 2 + np.cos(-0.4)], atol=1e-8)
    # a stack gives the stack of its points' gradients
    xs = np.array([x, [1.5, 2.0]])
    assert numkit.fd_gradient(f, xs).tobytes() == np.stack(
        [numkit.fd_gradient(f, p) for p in xs]).tobytes()


def test_fd_directional4_on_matrix_valued_map():
    # d/dt of [[t^2, t], [1, t^3]] along direction 1 at t0 = 0.5.
    def g(z):
        t = z[0]
        return np.array([[t ** 2, t], [1.0, t ** 3]])

    d = numkit.fd_directional4(g, np.array([0.5]), np.array([1.0]))
    assert_allclose(d, [[1.0, 1.0], [0.0, 3 * 0.25]], atol=1e-10)


def _nan_at_inner_points(x0):
    # finite at x0 and at the outer order-4 points x0 +- 2e-3, NaN at the
    # inner ones x0 +- 1e-3 (FD4_STEP_SCALE at |x0| < 1)
    def f(z):
        gap = float(np.max(np.abs(z - x0)))
        return np.array([np.nan if 0.0 < gap < 1.5e-3 else z[0] ** 2])
    return f


def test_fd_jacobian4_rejects_nan_at_inner_point():
    x0 = np.array([0.3])
    with pytest.raises(EvaluationError, match="fd_jacobian4"):
        numkit.fd_jacobian4(_nan_at_inner_points(x0), x0)


def test_fd_directional4_rejects_nan_at_inner_point():
    x0 = np.array([0.3])
    with pytest.raises(EvaluationError, match="fd_directional4"):
        numkit.fd_directional4(_nan_at_inner_points(x0), x0, np.array([1.0]))


def test_complex_step_is_exact_where_the_stencil_is_not():
    # marked callables index coordinates with [..., k]: they also take
    # points stacked on leading axes
    f = lambda z: np.stack([np.exp(z[..., 0]) * np.sin(z[..., 1]),
                            z[..., 0] * z[..., 1] ** 3], axis=-1)
    x = np.array([0.3, -1.7])
    exact = [[np.exp(0.3) * np.sin(-1.7), np.exp(0.3) * np.cos(-1.7)],
             [(-1.7) ** 3, 3 * 0.3 * (-1.7) ** 2]]
    order4 = numkit.fd_jacobian4(f, x)
    marked = numkit.fd_jacobian4(numkit.complex_safe(f), x)
    assert np.max(np.abs(order4 - exact)) > 1e-14
    assert_allclose(marked, exact, rtol=4 * numkit.EPS, atol=0)


def test_jacobian_of_a_stack_is_the_stack_of_jacobians():
    f = lambda z: np.stack([np.exp(z[..., 0]) * np.sin(z[..., 1]),
                            z[..., 0] * z[..., 1] ** 3, z[..., 1]], axis=-1)
    calls = []
    marked = numkit.complex_safe(lambda z: calls.append(z.shape) or f(z))
    xs = np.array([[0.3, -1.7], [2.0, 0.5], [-40.0, 1e-3], [0.0, 0.0]])
    for g in (marked, f):
        for fd in (numkit.fd_jacobian, numkit.fd_jacobian4):
            stacked = fd(g, xs)
            assert stacked.shape == (4, 3, 2)
            for x, jac in zip(xs, stacked):
                assert fd(g, x).tobytes() == jac.tobytes()
            # points on several leading axes keep them, marked or not
            grid = fd(g, np.concatenate([xs, xs[:2] + 1.0]).reshape(2, 3, 2))
            assert grid.shape == (2, 3, 3, 2)
            assert grid.reshape(6, 3, 2)[:4].tobytes() == stacked.tobytes()
    # a marked callable gets all complex-step points of a stack at once
    calls.clear()
    numkit.fd_jacobian4(marked, xs)
    assert calls == [(8, 2)]


def test_complex_step_that_ignores_the_leading_axis_raises():
    # written for one point: z[0] is the first stacked point, not x_0
    f = numkit.complex_safe(lambda z: np.array([z[0] * z[1]]))
    with pytest.raises(DomainError, match="leading axis"):
        numkit.fd_jacobian4(f, np.array([[0.3, 0.4], [0.5, 0.6], [0.7, 0.8]]))


def test_complex_step_of_a_stack_names_the_first_bad_point():
    # NaN in f(x) only at x_0 = 2, in the derivative along e_1 only at
    # x_0 = 3: the earlier of the two points raises, as it would one
    # point at a time
    def f(z):
        out = z * z
        x0 = z.real[..., 0]
        out[x0 == 2.0] = complex(np.nan, 0.0)
        out[(x0 == 3.0) & (z.imag[..., 1] != 0)] = complex(0.0, np.nan)
        return out

    g = numkit.complex_safe(f)
    with pytest.raises(EvaluationError, match="at x"):
        numkit.fd_jacobian4(g, np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]))
    with pytest.raises(EvaluationError, match="direction 1"):
        numkit.fd_jacobian4(g, np.array([[1.0, 0.0], [3.0, 0.0], [2.0, 0.0]]))


@pytest.mark.parametrize("stencil", [numkit._CENTRAL2, numkit._CENTRAL4, numkit._COMPLEX])
def test_directional_derivative_of_a_stack_is_one_call(stencil):
    # one direction per point, two of them zero: every stencil point of
    # the stack goes to f at once, each derivative has the bits of the
    # same derivative at its point alone, and a zero direction gives
    # +0.0; the complex-step row, which the mark selects, does the same
    # with its own step at each point
    mark = numkit.complex_safe if stencil is numkit._COMPLEX else (lambda g: g)
    f = mark(lambda z: np.stack([np.exp(z[..., 0]) * np.sin(z[..., 1]),
                                 z[..., 0] * z[..., 1] ** 3], axis=-1))
    calls = []
    counted = mark(lambda z: calls.append(z.shape) or f(z))
    xs = np.array([[0.3, -1.7], [2.0, 0.5], [-40.0, 1e-3], [0.0, 0.0],
                   [0.3, 0.4], [500.0, 2.0], [-3.0, -2.0]])
    ds = np.array([[1.0, -1.0], [0.0, 0.0], [0.25, 3.0], [-2.0, 0.5],
                   [1.0, 0.5], [1.0, 0.5], [0.0, 0.0]])
    stacked = numkit._central(counted, xs, stencil, "test", ds)
    assert calls == [(len(stencil[1]) * len(xs), 2)]
    assert stacked.shape == (7, 2)
    for zero in (stacked[1], stacked[6]):
        assert zero.tobytes() == np.zeros(2).tobytes()
    for x, d, row in zip(xs, ds, stacked):
        assert numkit._central(f, x, stencil, "test", d).tobytes() == row.tobytes()
    # one direction for all points
    shared = numkit._central(f, xs, stencil, "test", ds[0])
    for x, row in zip(xs, shared):
        assert numkit._central(f, x, stencil, "test", ds[0]).tobytes() == row.tobytes()


@pytest.mark.parametrize("direction", [None, np.array([1.0, -2.0])])
def test_unmarked_callable_gets_each_stencil_point_once_in_order(direction):
    # at a single point, or a Jacobian at a stack: 1-D points in order of
    # point, direction and offset, each once
    seen = []

    def f(z):
        seen.append(z.copy())
        return np.array([z[0] * z[1], z[1]])

    xs = np.array([[0.3, -1.7], [2.0, 0.5]])
    scale, offsets = numkit.FD4_STEP_SCALE, numkit._CENTRAL4[1]
    if direction is None:
        numkit.fd_jacobian4(f, xs)
        steps = scale * np.maximum(1.0, np.abs(xs))
        expected = [x + (o * t) * e for x, ts in zip(xs, steps)
                    for t, e in zip(ts, np.eye(2)) for o in offsets]
    else:
        numkit.fd_directional4(f, xs[1], direction)
        t = scale * max(1.0, np.max(np.abs(xs[1]))) / np.max(np.abs(direction))
        expected = [xs[1] + (o * t) * direction for o in offsets]
    assert [z.shape for z in seen] == [(2,)] * len(expected)
    assert np.array(seen).tobytes() == np.array(expected).tobytes()


def test_callable_raising_mid_stencil_surfaces_as_itself():
    calls = []

    def f(z):
        calls.append(z)
        if len(calls) == 3:
            raise KeyError("bug in the callable")
        return z

    with pytest.raises(KeyError, match="bug in the callable"):
        numkit.fd_jacobian4(f, np.array([0.3, 0.4]))
    assert len(calls) == 3


def test_directional_derivative_of_a_stack_needs_the_leading_axis():
    f = lambda z: np.array([z[0] * z[1]])  # one point only
    with pytest.raises(DomainError, match="leading axis"):
        numkit.fd_directional4(f, np.array([[0.3, 0.4], [0.5, 0.6]]), np.ones(2))
    nan = lambda z: np.where(z[..., :1] > 0.501, np.nan, z[..., :1])
    with pytest.raises(EvaluationError, match="fd_directional4, direction 0"):
        numkit.fd_directional4(nan, np.array([[0.3, 0.4], [0.5, 0.6]]), np.ones(2))


def test_complex_step_directional_derivative():
    # a (1, 2) value per point, computed over leading axes as the mark
    # promises
    g = numkit.complex_safe(
        lambda z: np.stack([z[..., 0] ** 2, z[..., 0] * z[..., 1]], axis=-1)[..., None, :])
    d = numkit.fd_directional4(g, np.array([0.5, 2.0]), np.array([1.0, -1.0]))
    assert_allclose(d, [[1.0, 2.0 - 0.5]], rtol=4 * numkit.EPS, atol=0)


def test_complex_safe_mark_propagates_only_from_marked_parts():
    marked = numkit.complex_safe(lambda z: z)
    plain = lambda z: z
    assert getattr(numkit.complex_safe(lambda z: z, marked), "complex_safe", False)
    assert not getattr(numkit.complex_safe(lambda z: z, marked, plain),
                       "complex_safe", False)


def test_pointwise_lifts_an_unmarked_callable_over_stacked_points():
    calls = []

    def f(a, b):  # written for one point
        calls.append(a.shape)
        return np.array([a[0] * b[1], a[0] + b[0]])

    a = np.arange(6.0).reshape(3, 2)
    b = np.array([0.5, -1.0])  # one point, broadcast against the stack
    value = numkit.pointwise(f, (a, b), (2,), "f")
    assert value.tobytes() == np.stack([f(p, b) for p in a]).tobytes()
    assert calls[:3] == [(2,)] * 3
    # leading axes keep their shape, and 1-D points go straight through
    stack = numkit.pointwise(f, (a.reshape(3, 1, 2), b))
    assert stack.shape == (3, 1, 2) and stack.tobytes() == value.tobytes()
    assert numkit.pointwise(f, (a[0], b)).tobytes() == f(a[0], b).tobytes()
    # a marked callable gets the stack in one call, and must return it
    marked = numkit.complex_safe(lambda a, b: a * b)
    assert numkit.pointwise(marked, (a + 1e-30j, b)).dtype == complex
    with pytest.raises(DomainError, match=r"g returned shape \(2,\), expected \(3, 2\)"):
        numkit.pointwise(numkit.complex_safe(lambda a, b: b), (a, b), (2,), "g")
    # an empty stack has no point to call f on
    assert numkit.pointwise(f, (a[:0], b), (2,)).shape == (0, 2)


@pytest.mark.filterwarnings("ignore::numpy.exceptions.ComplexWarning")
def test_complex_safe_callable_that_casts_to_float_raises():
    # the cast drops the imaginary part: a silent zero derivative
    f = numkit.complex_safe(lambda z: np.asarray(z ** 2, dtype=float))
    with pytest.raises(EvaluationError, match="complex-safe callable returned real"):
        numkit.fd_jacobian4(f, np.array([0.3, 0.4]))


@pytest.mark.parametrize("nan_at", [
    lambda z: np.nan * z,   # NaN in both parts
    lambda z: z + np.nan,   # NaN in f(x) only: the derivative reads 1
])
def test_complex_safe_callable_returning_nan_raises(nan_at):
    f = numkit.complex_safe(nan_at)
    with pytest.raises(EvaluationError, match="fd_jacobian4"):
        numkit.fd_jacobian4(f, np.array([0.3]))


def test_fd_gradient_rejects_nonfinite_value():
    with pytest.raises(EvaluationError, match="fd_gradient"):
        numkit.fd_gradient(lambda z: np.inf if z[1] > 0.5 else z[0], np.array([0.2, 0.5]))


def test_fd_mixed_hessian():
    # f(a, b) = a0^2 b0 + a1 b1^3: d2f/da db = [[2 a0, 0], [0, 3 b1^2]].
    f = lambda a, b: a[0] ** 2 * b[0] + a[1] * b[1] ** 3
    a = np.array([1.5, -0.5])
    b = np.array([0.2, 0.8])
    hess = numkit.fd_mixed_hessian(f, a, b)
    assert_allclose(hess, [[3.0, 0.0], [0.0, 3 * 0.64]], atol=1e-6)


def test_fd_mixed_hessian_of_a_rectangular_nonsymmetric_pair():
    # f(a, b) = a0 b2 + 2 a1 b0 + a0^2 b1: entry [i, j] is d2f/da_i db_j,
    # [[0, 2 a0, 1], [2, 0, 0]], with a of length 2 and b of length 3
    f = lambda a, b: a[0] * b[2] + 2 * a[1] * b[0] + a[0] ** 2 * b[1]
    hess = numkit.fd_mixed_hessian(f, np.array([0.7, -1.2]), np.array([0.3, 0.5, -0.4]))
    assert hess.shape == (2, 3)
    assert_allclose(hess, [[0.0, 1.4, 1.0], [2.0, 0.0, 0.0]], atol=1e-6)


def test_fd_mixed_hessian_rejects_a_nan_at_one_cross_point():
    a, b = np.array([0.5, 0.2]), np.array([0.1, -0.3])
    # NaN only where both a0 and b1 are stepped up
    f = lambda x, y: np.nan if (x[0] > a[0] and y[1] > b[1]) else float(x @ y)
    with pytest.raises(EvaluationError, match="fd_mixed_hessian"):
        numkit.fd_mixed_hessian(f, a, b)


def test_antisymmetrize():
    m = np.array([[1.0, 2.0], [0.0, 3.0]])
    out = numkit.antisymmetrize(m)
    assert_allclose(out, [[0.0, 1.0], [-1.0, 0.0]])
    assert_allclose(out, -out.T)


def test_lu_solve_matches_numpy():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(5, 5)) + 5 * np.eye(5)
    b = rng.normal(size=5)
    assert_allclose(numkit.lu_solve(a, b), np.linalg.solve(a, b), atol=1e-12)


def test_is_regular_is_lu_solves_test():
    # condition number 4e13: under lu_solve's 1e14 limit, so regular
    near = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]])
    assert numkit.is_regular(near)
    assert np.all(np.isfinite(numkit.lu_solve(near, np.array([1.0, 0.0]))))
    # condition number 4e15: singular at working precision for both
    nearer = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
    assert not numkit.is_regular(nearer)
    with pytest.raises(SingularJacobian):
        numkit.lu_solve(nearer, np.array([1.0, 0.0]))
    assert not numkit.is_regular(np.zeros((2, 2)))
    assert numkit.is_regular(np.diag([1.0, 1e-30]))  # row scaling: regular


def test_lu_solve_needs_pivoting():
    # Zero in the leading position forces a row swap.
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert_allclose(numkit.lu_solve(a, np.array([2.0, 3.0])), [3.0, 2.0])


def test_lu_solve_singular_raises():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularJacobian):
        numkit.lu_solve(a, np.array([1.0, 1.0]))


def test_lu_solve_near_singular_raises():
    # Rows equal to working precision: LAPACK returns an answer of size
    # 9e14, which the conditioning test must refuse, for a vector and a
    # matrix right-hand side alike.
    for rhs in ([1.0, 0.0], np.eye(2)):
        with pytest.raises(SingularJacobian):
            numkit.lu_solve([[1.0, 1.0], [1.0, 1.0 + 1e-15]], rhs)


def test_lu_solve_badly_scaled_rows_are_fine():
    # Row scaling is part of the test: a well-conditioned system with one
    # row multiplied by 1e-20 still solves.
    a = np.array([[2.0, 1.0], [1e-20, 3e-20]])
    b = np.array([1.0, 2e-20])
    assert_allclose(numkit.lu_solve(a, b), np.linalg.solve(a, b), rtol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_lu_solve_on_a_stack_is_member_by_member(n):
    rng = np.random.default_rng(40 + n)
    a = rng.normal(size=(50, n, n)) + rng.uniform(0.0, n, (50, 1, 1)) * np.eye(n)
    for rhs in (rng.normal(size=(50, n)), rng.normal(size=(50, n, 2 * n))):
        stacked = numkit.lu_solve(a, rhs)
        assert stacked.shape == rhs.shape
        for m, r, x in zip(a, rhs, stacked):
            assert numkit.lu_solve(m, r).tobytes() == x.tobytes()


def test_lu_solve_on_a_stack_raises_for_the_first_failing_member():
    # member 1 fails the row-scaled test, member 3 is exactly singular:
    # the stack raises what member 1 raises alone, whichever comes first;
    # member 0's large right-hand side does not excuse member 1
    a = np.stack([np.eye(2), [[1.0, 1.0], [1.0, 1.0 + 1e-15]], 2 * np.eye(2),
                  [[1.0, 2.0], [2.0, 4.0]]])
    rhs = np.array([[1e3, 0.0], [1.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularJacobian) as alone:
        numkit.lu_solve(a[1], rhs[1])
    for order in ([0, 1, 2], [0, 1, 2, 3], [0, 1, 3, 2], [3, 0, 1, 2]):
        with pytest.raises(SingularJacobian) as stacked:
            numkit.lu_solve(a[order], rhs[order])
        first = next(i for i in order if i in (1, 3))
        if first == 1:
            assert str(stacked.value) == str(alone.value)
        else:
            assert "singular" in str(stacked.value)
    assert numkit.lu_solve(a[[0, 2]], rhs[[0, 2]]).tolist() == [[1e3, 0.0], [0.5, 0.5]]
    with pytest.raises(DomainError, match="square"):
        numkit.lu_solve(np.ones((3, 2, 3)), np.ones((3, 2)))


def test_lu_solve_matrix_rhs_is_row_scaled():
    # Row j of the system is scaled by row j of a, whatever the number of
    # right-hand-side columns: this system is perfectly conditioned.
    a = np.diag([1.0, 1e-20])
    rhs = np.array([[0.0, 0.0], [1e-20, 0.0]])
    x = numkit.lu_solve(a, rhs)
    assert np.array_equal(x, [[0.0, 0.0], [1.0, 0.0]])
    assert np.array_equal(x, np.linalg.solve(a, rhs))


def test_lu_solve_rectangular_matrix_rhs():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(2, 2)) + 3 * np.eye(2)
    rhs = rng.normal(size=(2, 3))
    x = numkit.lu_solve(a, rhs)
    assert x.shape == (2, 3)
    assert np.array_equal(x, np.linalg.solve(a, rhs))


def test_march_wraps_numerical_failures_only():
    def step(q0, q1):
        if q1[0] >= 2.0:
            raise NoConvergence("stuck")
        return 2 * q1 - q0

    with pytest.raises(StepFailure) as info:
        numkit.march(step, [0.0], [1.0], 5, "probe")
    assert info.value.step == 1
    assert_allclose(info.value.partial[:, 0], [0.0, 1.0, 2.0])
    assert "probe failed at step 1" in str(info.value)

    def buggy(q0, q1):
        raise ValueError("user bug")

    with pytest.raises(ValueError):
        numkit.march(buggy, [0.0], [1.0], 5)


@pytest.mark.parametrize("q0, q1", [
    (0.0, 1.0),                  # scalars
    ([0.0, 0.0], 0.1),           # a scalar q1 would broadcast
    ([0.0, 0.0], [0.1]),         # a short q1 would broadcast too
    ([0.0, 0.0], [0.1, 0.2, 0.3]),
    ([[0.0, 0.0]], [[0.1, 0.2]]),
])
def test_march_rejects_bad_seed_pairs(q0, q1):
    with pytest.raises(DomainError, match="seed pair"):
        numkit.march(lambda a, b: 2 * b - a, q0, q1, 3)


def test_march_checks_seed_dim_when_given():
    with pytest.raises(DomainError, match=r"shape \(3,\)"):
        numkit.march(lambda a, b: 2 * b - a, [0.0, 0.0], [0.1, 0.2], 3, dim=3)
    points = numkit.march(lambda a, b: 2 * b - a, [0.0, 0.0], [0.1, 0.2], 3, dim=2)
    assert_allclose(points[-1], [0.4, 0.8])


def test_pair_series_hands_a_marked_observable_blocks():
    rows = []

    @numkit.complex_safe
    def summed(a, b):
        rows.append(len(a) + 1)  # the block of points its pairs come from
        return a[..., 0] + b[..., 0]

    points = np.arange(2 * (2 * numkit.PAIR_CHUNK + 8), dtype=float).reshape(-1, 2)
    out = numkit.pair_series({"sum": summed, "plain": lambda a, b: b[1] - a[0]}, points)
    assert rows == [numkit.PAIR_CHUNK + 1, numkit.PAIR_CHUNK + 1, 8]
    assert np.array_equal(out["sum"], points[:-1, 0] + points[1:, 0])
    assert np.array_equal(out["plain"], np.full(len(points) - 1, 3.0))
    assert list(out) == ["sum", "plain"]


def test_pair_series_calls_an_unmarked_observable_per_pair_in_order():
    seen = []

    def plain(a, b):
        assert a.shape == b.shape == (2,)
        seen.append((a.tolist(), b.tolist()))
        return float(b[0] - a[1])

    points = np.random.default_rng(1).standard_normal((numkit.PAIR_CHUNK + 5, 2))
    out = numkit.pair_series({"p": plain}, points)
    pairs = list(zip(points[:-1].tolist(), points[1:].tolist()))
    assert seen == pairs
    assert np.array_equal(out["p"], [b[0] - a[1] for a, b in pairs])


@pytest.mark.parametrize("rows, pairs", [(0, 0), (1, 0), (2, 1), (3, 2)])
def test_pair_series_short_runs(rows, pairs):
    # runs of 0 and 1 steps have 2 and 3 points
    points = np.arange(2.0 * rows).reshape(rows, 2)
    marked = numkit.complex_safe(lambda a, b: b[..., 1] - a[..., 0])
    out = numkit.pair_series({"m": marked, "p": lambda a, b: b[1] - a[0]}, points)
    assert out["m"].shape == out["p"].shape == (pairs,)
    assert np.array_equal(out["m"], out["p"])


def test_pair_series_rejects_wrongly_shaped_values():
    points = np.arange(2.0 * (numkit.PAIR_CHUNK + 5)).reshape(-1, 2)
    # written for one pair: it ignores the leading axis of a block
    one_pair = numkit.complex_safe(lambda a, b: float(b[0, 0] - a[0, 0]))
    with pytest.raises(DomainError,
                       match=rf"'e' returned shape \(\) for {numkit.PAIR_CHUNK} pairs"):
        numkit.pair_series({"e": one_pair}, points)
    # a later block changes the shape of its values
    changing = numkit.complex_safe(lambda a, b: np.zeros((len(a), 2 if len(a) > 9 else 3)))
    with pytest.raises(DomainError, match=r"returned shape \(4, 3\) for 4 pairs"):
        numkit.pair_series({"e": changing}, points)

def test_newton_sqrt2():
    root = numkit.newton_solve(lambda x: np.array([x[0] ** 2 - 2.0]), np.array([1.0]))
    assert_allclose(root[0], np.sqrt(2.0), atol=1e-12)


def test_newton_iteration_count_quadratic():
    # Quadratic convergence from x0 = 1 reaches sqrt(2) in under 6 steps.
    calls = {"n": 0}

    def f(x):
        calls["n"] += 1
        return np.array([x[0] ** 2 - 2.0])

    numkit.newton_solve(f, np.array([1.0]))
    # one residual per iteration plus the initial one; FD adds 2 per iter
    iterations = (calls["n"] - 1) // 3
    assert iterations < 6


def test_newton_analytic_jacobian_used():
    calls = {"f": 0, "jac": 0}

    def f(x):
        calls["f"] += 1
        return np.array([x[0] ** 2 - 2.0])

    def jacobian(x):
        calls["jac"] += 1
        return np.array([[2.0 * x[0]]])

    root = numkit.newton_solve(f, np.array([1.0]), jacobian=jacobian)
    assert_allclose(root[0], np.sqrt(2.0), atol=1e-12)
    # no finite differences: one residual per Jacobian plus the initial one
    assert calls["jac"] > 0
    assert calls["f"] == calls["jac"] + 1


def test_newton_tol_scale_multiplies_tolerance():
    # x - 1e-9 = 0 from 0: the first residual, 1e-9, passes a tolerance
    # of 1e-12 scaled by 1e4 but not the plain one.
    def f(x):
        return np.array([x[0] - 1e-9])

    assert numkit.newton_solve(f, np.array([0.0]), tol=1e-12, tol_scale=1e4)[0] == 0.0
    assert numkit.newton_solve(f, np.array([0.0]), tol=1e-12)[0] == 1e-9


def test_newton_no_real_root_raises():
    with pytest.raises(NoConvergence):
        numkit.newton_solve(lambda x: np.array([x[0] ** 2 + 1.0]), np.array([0.7]))


def test_newton_nonfinite_raises():
    with pytest.raises(EvaluationError):
        numkit.newton_solve(lambda x: np.array([np.nan]), np.array([1.0]))


def test_rk4_harmonic_orbit():
    # One full period of x'' = -x; fixed-step RK4 at step <= 1e-3 returns
    # to the start with error far below 1e-9.
    f = lambda t, y: np.array([y[1], -y[0]])
    y = numkit.rk4(f, np.array([1.0, 0.0]), 0.0, 2 * np.pi)
    assert_allclose(y, [1.0, 0.0], atol=1e-9)


def test_gauss_legendre_exactness():
    # n nodes integrate polynomials up to degree 2n-1 exactly.
    nodes, weights = numkit.gauss_legendre(8)
    for deg in range(16):
        val = float(weights @ nodes ** deg)
        assert_allclose(val, 1.0 / (deg + 1), atol=1e-13)


def test_pair_series_vector_function_gives_columns():
    points = np.arange(12, dtype=float).reshape(-1, 2)
    fn = lambda a, b: np.array([a[0] * b[1], b[0] - a[1], 1.0])
    out = numkit.pair_series({"v": fn, "s": lambda a, b: a[0] + b[0]}, points)
    assert out["v"].shape == (5, 3)
    assert np.array_equal(out["v"], np.stack([fn(a, b) for a, b in zip(points[:-1], points[1:])]))
    assert out["s"].shape == (5,)
    assert np.array_equal(out["s"], points[:-1, 0] + points[1:, 0])
    # a marked one gives its columns a block at a time, across blocks
    points = np.random.default_rng(2).standard_normal((numkit.PAIR_CHUNK + 9, 2))
    fn = lambda a, b: np.stack([a[..., 0] * b[..., 1], b[..., 0] - a[..., 1]], axis=-1)
    out = numkit.pair_series({"m": numkit.complex_safe(fn), "p": fn}, points)
    assert out["m"].shape == (len(points) - 1, 2)
    assert np.array_equal(out["m"], out["p"])


def test_fit_order_cubic_signal():
    h = np.logspace(-3, -1, 9)
    err = h ** 3 + h ** 5
    slope = numkit.fit_order(h, err)
    assert abs(slope - 3.0) < 0.1


def test_fit_order_rejects_bad_input():
    with pytest.raises(DomainError):
        numkit.fit_order([0.1], [0.2])
    with pytest.raises(DomainError):
        numkit.fit_order([0.1, 0.2], [0.0, 0.1])
