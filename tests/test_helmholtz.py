import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from varmech import helmholtz as hz
from varmech import numkit, systems
from varmech.errors import DomainError, EvaluationError, SingularJacobian
from varmech.lagrangian import DiscreteLagrangian
from varmech.sode import ExplicitSOdE, ImplicitSOdE, explicit_to_implicit, implicit_step

H = 0.1


def free_recurrence(dim=2):
    return ExplicitSOdE(dim=dim, gamma=lambda q0, q1: 2 * q1 - q0)


def velocity_fiber(dim=2):
    return hz.FiberMap(dim=dim, func=lambda q0, q1: (q1 - q0) / H, kind="minus")


def kinetic_lagrangian():
    return DiscreteLagrangian(
        dim=2, h=H,
        value=lambda x0, x1: float((x1 - x0) @ (x1 - x0)) / (2 * H),
        d1=lambda x0, x1: -(x1 - x0) / H,
        d2=lambda x0, x1: (x1 - x0) / H,
        d12=lambda x0, x1: -np.eye(2) / H,
    )


Q0 = np.array([0.3, -0.2])
Q1 = np.array([0.5, 0.1])


# ---------------------------------------------------------------------------
# explicit discrete Helmholtz conditions


def test_dhc_explicit_free_particle():
    r1, r2, r3 = hz.dhc_explicit(velocity_fiber(), free_recurrence(), Q0, Q1)
    for r in (r1, r2, r3):
        assert np.max(np.abs(r)) < 1e-11


def test_dhc_explicit_harmonic():
    c, s = np.cos(H), np.sin(H)
    fiber = hz.FiberMap(dim=1, func=lambda q0, q1: (q1 - c * q0) / s)
    eq = ExplicitSOdE(dim=1, gamma=lambda q0, q1: 2 * c * q1 - q0)
    r1, r2, r3 = hz.dhc_explicit(fiber, eq, np.array([0.4]), np.array([0.7]))
    for r in (r1, r2, r3):
        assert np.max(np.abs(r)) < 1e-11


def test_dhc_first_condition_detects_asymmetry():
    # adding q0[1] to the first momentum component breaks dF/dq0 symmetry
    fiber = hz.FiberMap(dim=2, func=lambda q0, q1: (q1 - q0) / H + np.array([q0[1], 0.0]))
    r1, r2, r3 = hz.dhc_explicit(fiber, free_recurrence(), Q0, Q1)
    assert_allclose(r1, [[0.0, 0.5], [-0.5, 0.0]], atol=1e-9)
    assert np.max(np.abs(r2)) < 1e-10
    assert np.max(np.abs(r3)) < 1e-10


def test_dhc_second_condition_closed_form():
    # dim 1: F = dq/h + q0 q1 gives R2 = q0 - q1, other residuals trivial
    fiber = hz.FiberMap(dim=1, func=lambda q0, q1: (q1 - q0) / H + q0 * q1)
    eq = ExplicitSOdE(dim=1, gamma=lambda q0, q1: 2 * q1 - q0)
    a, b = np.array([0.4]), np.array([0.7])
    r1, r2, r3 = hz.dhc_explicit(fiber, eq, a, b)
    assert_allclose(r2, (a - b).reshape(1, 1), atol=1e-9)
    assert np.max(np.abs(r1)) < 1e-12
    assert np.max(np.abs(r3)) < 1e-12


def test_dhc_third_condition_quadratic_recurrence():
    eq = ExplicitSOdE(dim=2,
                      gamma=lambda q0, q1: 2 * q1 - q0 + np.array([0.0, q1[0] ** 2]))
    r1, r2, r3 = hz.dhc_explicit(velocity_fiber(), eq, Q0, Q1)
    assert np.max(np.abs(r1)) < 1e-11
    assert np.max(np.abs(r2)) < 1e-10
    # antisym of (1/h) dgamma/dq1 leaves the off-diagonal q1[0]/h
    assert_allclose(r3, [[0.0, -Q1[0] / H], [Q1[0] / H, 0.0]], atol=1e-9)


def test_dhc_requires_minus_kind():
    plus = hz.FiberMap(dim=2, func=lambda q0, q1: q1 - q0, kind="plus")
    with pytest.raises(DomainError):
        hz.dhc_explicit(plus, free_recurrence(), Q0, Q1)


# ---------------------------------------------------------------------------
# implicit discrete Helmholtz conditions


def test_dhc_implicit_free_particle():
    eq = explicit_to_implicit(free_recurrence())
    q2 = 2 * Q1 - Q0
    for r in hz.dhc_implicit(velocity_fiber(), eq, Q0, Q1, q2):
        assert np.max(np.abs(r)) < 1e-10


def test_dhc_implicit_matches_explicit_reduction():
    fiber = hz.FiberMap(dim=2, func=lambda q0, q1: (q1 - q0) / H + np.array([q0[1], 0.0]))
    expl = free_recurrence()
    e1, e2, _ = hz.dhc_explicit(fiber, expl, Q0, Q1)
    i1, i2, _ = hz.dhc_implicit(fiber, explicit_to_implicit(expl), Q0, Q1, 2 * Q1 - Q0)
    assert_allclose(i1, e1, atol=1e-9)
    assert_allclose(i2, e2, atol=1e-9)

    # with a symmetric dF/dQ1 at the advanced pair the third blocks agree too
    quad = ExplicitSOdE(dim=2,
                        gamma=lambda q0, q1: 2 * q1 - q0 + np.array([0.0, q1[0] ** 2]))
    _, _, e3 = hz.dhc_explicit(velocity_fiber(), quad, Q0, Q1)
    _, _, i3 = hz.dhc_implicit(velocity_fiber(), explicit_to_implicit(quad),
                               Q0, Q1, quad(Q0, Q1))
    assert_allclose(i3, e3, atol=1e-9)


def test_dhc_implicit_exponential_recurrence():
    eq = ImplicitSOdE(dim=1,
                      phi=lambda q0, q1, q2: np.exp(q2 - 2 * q1 + q0) - 1.0,
                      c=lambda q0, q1, q2: np.exp(q2 - 2 * q1 + q0).reshape(1, 1))
    fiber = hz.FiberMap(dim=1, func=lambda q0, q1: (q1 - q0) / H)
    a, b = np.array([0.4]), np.array([0.7])
    q2 = implicit_step(eq, a, b)
    assert_allclose(q2, 2 * b - a, atol=1e-12)
    for r in hz.dhc_implicit(fiber, eq, a, b, q2):
        assert np.max(np.abs(r)) < 1e-9


# ---------------------------------------------------------------------------
# isotropy of pair embeddings


def test_isotropy_pullback_vanishes_for_legendre_patterns():
    fiber = velocity_fiber()
    eq = free_recurrence()
    z = np.concatenate([Q0, Q1])
    res_minus = hz.isotropy_pullback(hz.gamma_embedding(fiber, eq), z)
    assert np.max(np.abs(res_minus)) < 1e-10
    plus = hz.plus_from_minus(fiber, eq, probe=(Q0, Q1))
    res_plus = hz.isotropy_pullback(hz.gamma_embedding(plus, eq), z)
    assert np.max(np.abs(res_plus)) < 1e-10


def test_isotropy_pullback_flags_bad_momentum_map():
    fiber = hz.FiberMap(dim=2, func=lambda q0, q1: (q1 - q0) / H + np.array([q0[1], 0.0]))
    z = np.concatenate([Q0, Q1])
    res = hz.isotropy_pullback(hz.gamma_embedding(fiber, free_recurrence()), z)
    assert abs(np.max(np.abs(res)) - 1.0) < 1e-9


def test_plus_from_minus_harmonic_closed_form():
    # advancing the minus map of the exact-oscillator Lagrangian gives
    # its plus map: (cos(h) q1 - q0)/sin(h) at the base point q1
    c, s = np.cos(H), np.sin(H)
    fiber = hz.FiberMap(dim=1, func=lambda q0, q1: (q1 - c * q0) / s)
    eq = ExplicitSOdE(dim=1, gamma=lambda q0, q1: 2 * c * q1 - q0)
    plus = hz.plus_from_minus(fiber, eq, probe=(np.array([0.2]), np.array([0.5])))
    a, b = np.array([-0.3]), np.array([0.8])
    assert plus.kind == "plus"
    assert_allclose(plus(a, b), (c * b - a) / s, atol=1e-12)
    assert_allclose(plus.base(a, b), b)


def test_plus_from_minus_rejects_forgetful_recurrence():
    eq = ExplicitSOdE(dim=2, gamma=lambda q0, q1: 2.0 * q1)
    with pytest.raises(SingularJacobian):
        hz.plus_from_minus(velocity_fiber(), eq, probe=(Q0, Q1))


def test_fiber_map_local_diffeo_residual():
    fiber = velocity_fiber()
    assert abs(fiber.local_diffeo_residual(Q0, Q1) - 1.0 / H) < 1e-6
    rank1 = hz.FiberMap(dim=2,
                        func=lambda q0, q1: np.array([1.0, 1.0]) * (q1[0] - q0[0]) / H)
    assert rank1.local_diffeo_residual(Q0, Q1) < 1e-8


# ---------------------------------------------------------------------------
# continuous Helmholtz conditions


def test_chc_passes_on_linear_restoring_force():
    phi = lambda q, qd, qdd: qdd + q
    jet = (np.array([0.2]), np.array([0.5]), np.array([-0.7]), np.array([0.1]))
    for r in hz.chc_classical(phi, jet):
        assert np.max(np.abs(r)) < 1e-9


def test_chc_detects_damping():
    phi = lambda q, qd, qdd: qdd + 0.3 * qd + q
    jet = (np.array([0.2]), np.array([0.5]), np.array([-0.7]), np.array([0.1]))
    r1, r2, r3 = hz.chc_classical(phi, jet)
    assert np.max(np.abs(r1)) < 1e-9
    assert np.max(np.abs(r2)) < 1e-9
    assert_allclose(r3, [[0.6]], atol=1e-8)


def test_chc_exponential_acceleration_jet():
    def phi(q, qd, qdd):
        return np.array([np.exp(qdd[0] - q[0]) - 1.0, qdd[1] - q[1]])

    jet = (np.zeros(2), np.ones(2), np.zeros(2), np.zeros(2))
    r1, r2, r3 = hz.chc_classical(phi, jet)
    assert np.max(np.abs(r1)) < 1e-9
    assert np.max(np.abs(r2)) < 1e-9
    # velocity-block condition fails in the first slot with residual 2
    assert abs(r3[0, 0] - 2.0) < 1e-8
    assert abs(r3[1, 1]) < 1e-8


def test_ihc_passes_velocity_map():
    ode = hz.ImplicitODE(dim=2,
                         phi=lambda q, qd, qdd: np.array(
                             [np.exp(qdd[0] - q[0]) - 1.0, qdd[1] - q[1]]))
    fiber = lambda q, qd: qd.copy()
    for r in hz.chc_implicit(fiber, ode, np.zeros(2), np.ones(2)):
        assert np.max(np.abs(r)) < 1e-9


def test_ihc_detects_position_coupling():
    ode = hz.ImplicitODE(dim=2,
                         phi=lambda q, qd, qdd: np.array(
                             [np.exp(qdd[0] - q[0]) - 1.0, qdd[1] - q[1]]))
    fiber = lambda q, qd: np.array([qd[0] + q[1], qd[1]])
    r1, r2, r3 = hz.chc_implicit(fiber, ode, np.zeros(2), np.ones(2))
    assert np.max(np.abs(r1)) < 1e-10
    assert_allclose(r2, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-8)
    assert np.max(np.abs(r3)) < 1e-9


def test_implicit_ode_solves_acceleration():
    ode = hz.ImplicitODE(dim=2,
                         phi=lambda q, qd, qdd: np.array(
                             [np.exp(qdd[0] - q[0]) - 1.0, qdd[1] - q[1]]))
    q = np.array([0.3, -0.2])
    acc = ode.solve_acceleration(q, np.ones(2))
    assert_allclose(acc, q, atol=1e-10)


# ---------------------------------------------------------------------------
# one-dimensional functional compatibility equation


def test_functional_identity_solution():
    pts = hz.sample_box(2, 32, seed=3)
    mx, res = hz.functional_residual_1d(lambda x, y: x, lambda x, y: x - y, pts)
    assert mx < 1e-10
    assert res.shape == (32,)


def test_functional_reflection_with_constant_weight():
    pts = hz.sample_box(2, 32, seed=5)
    mx, _ = hz.functional_residual_1d(lambda x, y: -x + 2.0 * y,
                                      lambda x, y: 3.0, pts)
    assert mx < 1e-10


def test_functional_contracting_scaling():
    pred = lambda p: abs(p[0]) > 0.2 and abs(p[1]) > 0.2
    pts = hz.sample_box(2, 32, seed=3, predicate=pred)
    mx, _ = hz.functional_residual_1d(lambda x, y: -0.5 * x,
                                      lambda x, y: 1.0 / abs(x * y), pts)
    assert mx < 1e-10


def test_functional_expanding_scaling_opposite_signs():
    pred = lambda p: p[0] * p[1] < -0.04
    pts = hz.sample_box(2, 32, seed=3, predicate=pred)
    mx, _ = hz.functional_residual_1d(
        lambda x, y: 2.0 * x,
        lambda x, y: 1.0 / (x * abs(y)) - 1.0 / (y * abs(x)), pts)
    assert mx < 1e-10


def test_functional_affine_family():
    a = 1.3
    b = (a ** 3 - 1.0) / a
    w = 0.7
    pred = lambda p: abs(p[0]) + abs(p[1]) > 0.3
    pts = hz.sample_box(2, 32, seed=3, predicate=pred)
    f = lambda x, y: a * x + b * y
    g = lambda x, y: -a * a * w * x + w * y
    mx, _ = hz.functional_residual_1d(f, g, pts)
    assert mx < 1e-10
    # analytic x-derivative gives the same verdict
    mx2, _ = hz.functional_residual_1d(f, g, pts, fx=lambda x, y: a)
    assert mx2 < 1e-12


def test_functional_flags_shifted_solution():
    pts = hz.sample_box(2, 8, seed=1)
    mx, res = hz.functional_residual_1d(lambda x, y: x + 1.0,
                                        lambda x, y: x - y, pts)
    assert abs(mx - 1.0) < 1e-11
    assert_allclose(res, -np.ones(8), atol=1e-11)


# ---------------------------------------------------------------------------
# two-form diagnostics


def test_two_form_checks_kinetic_pair_form():
    omega = hz.TwoFormField.from_lagrangian(kinetic_lagrangian())
    z = np.concatenate([Q0, Q1])
    out = hz.two_form_checks(omega, z, flow=free_recurrence().flow_map)
    assert out["closure"] < 1e-10
    assert out["vertical"] < 1e-10
    assert out["lie"] < 1e-10
    assert abs(out["abs_det"] - 1.0 / H ** 4) < 1e-5
    assert abs(out["flat_sigma"] - 1.0 / H) < 1e-9


def test_two_form_from_lagrangian_closed_form():
    omega_l = hz.TwoFormField.from_lagrangian(kinetic_lagrangian())
    z = np.concatenate([Q0, Q1])
    expected = np.zeros((4, 4))
    expected[:2, 2:] = -np.eye(2) / H
    expected[2:, :2] = np.eye(2) / H
    assert_allclose(omega_l(z), expected, atol=1e-10)


def test_two_form_closure_residual():
    # W_01 = z2 and W_12 = z0 give cyclic sum 2 on the only index triple
    coeff = lambda z: np.array([[0.0, z[2], 0.0],
                                [-z[2], 0.0, z[0]],
                                [0.0, -z[0], 0.0]])
    form = hz.TwoFormField(dim=3, coeff=coeff)
    out = hz.two_form_checks(form, np.array([0.3, 0.5, 0.7]), n_vertical=1)
    assert abs(out["closure"] - 2.0) < 1e-8


def test_two_form_vertical_kernel_blocks():
    w = np.zeros((4, 4))
    w[0, 1], w[1, 0] = 1.0, -1.0
    w[2, 3], w[3, 2] = 0.25, -0.25
    form = hz.TwoFormField.from_constant(w)
    z = np.zeros(4)
    assert abs(hz.two_form_checks(form, z)["vertical"] - 0.25) < 1e-12
    assert abs(hz.two_form_checks(form, z, kernel="first")["vertical"] - 1.0) < 1e-12
    with pytest.raises(DomainError):
        hz.two_form_checks(form, z, kernel="middle")


# ---------------------------------------------------------------------------
# sampling


def test_sample_box_shape_bounds_determinism():
    s1 = hz.sample_box(3, 16, box=2.0, seed=0)
    assert s1.shape == (16, 3)
    assert np.all(np.abs(s1) <= 2.0)
    assert np.array_equal(s1, hz.sample_box(3, 16, box=2.0, seed=0))
    s2 = hz.sample_box(3, 16, box=2.0, seed=1)
    assert np.max(np.abs(s1 - s2)) > 1e-3


def test_sample_box_fills_interval():
    u = np.sort(hz.sample_box(1, 64, seed=0).ravel())
    gaps = np.diff(np.concatenate([[-1.0], u, [1.0]]))
    assert np.max(gaps) < 0.1


def test_sample_box_predicate_and_center():
    pred = lambda p: p[0] > 0
    pts = hz.sample_box(2, 10, box=0.5, seed=2, center=[2.0, -1.0], predicate=pred)
    assert pts.shape == (10, 2)
    assert np.all(pts[:, 0] > 0)
    assert np.all(np.abs(pts - [2.0, -1.0]) <= 0.5)
    with pytest.raises(DomainError):
        hz.sample_box(2, 5, predicate=lambda p: False)


# ---------------------------------------------------------------------------
# condition reports


def test_check_dhc_explicit_report_passes():
    samples = hz.sample_box(4, 6, seed=0)
    report = hz.check_dhc_explicit(velocity_fiber(), free_recurrence(), samples,
                                   system="free", params={"h": H})
    assert report.verdict
    names = [c.name for c in report.conditions]
    assert names == ["dHC1", "dHC2", "dHC3"]
    # slot Jacobians have norm 1/h so the tolerance band widens tenfold
    assert report.conditions[0].tol == pytest.approx(1e-5)


def test_check_dhc_explicit_report_fails_with_worst_point():
    fiber = hz.FiberMap(dim=2, func=lambda q0, q1: (q1 - q0) / H + np.array([q0[1], 0.0]))
    samples = hz.sample_box(4, 6, seed=0)
    report = hz.check_dhc_explicit(fiber, free_recurrence(), samples)
    assert not report.verdict
    by_name = {c.name: c for c in report.conditions}
    assert not by_name["dHC1"].passed
    assert by_name["dHC1"].max_residual == pytest.approx(0.5, abs=1e-9)
    assert by_name["dHC2"].passed
    assert by_name["dHC3"].passed
    assert len(by_name["dHC1"].worst_point) == 4


def _linear_dhc_case(p, q, a, b):
    """F = P q0 + Q q1 along q2 = A q1 + B q0, with the exact dHC1-3
    residuals, which are constant: antisym(P), Q + (Q B)^T, antisym(Q A)."""
    n = len(p)
    fiber = hz.FiberMap(dim=n, func=lambda q0, q1: p @ q0 + q @ q1)
    eq = ExplicitSOdE(dim=n, gamma=lambda q0, q1: a @ q1 + b @ q0)
    exact = [0.5 * (p - p.T), q + (q @ b).T, 0.5 * (q @ a - (q @ a).T)]
    return fiber, eq, [float(np.max(np.abs(r))) for r in exact]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_check_dhc_explicit_passes_every_quadratic_lagrangian(n):
    # L = q0'S0 q0/2 + q0'K q1 + q1'S1 q1/2: F = -D1 L = -S0 q0 - K q1 and
    # the discrete Euler-Lagrange equation S0 q1 + K q2 + K'q0 + S1 q1 = 0
    rng = np.random.default_rng(100 + n)
    s0, s1 = (m + m.T for m in rng.normal(size=(2, n, n)))
    k = rng.normal(size=(n, n)) + n * np.eye(n)
    k_inv = np.linalg.inv(k)
    fiber, eq, exact = _linear_dhc_case(-s0, -k, -k_inv @ (s0 + s1), -k_inv @ k.T)
    assert max(exact) < 1e-12
    report = hz.check_dhc_explicit(fiber, eq, hz.sample_box(2 * n, 8, seed=n), tol=1e-8)
    assert report.verdict
    assert max(c.max_residual for c in report.conditions) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("tol", [1e-8, 1.0])
def test_check_dhc_explicit_matches_exact_linear_residuals(n, tol):
    rng = np.random.default_rng(200 + n)
    p, q, a, b = rng.normal(size=(4, n, n))
    fiber, eq, exact = _linear_dhc_case(p, q, a, b)
    report = hz.check_dhc_explicit(fiber, eq, hz.sample_box(2 * n, 8, seed=n), tol=tol)
    eff = tol * max(1.0, np.max(np.abs(p)), np.max(np.abs(q)))
    for cond, want in zip(report.conditions, exact):
        assert abs(want - eff) > 1e-9  # no verdict within the residual's error
        assert abs(cond.max_residual - want) <= 1e-9
        assert cond.tol == pytest.approx(eff, rel=1e-9)
        assert cond.passed == (want <= eff)
    assert report.verdict == all(want <= eff for want in exact)


def _linear_isotropy_case(p, q, a, b, marked):
    """The pair embedding of F = P q0 + Q q1 along q2 = A q1 + B q0, its
    exact pullback maximum and its largest Jacobian entry.  The Jacobian
    is constant, with rows [I 0], [P Q], [0 I], [QB P+QA], so the pullback
    is the constant [[P - P', C], [-C', R' - R]] with C = Q + (QB)' and
    R = P + QA."""
    n = len(p)
    mark = numkit.complex_safe if marked else (lambda f: f)
    fiber = hz.FiberMap(dim=n, func=mark(lambda q0, q1: p @ q0 + q @ q1))
    eq = ExplicitSOdE(dim=n, gamma=mark(lambda q0, q1: a @ q1 + b @ q0))
    c, r = q + (q @ b).T, p + q @ a
    pulled = np.block([[p - p.T, c], [-c.T, r.T - r]])
    size = max(1.0, *(float(np.max(np.abs(m))) for m in (p, q, q @ b, r)))
    return hz.gamma_embedding(fiber, eq), float(np.max(np.abs(pulled))), size


@pytest.mark.parametrize("marked", [True, False])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_check_isotropy_passes_every_quadratic_lagrangian(n, marked):
    # the data of test_check_dhc_explicit_passes_every_quadratic_lagrangian
    rng = np.random.default_rng(100 + n)
    s0, s1 = (m + m.T for m in rng.normal(size=(2, n, n)))
    k = rng.normal(size=(n, n)) + n * np.eye(n)
    k_inv = np.linalg.inv(k)
    embed, exact, size = _linear_isotropy_case(-s0, -k, -k_inv @ (s0 + s1),
                                               -k_inv @ k.T, marked)
    assert getattr(embed, "complex_safe", False) == marked
    assert exact < 1e-12 * size ** 2
    report = hz.check_isotropy(embed, hz.sample_box(2 * n, 8, seed=n), tol=1e-6)
    assert report.verdict
    cond = report.conditions[0]
    assert cond.tol == pytest.approx(1e-6 * size ** 2, rel=1e-9)
    scaled = cond.max_residual / size ** 2
    assert scaled <= (1e-13 if marked else 1e-10)


@pytest.mark.parametrize("marked", [True, False])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("tol", [1e-6, 1.0])
def test_check_isotropy_matches_exact_linear_pullback(n, tol, marked):
    rng = np.random.default_rng(300 + n)
    p, q, a, b = rng.normal(size=(4, n, n))
    embed, exact, size = _linear_isotropy_case(p, q, a, b, marked)
    report = hz.check_isotropy(embed, hz.sample_box(2 * n, 8, seed=n), tol=tol)
    eff = tol * size ** 2
    assert abs(exact - eff) > 1e-9 * eff  # no verdict within the residual's error
    cond = report.conditions[0]
    assert cond.max_residual == pytest.approx(exact, rel=1e-9)
    assert cond.tol == pytest.approx(eff, rel=1e-9)
    assert report.verdict == cond.passed == (exact <= eff)


def test_check_dhc_implicit_report():
    eq = ImplicitSOdE(dim=1,
                      phi=lambda q0, q1, q2: np.exp(q2 - 2 * q1 + q0) - 1.0,
                      c=lambda q0, q1, q2: np.exp(q2 - 2 * q1 + q0).reshape(1, 1))
    fiber = hz.FiberMap(dim=1, func=lambda q0, q1: (q1 - q0) / H)
    report = hz.check_dhc_implicit(fiber, eq, hz.sample_box(2, 6, seed=1),
                                   system="exp-recurrence")
    assert report.verdict
    assert report.check == "dhc-implicit"


def test_check_dhc_implicit_singular_c_raises():
    cmat = np.array([[1.0, 1.0], [1.0, 1.0]])
    eq = ImplicitSOdE(dim=2, phi=lambda q0, q1, q2: cmat @ (q2 - 2 * q1 + q0),
                      c=lambda q0, q1, q2: cmat)
    fiber = hz.FiberMap(dim=2, func=lambda q0, q1: (q1 - q0) / H)
    with pytest.raises(SingularJacobian):
        hz.check_dhc_implicit(fiber, eq, [[0.1, 0.2, 0.3, 0.1]])


def test_check_ihc_singular_acceleration_jacobian_raises():
    # phi = qdd^3 has the root qdd = 0, where its Jacobian vanishes
    ode = hz.ImplicitODE(dim=1, phi=lambda q, qd, qdd: qdd ** 3)
    with pytest.raises(SingularJacobian):
        hz.check_ihc(lambda q, qd: qd.copy(), ode, [[0.1, 0.2]])


def test_check_isotropy_report_with_dimension():
    emb = hz.gamma_embedding(velocity_fiber(), free_recurrence())
    report = hz.check_isotropy(emb, hz.sample_box(4, 6, seed=0), lagrangian_dim=4)
    assert report.verdict
    names = [c.name for c in report.conditions]
    assert names == ["isotropy", "lagrangian-dimension"]


def test_check_chc_and_ihc_reports():
    damped = lambda q, qd, qdd: qdd + 0.3 * qd + q
    jets = [(np.array([0.2]), np.array([0.5]), np.array([-0.7]), np.array([0.1])),
            (np.array([-0.4]), np.array([0.3]), np.array([0.2]), np.array([0.0]))]
    report = hz.check_chc(damped, jets, system="damped")
    assert not report.verdict
    by_name = {c.name: c for c in report.conditions}
    assert by_name["cHC3"].max_residual == pytest.approx(0.6, abs=1e-8)
    assert by_name["cHC1"].passed and by_name["cHC2"].passed

    ode = hz.ImplicitODE(dim=2,
                         phi=lambda q, qd, qdd: np.array(
                             [np.exp(qdd[0] - q[0]) - 1.0, qdd[1] - q[1]]))
    points = hz.sample_box(4, 4, box=0.5, seed=2)
    rep2 = hz.check_ihc(lambda q, qd: qd.copy(), ode, points)
    assert rep2.verdict


def test_check_two_form_report_params():
    omega = hz.TwoFormField.from_lagrangian(kinetic_lagrangian())
    report = hz.check_two_form(omega, hz.sample_box(4, 4, seed=0),
                               flow=free_recurrence().flow_map, system="free")
    assert report.verdict
    assert report.params["min_abs_det"] == pytest.approx(1.0 / H ** 4, rel=1e-6)
    assert report.params["min_flat_sigma"] == pytest.approx(1.0 / H, rel=1e-6)
    names = [c.name for c in report.conditions]
    assert names == ["closure", "vertical", "lie"]


def test_check_dhc_implicit_scale_from_fiber_block():
    # dF = (-I/h, I/h) at every pair, so the band widens tenfold
    report = hz.check_dhc_implicit(velocity_fiber(),
                                   explicit_to_implicit(free_recurrence()),
                                   hz.sample_box(4, 4, seed=0))
    assert report.verdict
    assert all(c.tol == pytest.approx(1e-5) for c in report.conditions)


EMPTY_CHECKS = {
    # check -> (call on a sample set, sample width)
    "dhc-explicit": (lambda pts: hz.check_dhc_explicit(
        velocity_fiber(), free_recurrence(), pts), 4),
    "dhc-implicit": (lambda pts: hz.check_dhc_implicit(
        velocity_fiber(), explicit_to_implicit(free_recurrence()), pts), 4),
    "isotropy": (lambda pts: hz.check_isotropy(
        lambda z: np.concatenate([z, z]), pts), 2),
    "chc": (lambda jets: hz.check_chc(lambda q, qd, qdd: qdd + q, jets), 4),
    "ihc": (lambda pts: hz.check_ihc(
        lambda q, qd: qd.copy(),
        hz.ImplicitODE(dim=1, phi=lambda q, qd, qdd: qdd + q), pts), 2),
    "two-form": (lambda pts: hz.check_two_form(
        hz.TwoFormField.from_lagrangian(kinetic_lagrangian()), pts), 4),
    "functional": (lambda pts: hz.check_functional(
        lambda x, y: x, lambda x, y: x - y, pts), 2),
}


@pytest.mark.parametrize("check", sorted(EMPTY_CHECKS))
@pytest.mark.parametrize("form", ["rows", "list"])
def test_checks_reject_empty_samples(check, form):
    call, width = EMPTY_CHECKS[check]
    with pytest.raises(DomainError, match="at least one sample"):
        call(np.zeros((0, width)) if form == "rows" else [])


def test_check_isotropy_needs_pair_ambient_by_default():
    emb = lambda z: np.concatenate([z, 2.0 * z, z])  # six ambient coordinates
    samples = hz.sample_box(2, 3, seed=0)
    with pytest.raises(DomainError, match="multiple of 4"):
        hz.check_isotropy(emb, samples)
    with pytest.raises(DomainError, match="multiple of 4"):
        hz.isotropy_pullback(emb, samples[0])
    # an explicit ambient form of the right size is accepted
    report = hz.check_isotropy(emb, samples, ambient=np.zeros((6, 6)))
    assert report.verdict


def test_check_functional_catalogue_and_perturbed_pair():
    for pair in systems.functional_catalog():
        pts = pair.samples(32)
        report = hz.check_functional(pair.f, pair.g, pts, tol=1e-10,
                                     system=pair.name)
        assert report.verdict, pair.name
        assert [c.name for c in report.conditions] == ["functional"]
        assert report.conditions[0].tol == 1e-10

    reflection = systems.functional_catalog()[1]  # f = 2y - x, g = 3
    pts = reflection.samples(32)
    bent = lambda x, y: reflection.f(x, y) + 0.01 * x * y
    report = hz.check_functional(bent, reflection.g, pts, tol=1e-10)
    assert not report.verdict
    worst = report.conditions[0]
    assert any(np.array_equal(worst.worst_point, p) for p in pts)
    # the residual is 3 * 0.01 * y, largest where |y| is
    assert worst.max_residual == pytest.approx(0.03 * np.max(np.abs(pts[:, 1])),
                                               rel=1e-8)
    assert worst.worst_point[1] == pytest.approx(
        pts[np.argmax(np.abs(pts[:, 1])), 1])

    # equal residuals at every point: the tie goes to the last point
    tilted = hz.check_functional(reflection.f, reflection.g, pts,
                                 fx=lambda x, y: -0.999)
    assert not tilted.verdict
    assert tilted.conditions[0].worst_point == list(pts[-1])


def test_check_functional_rejects_nan_residual():
    with pytest.raises(EvaluationError, match=r"functional: non-finite functional .*0\.2, 0\.3"):
        hz.check_functional(lambda x, y: x, lambda x, y: float("nan"), [[0.2, 0.3]],
                            fx=lambda x, y: 1.0)


@pytest.mark.filterwarnings("ignore:invalid value encountered in det")
def test_check_two_form_rejects_field_nan_at_sample_point():
    # with no vertical block the form at the point itself enters only
    # through its size, which must still be finite
    point = np.array([0.2, 0.3])
    w = np.array([[0.0, 1.0], [-1.0, 0.0]])
    omega = hz.TwoFormField(dim=2, coeff=lambda z: np.full((2, 2), np.nan)
                            if np.array_equal(z, point) else w)
    with pytest.raises(EvaluationError, match="two-form: non-finite data size"):
        hz.check_two_form(omega, [point], n_vertical=0)


def test_check_isotropy_rejects_nan_at_inner_stencil_point():
    # a non-isotropic embedding that is NaN only at the inner points of
    # the order-4 stencil around the sample
    point = np.array([0.2, 0.3])

    def embed(z):
        if 0.0 < np.max(np.abs(z - point)) < 1.5e-3:
            return np.full(4, np.nan)
        return np.array([z[0], z[0] * z[1], z[1], z[0] ** 2])

    with pytest.raises(EvaluationError, match="fd_jacobian4"):
        hz.check_isotropy(embed, [point])


def test_condition_report_json_layout():
    report = hz.check_dhc_explicit(velocity_fiber(), free_recurrence(),
                                   hz.sample_box(4, 4, seed=0),
                                   system="free", params={"h": H})
    doc = json.loads(report.to_json())
    assert list(doc.keys()) == ["check", "system", "params", "conditions", "verdict"]
    assert doc["verdict"] == "pass"
    assert list(doc["conditions"][0].keys()) == [
        "name", "max_residual", "worst_point", "tol", "pass"]
    assert report.to_json() == report.to_json()
