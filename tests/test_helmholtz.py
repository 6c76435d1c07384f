import itertools
import json
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from varmech import helmholtz as hz
from varmech import numkit, systems
from varmech.errors import DomainError, EvaluationError, NoConvergence, SingularJacobian
from varmech.lagrangian import DiscreteLagrangian, lagrangian_two_form
from varmech.nonholonomic import rule_from_spec
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


def test_fiber_map_legs_lay_out_both_legendre_legs():
    # (q0, F01, q1, F12) for a minus map, (q1, F01, q2, F12) for a plus
    # map, over stacked triples; complex points keep their dtype
    rng = np.random.default_rng(5)
    q0, q1, q2 = rng.uniform(-1.0, 1.0, (3, 4, 2))
    func = numkit.complex_safe(lambda a, b: (b - a) / H + a[..., ::-1] * b)
    minus = hz.FiberMap(dim=2, func=func)
    plus = hz.FiberMap(dim=2, func=func, kind="plus")
    f01, f12 = func(q0, q1), func(q1, q2)
    assert minus.legs(q0, q1, q2).tobytes() == np.concatenate(
        [q0, f01, q1, f12], axis=-1).tobytes()
    assert plus.legs(q0, q1, q2).tobytes() == np.concatenate(
        [q1, f01, q2, f12], axis=-1).tobytes()
    z0, z1, z2 = (q + 1e-30j * rng.uniform(-1.0, 1.0, q.shape) for q in (q0, q1, q2))
    legs = minus.legs(z0, z1, z2)
    assert legs.dtype == complex
    assert legs.tobytes() == np.concatenate(
        [z0, func(z0, z1), z1, func(z1, z2)], axis=-1).tobytes()
    assert plus.legs(z0, z1, z2).dtype == complex


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
    ode = ImplicitSOdE(dim=2,
                       phi=lambda q, qd, qdd: np.array(
                           [np.exp(qdd[0] - q[0]) - 1.0, qdd[1] - q[1]]))
    fiber = lambda q, qd: qd.copy()
    for r in hz.chc_implicit(fiber, ode, np.zeros(2), np.ones(2)):
        assert np.max(np.abs(r)) < 1e-9


def test_ihc_detects_position_coupling():
    ode = ImplicitSOdE(dim=2,
                       phi=lambda q, qd, qdd: np.array(
                           [np.exp(qdd[0] - q[0]) - 1.0, qdd[1] - q[1]]))
    fiber = lambda q, qd: np.array([qd[0] + q[1], qd[1]])
    r1, r2, r3 = hz.chc_implicit(fiber, ode, np.zeros(2), np.ones(2))
    assert np.max(np.abs(r1)) < 1e-10
    assert_allclose(r2, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-8)
    assert np.max(np.abs(r3)) < 1e-9


def test_implicit_ode_solves_acceleration():
    ode = ImplicitSOdE(dim=2,
                       phi=lambda q, qd, qdd: np.array(
                           [np.exp(qdd[0] - q[0]) - 1.0, qdd[1] - q[1]]))
    q = np.array([0.3, -0.2])
    acc = ode.solve_last(q, np.ones(2), np.zeros(2))
    assert_allclose(acc, q, atol=1e-10)


def test_implicit_ode_analytic_c_goes_through_pointwise():
    q, qd, qdd = np.random.default_rng(4).uniform(-1, 1, size=(3, 5, 2))
    cm = np.array([[1.0, 0.25], [0.0, 3.0]])
    ode = ImplicitSOdE(dim=2, phi=lambda q, qd, qdd: cm @ qdd - q,
                       c=lambda q, qd, qdd: cm)
    assert np.array_equal(ode.C(q, qd, qdd), np.broadcast_to(cm, (5, 2, 2)))
    assert np.array_equal(ode.C(q[0], qd[0], qdd[0]), cm)
    wrong = ImplicitSOdE(dim=2, phi=ode.phi, c=lambda q, qd, qdd: np.eye(3))
    with pytest.raises(DomainError, match=r"c returned shape \(3, 3\), expected \(2, 2\)"):
        wrong.C(q[0], qd[0], qdd[0])
    with pytest.raises(DomainError, match=r"c returned shape \(5, 3, 3\)"):
        wrong.C(q, qd, qdd)


def test_implicit_ode_takes_stacked_points():
    ode = systems.make_system("implicit-exp").ode
    q, qd, qdd = np.random.default_rng(3).uniform(-1, 1, size=(3, 5, 2))
    values = ode(q, qd, qdd)
    assert values.shape == (5, 2)
    for i in range(5):
        assert ode(q[i], qd[i], qdd[i]).tobytes() == values[i].tobytes()
    assert ode.C(q, qd, qdd).shape == (5, 2, 2)
    # a marked phi keeps the points' dtype, so complex steps pass through
    assert ode(q + 1e-30j, qd, qdd).dtype == complex
    # an unmarked phi is called point by point; a marked one must
    # compute over the leading axis
    plain = ImplicitSOdE(dim=2, phi=lambda q, qd, qdd: qdd - q)
    assert plain(q, qd, qdd).tobytes() == np.stack(
        [plain(q[i], qd[i], qdd[i]) for i in range(5)]).tobytes()
    with pytest.raises(DomainError, match=r"phi returned shape \(2,\), expected \(5, 2\)"):
        ImplicitSOdE(dim=2, phi=numkit.complex_safe(lambda q, qd, qdd: np.zeros(2)))(
            q, qd, qdd)


def test_chc_implicit_of_a_stack_is_the_stack_of_residuals():
    # marked implicit-exp: each point of a stack gets the bits of its
    # residuals alone, and the outer stencil calls the inner complex-step
    # Jacobian once
    bundle = systems.make_system("implicit-exp")
    points = bundle.probes(6, seed=2)
    stacked = hz.chc_implicit(bundle.momentum, bundle.ode, points[:, :2], points[:, 2:])
    for i, z in enumerate(points):
        for r, rs in zip(hz.chc_implicit(bundle.momentum, bundle.ode, z[:2], z[2:]),
                         stacked):
            assert r.tobytes() == rs[i].tobytes()
    # the linear momentum qd makes every residual exactly zero
    assert not any(np.any(r) for r in stacked)


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


def test_two_form_field_takes_stacked_points():
    lag = systems.make_system("extended-disk")
    omega = hz.TwoFormField.from_lagrangian(lag)
    assert numkit.is_complex_safe(lag.d12, omega.coeff)
    plain = hz.TwoFormField.from_lagrangian(kinetic_lagrangian())
    assert not numkit.is_complex_safe(plain.coeff)
    z = hz.sample_box(8, 5, seed=1)
    w = omega(z)
    assert w.shape == (5, 8, 8)
    for i in range(5):
        # the pair-space form of D12, as lagrangian_two_form builds it
        assert w[i].tobytes() == lagrangian_two_form(lag, z[i, :4], z[i, 4:]).tobytes()
    assert omega(z + 1e-30j).dtype == complex
    # an unmarked field is called point by point; a marked one must
    # compute over the leading axis
    const = hz.TwoFormField.from_constant(w[0])
    assert const(z).tobytes() == np.stack([w[0]] * 5).tobytes()
    with pytest.raises(DomainError, match="coefficient field returned shape"):
        hz.TwoFormField(dim=8, coeff=numkit.complex_safe(lambda z: w[0]))(z)


@pytest.mark.parametrize("marked", [True, False])
def test_two_form_checks_of_a_stack_are_the_checks_of_each_point(marked):
    # marked: extended-disk's field; unmarked: the kinetic pair form with
    # the free flow, evaluated point by point inside the stack
    if marked:
        lag, flow = systems.make_system("extended-disk"), None
    else:
        lag, flow = kinetic_lagrangian(), free_recurrence().flow_map
    omega = hz.TwoFormField.from_lagrangian(lag)
    z = hz.sample_box(omega.dim, 6, seed=2)
    stacked = hz.two_form_checks(omega, z, flow=flow)
    for i in range(6):
        alone = hz.two_form_checks(omega, z[i], flow=flow)
        assert set(alone) == set(stacked)
        for key, value in alone.items():
            assert isinstance(value, float)
            assert value == stacked[key][i], key
    assert np.max(stacked["closure"]) < (1e-15 if marked else 1e-10)


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


@pytest.mark.parametrize("dim", [1, 2, 5])
def test_sample_box_predicate_filters_the_sequence_in_order(dim):
    # the predicate sees the unfiltered sequence in order and keeps the
    # first admissible points, however the candidates are blocked
    pred = lambda p: p[0] * p[-1] > 0.1
    for count in (1, 7, 40):
        pts = hz.sample_box(dim, count, seed=3, predicate=pred)
        seq = hz.sample_box(dim, 100 * count, seed=3)
        assert np.array_equal(pts, [p for p in seq if pred(p)][:count])
    assert np.array_equal(hz.sample_box(dim, 9, seed=3, predicate=lambda p: True),
                          hz.sample_box(dim, 9, seed=3))


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


def _linear_dhc_case(p, q, a, b, marked=False):
    """F = P q0 + Q q1 along q2 = A q1 + B q0, with the exact dHC1-3
    residuals, which are constant: antisym(P), Q + (Q B)^T, antisym(Q A)."""
    n = len(p)
    mark = numkit.complex_safe if marked else (lambda f: f)
    fiber = hz.FiberMap(dim=n, func=mark(lambda q0, q1: q0 @ p.T + q1 @ q.T))
    eq = ExplicitSOdE(dim=n, gamma=mark(lambda q0, q1: q1 @ a.T + q0 @ b.T))
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


def _assert_exact_verdicts(report, exact, eff):
    """Each condition's sampled maximum is the exact constant residual,
    and its verdict the exact comparison at the effective tolerance."""
    for cond, want in zip(report.conditions, exact):
        assert abs(want - eff) > 1e-9  # no verdict within the residual's error
        assert abs(cond.max_residual - want) <= 1e-9
        assert cond.tol == pytest.approx(eff, rel=1e-9)
        assert cond.passed == (want <= eff)
    assert report.verdict == all(want <= eff for want in exact)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("tol", [1e-8, 1.0])
def test_check_dhc_explicit_matches_exact_linear_residuals(n, tol):
    rng = np.random.default_rng(200 + n)
    p, q, a, b = rng.normal(size=(4, n, n))
    fiber, eq, exact = _linear_dhc_case(p, q, a, b)
    report = hz.check_dhc_explicit(fiber, eq, hz.sample_box(2 * n, 8, seed=n), tol=tol)
    _assert_exact_verdicts(report, exact, tol * max(1.0, np.max(np.abs(p)), np.max(np.abs(q))))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("tol", [1e-8, 1.0])
def test_check_dhc_explicit_on_marked_blocks_matches_exact_linear_residuals(n, tol):
    # marked parts: the residuals of a block come from one evaluation
    rng = np.random.default_rng(200 + n)
    p, q, a, b = rng.normal(size=(4, n, n))
    fiber, eq, exact = _linear_dhc_case(p, q, a, b, marked=True)
    report = hz.check_dhc_explicit(fiber, eq, hz.sample_box(2 * n, 8, seed=n), tol=tol)
    _assert_exact_verdicts(report, exact, tol * max(1.0, np.max(np.abs(p)), np.max(np.abs(q))))


def _linear_isotropy_case(p, q, a, b, marked):
    """The pair embedding of F = P q0 + Q q1 along q2 = A q1 + B q0, its
    exact pullback maximum and its largest Jacobian entry.  The Jacobian
    is constant, with rows [I 0], [P Q], [0 I], [QB P+QA], so the pullback
    is the constant [[P - P', C], [-C', R' - R]] with C = Q + (QB)' and
    R = P + QA."""
    n = len(p)
    mark = numkit.complex_safe if marked else (lambda f: f)
    # q0 @ P' is P q0 for each point of a stack, as a marked map must be
    fiber = hz.FiberMap(dim=n, func=mark(lambda q0, q1: q0 @ p.T + q1 @ q.T))
    eq = ExplicitSOdE(dim=n, gamma=mark(lambda q0, q1: q1 @ a.T + q0 @ b.T))
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


def _linear_implicit_case(p, q, a, b, marked):
    """F = P q0 + Q q1 along phi = q2 - A q1 - B q0 = 0, with the exact
    residuals of ``dhc_implicit``, which are constant.  The tangent basis
    of {phi = 0} is A_i = (e_i, 0, B e_i), B_i = (0, e_i, A e_i), so the
    first two blocks are dhc_explicit's, antisym(P) and Q + (Q B)^T, and
    the unreduced third one is antisym(P + Q A)."""
    n = len(p)
    mark = numkit.complex_safe if marked else (lambda f: f)
    fiber = hz.FiberMap(dim=n, func=mark(lambda q0, q1: q0 @ p.T + q1 @ q.T))
    eq = ImplicitSOdE(dim=n, phi=mark(lambda q0, q1, q2: q2 - q1 @ a.T - q0 @ b.T),
                      c=lambda q0, q1, q2: np.eye(n))
    r = p + q @ a
    exact = [0.5 * (p - p.T), q + (q @ b).T, 0.5 * (r - r.T)]
    return fiber, eq, [float(np.max(np.abs(m))) for m in exact]


@pytest.mark.parametrize("marked", [True, False])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_check_dhc_implicit_passes_every_quadratic_lagrangian(n, marked):
    # the data of test_check_dhc_explicit_passes_every_quadratic_lagrangian
    rng = np.random.default_rng(100 + n)
    s0, s1 = (m + m.T for m in rng.normal(size=(2, n, n)))
    k = rng.normal(size=(n, n)) + n * np.eye(n)
    k_inv = np.linalg.inv(k)
    fiber, eq, exact = _linear_implicit_case(-s0, -k, -k_inv @ (s0 + s1),
                                             -k_inv @ k.T, marked)
    assert max(exact) < 1e-12
    report = hz.check_dhc_implicit(fiber, eq, hz.sample_box(2 * n, 8, seed=n), tol=1e-8)
    assert report.verdict
    assert max(c.max_residual for c in report.conditions) < (1e-13 if marked else 1e-9)


@pytest.mark.parametrize("marked", [True, False])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("tol", [1e-8, 1.0])
def test_check_dhc_implicit_matches_exact_linear_residuals(n, tol, marked):
    rng = np.random.default_rng(400 + n)
    p, q, a, b = rng.normal(size=(4, n, n))
    fiber, eq, exact = _linear_implicit_case(p, q, a, b, marked)
    report = hz.check_dhc_implicit(fiber, eq, hz.sample_box(2 * n, 8, seed=n), tol=tol)
    _assert_exact_verdicts(report, exact, tol * max(1.0, np.max(np.abs(p)), np.max(np.abs(q))))


def _linear_ihc_case(cm, dm, km, mm, nm, marked):
    """The law phi = C qdd + D qd + K q with momentum F = M qd + N q, and
    the exact IHC residuals, which are constant: F's Jacobian is (N, M)
    along every solution, so with X = M C^{-1} they are M - M',
    N - N' - X D and Y - Y' for Y = -X K.  Unmarked, C is also given as
    the analytic ``c``; marked, it comes from phi's complex step."""
    n = len(cm)
    mark = numkit.complex_safe if marked else (lambda f: f)
    phi = mark(lambda q, qd, qdd: qdd @ cm.T + qd @ dm.T + q @ km.T)
    ode = ImplicitSOdE(dim=n, phi=phi, c=None if marked else (lambda q, qd, qdd: cm))
    fiber = mark(lambda q, qd: qd @ mm.T + q @ nm.T)
    x = mm @ np.linalg.inv(cm)
    y = -x @ km
    exact = [mm - mm.T, nm - nm.T - x @ dm, y - y.T]
    return fiber, ode, [float(np.max(np.abs(r))) for r in exact]


@pytest.mark.parametrize("marked", [True, False])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_check_ihc_passes_every_quadratic_lagrangian(n, marked):
    # L = qd'A qd/2 + qd'B q + q'S q/2: F = dL/dqd = A qd + B q and the
    # Euler-Lagrange law A qdd + (B - B') qd - S q = 0
    rng = np.random.default_rng(500 + n)
    g, b = rng.normal(size=(2, n, n))
    a = g @ g.T + n * np.eye(n)
    s = rng.normal(size=(n, n))
    s = s + s.T
    fiber, ode, exact = _linear_ihc_case(a, b - b.T, -s, a, b, marked)
    assert max(exact) < 1e-12
    report = hz.check_ihc(fiber, ode, hz.sample_box(2 * n, 8, box=0.8, seed=n), tol=1e-8)
    assert report.verdict
    # the time derivative is still a difference, of a complex-step
    # Jacobian that is constant to rounding when marked
    assert max(c.max_residual for c in report.conditions) < (1e-12 if marked else 1e-9)


@pytest.mark.parametrize("marked", [True, False])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("tol", [1e-8, 1.0])
def test_check_ihc_matches_exact_linear_residuals(n, tol, marked):
    rng = np.random.default_rng(600 + n)
    cm, dm, km, mm, nm = rng.normal(size=(5, n, n))
    cm += 2 * n * np.eye(n)
    fiber, ode, exact = _linear_ihc_case(cm, dm, km, mm, nm, marked)
    report = hz.check_ihc(fiber, ode, hz.sample_box(2 * n, 8, box=0.8, seed=n), tol=tol)
    _assert_exact_verdicts(report, exact, tol)


def _linear_chc_case(mm, dm, km, marked):
    """The force expression phi = M qdd + D qd + K q with constant
    matrices and its exact cHC residuals: phi's Jacobian is constant, so
    every time derivative vanishes and they are M - M', K - K' and
    D + D'."""
    if marked:
        phi = numkit.complex_safe(lambda q, qd, qdd: qdd @ mm.T + qd @ dm.T + q @ km.T)
    else:
        phi = lambda q, qd, qdd: mm @ qdd + dm @ qd + km @ q
    return phi, [mm - mm.T, km - km.T, dm + dm.T]


@pytest.mark.parametrize("marked", [True, False])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_check_chc_matches_exact_linear_residuals(n, marked):
    rng = np.random.default_rng(700 + n)
    mm, dm, km = rng.normal(size=(3, n, n))
    phi, exact = _linear_chc_case(mm, dm, km, marked)
    bound = 1e-11 if marked else 1e-8
    count = hz.SAMPLE_CHUNK + 3
    jets = [tuple(jet) for jet in rng.uniform(-1.0, 1.0, size=(count, 4, n))]
    # the residual matrices at every jet of a stack, and the report
    stacked = hz.chc_classical(phi, [np.stack(part) for part in zip(*jets)])
    for r, want in zip(stacked, exact):
        assert r.shape == (count, n, n)
        assert np.max(np.abs(r - want)) <= bound
    report = hz.check_chc(phi, jets, tol=1e-7)
    for cond, want in zip(report.conditions, exact):
        assert abs(cond.max_residual - float(np.max(np.abs(want)))) <= bound
        assert cond.passed == (float(np.max(np.abs(want))) <= 1e-7)


def _antisymmetric_stack(rng, m):
    """m random antisymmetric m-by-m matrices A_k, stacked (m, m, m)."""
    g = rng.normal(size=(m, m, m))
    return g - np.swapaxes(g, -1, -2)


def _linear_field(z, ak):
    """W(z) = sum_k z_k A_k, over leading axes of z, summed in k order
    without a BLAS call, so a stack of points gets each point's bits."""
    w = 0.0
    for k in range(len(ak)):
        w = w + z[..., k, None, None] * ak[k]
    return w


@pytest.mark.parametrize("marked", [True, False])
@pytest.mark.parametrize("m", [3, 4, 5])
@pytest.mark.parametrize("tol", [1e-6, 1.0])
def test_check_two_form_closure_matches_exact_linear_field(m, tol, marked):
    # dW_ij/dz_k = A_k[i, j]: the closure residual is the largest cyclic
    # sum |A_a[b, c] + A_b[c, a] + A_c[a, b]| over a < b < c
    rng = np.random.default_rng(700 + m)
    ak = _antisymmetric_stack(rng, m)
    exact = max(abs(ak[a][b, c] + ak[b][c, a] + ak[c][a, b])
                for a, b, c in itertools.combinations(range(m), 3))
    mark = numkit.complex_safe if marked else (lambda f: f)
    omega = hz.TwoFormField(dim=m, coeff=mark(lambda z: _linear_field(z, ak)))
    samples = hz.sample_box(m, 10, seed=m)
    report = hz.check_two_form(omega, samples, tol=tol)
    fields = [_linear_field(z, ak) for z in samples]
    eff = tol * max(1.0, max(float(np.max(np.abs(w))) for w in fields))
    assert abs(exact - eff) > 1e-9 * eff
    closure = report.conditions[0]
    assert closure.name == "closure"
    assert closure.max_residual == pytest.approx(exact, rel=1e-12 if marked else 1e-9)
    assert closure.tol == eff
    assert closure.passed == (exact <= eff)
    # the raw minima are those of a per-point loop
    vert = slice(m - m // 2, m)
    assert report.params["min_abs_det"] == min(abs(float(np.linalg.det(w))) for w in fields)
    assert report.params["min_flat_sigma"] == min(
        float(np.linalg.svd(w[vert, :], compute_uv=False)[-1]) for w in fields)


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
    ode = ImplicitSOdE(dim=1, phi=lambda q, qd, qdd: qdd ** 3)
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

    ode = ImplicitSOdE(dim=2,
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
        ImplicitSOdE(dim=1, phi=lambda q, qd, qdd: qdd + q), pts), 2),
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


# ---------------------------------------------------------------------------
# blocks of samples


def _point_by_point(monkeypatch, run):
    """``run()``'s report with ``_sampled_check`` taking one point per block."""
    with monkeypatch.context() as patch:
        patch.setattr(hz, "SAMPLE_CHUNK", 1)
        return run()


def _plain(f):
    """``f`` without the complex-safe mark: called one point at a time."""
    return lambda *args: f(*args)


def _block_run(which, count):
    """A check over ``count`` samples; its callables are complex-safe,
    or unmarked wrappers of the catalogue's for the ``-unmarked``
    variants."""
    if which == "dhc-explicit-unmarked":
        bundle = systems.make_system("backward-error")
        fiber = hz.FiberMap(dim=1, func=_plain(bundle.fiber.func))
        eq = ExplicitSOdE(dim=1, gamma=_plain(bundle.recurrence.gamma))
        return lambda: hz.check_dhc_explicit(fiber, eq, hz.sample_box(2, count, seed=5),
                                             tol=1e-8)
    if which in ("dhc-implicit-unmarked", "dhc-implicit-unmarked-without-c"):
        bundle = systems.make_system("exp-recurrence")
        c = bundle.equation.c if which == "dhc-implicit-unmarked" else None
        eq = ImplicitSOdE(dim=1, phi=_plain(bundle.equation.phi), c=c)
        fiber = hz.FiberMap(dim=1, func=_plain(bundle.fiber.func))
        return lambda: hz.check_dhc_implicit(fiber, eq, hz.sample_box(2, count, seed=5),
                                             tol=1e-8)
    if which == "ihc-unmarked":
        bundle = systems.make_system("implicit-exp")
        ode = ImplicitSOdE(dim=2, phi=_plain(bundle.ode.phi), c=_plain(bundle.ode.c))
        return lambda: hz.check_ihc(_plain(bundle.momentum), ode,
                                    bundle.probes(count, seed=5), tol=1e-7)
    if which in ("chc", "chc-unmarked"):
        bundle = systems.make_system("implicit-exp")
        phi = bundle.force if which == "chc" else _plain(bundle.force)
        jets = [tuple(jet) for jet in
                np.random.default_rng(5).uniform(-0.5, 0.5, size=(count, 4, 2))]
        return lambda: hz.check_chc(phi, jets, tol=1e-7)
    if which in ("turn-ratio", "doubled-rate"):
        disk = systems.make_system("rolling-disk")
        embed = disk.chart_embedding(disk.fibers[which], rule_from_spec("euler-a"))
        assert numkit.is_complex_safe(embed)
        return lambda: hz.check_isotropy(embed, disk.chart_samples(count, seed=5))
    if which == "dhc-explicit":
        bundle = systems.make_system("harmonic-exact")
        assert numkit.is_complex_safe(bundle.fiber.func, bundle.recurrence.gamma)
        return lambda: hz.check_dhc_explicit(bundle.fiber, bundle.recurrence,
                                             hz.sample_box(2, count, seed=5), tol=1e-8)
    if which == "dhc-implicit":
        bundle = systems.make_system("exp-recurrence")
        assert numkit.is_complex_safe(bundle.fiber.func, bundle.equation.phi)
        return lambda: hz.check_dhc_implicit(bundle.fiber, bundle.equation,
                                             hz.sample_box(2, count, seed=5), tol=1e-8)
    if which == "ihc":
        bundle = systems.make_system("implicit-exp")
        assert numkit.is_complex_safe(bundle.momentum, bundle.ode.phi, bundle.ode.c)
        return lambda: hz.check_ihc(bundle.momentum, bundle.ode,
                                    bundle.probes(count, seed=5), tol=1e-7)
    if which == "two-form":
        omega = hz.TwoFormField.from_lagrangian(systems.make_system("extended-disk"))
        assert numkit.is_complex_safe(omega.coeff)
        return lambda: hz.check_two_form(omega, hz.sample_box(8, count, seed=5))
    # unmarked field and flow: evaluated point by point inside each block
    osc = systems.make_system("harmonic-exact")
    omega = hz.TwoFormField(dim=2, coeff=_plain(osc.two_form().coeff))
    flow = osc.recurrence.flow_map
    assert not numkit.is_complex_safe(omega.coeff) and not numkit.is_complex_safe(flow)
    return lambda: hz.check_two_form(omega, hz.sample_box(2, count, seed=5), flow=flow)


@pytest.mark.parametrize("which", [
    "turn-ratio", "doubled-rate", "dhc-explicit", "dhc-implicit", "ihc", "chc", "two-form",
    "dhc-explicit-unmarked", "dhc-implicit-unmarked", "dhc-implicit-unmarked-without-c",
    "ihc-unmarked", "chc-unmarked", "two-form-unmarked"])
def test_blocks_match_point_by_point_reference(monkeypatch, which):
    # verdicts, residuals, worst points, tol and params, byte for byte
    run = _block_run(which, hz.SAMPLE_CHUNK + 3)
    assert run().to_json() == _point_by_point(monkeypatch, run).to_json()


def test_worst_point_tie_across_a_block_boundary_goes_to_the_later_point(monkeypatch):
    # F = (k x0^2) at the second copy: the pullback's only entry is
    # 2 k x0, so the points (+c, .) and (-c, .) tie exactly
    k = 3.0
    embed = numkit.complex_safe(lambda z: np.stack(
        [z[..., 0], 0.0 * z[..., 1], z[..., 1], k * z[..., 0] * z[..., 0]], axis=-1))
    chunk = hz.SAMPLE_CHUNK
    samples = hz.sample_box(2, chunk + 3, box=0.5, seed=2)
    samples[chunk - 1] = [0.75, 0.1]
    samples[chunk] = [-0.75, 0.2]
    run = lambda: hz.check_isotropy(embed, samples, tol=1e-6)
    report = run()
    cond = report.conditions[0]
    assert cond.max_residual == 2 * k * 0.75
    assert cond.worst_point == [-0.75, 0.2]
    assert cond.tol == 1e-6 * (2 * k * 0.75) ** 2
    assert report.to_json() == _point_by_point(monkeypatch, run).to_json()


def test_nan_in_a_later_block_names_the_first_bad_point(monkeypatch):
    chunk = hz.SAMPLE_CHUNK
    samples = hz.sample_box(2, chunk + 3, seed=4)
    nan_at, raise_at = samples[chunk + 1], samples[chunk + 2]

    def g(x, y):
        if x == nan_at[0] and y == nan_at[1]:
            return float("nan")
        if x == raise_at[0] and y == raise_at[1]:
            raise EvaluationError("g failed")
        return x - y

    # the point after the NaN raises: the first bad point still decides
    run = lambda: hz.check_functional(lambda x, y: x, g, samples, fx=lambda x, y: 1.0)
    message = re.escape(f"functional: non-finite functional at point {nan_at.tolist()}")
    with pytest.raises(EvaluationError, match=message):
        run()
    with pytest.raises(EvaluationError, match=message):
        _point_by_point(monkeypatch, run)


def test_nan_in_a_later_block_of_a_batched_check_raises_as_point_by_point(monkeypatch):
    chunk = hz.SAMPLE_CHUNK
    samples = hz.sample_box(2, chunk + 3, seed=4)
    samples[chunk + 1, 0] = np.nan
    embed = hz.gamma_embedding(hz.FiberMap(dim=1, func=numkit.complex_safe(
        lambda q0, q1: (q1 - q0) / H)), ExplicitSOdE(dim=1, gamma=numkit.complex_safe(
            lambda q0, q1: 2 * q1 - q0)))
    run = lambda: hz.check_isotropy(embed, samples)
    with pytest.raises(EvaluationError) as batched:
        run()
    with pytest.raises(EvaluationError) as reference:
        _point_by_point(monkeypatch, run)
    assert str(batched.value) == str(reference.value)


def _embedding_failing_at(bad, kind, calls):
    """A marked embedding of R^2 whose only pullback entry is 6 x0; at
    the sample ``bad`` it raises a NumericsError, raises a user bug or
    returns NaN, after which its Jacobian there is NaN.  Each call
    appends the number of points it got to ``calls``: two complex-step
    points per sample."""
    def embed(z):
        calls.append(len(z))
        at_bad = np.all(z.real == bad, axis=-1)
        if kind == "numerics" and at_bad.any():
            raise EvaluationError("embedding failed")
        if kind == "bug" and at_bad.any():
            raise ValueError("user bug")
        out = np.stack([z[..., 0], 0.0 * z[..., 1], z[..., 1], 3.0 * z[..., 0] ** 2],
                       axis=-1)
        out[at_bad] = np.nan
        return out
    return numkit.complex_safe(embed)


def test_a_bad_last_sample_of_a_block_costs_a_bisection_of_it():
    # the block, then both halves of every halving that holds the bad
    # sample: at most 2 log2(SAMPLE_CHUNK) + 1 evaluations, where a redo
    # one point at a time takes SAMPLE_CHUNK + 1
    chunk = hz.SAMPLE_CHUNK
    samples = hz.sample_box(2, chunk, box=0.5, seed=2)
    calls = []
    embed = _embedding_failing_at(samples[-1], "numerics", calls)
    message = re.escape(f"isotropy at point {samples[-1].tolist()}: embedding failed")
    with pytest.raises(EvaluationError, match=message):
        hz.check_isotropy(embed, samples)
    assert len(calls) <= 2 * np.log2(chunk) + 1
    assert calls[0] == 2 * chunk and calls[-1] == 2


@pytest.mark.parametrize("kind", ["numerics", "bug", "nan"])
@pytest.mark.parametrize("where", ["first", "middle", "last", "across"])
def test_a_bad_sample_raises_as_point_by_point(monkeypatch, kind, where):
    chunk = hz.SAMPLE_CHUNK
    count = chunk + 3
    at = {"first": 0, "middle": chunk // 2, "last": count - 1, "across": chunk}[where]
    samples = hz.sample_box(2, count, box=0.5, seed=2)
    embed = _embedding_failing_at(samples[at], kind, [])
    run = lambda: hz.check_isotropy(embed, samples)
    with pytest.raises(Exception) as batched:
        run()
    with pytest.raises(Exception) as reference:
        _point_by_point(monkeypatch, run)
    assert type(batched.value) is type(reference.value)
    assert type(batched.value) is (ValueError if kind == "bug" else EvaluationError)
    assert str(batched.value) == str(reference.value)
    if kind != "bug":
        assert str(samples[at].tolist()) in str(batched.value)


def test_marked_fiber_map_that_ignores_the_leading_axis_raises():
    # written for one point: q1[0] is the first stacked point, not x1
    fiber = hz.FiberMap(dim=1, func=numkit.complex_safe(
        lambda q0, q1: np.array([q1[0] - q0[0]]) / H))
    eq = ExplicitSOdE(dim=1, gamma=numkit.complex_safe(lambda q0, q1: 2 * q1 - q0))
    samples = hz.sample_box(2, 5, seed=0)
    with pytest.raises(DomainError, match="fiber map returned shape"):
        hz.check_isotropy(hz.gamma_embedding(fiber, eq), samples)
    with pytest.raises(DomainError, match="fiber map returned shape"):
        hz.check_dhc_explicit(fiber, eq, samples)


def test_nan_of_a_two_form_field_in_a_later_block_names_the_first_bad_point(monkeypatch):
    # a marked linear field that is NaN at one sample of the second block
    # and raises at the sample after it: the NaN still decides, as it
    # does one point at a time, and the error names its point
    chunk = hz.SAMPLE_CHUNK
    samples = hz.sample_box(4, chunk + 3, seed=4)
    nan_at, raise_at = samples[chunk + 1], samples[chunk + 2]
    ak = _antisymmetric_stack(np.random.default_rng(9), 4)

    def coeff(z):
        if np.any(np.all(z.real == raise_at, axis=-1)):
            raise EvaluationError("field failed")
        w = _linear_field(z, ak)
        w[np.all(z.real == nan_at, axis=-1)] = np.nan
        return w

    omega = hz.TwoFormField(dim=4, coeff=numkit.complex_safe(coeff))
    run = lambda: hz.check_two_form(omega, samples)
    message = re.escape(f"two-form at point {nan_at.tolist()}: non-finite value")
    with pytest.raises(EvaluationError, match=message) as batched:
        run()
    with pytest.raises(EvaluationError, match=message) as reference:
        _point_by_point(monkeypatch, run)
    assert str(batched.value) == str(reference.value)


def test_singular_c_in_a_later_block_of_dhc_implicit_names_the_first_bad_point(monkeypatch):
    # C = [[k, 1], [1, 1]] with k - 1 = (x0 - x0') (x0 - x0''): singular
    # at two samples of the second block; the predictor 2 q1 - q0 is an
    # exact root everywhere, so only the tangent basis solves with C
    chunk = hz.SAMPLE_CHUNK
    samples = hz.sample_box(4, chunk + 3, seed=6)
    first, second = samples[chunk + 1], samples[chunk + 2]

    def phi(q0, q1, q2):
        d = q2 - (2.0 * q1 - q0)
        k = 1.0 + (q0[..., 0] - first[0]) * (q0[..., 0] - second[0])
        return np.stack([k * d[..., 0] + d[..., 1], d[..., 0] + d[..., 1]], axis=-1)

    eq = ImplicitSOdE(dim=2, phi=numkit.complex_safe(phi))
    fiber = hz.FiberMap(dim=2, func=numkit.complex_safe(lambda q0, q1: (q1 - q0) / H))
    run = lambda: hz.check_dhc_implicit(fiber, eq, samples)
    message = re.escape(f"dhc-implicit at point {first.tolist()}: ")
    with pytest.raises(SingularJacobian, match=message) as batched:
        run()
    with pytest.raises(SingularJacobian, match=message) as reference:
        _point_by_point(monkeypatch, run)
    assert str(batched.value) == str(reference.value)
    # without the two singular samples the check passes
    assert hz.check_dhc_implicit(fiber, eq, samples[:chunk + 1]).verdict


@pytest.mark.parametrize("singular, stuck, error, message", [
    (5, 9, SingularJacobian,
     "dhc-implicit at point [1.05, 0.525]: matrix is singular: Singular matrix"),
    (9, 5, NoConvergence,
     "dhc-implicit at point [-1.0, 0.8500000000000001]: newton_solve stalled at "
     "residual 1.045e+00 after 50 iterations"),
])
def test_dhc_implicit_block_newton_raises_for_the_first_failing_point(
        singular, stuck, error, message):
    # one block of 64 samples of q2^2 = q0: at member `singular` the
    # predictor is 0, where C = 2 q2 is exactly singular; at member
    # `stuck` q0 = -1 and Newton wanders.  The messages were recorded
    # when each point was solved alone.
    q0 = 1.0 + 0.01 * np.arange(hz.SAMPLE_CHUNK)
    q1 = 0.8 + 0.01 * np.arange(hz.SAMPLE_CHUNK)
    q1[singular] = q0[singular] / 2
    q0[stuck] = -1.0
    eq = ImplicitSOdE(dim=1, phi=numkit.complex_safe(lambda a, b, c: c * c - a),
                      c=numkit.complex_safe(lambda a, b, c: 2.0 * c[..., None]))
    fiber = hz.FiberMap(dim=1, func=numkit.complex_safe(lambda a, b: (b - a) / H))
    samples = np.stack([q0, q1], axis=1)
    with pytest.raises(error) as raised:
        hz.check_dhc_implicit(fiber, eq, samples)
    assert str(raised.value) == message
    # the block's own solve fails too, which sends it point by point
    with pytest.raises((SingularJacobian, NoConvergence)):
        implicit_step(eq, q0[:, None], q1[:, None])
    # without the two, the block solves, each point with its own bits
    keep = np.ones(len(samples), bool)
    keep[[singular, stuck]] = False
    q2 = implicit_step(eq, q0[keep, None], q1[keep, None])
    assert_allclose(q2[:, 0], np.sqrt(q0[keep]), rtol=1e-12)
    for a, b, c in zip(q0[keep], q1[keep], q2):
        assert implicit_step(eq, np.array([a]), np.array([b])).tobytes() == c.tobytes()
    hz.check_dhc_implicit(fiber, eq, samples[keep])


def _failing_at(bad, error):
    """A wrapper that raises ``error`` when its flattened arguments lie
    within the order-4 stencil of one of the ``bad`` sample points, on
    the coordinates the two share (a jet's q, qd and qdd)."""
    def wrap(f):
        def call(*args):
            z = np.concatenate([np.ravel(a) for a in args])
            k = min(z.size, len(bad[0]))
            for point in bad:
                if np.max(np.abs(z[:k] - point[:k])) < 5e-3:
                    raise error
            return f(*args)
        return call
    return wrap


def _unmarked_bug_run(which, samples, wrap):
    """One check whose unmarked fiber map or phi goes through ``wrap``."""
    if which == "dhc-explicit":
        bundle = systems.make_system("backward-error")
        fiber = hz.FiberMap(dim=1, func=wrap(bundle.fiber.func))
        eq = ExplicitSOdE(dim=1, gamma=_plain(bundle.recurrence.gamma))
        return lambda: hz.check_dhc_explicit(fiber, eq, samples)
    if which == "dhc-implicit":
        bundle = systems.make_system("exp-recurrence")
        eq = ImplicitSOdE(dim=1, phi=wrap(bundle.equation.phi), c=bundle.equation.c)
        return lambda: hz.check_dhc_implicit(bundle.fiber, eq, samples)
    bundle = systems.make_system("implicit-exp")
    if which == "ihc":
        ode = ImplicitSOdE(dim=2, phi=wrap(bundle.ode.phi), c=bundle.ode.c)
        return lambda: hz.check_ihc(bundle.momentum, ode, samples)
    jets = [tuple(np.split(z, 4)) for z in samples]
    return lambda: hz.check_chc(wrap(bundle.force), jets)


_BUG_WIDTHS = {"dhc-explicit": 2, "dhc-implicit": 2, "ihc": 4, "chc": 8}


def _samples_with_isolated_points(width, count, first, second):
    """``count`` samples of the given width, box 0.5, in which samples
    ``first`` and ``second`` lie at least 2e-2 from every other one."""
    samples = hz.sample_box(width, count, box=0.5, seed=3)
    for i in (first, second):
        gaps = np.max(np.abs(np.delete(samples, i, axis=0) - samples[i]), axis=1)
        assert gaps.min() > 2e-2
    return samples


@pytest.mark.parametrize("which", sorted(_BUG_WIDTHS))
def test_a_bug_in_an_unmarked_callable_surfaces_as_itself(which):
    chunk = hz.SAMPLE_CHUNK
    samples = _samples_with_isolated_points(_BUG_WIDTHS[which], chunk + 3,
                                            chunk + 1, chunk + 2)
    run = _unmarked_bug_run(which, samples,
                            _failing_at([samples[chunk + 1]], ValueError("user bug")))
    with pytest.raises(ValueError, match="user bug") as caught:
        run()
    assert type(caught.value) is ValueError


@pytest.mark.parametrize("which", sorted(_BUG_WIDTHS))
def test_numerics_error_of_an_unmarked_callable_names_the_check_and_first_point(
        monkeypatch, which):
    chunk = hz.SAMPLE_CHUNK
    samples = _samples_with_isolated_points(_BUG_WIDTHS[which], chunk + 3,
                                            chunk + 1, chunk + 2)
    first, second = samples[chunk + 1], samples[chunk + 2]
    run = _unmarked_bug_run(which, samples, _failing_at(
        [second, first], EvaluationError("callable failed")))
    message = re.escape(f"{which} at point {first.tolist()}: callable failed")
    with pytest.raises(EvaluationError, match=message) as batched:
        run()
    with pytest.raises(EvaluationError, match=message) as reference:
        _point_by_point(monkeypatch, run)
    assert str(batched.value) == str(reference.value)
