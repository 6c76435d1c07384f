import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from varmech.bridge import (BackwardErrorCase, ContinuousSystem,
                            backward_error_objects, continuous_free_particle,
                            continuous_oscillator, discrete_fiber_map,
                            exact_discrete_lagrangian, exp_map_discretize,
                            modified_oscillator, order_study_backward,
                            shoot_initial_velocity)
from varmech.systems import exact_oscillator

H = 0.1


def closed_oscillator_action(q0, q1, h=H):
    c, s = math.cos(h), math.sin(h)
    return (c * (q0[0] ** 2 + q1[0] ** 2) - 2 * q0[0] * q1[0]) / (2 * s)


def test_free_particle_action_is_kinetic():
    sys1 = continuous_free_particle(dim=1)
    ld = exact_discrete_lagrangian(sys1, H)
    assert_allclose(ld.value(np.zeros(1), np.ones(1)), 5.0, atol=1e-12)

    sys2 = continuous_free_particle(dim=2)
    ld2 = exact_discrete_lagrangian(sys2, H)
    q0 = np.array([0.2, -0.1])
    q1 = np.array([0.5, 0.3])
    assert_allclose(ld2.value(q0, q1), (q1 - q0) @ (q1 - q0) / (2 * H),
                    atol=1e-12)
    assert_allclose(ld2.D1(q0, q1), -(q1 - q0) / H, atol=1e-11)
    assert_allclose(ld2.D2(q0, q1), (q1 - q0) / H, atol=1e-11)


def test_oscillator_action_matches_closed_form():
    osc = continuous_oscillator()
    ld = exact_discrete_lagrangian(osc, H)
    rng = np.random.default_rng(3)
    for _ in range(4):
        a, b = rng.uniform(-1, 1, (2, 1))
        assert_allclose(ld.value(a, b), closed_oscillator_action(a, b),
                        atol=1e-11)
        c, s = math.cos(H), math.sin(H)
        assert_allclose(ld.D1(a, b), (c * a - b) / s, atol=1e-11)
        assert_allclose(ld.D2(a, b), (c * b - a) / s, atol=1e-11)


def test_exp_map_discretization_of_oscillator():
    osc = continuous_oscillator()
    rec = exp_map_discretize(osc, H)
    rng = np.random.default_rng(5)
    for _ in range(4):
        a, b = rng.uniform(-1, 1, (2, 1))
        assert_allclose(rec(a, b)[0], 2 * math.cos(H) * b[0] - a[0],
                        atol=1e-12)


def test_discrete_fiber_map_of_oscillator():
    osc = continuous_oscillator()
    fib = discrete_fiber_map(osc, H)
    a = np.array([0.4])
    b = np.array([0.7])
    c, s = math.cos(H), math.sin(H)
    assert_allclose(fib(a, b), (b - c * a) / s, atol=1e-11)


def test_integrated_flow_agrees_with_analytic_flow():
    osc = continuous_oscillator()
    blind = ContinuousSystem(dim=1, lagrangian=osc.lagrangian,
                             gamma=osc.gamma, dv=osc.dv)
    ld = exact_discrete_lagrangian(blind, H)
    a = np.array([0.3])
    b = np.array([0.42])
    assert_allclose(ld.value(a, b), closed_oscillator_action(a, b), atol=1e-10)
    rec = exp_map_discretize(blind, H)
    assert_allclose(rec(a, b)[0], 2 * math.cos(H) * b[0] - a[0], atol=1e-10)


def test_shooting_recovers_velocities():
    free = continuous_free_particle(dim=2)
    q0 = np.array([1.0, -1.0])
    q1 = np.array([1.3, -0.4])
    assert_allclose(shoot_initial_velocity(free, q0, q1, H), (q1 - q0) / H,
                    atol=1e-12)
    osc = continuous_oscillator()
    a, b = np.array([0.2]), np.array([0.9])
    c, s = math.cos(H), math.sin(H)
    assert_allclose(shoot_initial_velocity(osc, a, b, H), (b - c * a) / s,
                    atol=1e-12)


def test_phase_step_literal_values():
    case = backward_error_objects(h=0.1, gauge=0.0)
    x, p = case.phase_step(1.0, 0.0)
    assert x == 0.99
    assert p == -0.1


def test_phase_step_preserves_shifted_quadratic():
    # the exact invariant of the affine step, for both gauge values
    for gauge in (0.0, 1.0):
        case = backward_error_objects(h=0.1, gauge=gauge)
        x, p = 1.0, 0.3
        values = []
        for _ in range(100):
            w = p - gauge * case.h
            values.append(0.5 * (x * x + w * w) - 0.5 * case.h * x * w)
            x, p = case.phase_step(x, p)
        assert np.ptp(values) < 1e-12, gauge


@pytest.mark.parametrize("gauge", [0.0, 0.3, 1.0])
def test_shadow_energy_is_conserved_by_phase_step(gauge):
    # the catalogue's shadow Hamiltonian, gauge h^2 x / 2 term included
    case = backward_error_objects(h=0.1, gauge=gauge)
    x, p = 0.7, -0.2
    start = case.shadow_energy(x, p)
    for _ in range(1000):
        x, p = case.phase_step(x, p)
        assert abs(case.shadow_energy(x, p) - start) < 1e-12


def test_shadow_lagrangian_is_gauge_shifted_action():
    # closing the rectangle: the shadow system's exact discrete
    # Lagrangian is the oscillator action plus total-difference terms
    case = backward_error_objects(h=0.1, gauge=0.7)
    ld = case.exact_shadow_lagrangian()
    rng = np.random.default_rng(11)
    for _ in range(3):
        a, b = rng.uniform(-1, 1, (2, 1))
        expected = (closed_oscillator_action(a, b)
                    + 0.1 * (0.7 * (b[0] - a[0]) + (b[0] ** 2 - a[0] ** 2) / 4))
        assert_allclose(ld.value(a, b), expected, atol=1e-10)


def test_order_study_slopes():
    for gauge in (0.0, 1.0):
        _, _, slope = order_study_backward(gauge=gauge)
        assert 2.8 < slope < 3.2, gauge
    _, _, fixed = order_study_backward(along_solution=False)
    assert 0.8 < fixed < 1.2


def test_shadow_momentum_matches_truncation():
    shadow = modified_oscillator(0.1, gauge=0.5)
    q = np.array([0.4])
    v = np.array([-0.2])
    assert_allclose(shadow.momentum(q, v), v + 0.1 * (0.5 + 0.2), atol=1e-14)
