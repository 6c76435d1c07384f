import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from varmech import numkit
from varmech.errors import DomainError, StepFailure
from varmech.lagrangian import DiscreteLagrangian
from varmech.nonholonomic import (DiscretizationRule, NonholonomicSystem, alpha_rule,
                                  discrete_constraint, dla_simulate, dla_step,
                                  midpoint_energy, rule_from_spec)
from varmech.numkit import PAIR_CHUNK, complex_safe, is_complex_safe, pair_series
from varmech.systems import rolling_disk

H = 0.05


def test_rule_from_spec_names():
    assert rule_from_spec("midpoint").name == "midpoint"
    assert rule_from_spec(" Trapezoidal ").name == "trapezoidal"
    assert rule_from_spec("euler-a").nodes == ((1.0, 0.0, 1.0),)
    assert rule_from_spec("euler-b").nodes == ((0.0, 1.0, 1.0),)
    assert rule_from_spec("alpha:0.25").nodes == alpha_rule(0.25).nodes


def test_rule_from_spec_rejects_garbage():
    with pytest.raises(DomainError):
        rule_from_spec("simpson")
    with pytest.raises(DomainError):
        rule_from_spec("alpha:sideways")
    with pytest.raises(DomainError):
        alpha_rule(1.5)


def test_alpha_endpoints_coincide_with_trapezoidal():
    assert alpha_rule(0.0).nodes == rule_from_spec("trapezoidal").nodes
    # alpha = 1 lists the same nodes in swapped order
    assert sorted(alpha_rule(1.0).nodes) == sorted(rule_from_spec("trapezoidal").nodes)


def test_rule_points_are_convex_combinations():
    rule = alpha_rule(0.25)
    qk = np.array([1.0, 0.0])
    qk1 = np.array([0.0, 2.0])
    pts = rule.points(qk, qk1)
    assert len(pts) == 2
    assert_allclose(pts[0], 0.75 * qk + 0.25 * qk1)
    assert_allclose(pts[1], 0.25 * qk + 0.75 * qk1)
    assert rule.nodes[0][2] == 0.5


def test_discrete_constraint_vanishes_on_completed_pairs():
    disk = rolling_disk(H)
    for rule in map(rule_from_spec, ("midpoint", "trapezoidal", "alpha:0.3", "euler-a",
                                     "euler-b")):
        q0, q1 = disk.initial_pair(rule)
        c = discrete_constraint(disk.system, rule, q0, q1)
        assert np.max(np.abs(c)) < 1e-12, rule.name


def test_discrete_constraint_detects_slip():
    disk = rolling_disk(H)
    rule = rule_from_spec("midpoint")
    q0, q1 = disk.initial_pair(rule)
    q1 = q1 + np.array([0.0, 0.0, 0.01, 0.0])
    c = discrete_constraint(disk.system, rule, q0, q1)
    assert np.max(np.abs(c)) > 1e-3


def _spy_on_newton(monkeypatch):
    """Record the residual and the Jacobian each dla_step hands Newton."""
    calls = []
    solve = numkit.newton_solve

    def spy(f, x0, *, jacobian=None, **kwargs):
        calls.append((f, jacobian))
        return solve(f, x0, jacobian=jacobian, **kwargs)

    monkeypatch.setattr(numkit, "newton_solve", spy)
    return calls


@pytest.mark.parametrize("d12, grad", [(True, True), (True, False), (False, True),
                                       (False, False)])
def test_newton_gets_a_jacobian_only_when_the_system_supplies_all_of_it(
        monkeypatch, d12, grad):
    disk = rolling_disk(H)
    lag = disk.system.lagrangian
    variant = DiscreteLagrangian(dim=4, h=H, value=lag.value, d1=lag.d1, d2=lag.d2,
                                 d12=lag.d12 if d12 else None)
    system = NonholonomicSystem(lagrangian=variant, n_constraints=2,
                                constraint_forms=disk.system.constraint_forms,
                                constraint_grad=disk.system.constraint_grad if grad else None)
    rule = alpha_rule(0.3)
    calls = _spy_on_newton(monkeypatch)
    dla_step(system, rule, *disk.initial_pair(rule))
    assert [jacobian is not None for _, jacobian in calls] == [d12 and grad]


def test_analytic_newton_matrix_matches_finite_differences(monkeypatch):
    # under alpha:0.3 both nodes have b != 0, so every term of dC/dq2 is
    # exercised, and the D12 block comes along with it
    disk = rolling_disk(H)
    rule = alpha_rule(0.3)
    calls = _spy_on_newton(monkeypatch)
    dla_step(disk.system, rule, np.array([0.35, 0.17, 0.87, 1.07]),
             np.array([0.4, 0.2, 0.9, 1.1]))
    residual, jacobian = calls[0]
    u = np.array([0.45, 0.23, 0.93, 1.13, 0.7, -0.4])  # off the constraint manifold
    residual(u)
    analytic = jacobian(u).copy()
    assert_allclose(analytic, numkit.fd_jacobian(residual, u), atol=1e-7)


def test_midpoint_step_reproduces_uniform_angles():
    disk = rolling_disk(H)
    rule = rule_from_spec("midpoint")
    q0, q1 = disk.initial_pair(rule)
    q2, lam = dla_step(disk.system, rule, q0, q1)
    assert_allclose(q2[0], 0.55, atol=1e-12)
    assert_allclose(q2[1], 0.32, atol=1e-12)
    # step lands back on the discrete constraint
    assert np.max(np.abs(discrete_constraint(disk.system, rule, q1, q2))) < 1e-12
    # and satisfies the stationarity equation with the returned multipliers
    lag = disk.system.lagrangian
    resid = (lag.D1(q1, q2) + lag.D2(q0, q1)
             - disk.system.forms(q1).T @ lam)
    assert np.max(np.abs(resid)) < 1e-9


def test_midpoint_multipliers_match_closed_form():
    disk = rolling_disk(H)
    rule = rule_from_spec("midpoint")
    q0, q1 = disk.initial_pair(rule)
    q2, lam = dla_step(disk.system, rule, q0, q1)
    dth_new, dth_old = q2[0] - q1[0], q1[0] - q0[0]
    mu_new, mu_old = (q1[1] + q2[1]) / 2, (q0[1] + q1[1]) / 2
    assert_allclose(lam[0], (-dth_new * math.cos(mu_new)
                             + dth_old * math.cos(mu_old)) / H ** 2, atol=1e-10)
    assert_allclose(lam[1], (-dth_new * math.sin(mu_new)
                             + dth_old * math.sin(mu_old)) / H ** 2, atol=1e-10)


def test_endpoint_rules_scale_rolling_increment():
    disk = rolling_disk(H)
    for rule, factor_of in (
        (rule_from_spec("euler-a"), lambda dph: (1 + math.cos(dph)) / 2),
        (rule_from_spec("euler-b"), lambda dph: 2 / (1 + math.cos(dph))),
    ):
        q0, q1 = disk.initial_pair(rule)
        q2, _ = dla_step(disk.system, rule, q0, q1)
        dth, dph = q1[0] - q0[0], q1[1] - q0[1]
        assert_allclose(q2[0] - q1[0], dth * factor_of(dph), atol=1e-12)
        assert_allclose(q2[1] - q1[1], dph, atol=1e-12)


def test_steps_match_closed_form_recurrence():
    disk = rolling_disk(H)
    for rule in (rule_from_spec("midpoint"), alpha_rule(0.7), rule_from_spec("euler-b")):
        q0, q1 = disk.initial_pair(rule)
        advance = disk.reduced_recurrence(rule)
        qa, qb = q0, q1
        for _ in range(5):
            stepped, _ = dla_step(disk.system, rule, qa, qb)
            closed = advance(qa, qb)
            assert_allclose(stepped, closed, atol=1e-10)
            qa, qb = qb, stepped


def test_simulate_shapes_and_energy_constancy():
    disk = rolling_disk(H)
    rule = rule_from_spec("midpoint")
    q0, q1 = disk.initial_pair(rule)
    points, energies, lams = dla_simulate(disk.system, rule, q0, q1, 40,
                                          disk.energies)
    assert points.shape == (42, 4)
    assert lams.shape == (40, 2)
    assert set(energies) == {"K1d", "K2d", "K3d"}
    for name, series in energies.items():
        assert series.shape == (41,)
        rel = np.ptp(series) / abs(series[0])
        assert rel < 1e-10, name


def test_long_catalogue_run_completes():
    # The catalogue pair used to stall at step 10219, where the residual's
    # rounding level (growing with |q| / h^2) passed the Newton tolerance.
    disk = rolling_disk()
    rule = rule_from_spec("midpoint")
    points, _, _ = dla_simulate(disk.system, rule, *disk.initial_pair(rule), 10_300)
    assert points.shape == (10_302, 4)
    constraint = max(np.max(np.abs(discrete_constraint(disk.system, rule, a, b)))
                     for a, b in zip(points[-101:-1], points[-100:]))
    assert constraint < 1e-9


def test_simulate_wraps_failures_with_step_index():
    # the second stationarity equation is constant and unsatisfiable, so
    # the Newton matrix carries a zero row and the first step must fail
    degenerate = DiscreteLagrangian(
        dim=2, h=0.1,
        value=lambda q0, q1: 0.0,
        d1=lambda q0, q1: np.array([0.0, 1.0]),
        d2=lambda q0, q1: np.array([0.0, 1.0]),
        d12=lambda q0, q1: np.array([[1.0, 0.0], [0.0, 0.0]]),
    )
    system = NonholonomicSystem(
        lagrangian=degenerate, n_constraints=1,
        constraint_forms=lambda q: np.array([[1.0, 0.0]]),
    )
    with pytest.raises(StepFailure) as info:
        dla_simulate(system, rule_from_spec("midpoint"), np.zeros(2), np.ones(2), 3)
    assert info.value.step == 0


def test_simulate_rejects_negative_steps():
    disk = rolling_disk(H)
    rule = rule_from_spec("midpoint")
    with pytest.raises(DomainError):
        dla_simulate(disk.system, rule, *disk.initial_pair(rule), -1)


def test_rest_point_stays_at_rest():
    disk = rolling_disk(H)
    q = np.array([0.2, 1.1, -0.3, 0.7])
    q2, lam = dla_step(disk.system, rule_from_spec("midpoint"), q, q)
    assert_allclose(q2, q, atol=1e-12)
    assert_allclose(lam, np.zeros(2), atol=1e-12)


def test_forms_shape_is_validated():
    system = NonholonomicSystem(
        lagrangian=rolling_disk(H).system.lagrangian,
        n_constraints=2,
        constraint_forms=lambda q: np.ones((3, 4)),
    )
    with pytest.raises(DomainError):
        system.forms(np.zeros(4))


def test_midpoint_energy_uses_segment_midpoint():
    wrapped = midpoint_energy(lambda q, v: q[0] + 10 * v[0], h=0.5)
    value = wrapped(np.array([1.0]), np.array([2.0]))
    assert_allclose(value, 1.5 + 10 * 2.0)


def test_custom_rule_nodes_accepted():
    lopsided = DiscretizationRule("lopsided", ((0.75, 0.25, 1.0),))
    disk = rolling_disk(H)
    q0, q1 = disk.initial_pair(lopsided)
    q2, _ = dla_step(disk.system, lopsided, q0, q1)
    advance = disk.reduced_recurrence(lopsided)
    assert_allclose(q2, advance(q0, q1), atol=1e-10)


@pytest.mark.parametrize("q0, q1", [
    (np.zeros(3), np.ones(3)),
    (np.zeros(4), np.ones(3)),
    (np.zeros(4), 1.0),
])
def test_simulate_rejects_seed_pairs_off_the_system_dim(q0, q1):
    disk = rolling_disk(H)
    with pytest.raises(DomainError, match="seed pair"):
        dla_simulate(disk.system, rule_from_spec("midpoint"), q0, q1, 3)


def test_step_checks_forms_shape_at_interior_nodes():
    # forms are well shaped at q1 (the multiplier rows) and wrong only at
    # the midpoint nodes the constraint residual evaluates
    disk = rolling_disk(H)
    rule = rule_from_spec("midpoint")
    q0, q1 = disk.initial_pair(rule)

    def forms(q):
        good = disk.system.constraint_forms(q)
        return good if np.array_equal(q, q1) else good[:1]

    system = NonholonomicSystem(lagrangian=disk.system.lagrangian, n_constraints=2,
                                constraint_forms=forms,
                                constraint_grad=disk.system.constraint_grad)
    assert system.forms(q1).shape == (2, 4)
    with pytest.raises(DomainError, match=r"shape \(1, 4\)"):
        dla_step(system, rule, q0, q1)


def _run(system, rule, q0, q1, steps):
    points = [q0, q1]
    for _ in range(steps):
        points.append(dla_step(system, rule, points[-2], points[-1])[0])
    return np.array(points)


@pytest.mark.parametrize("spec", ["midpoint", "alpha:0.3", "euler-b"])
def test_steps_without_analytic_derivatives_follow_the_analytic_run(spec):
    disk = rolling_disk(H)
    lag = disk.system.lagrangian
    rule = rule_from_spec(spec)
    q0, q1 = disk.initial_pair(rule)
    reference = _run(disk.system, rule, q0, q1, 100)
    forms, grad = disk.system.constraint_forms, disk.system.constraint_grad
    no_grad = NonholonomicSystem(lagrangian=lag, n_constraints=2, constraint_forms=forms)
    value_and_d2 = DiscreteLagrangian(dim=4, h=H, value=lag.value, d2=lag.d2)
    no_d1_d12 = NonholonomicSystem(lagrangian=value_and_d2, n_constraints=2,
                                   constraint_forms=forms, constraint_grad=grad)
    neither = NonholonomicSystem(lagrangian=value_and_d2, n_constraints=2,
                                 constraint_forms=forms)
    for system in (no_grad, no_d1_d12, neither):
        assert_allclose(_run(system, rule, q0, q1, 100), reference, rtol=0, atol=1e-7)


def test_marked_energy_blocks_match_per_pair_calls_bit_for_bit():
    # 3000 steps give 3001 pairs: pair_series hands each marked monitor
    # blocks that cross PAIR_CHUNK boundaries
    disk = rolling_disk(H)
    rule = alpha_rule(0.25)
    points, series, _ = dla_simulate(disk.system, rule, *disk.initial_pair(rule), 3000,
                                     energies=disk.energies)
    assert len(points) - 1 > 2 * PAIR_CHUNK
    for name, energy in disk.energies.items():
        assert is_complex_safe(energy), name
        per_pair = np.array([energy(a, b) for a, b in zip(points[:-1], points[1:])])
        assert np.array_equal(series[name], per_pair), name


def test_midpoint_energy_inherits_the_mark_of_its_density():
    marked = midpoint_energy(complex_safe(lambda q, v: q[..., 0] * v[..., 1]), 0.5)
    plain = midpoint_energy(lambda q, v: q[0] * v[1], 0.5)
    assert is_complex_safe(marked) and not is_complex_safe(plain)
    points = np.random.default_rng(0).standard_normal((PAIR_CHUNK + 9, 2))
    out = pair_series({"marked": marked, "plain": plain}, points)
    assert np.array_equal(out["marked"], out["plain"])

def test_simulate_accepts_plain_pair_energies():
    disk = rolling_disk(H)
    rule = rule_from_spec("midpoint")
    plain = {name: (lambda a, b, fn=fn: fn(a, b)) for name, fn in disk.energies.items()}
    traj, series, _ = dla_simulate(disk.system, rule, *disk.initial_pair(rule), 50,
                                   energies=plain)
    _, with_series, _ = dla_simulate(disk.system, rule, *disk.initial_pair(rule), 50,
                                     energies=disk.energies)
    assert list(series) == list(with_series) == ["K1d", "K2d", "K3d"]
    for name in series:
        assert series[name].shape == (51,)
        assert np.array_equal(series[name], with_series[name])
