"""Discrete Lagrangian mechanics: stepping, Legendre transforms, two-form."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from varmech import lagrangian as lg
from varmech.errors import DomainError, StepFailure
from varmech.systems import make_system


def kinetic_lagrangian(dim, h):
    """L(q0, q1) = |q1 - q0|^2 / (2h), with analytic derivatives."""
    return lg.DiscreteLagrangian(
        dim=dim,
        h=h,
        value=lambda a, b: float((b - a) @ (b - a)) / (2.0 * h),
        d1=lambda a, b: -(b - a) / h,
        d2=lambda a, b: (b - a) / h,
        d12=lambda a, b: -np.eye(dim) / h,
    )


def harmonic_lagrangian(h):
    """Exact one-dimensional oscillator discretization; its recurrence is
    x2 = 2 x1 cos(h) - x0."""
    c, s = np.cos(h), np.sin(h)
    return lg.DiscreteLagrangian(
        dim=1,
        h=h,
        value=lambda a, b: c / (2 * s) * float(a[0] ** 2 + b[0] ** 2) - float(a[0] * b[0]) / s,
        d1=lambda a, b: np.array([(c * a[0] - b[0]) / s]),
        d2=lambda a, b: np.array([(c * b[0] - a[0]) / s]),
        d12=lambda a, b: np.array([[-1.0 / s]]),
    )


def test_del_residual_kinetic():
    # -(3 - 1)/0.1 + (1 - 0)/0.1 = -10.
    lag = kinetic_lagrangian(1, 0.1)
    r = lg.del_residual(lag, np.array([0.0]), np.array([1.0]), np.array([3.0]))
    assert_allclose(r, [-10.0], atol=1e-9)


def test_del_step_kinetic_extends_line():
    lag = kinetic_lagrangian(2, 0.1)
    q2 = lg.del_step(lag, np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    assert_allclose(q2, [2.0, 2.0], atol=1e-9)


def test_del_step_without_analytic_derivatives():
    lag = lg.DiscreteLagrangian(
        dim=1, h=0.1, value=lambda a, b: float((b - a) @ (b - a)) / 0.2
    )
    # finite-difference derivatives floor the residual near 1e-10
    q2 = lg.del_step(lag, np.array([0.0]), np.array([1.0]), tol=1e-8)
    assert_allclose(q2, [2.0], atol=1e-7)


def test_del_step_harmonic_exact_recurrence():
    h = 0.3
    lag = harmonic_lagrangian(h)
    x0, x1 = 0.4, 0.9
    q2 = lg.del_step(lag, np.array([x0]), np.array([x1]))
    assert_allclose(q2, [2 * x1 * np.cos(h) - x0], atol=1e-12)


def test_legendre_transforms_kinetic():
    lag = kinetic_lagrangian(1, 0.1)
    base, p = lg.legendre_minus(lag, np.array([0.0]), np.array([1.0]))
    assert_allclose(base, [0.0])
    assert_allclose(p, [10.0], atol=1e-10)
    base, p = lg.legendre_plus(lag, np.array([0.0]), np.array([1.0]))
    assert_allclose(base, [1.0])
    assert_allclose(p, [10.0], atol=1e-10)


def test_legendre_momentum_matching_along_recurrence():
    # On a solution triple, the plus momentum of the first pair equals the
    # minus momentum of the second: that is the recurrence itself.
    lag = harmonic_lagrangian(0.25)
    q0, q1 = np.array([0.7]), np.array([0.55])
    q2 = lg.del_step(lag, q0, q1)
    _, p_plus = lg.legendre_plus(lag, q0, q1)
    _, p_minus = lg.legendre_minus(lag, q1, q2)
    assert_allclose(p_plus, p_minus, atol=1e-11)


def test_two_form_harmonic_coefficient():
    lag = harmonic_lagrangian(np.pi / 6)
    w = lg.lagrangian_two_form(lag, np.array([0.2]), np.array([0.4]))
    assert_allclose(w, [[0.0, -2.0], [2.0, 0.0]], atol=1e-10)
    assert_allclose(w, -w.T)


def test_two_form_kinetic_blocks():
    lag = kinetic_lagrangian(2, 0.1)
    w = lg.lagrangian_two_form(lag, np.zeros(2), np.ones(2))
    expected = np.zeros((4, 4))
    expected[:2, 2:] = -np.eye(2) / 0.1
    expected[2:, :2] = np.eye(2) / 0.1
    assert_allclose(w, expected, atol=1e-9)


def test_regularity():
    lag = kinetic_lagrangian(2, 0.1)
    assert lag.is_regular(np.zeros(2), np.ones(2))
    # separable Lagrangian: D12 = 0 identically, never regular
    flat = lg.DiscreteLagrangian(dim=1, h=0.1,
                                 value=lambda a, b: float(a[0] ** 2 + b[0] ** 2))
    assert not flat.is_regular(np.array([1.0]), np.array([2.0]))


def test_regularity_uses_the_solve_test():
    # D12 = [[1, 1], [1, 1 + tiny]]: condition number 4e13 is regular for
    # the linear solves, 4e15 is not
    for tiny, regular in ((1e-13, True), (1e-15, False)):
        m = np.array([[1.0, 1.0], [1.0, 1.0 + tiny]])
        lag = lg.DiscreteLagrangian(dim=2, h=0.1, value=lambda a, b: float(a @ m @ b),
                                    d12=lambda a, b: m)
        assert lag.is_regular(np.zeros(2), np.ones(2)) is regular


def test_validate_catches_wrong_derivative():
    lag = lg.DiscreteLagrangian(
        dim=1, h=0.1,
        value=lambda a, b: float((b - a) @ (b - a)) / 0.2,
        d1=lambda a, b: (b - a) / 0.1,  # sign is wrong on purpose
    )
    with pytest.raises(DomainError):
        lag.validate()


def test_validate_accepts_consistent_derivatives():
    kinetic_lagrangian(2, 0.1).validate()
    harmonic_lagrangian(0.3).validate()


def test_hamiltonian_map_kinetic_is_shear():
    lag = kinetic_lagrangian(1, 0.1)
    q1, p1 = lg.hamiltonian_map(lag, np.array([0.3]), np.array([2.0]))
    assert_allclose(q1, [0.3 + 0.1 * 2.0], atol=1e-11)
    assert_allclose(p1, [2.0], atol=1e-11)


def test_hamiltonian_map_harmonic_is_rotation():
    h = 0.4
    lag = harmonic_lagrangian(h)
    q1, p1 = lg.hamiltonian_map(lag, np.array([1.0]), np.array([0.0]))
    assert_allclose(q1, [np.cos(h)], atol=1e-11)
    assert_allclose(p1, [-np.sin(h)], atol=1e-11)


def test_scaled_lagrangian_same_dynamics():
    lag = harmonic_lagrangian(0.3)
    scaled = lag.scaled(0.3 ** 2)
    q0, q1 = np.array([0.5]), np.array([0.45])
    assert_allclose(lg.del_step(lag, q0, q1), lg.del_step(scaled, q0, q1),
                    atol=1e-9)


def test_simulate_kinetic_affine():
    lag = kinetic_lagrangian(1, 0.1)
    traj, _ = lg.simulate(lag, np.array([0.0]), np.array([0.1]), steps=50)
    assert len(traj) == 52
    k = np.arange(52)
    assert_allclose(traj.points[:, 0], 0.1 * k, atol=1e-9)


def test_simulate_energy_series():
    lag = harmonic_lagrangian(0.2)
    conserved = lambda a, b: float(b[0] ** 2 - 2 * a[0] * b[0] * np.cos(0.2) + a[0] ** 2)
    traj, series = lg.simulate(lag, np.array([1.0]), np.array([np.cos(0.2)]),
                               steps=200, energies={"orbit": conserved})
    assert series["orbit"].shape == (201,)
    drift = series["orbit"].max() - series["orbit"].min()
    assert drift < 1e-13


def test_simulate_step_failure_annotated():
    # D1 of this Lagrangian in the second slot is exp(q2) > 0, and the
    # frozen part is +1, so the step equation has no root.
    bad = lg.DiscreteLagrangian(
        dim=1, h=0.1,
        value=lambda a, b: float(a[0] * np.exp(b[0])),
        d1=lambda a, b: np.array([np.exp(b[0])]),
        d2=lambda a, b: np.array([a[0] * np.exp(b[0])]),
    )
    with pytest.raises(StepFailure) as err:
        lg.simulate(bad, np.array([1.0]), np.array([0.0]), steps=3)
    assert err.value.step == 0


def test_simulate_user_bug_surfaces_as_itself():
    def d1(a, b):
        raise ValueError("user bug")

    buggy = lg.DiscreteLagrangian(
        dim=1, h=0.1,
        value=lambda a, b: 0.0,
        d1=d1,
        d2=lambda a, b: (b - a) / 0.1,
        d12=lambda a, b: np.array([[-10.0]]),
    )
    with pytest.raises(ValueError, match="user bug"):
        lg.simulate(buggy, np.array([0.0]), np.array([0.1]), steps=3)


def test_simulate_long_free_particle_run_completes():
    # Past step 10238 the residual's rounding level, which grows with
    # |q| / h, exceeds the plain 1e-12 tolerance; the default tolerance
    # is floored there, so the run must finish and stay affine.
    fp = make_system("toy-free-particle")
    traj, _ = lg.simulate(fp.lagrangian, *fp.initial, steps=10_300)
    k = np.arange(len(traj))[:, None]
    assert_allclose(traj.points, k * fp.initial[1], rtol=1e-9)


def test_default_tolerance_is_floored_for_every_unset_abs_tol():
    # A literal 1e-12 stalls once the residual's rounding level passes it;
    # the default tol=None, left out or passed, is floored there and
    # takes the stalled step.
    fp = make_system("toy-free-particle")
    with pytest.raises(StepFailure) as info:
        lg.simulate(fp.lagrangian, *fp.initial, steps=10_300,
                    tol=1e-12)
    assert info.value.step > 10_000
    q0, q1 = info.value.partial[-2:]
    for kwargs in ({}, {"tol": None}):
        assert_allclose(lg.del_step(fp.lagrangian, q0, q1, **kwargs), 2 * q1 - q0,
                        rtol=1e-12)


def test_trajectory_pairs_and_validation():
    traj = lg.Trajectory(points=np.array([[0.0], [1.0], [2.0]]), h=0.1)
    pairs = traj.pairs()
    assert pairs.shape == (2, 2, 1)
    assert_allclose(pairs[1], [[1.0], [2.0]])
    with pytest.raises(DomainError):
        lg.Trajectory(points=np.array([[0.0]]), h=0.1)


@pytest.mark.parametrize("q0, q1", [
    ([0.0, 0.0], 0.1),             # used to run from q1 = [0.1, 0.1]
    (0.0, 0.1),                    # scalars
    ([0.0], [0.1]),                # short for dim 2
    ([0.0, 0.0, 0.0], [0.1, 0.1, 0.1]),
    ([0.0, 0.0], [0.1, 0.1, 0.1]),
])
def test_simulate_rejects_seed_pairs_off_the_system_dim(q0, q1):
    fp = make_system("toy-free-particle")
    with pytest.raises(DomainError, match="seed pair"):
        lg.simulate(fp.lagrangian, q0, q1, 3)
