import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from varmech import numkit
from varmech.errors import DomainError, NoConvergence, SingularJacobian, StepFailure
from varmech.helmholtz import TwoFormField
from varmech.invariants import (pair_operator_on_orbit, recursion_operator,
                                series_along_orbit, spectrum, trace_powers)
from varmech.systems import exact_oscillator


def oscillator_operator(h):
    ho = exact_oscillator(h)
    op = recursion_operator(TwoFormField.from_lagrangian(ho.lagrangian),
                            TwoFormField.from_lagrangian(ho.alternate_lagrangian))
    return ho, op


def test_quarter_period_operator_is_four_identity():
    _, op = oscillator_operator(math.pi / 2)
    assert_allclose(op(np.array([0.0, 1.0])), 4.0 * np.eye(2), atol=1e-12)


def test_operator_is_conserved_scalar_times_identity():
    h = 0.1
    ho, op = oscillator_operator(h)
    rng = np.random.default_rng(0)
    for _ in range(4):
        z = rng.uniform(-1, 1, 2)
        lam = 4.0 * ho.invariant(z[:1], z[1:]) / math.sin(h) ** 2
        assert_allclose(op(z), lam * np.eye(2), atol=1e-12)


def test_trace_powers_on_cosine_orbit():
    # seeding with (1, cos h) puts the conserved quadratic at sin^2 h,
    # so the operator is 4 I and its trace powers are 8 and 32
    h = 0.1
    ho, op = oscillator_operator(h)
    z = np.concatenate(ho.initial)
    assert_allclose(trace_powers(op, z, max_power=2), [8.0, 32.0], atol=1e-12)


def test_trace_powers_drift_along_orbit():
    ho, op = oscillator_operator(0.1)
    q0, q1 = ho.initial
    rows = pair_operator_on_orbit(op, ho.recurrence, q0, q1, 400, max_power=2)
    assert rows.shape == (401, 2)
    assert np.ptp(rows[:, 0]) < 1e-11
    assert np.ptp(rows[:, 1]) < 1e-10


def test_operator_on_a_stack_matches_each_point_alone():
    ho, op = oscillator_operator(0.1)
    z = np.random.default_rng(1).uniform(-1, 1, (7, 2))
    stacked = op(z)
    assert stacked.shape == (7, 2, 2)
    for zi, a in zip(z, stacked):
        assert a.tobytes() == op(zi).tobytes()
    assert trace_powers(op, z, max_power=3).shape == (7, 3)


def test_orbit_rows_match_single_pair_trace_powers_and_the_closed_form():
    # 3000 steps cross PAIR_CHUNK boundaries: the rows come a block at a time
    h = 0.1
    ho, op = oscillator_operator(h)
    q0, q1 = np.array([0.7]), np.array([-0.4])
    rows = pair_operator_on_orbit(op, ho.recurrence, q0, q1, 3000, max_power=3)
    points = numkit.march(ho.recurrence, q0, q1, 3000)
    assert rows.shape == (3001, 3)
    assert len(rows) > 2 * numkit.PAIR_CHUNK
    for row, a, b in zip(rows, points[:-1], points[1:]):
        assert row.tobytes() == trace_powers(op, np.concatenate([a, b]), 3).tobytes()
    # A = lam I with lam = 4 I(q0, q1) / sin^2 h, so tr A^k = 2 lam^k
    lam = 4.0 * ho.invariant(points[:-1], points[1:]) / math.sin(h) ** 2
    assert_allclose(rows, 2.0 * lam[:, None] ** np.arange(1, 4), rtol=1e-12)


def test_spectrum_is_conjugation_invariant():
    ho, op = oscillator_operator(0.1)
    q0, q1 = ho.initial
    q2 = ho.recurrence(q0, q1)
    before = spectrum(op, np.concatenate([q0, q1]))
    after = spectrum(op, np.concatenate([q1, q2]))
    assert_allclose(before, after, atol=1e-12)


def test_degenerate_primary_form_raises():
    ho, _ = oscillator_operator(0.1)
    op = recursion_operator(TwoFormField.from_constant(np.zeros((2, 2))),
                            TwoFormField.from_lagrangian(ho.lagrangian))
    with pytest.raises(SingularJacobian):
        op(np.array([0.1, 0.2]))
    # and on the stacked path of a block of orbit pairs
    with pytest.raises(SingularJacobian):
        op(np.array([[0.1, 0.2], [0.3, 0.4]]))
    with pytest.raises(SingularJacobian):
        pair_operator_on_orbit(op, ho.recurrence, *ho.initial, 5)


def test_dimension_mismatch_rejected():
    with pytest.raises(DomainError):
        recursion_operator(TwoFormField.from_constant(np.zeros((2, 2))),
                           TwoFormField.from_constant(np.zeros((4, 4))))
    ho, op = oscillator_operator(0.1)
    with pytest.raises(DomainError):
        trace_powers(op, np.array([0.0, 1.0]), max_power=0)


def test_series_along_orbit_values():
    ho, _ = oscillator_operator(0.1)
    q0, q1 = ho.initial
    series = series_along_orbit(ho.recurrence, q0, q1, 30, ho.invariant)
    assert series.shape == (31,)
    assert np.ptp(series) < 1e-14
    assert_allclose(series[0], math.sin(0.1) ** 2, atol=1e-15)


def test_series_along_orbit_numerical_failure_is_step_failure():
    def recurrence(q0, q1):
        if q1[0] >= 3.0:
            raise NoConvergence("stuck")
        return 2 * q1 - q0

    with pytest.raises(StepFailure) as info:
        series_along_orbit(recurrence, np.array([0.0]), np.array([1.0]), 10,
                           lambda a, b: b[0] - a[0])
    assert info.value.step == 2
    assert isinstance(info.value.cause, NoConvergence)
    assert np.array_equal(info.value.partial[:, 0], [0.0, 1.0, 2.0, 3.0])


def test_series_along_orbit_other_errors_propagate():
    def buggy(q0, q1):
        raise ValueError("user bug")

    with pytest.raises(ValueError, match="user bug"):
        series_along_orbit(buggy, np.array([0.0]), np.array([1.0]), 3,
                           lambda a, b: 0.0)


@pytest.mark.parametrize("q0, q1", [(0.0, 1.0), ([0.0, 0.0], [1.0])])
def test_series_along_orbit_rejects_bad_seed_pairs(q0, q1):
    with pytest.raises(DomainError, match="seed pair"):
        series_along_orbit(lambda a, b: 2 * b - a, q0, q1, 3, lambda a, b: 0.0)
