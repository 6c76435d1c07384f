"""Explicit and implicit second-order difference equations."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from varmech import sode
from varmech.errors import DomainError, OffManifold, SingularJacobian


def test_explicit_flow():
    eq = sode.ExplicitSOdE(dim=1, gamma=lambda a, b: 2 * b - a)
    q1, q2 = eq.flow(np.array([0.0]), np.array([1.0]))
    assert_allclose(q1, [1.0])
    assert_allclose(q2, [2.0])
    z = eq.flow_map(np.array([0.0, 1.0]))
    assert_allclose(z, [1.0, 2.0])


def test_explicit_shape_check():
    eq = sode.ExplicitSOdE(dim=2, gamma=lambda a, b: np.array([1.0]))
    with pytest.raises(DomainError):
        eq(np.zeros(2), np.ones(2))


def test_implicit_step_damped_recurrence():
    # phi = (x2 - 2 x1 + x0)/h^2 + x1 encodes x2 = (2 - h^2) x1 - x0;
    # from (0, 0.1) at h = 0.1 the next point is 0.199.
    h = 0.1
    eq = sode.ImplicitSOdE(
        dim=1,
        phi=lambda a, b, c: (c - 2 * b + a) / h ** 2 + b,
    )
    q2 = sode.implicit_step(eq, np.array([0.0]), np.array([0.1]))
    assert_allclose(q2, [0.199], atol=1e-12)


def test_implicit_step_exponential_recurrence():
    # exp(q2 - 2 q1 + q0) = 1 pins down the uniform extension exactly.
    eq = sode.ImplicitSOdE(dim=1, phi=lambda a, b, c: np.exp(c - 2 * b + a) - 1.0)
    q2 = sode.implicit_step(eq, np.array([0.0]), np.array([1.0]))
    assert_allclose(q2, [2.0], atol=1e-10)


def test_implicit_regularity():
    eq = sode.ImplicitSOdE(dim=1, phi=lambda a, b, c: np.exp(c - 2 * b + a) - 1.0)
    assert eq.is_regular(np.array([0.0]), np.array([1.0]), np.array([2.0]))
    # phi independent of q2: C = 0
    flat = sode.ImplicitSOdE(dim=1, phi=lambda a, b, c: b - a)
    assert not flat.is_regular(np.zeros(1), np.zeros(1), np.zeros(1))


@pytest.mark.parametrize("tiny, regular", [(1e-13, True), (1e-15, False)])
def test_implicit_regularity_agrees_with_the_step(tiny, regular):
    # phi = C q2 + q0 with C = [[1, 1], [1, 1 + tiny]] (condition number
    # 4e13 or 4e15): the triple is regular where implicit_step solves
    # C q2 = -q0 along C's near-null direction, and only there
    cmat = np.array([[1.0, 1.0], [1.0, 1.0 + tiny]])
    eq = sode.ImplicitSOdE(dim=2, phi=lambda a, b, c: cmat @ c + a,
                           c=lambda a, b, c: cmat)
    q0, q1 = np.array([1.0, 0.0]), np.zeros(2)
    assert eq.is_regular(q0, q1, q1) is regular
    if regular:
        q2 = sode.implicit_step(eq, q0, q1)
        assert np.max(np.abs(eq(q0, q1, q2))) <= 1e-12 * np.max(np.abs(q2))
    else:
        with pytest.raises(SingularJacobian):
            sode.implicit_step(eq, q0, q1)


def test_tangent_basis_uniform_recurrence():
    # phi = q2 - 2 q1 + q0: A = d/dq0 - d/dq2, B = d/dq1 + 2 d/dq2.
    eq = sode.ImplicitSOdE(dim=1, phi=lambda a, b, c: c - 2 * b + a)
    a, b = sode.tangent_basis(eq, np.array([0.0]), np.array([1.0]), np.array([2.0]))
    assert_allclose(a, [[1.0, 0.0, -1.0]], atol=1e-9)
    assert_allclose(b, [[0.0, 1.0, 2.0]], atol=1e-9)


def test_tangent_basis_annihilates_dphi():
    # the defining property, checked on a nonlinear two-dimensional example
    def phi(a, b, c):
        return np.array([
            c[0] - 2 * b[0] + a[0] + 0.3 * np.sin(b[1]),
            np.exp(c[1] - b[1]) - 1.0 + 0.1 * a[0] * b[0],
        ])

    eq = sode.ImplicitSOdE(dim=2, phi=phi)
    q0 = np.array([0.2, -0.3])
    q1 = np.array([0.5, 0.1])
    q2 = sode.implicit_step(eq, q0, q1)
    a, b = sode.tangent_basis(eq, q0, q1, q2)
    z = np.concatenate([q0, q1, q2])

    def phi_z(zz):
        return phi(zz[:2], zz[2:4], zz[4:])

    from varmech.numkit import fd_jacobian
    jac = fd_jacobian(phi_z, z)  # shape (2, 6)
    assert np.max(np.abs(jac @ a.T)) < 1e-7
    assert np.max(np.abs(jac @ b.T)) < 1e-7


def test_tangent_basis_off_manifold_raises():
    eq = sode.ImplicitSOdE(dim=1, phi=lambda a, b, c: c - 2 * b + a)
    with pytest.raises(OffManifold):
        sode.tangent_basis(eq, np.array([0.0]), np.array([1.0]), np.array([7.0]))


@pytest.mark.parametrize("analytic_c", [True, False])
def test_tangent_basis_singular_c_raises(analytic_c):
    cmat = np.array([[1.0, 1.0], [1.0, 1.0]])
    eq = sode.ImplicitSOdE(dim=2, phi=lambda a, b, c: cmat @ (c - 2 * b + a),
                           c=(lambda a, b, c: cmat) if analytic_c else None)
    q0, q1 = np.array([0.1, 0.2]), np.array([0.3, 0.1])
    with pytest.raises(SingularJacobian):
        sode.tangent_basis(eq, q0, q1, 2 * q1 - q0)


def test_explicit_to_implicit_round_trip():
    h = 0.3
    gamma = lambda a, b: 2 * np.cos(h) * b - a
    eq = sode.ExplicitSOdE(dim=1, gamma=gamma)
    imp = sode.explicit_to_implicit(eq)
    q0, q1 = np.array([0.4]), np.array([0.7])
    expected = gamma(q0, q1)
    assert_allclose(imp(q0, q1, expected), [0.0], atol=1e-14)
    assert_allclose(sode.implicit_step(imp, q0, q1), expected, atol=1e-12)
    assert_allclose(imp.C(q0, q1, expected), np.eye(1))
