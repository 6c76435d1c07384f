"""Explicit and implicit second-order difference equations."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from varmech import numkit, sode, systems
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


def test_tangent_basis_of_a_complex_safe_phi_is_exact():
    # exp-recurrence's phi = exp(q2 - 2 q1 + q0) - 1 is marked, so its
    # slot Jacobians come from the complex step: A = (1, 0, -1) and
    # B = (0, 1, 2) to rounding, where the order-2 stencil is off by
    # 1e-11 to 3e-10
    eq = systems.make_system("exp-recurrence").equation
    assert numkit.is_complex_safe(eq.phi)
    plain = sode.ImplicitSOdE(dim=1, phi=lambda *q: eq.phi(*q), c=eq.c)
    for x0, x1 in [(0.3, -0.4), (-0.9, 0.65), (2.5, 2.0)]:
        q0, q1 = np.array([x0]), np.array([x1])
        q2 = sode.implicit_step(eq, q0, q1)
        a, b = sode.tangent_basis(eq, q0, q1, q2)
        assert_allclose(a, [[1.0, 0.0, -1.0]], rtol=0, atol=4 * numkit.EPS)
        assert_allclose(b, [[0.0, 1.0, 2.0]], rtol=0, atol=8 * numkit.EPS)
        a_fd, b_fd = sode.tangent_basis(plain, q0, q1, q2)
        assert_allclose(a_fd, a, rtol=0, atol=1e-9)
        assert_allclose(b_fd, b, rtol=0, atol=1e-9)


def test_tangent_basis_of_an_unmarked_phi_is_order_4():
    # the unmarked copy of exp-recurrence's phi: its slot Jacobians come
    # from the order-4 stencil, 5e-11 from A = (1, 0, -1), B = (0, 1, 2)
    eq = systems.make_system("exp-recurrence").equation
    plain = sode.ImplicitSOdE(dim=1, phi=lambda *q: eq.phi(*q), c=eq.c)
    assert not numkit.is_complex_safe(plain.phi)
    for x0, x1 in [(0.3, -0.4), (-0.9, 0.65), (2.5, 2.0)]:
        q0, q1 = np.array([x0]), np.array([x1])
        q2 = sode.implicit_step(eq, q0, q1)
        a, b = sode.tangent_basis(plain, q0, q1, q2)
        assert_allclose(a, [[1.0, 0.0, -1.0]], rtol=0, atol=5e-11)
        assert_allclose(b, [[0.0, 1.0, 2.0]], rtol=0, atol=5e-11)


def test_explicit_to_implicit_inherits_the_mark():
    marked = sode.ExplicitSOdE(dim=1, gamma=numkit.complex_safe(lambda a, b: 2 * b - a))
    plain = sode.ExplicitSOdE(dim=1, gamma=lambda a, b: 2 * b - a)
    assert numkit.is_complex_safe(sode.explicit_to_implicit(marked).phi)
    assert not numkit.is_complex_safe(sode.explicit_to_implicit(plain).phi)


def test_implicit_equation_takes_stacked_points():
    eq = systems.make_system("exp-recurrence").equation
    z = np.array([[0.1, 0.3, 0.5], [0.2, 0.2, 0.3]])
    values = eq(z[:, :1], z[:, 1:2], z[:, 2:])
    assert values.shape == (2, 1)
    assert_allclose(values[:, 0], np.exp(z[:, 2] - 2 * z[:, 1] + z[:, 0]) - 1.0)
    # an unmarked phi is called point by point; a marked one must
    # compute over the leading axis
    plain = sode.ImplicitSOdE(dim=1, phi=lambda a, b, c: np.exp(c - 2 * b + a) - 1.0)
    assert plain(z[:, :1], z[:, 1:2], z[:, 2:]).tobytes() == values.tobytes()
    with pytest.raises(DomainError, match=r"phi returned shape \(1,\), expected \(2, 1\)"):
        sode.ImplicitSOdE(dim=1, phi=numkit.complex_safe(lambda a, b, c: np.zeros(1)))(
            z[:, :1], z[:, 1:2], z[:, 2:])


def test_analytic_c_goes_through_pointwise():
    z = np.random.default_rng(2).uniform(-1, 1, size=(3, 5, 2))
    cm = np.array([[2.0, 0.5], [0.0, 1.0]])
    # an unmarked c is called per triple, so stacked triples give a stack
    eq = sode.ImplicitSOdE(dim=2, phi=lambda a, b, c: cm @ c - b, c=lambda a, b, c: cm)
    stacked = eq.C(*z)
    assert stacked.shape == (5, 2, 2)
    assert np.array_equal(stacked, np.broadcast_to(cm, (5, 2, 2)))
    assert np.array_equal(eq.C(*z[:, 0]), cm)
    wrong = sode.ImplicitSOdE(dim=2, phi=eq.phi, c=lambda a, b, c: np.eye(3))
    with pytest.raises(DomainError, match=r"c returned shape \(3, 3\), expected \(2, 2\)"):
        wrong.C(*z[:, 0])
    with pytest.raises(DomainError, match=r"c returned shape \(5, 3, 3\)"):
        wrong.C(*z)


def _marked_planar_equation():
    """phi(q0, q1, q2) = (exp(x2 - x1) - 1 - y0 y1, y2 + sin(x1) x2 - x0), marked."""
    def phi(q0, q1, q2):
        x0, y0, x1, y1 = q0[..., 0], q0[..., 1], q1[..., 0], q1[..., 1]
        x2, y2 = q2[..., 0], q2[..., 1]
        return np.stack([np.exp(x2 - x1) - 1.0 - y0 * y1, y2 + np.sin(x1) * x2 - x0],
                        axis=-1)

    return sode.ImplicitSOdE(dim=2, phi=numkit.complex_safe(phi))


def test_tangent_basis_of_a_stack_is_the_stack_of_bases():
    # each member of a stack of triples gets the bits of its own basis
    eq = _marked_planar_equation()
    pairs = np.random.default_rng(5).uniform(-0.5, 0.5, size=(7, 4))
    q0, q1 = pairs[:, :2], pairs[:, 2:]
    q2 = np.stack([sode.implicit_step(eq, a, b) for a, b in zip(q0, q1)])
    a, b = sode.tangent_basis(eq, q0, q1, q2)
    assert a.shape == b.shape == (7, 2, 6)
    for i in range(len(pairs)):
        a_i, b_i = sode.tangent_basis(eq, q0[i], q1[i], q2[i])
        assert a_i.tobytes() == a[i].tobytes()
        assert b_i.tobytes() == b[i].tobytes()
        # the basis spans the kernel of dphi, with C from the same complex step
        jac = numkit.fd_jacobian4(lambda z: eq(z[:2], z[2:4], z[4:]),
                                  np.concatenate([q0[i], q1[i], q2[i]]))
        assert np.max(np.abs(jac @ a_i.T)) < 1e-9
        assert np.max(np.abs(jac @ b_i.T)) < 1e-9


def test_tangent_basis_of_a_stack_raises_where_c_is_singular():
    # C = [[k, 1], [1, 1]] with k = x0 is singular at the second triple only
    def phi(q0, q1, q2):
        dx, dy = q2[..., 0] - q1[..., 0], q2[..., 1] - q1[..., 1]
        return np.stack([q0[..., 0] * dx + dy, dx + dy], axis=-1)

    eq = sode.ImplicitSOdE(dim=2, phi=numkit.complex_safe(phi))
    q0 = np.array([[2.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    q1 = np.array([[0.5, 0.1], [0.4, 0.2], [0.3, 0.3]])
    with pytest.raises(SingularJacobian):
        sode.tangent_basis(eq, q0, q1, q1)
    a, b = sode.tangent_basis(eq, q0[[0, 2]], q1[[0, 2]], q1[[0, 2]])
    assert a.shape == (2, 2, 6)
