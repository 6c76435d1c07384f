"""Variationality tests for second-order equations, discrete and continuous.

The central question: given a recurrence q2 = gamma(q0, q1) together
with a candidate momentum map F(q0, q1), is F the (minus) Legendre
transform of some discrete Lagrangian whose stationarity equations are
the recurrence?  Equivalently, is the image of the pair embedding

    z = (q0, q1)  |->  ((q0, F(q0, q1)), (q1, F(q1, gamma(q0, q1))))

an isotropic (for dim reasons then Lagrangian) submanifold of two
cotangent copies carrying the difference of their canonical forms?

Three families of tests are provided:

* ``dhc_explicit`` / ``dhc_implicit``: the pointwise discrete Helmholtz
  residuals, written with slot-derivative matrices of F and gamma (or,
  in the implicit case, contractions with the {phi = 0} tangent basis);
* ``isotropy_pullback``: the pullback of the ambient two-form through
  any embedding, which must vanish identically;
* ``chc_classical`` / ``chc_implicit``: the continuous counterparts
  along user-supplied jets, for comparing a discretization against the
  theory it came from.

Conventions.  The canonical one-form is p dq and the symplectic matrix
used here is S = [[0, -I], [I, 0]] in (q, p) coordinates, so that the
pullback of the canonical form through a minus Legendre transform has
coefficient +D12 on dq0^i ^ dq1^j, matching ``lagrangian_two_form``.
On the product of two cotangent copies the relevant form is the second
copy minus the first: ambient matrix diag(-S, S).

The sampled verdicts (``check_dhc_explicit``, ``check_dhc_implicit``,
``check_isotropy``, ``check_chc``, ``check_ihc``, ``check_two_form``,
``check_functional``) each supply one residual function of a block of
samples to one sample loop, ``_sampled_check``, which walks the samples
in blocks of at most SAMPLE_CHUNK points, keeps the worst residual and
point per condition and applies the scaled tolerance.  Every residual
function evaluates its block at once, whatever its callables: the fiber
maps, recurrences, implicit equations and two-form fields take points
stacked on a leading axis through ``numkit.pointwise``, which hands the
stack to a callable marked by ``numkit.complex_safe`` in one call and
calls an unmarked one on each point in order, and the difference
kernel differentiates an unmarked callable one point at a time.  The
Newton solves, of the third member of dhc-implicit's triples and of
ihc's accelerations, are both ``sode.ImplicitSOdE.solve_last``, run one
point at a time through the same helper.

All residuals here are exact zeros for variational data, so any value
above the derivatives' noise floor is meaningful.  The first
derivatives of marked callables (as every catalogue fiber map,
recurrence and force law is) come from the complex step and are exact
to rounding, so their residuals sit at rounding level (about 1e-15
relative).  The time derivatives of chc and ihc are the order-4 stencil
applied to a Jacobian, a complex-step one for marked callables, since
one complex step cannot be nested in another.  Unmarked callables keep
the difference stencils, whose floor is about 1e-10, and 1e-9 for the
nested ones of chc.  Every function is pure, so evaluating a block at
once gives the residuals of evaluating its points one by one.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import numkit
from .errors import DomainError, EvaluationError, NumericsError, SingularJacobian
from .sode import ExplicitSOdE, ImplicitSOdE, implicit_step, tangent_basis

# Most sample points a check evaluates at once, which bounds the
# temporaries of a block: the stacked complex-step points and the
# values and Jacobians of its embeddings.  The largest are the two-form
# check's: an m-by-m field at m complex points per sample, 0.5 MB of
# values for 64 samples of the extended disk (m = 8).  Blocks of 256
# made a verdict-sweep round a few percent faster but raised its peak
# RSS by 2 MiB (two shared x86-64 cores, numpy 2.4).
SAMPLE_CHUNK = 64


# ---------------------------------------------------------------------------
# canonical matrices and sampling


def canonical_omega_matrix(n):
    """Matrix of the canonical two-form on (q, p) coordinates."""
    s = np.zeros((2 * n, 2 * n))
    s[:n, n:] = -np.eye(n)
    s[n:, :n] = np.eye(n)
    return s


def pair_omega_matrix(n):
    """Ambient form on two cotangent copies: second minus first."""
    s = canonical_omega_matrix(n)
    out = np.zeros((4 * n, 4 * n))
    out[: 2 * n, : 2 * n] = -s
    out[2 * n :, 2 * n :] = s
    return out


def sample_box(dim, count, box=1.0, seed=0, center=None, predicate=None):
    """Deterministic low-discrepancy points in ``center + [-box, box]^dim``.

    Uses the additive-recurrence sequence driven by the generalized
    golden ratio; ``seed`` shifts the starting index so different seeds
    give different but reproducible point sets.  With a ``predicate``
    the sequence is filtered until ``count`` admissible points are
    found (DomainError if the predicate keeps rejecting).  Candidates
    are computed a block at a time, in one array expression, and the
    predicate sees them in order.
    """
    if count < 1 or dim < 1:
        raise DomainError("sample_box needs positive dim and count")
    # root of x**(dim+1) = x + 1
    g = 2.0
    for _ in range(60):
        g = (1.0 + g) ** (1.0 / (dim + 1))
    alpha = g ** -(1.0 + np.arange(dim))
    center = np.zeros(dim) if center is None else np.asarray(center, dtype=float)
    first = 1 + seed * 7919

    def candidates(start, stop):
        # the indices are exact integers (Python ones past int64), each
        # rounded to float once
        idx = np.arange(first + start, first + stop).astype(float)
        return center + box * (2.0 * np.mod(0.5 + idx[:, None] * alpha, 1.0) - 1.0)

    if predicate is None:
        return candidates(0, count)
    out = np.empty((count, dim))
    found = 0
    k = 0
    limit = 1000 * count + 1000  # the last candidate index tried
    while found < count:
        if k > limit:
            raise DomainError("sample predicate rejected too many points")
        stop = min(k + count - found, limit + 1)
        for point in candidates(k, stop):
            if predicate(point):
                out[found] = point
                found += 1
                if found == count:
                    break
        k = stop
    return out


# ---------------------------------------------------------------------------
# fiber maps


@dataclass
class FiberMap:
    """Map from pairs of points to momentum covectors.

    kind "minus" attaches F(q0, q1) at q0 (the pattern of -D1 of a
    discrete Lagrangian); kind "plus" attaches it at q1 (the pattern of
    D2).  ``func`` returns the covector components only; the base point
    is implied by the kind.  A ``func`` marked by ``numkit.complex_safe``
    makes the map, and the embeddings built from it, complex-safe.  The
    map takes points stacked on leading axes, through
    ``numkit.pointwise``.
    """

    dim: int
    func: Callable
    kind: str = "minus"

    def __post_init__(self):
        if self.kind not in ("minus", "plus"):
            raise DomainError(f"kind must be 'minus' or 'plus', got {self.kind!r}")
        if self.dim < 1:
            raise DomainError("dim must be at least 1")

    def __call__(self, q0, q1):
        """``func``'s covector at (q0, q1), one per point of the leading
        axes, checked for shape by ``numkit.pointwise``."""
        return numkit.pointwise(self.func, (q0, q1), (self.dim,), "fiber map")

    def base(self, q0, q1):
        return np.asarray(q0 if self.kind == "minus" else q1, dtype=float)

    def slot_jacobians(self, q0, q1):
        """(dF/dq0, dF/dq1) by order-4 differences, or by the complex
        step when ``func`` is complex-safe; stacked points (S, n) give
        stacks of Jacobians."""
        n = self.dim
        z = np.concatenate([np.asarray(q0, dtype=float), np.asarray(q1, dtype=float)],
                           axis=-1)
        j = numkit.fd_jacobian4(
            numkit.complex_safe(lambda zz: self(zz[..., :n], zz[..., n:]), self.func), z)
        return j[..., :n], j[..., n:]

    def local_diffeo_residual(self, q0, q1):
        """Smallest singular value of the fiber-slot Jacobian.

        The pair map (q0, q1) -> (base, F) is a local diffeomorphism
        exactly when this is nonzero: the free slot is q1 for minus
        maps and q0 for plus maps.
        """
        j0, j1 = self.slot_jacobians(q0, q1)
        block = j1 if self.kind == "minus" else j0
        return float(np.linalg.svd(block, compute_uv=False)[-1])


def plus_from_minus(fiber: FiberMap, eq: ExplicitSOdE, probe=None) -> FiberMap:
    """Advance a minus-type map through the recurrence: the result sends
    (q0, q1) to F(q1, gamma(q0, q1)), attached at q1.

    When ``probe = (q0, q1)`` is given, the construction verifies that
    gamma's first-slot Jacobian is invertible there, which is what makes
    the new map a genuine plus Legendre pattern; a recurrence that
    forgets q0 fails with SingularJacobian.
    """
    if fiber.kind != "minus":
        raise DomainError("plus_from_minus needs a minus-type fiber map")
    if probe is not None:
        q0, q1 = (np.asarray(p, dtype=float) for p in probe)
        j = numkit.fd_jacobian4(lambda a: eq(a, q1), q0)
        if np.any(np.linalg.norm(j, axis=1) < 1e-10) or not numkit.is_regular(j):
            raise SingularJacobian(
                "recurrence has singular first-slot Jacobian at the probe; "
                "its advanced fiber map is not a plus Legendre pattern"
            )
    return FiberMap(dim=fiber.dim, kind="plus",
                    func=numkit.complex_safe(lambda q0, q1: fiber(q1, eq(q0, q1)),
                                             fiber.func, eq.gamma))


# ---------------------------------------------------------------------------
# discrete Helmholtz conditions


def dhc_explicit(fiber: FiberMap, eq: ExplicitSOdE, q0, q1):
    """Pointwise discrete Helmholtz residuals for an explicit recurrence.

    With M = dF at (q0, q1), N = dF at (q1, gamma(q0, q1)) and G the
    slot Jacobians of gamma (subscripts are slots), the residuals are

        R1 = antisym(M1)                     first-slot symmetry,
        R2 = M2 + (N2 G0)^T                  cross-pair compatibility,
        R3 = antisym(N2 G1)                  advanced-pair symmetry,

    all of which vanish identically when F is the minus Legendre
    transform of a Lagrangian generating the recurrence.  R3 is the
    reduced form of the advanced-pair condition; it is equivalent to the
    full one wherever R1 vanishes on a neighbourhood.
    """
    return _dhc_explicit(fiber, eq, q0, q1)[0]


def _dhc_explicit(fiber: FiberMap, eq: ExplicitSOdE, q0, q1):
    """``dhc_explicit``'s residuals and the largest entry of dF at
    (q0, q1); stacked pairs (S, n) give stacks of both."""
    if fiber.kind != "minus":
        raise DomainError("dhc_explicit needs a minus-type fiber map")
    n = fiber.dim
    q0 = np.asarray(q0, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    m1, m2 = fiber.slot_jacobians(q0, q1)
    q2 = eq(q0, q1)
    _, n2 = fiber.slot_jacobians(q1, q2)
    z = np.concatenate([q0, q1], axis=-1)
    jg = numkit.fd_jacobian4(
        numkit.complex_safe(lambda zz: eq(zz[..., :n], zz[..., n:]), eq.gamma), z)
    g0, g1 = jg[..., :n], jg[..., n:]
    r1 = numkit.antisymmetrize(m1)
    r2 = m2 + _transpose(n2 @ g0)
    r3 = numkit.antisymmetrize(n2 @ g1)
    size = np.maximum(np.abs(m1).max(axis=(-2, -1)), np.abs(m2).max(axis=(-2, -1)))
    return (r1, r2, r3), size


def _triple_embedding(fiber: FiberMap, q0, q1, q2):
    """Both Legendre legs over a triple, as a map of (q0, q1, q2)."""
    n = fiber.dim

    def embed(z):
        a, b, c = z[..., :n], z[..., n : 2 * n], z[..., 2 * n :]
        return np.concatenate([a, fiber(a, b), b, fiber(b, c)], axis=-1)

    z = np.concatenate([np.asarray(q0, dtype=float), np.asarray(q1, dtype=float),
                        np.asarray(q2, dtype=float)], axis=-1)
    return numkit.complex_safe(embed, fiber.func), z


def dhc_implicit(fiber: FiberMap, eq: ImplicitSOdE, q0, q1, q2, tol: float = 1e-8):
    """Discrete Helmholtz residuals for an implicit recurrence at an
    on-manifold triple.

    The two-form carried by the pair of Legendre legs is pulled back to
    triple space and contracted with the tangent basis A_i, B_i of
    {phi = 0}, which is where the inverse of the last-slot Jacobian
    enters.  Residuals are normalized so that on phi = q2 - gamma the
    first two blocks reproduce ``dhc_explicit`` exactly; the third
    block is the unreduced advanced-pair condition, which differs from
    the reduced explicit form by an antisym(dF/dQ1) term at the
    advanced pair and so coincides with it wherever the first condition
    holds there.
    """
    return _dhc_implicit(fiber, eq, q0, q1, q2, tol)[0]


def _dhc_implicit(fiber: FiberMap, eq: ImplicitSOdE, q0, q1, q2, tol: float = 1e-8):
    """``dhc_implicit``'s residuals and the largest entry of dF at
    (q0, q1), read off the fiber block of the triple Jacobian; stacked
    triples (S, n) give stacks of both."""
    if fiber.kind != "minus":
        raise DomainError("dhc_implicit needs a minus-type fiber map")
    n = fiber.dim
    a, b = tangent_basis(eq, q0, q1, q2, tol)
    embed, z = _triple_embedding(fiber, q0, q1, q2)
    jac = numkit.fd_jacobian4(embed, z)
    w = _transpose(jac) @ pair_omega_matrix(n) @ jac
    at, bt = _transpose(a), _transpose(b)
    r1 = 0.5 * (a @ w @ at)
    r2 = a @ w @ bt
    r3 = -0.5 * (b @ w @ bt)
    return (r1, r2, r3), np.abs(jac[..., n : 2 * n, : 2 * n]).max(axis=(-2, -1))


# ---------------------------------------------------------------------------
# isotropy of embeddings


def gamma_embedding(fiber: FiberMap, eq: ExplicitSOdE) -> Callable:
    """The pair embedding into two cotangent copies induced by a fiber
    map and a recurrence; input is stacked z = (q0, q1) of length 2n,
    or a stack of such points on leading axes.  It is complex-safe when
    both ``func`` and ``gamma`` are."""
    n = fiber.dim

    if fiber.kind == "minus":

        def embed(z):
            q0, q1 = z[..., :n], z[..., n:]
            return np.concatenate([q0, fiber(q0, q1), q1, fiber(q1, eq(q0, q1))],
                                  axis=-1)

    else:

        def embed(z):
            q0, q1 = z[..., :n], z[..., n:]
            q2 = eq(q0, q1)
            return np.concatenate([q1, fiber(q0, q1), q2, fiber(q1, q2)], axis=-1)

    return numkit.complex_safe(embed, fiber.func, eq.gamma)


def isotropy_pullback(embedding: Callable, z, ambient=None):
    """Pullback of the ambient two-form through an embedding at z.

    ``embedding`` maps chart points (length m) into an even-dimensional
    space carrying ``ambient`` (default: ``pair_omega_matrix`` of the
    appropriate size).  The returned m-by-m matrix vanishes exactly when
    the image is isotropic near z; if additionally m is half the ambient
    dimension the image is Lagrangian.
    """
    return _pullback(embedding, z, ambient)[1]


def _pullback(embedding: Callable, z, ambient):
    """The embedding's Jacobian at z and the pulled-back form; stacked
    points z (S, m) give stacks of both."""
    jac = numkit.fd_jacobian4(embedding, np.asarray(z, dtype=float))
    rows = jac.shape[-2]
    if ambient is None:
        if rows % 4 != 0:
            raise DomainError("ambient dimension must be a multiple of 4")
        ambient = pair_omega_matrix(rows // 4)
    return jac, _transpose(jac) @ np.asarray(ambient, dtype=float) @ jac


# ---------------------------------------------------------------------------
# two-form fields on chart space


@dataclass
class TwoFormField:
    """A two-form on an m-dimensional chart, given by its coefficient
    matrix field z -> W(z) with W antisymmetric, Omega(u, v) = u^T W v.
    The field takes points stacked on leading axes, through
    ``numkit.pointwise``; a ``coeff`` marked by ``numkit.complex_safe``
    gets a whole block of samples, and its derivatives, in one call."""

    dim: int
    coeff: Callable

    def __call__(self, z):
        """``coeff``'s matrix at z, one per point of the leading axes,
        checked for shape by ``numkit.pointwise``."""
        return numkit.pointwise(self.coeff, (z,), (self.dim, self.dim),
                                "coefficient field")

    @staticmethod
    def from_constant(w):
        w = np.asarray(w, dtype=float)
        return TwoFormField(dim=w.shape[0], coeff=lambda z: w)

    @staticmethod
    def from_lagrangian(lag):
        """The pair-space two-form of a discrete Lagrangian; complex-safe,
        and so computed over leading axes, when ``lag.d12`` is."""
        from .lagrangian import lagrangian_two_form, pair_form_matrix

        n = lag.dim
        if numkit.is_complex_safe(lag.d12):
            return TwoFormField(dim=2 * n, coeff=numkit.complex_safe(
                lambda z: pair_form_matrix(lag.d12(z[..., :n], z[..., n:]))))
        return TwoFormField(
            dim=2 * n,
            coeff=lambda z: lagrangian_two_form(lag, z[:n], z[n:]),
        )


def two_form_checks(omega: TwoFormField, z, flow: Callable | None = None,
                    n_vertical: int | None = None, kernel: str = "second"):
    """Pointwise diagnostics of a two-form field at z.

    Points stacked on a leading axis (S, m) give one array of S values
    per entry instead of floats; unmarked callables are then evaluated
    and differentiated one point at a time (``numkit.pointwise``),
    complex-safe ones at all points at once.  Returns a dict with:
        closure: max over index triples of the cyclic derivative sum
            (zero iff the form is closed);
        vertical: max entry of the block on the kernel subspace of the
            chosen pair projection ("second": trailing n_vertical
            coordinates, "first": leading ones);
        lie: max entry of flow-pullback minus the form (the discrete
            Lie derivative along the recurrence), when ``flow`` given;
        abs_det: |det W(z)|, reported raw so callers pick thresholds;
        flat_sigma: smallest singular value of the rows of W on the
            vertical subspace (injectivity of the flat map there).
    """
    z = np.asarray(z, dtype=float)
    m = omega.dim
    if n_vertical is None:
        n_vertical = m // 2
    if kernel not in ("first", "second"):
        raise DomainError("kernel must be 'first' or 'second'")
    w = omega(z)
    lead = z.shape[:-1]
    zero = np.zeros(lead)

    flat = numkit.complex_safe(lambda zz: omega(zz).reshape(zz.shape[:-1] + (m * m,)),
                               omega.coeff)
    grad = numkit.fd_jacobian4(flat, z)  # (..., m*m, m)
    # the cyclic sums over all index triples a < b < c
    triples = np.array(list(itertools.combinations(range(m), 3)), dtype=np.intp)
    a, b, c = triples.reshape(-1, 3).T
    total = grad[..., b * m + c, a] + grad[..., c * m + a, b] + grad[..., a * m + b, c]

    vert = slice(m - n_vertical, m) if kernel == "second" else slice(0, n_vertical)
    out = {
        "closure": np.abs(total).max(axis=-1, initial=0.0),
        "vertical": np.abs(w[..., vert, vert]).max(axis=(-2, -1)) if n_vertical else zero,
        "magnitude": np.abs(w).max(axis=(-2, -1)),
        "abs_det": np.abs(np.linalg.det(w)),
        "flat_sigma": np.linalg.svd(w[..., vert, :], compute_uv=False)[..., -1]
        if n_vertical
        else zero,
    }
    if flow is not None:
        jac = numkit.fd_jacobian4(flow, z)
        image = np.asarray(numkit.pointwise(flow, (z,)), dtype=float)
        pulled = _transpose(jac) @ omega(image) @ jac
        out["lie"] = np.abs(pulled - w).max(axis=(-2, -1))
    if not lead:
        out = {key: float(value) for key, value in out.items()}
    return out


# ---------------------------------------------------------------------------
# continuous Helmholtz conditions


def chc_classical(phi: Callable, jet):
    """Classical Helmholtz residuals of a force expression phi(q, qd, qdd)
    along a jet (q, qd, qdd, qddd).

    The three residual matrices (acceleration symmetry, position block,
    velocity block) vanish identically iff phi is the Euler-Lagrange
    expression of some regular Lagrangian.  Total time derivatives are
    expanded along the supplied jet, including the third-derivative
    component (``_jet_jacobians``).  Jets stacked on a leading axis, each
    member of shape (S, n), give stacks of the residuals.
    """
    q, qd, qdd, qddd = (np.atleast_1d(np.asarray(p, dtype=float)) for p in jet)
    n = q.shape[-1]
    flat = numkit.complex_safe(
        lambda zz: phi(zz[..., :n], zz[..., n:2 * n], zz[..., 2 * n:]), phi)
    jac, dt_jac = _jet_jacobians(flat, np.concatenate([q, qd, qdd], axis=-1),
                                 np.concatenate([qd, qdd, qddd], axis=-1))
    aq, ad, add = jac[..., :n], jac[..., n:2 * n], jac[..., 2 * n:]
    dt_ad, dt_add = dt_jac[..., n:2 * n], dt_jac[..., 2 * n:]
    r1 = add - _transpose(add)
    r2 = (aq - _transpose(aq)) - 0.5 * (dt_ad - _transpose(dt_ad))
    r3 = (ad + _transpose(ad)) - (dt_add + _transpose(dt_add))
    return r1, r2, r3


def _jet_jacobians(flat: Callable, z, zdot):
    """The Jacobian of ``flat`` at z and its total time derivative along
    zdot.  The Jacobian is order-4 differences, or the complex step when
    ``flat`` is complex-safe; its time derivative is the order-4 stencil
    along zdot applied to it (a complex step cannot be nested in
    another), with all stencil points of a stack in one call.  For
    unmarked callables the nested stencils leave a noise floor near
    1e-9."""
    jac = numkit.fd_jacobian4(flat, z)
    dt_jac = numkit.fd_directional4(lambda zz: numkit.fd_jacobian4(flat, zz), z, zdot)
    return jac, dt_jac


def chc_implicit(fiber: Callable, ode: ImplicitSOdE, q, qd, qdd=None):
    """Helmholtz residuals for an implicit force law phi(q, qd, qdd) = 0
    tested against a candidate velocity-space momentum map F(q, qd).

    The acceleration is solved from phi = 0 when not supplied, by
    ``ode.solve_last`` from 0, one point at a time.  The residuals
    vanish iff F fits the equation variationally; unlike the classical
    test this never needs the equation solved for qddot in closed form,
    only the acceleration Jacobian C, which must be regular
    (SingularJacobian otherwise).

    Points stacked on a leading axis (S, n) give stacks of the
    residuals.  F's Jacobian and its time derivative along (qd, qdd)
    come from ``_jet_jacobians``; phi's slot Jacobians and C come from
    ``ode.jacobians``.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    qd = np.atleast_1d(np.asarray(qd, dtype=float))
    n = q.shape[-1]
    if qdd is None:
        qdd = numkit.pointwise(lambda a, b: ode.solve_last(a, b, np.zeros(n)), (q, qd))
    qdd = np.atleast_1d(np.asarray(qdd, dtype=float))

    z = np.concatenate([q, qd], axis=-1)
    flat = numkit.complex_safe(lambda zz: fiber(zz[..., :n], zz[..., n:]), fiber)
    jac, dt_jac = _jet_jacobians(flat, z, np.concatenate([qd, qdd], axis=-1))
    fq, fd = jac[..., :n], jac[..., n:]
    dt_fq, dt_fd = dt_jac[..., :n], dt_jac[..., n:]

    jq, jd, cmat = ode.jacobians(q, qd, qdd)
    fd_cinv = _transpose(numkit.lu_solve(_transpose(cmat), _transpose(fd)))  # Fd @ C^{-1}

    r1 = fd - _transpose(fd)
    r2 = dt_fd + fq - _transpose(fq) - fd_cinv @ jd
    r3m = dt_fq - fd_cinv @ jq
    r3 = r3m - _transpose(r3m)
    return r1, r2, r3


def _transpose(m):
    """The transpose of a matrix, or of each matrix of a stack."""
    return np.swapaxes(m, -1, -2)


def functional_residual_1d(f: Callable, g: Callable, points, fx: Callable | None = None):
    """Residual of the one-dimensional compatibility equation

        g(y, f(x, y)) df/dx(x, y) + g(x, y) = 0

    at the given (x, y) points.  Returns (max_abs, residual array).
    ``fx`` may supply the analytic x-derivative; otherwise an order-4
    stencil is used, keeping the noise below 1e-11 for smooth f.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    res = np.fromiter((_functional_residual(f, g, x, y, fx) for x, y in points),
                      dtype=float, count=points.shape[0])
    return float(np.max(np.abs(res))), res


def _functional_residual(f: Callable, g: Callable, x, y, fx: Callable | None):
    if fx is not None:
        dfdx = float(fx(x, y))
    else:
        dfdx = float(
            numkit.fd_directional4(
                lambda z: np.array([f(z[0], z[1])]), np.array([x, y]),
                np.array([1.0, 0.0])
            )[0]
        )
    return g(y, f(x, y)) * dfdx + g(x, y)


# ---------------------------------------------------------------------------
# condition reports


@dataclass
class ConditionResult:
    name: str
    max_residual: float
    worst_point: list
    tol: float
    passed: bool

    def to_json_dict(self):
        return {
            "name": self.name,
            "max_residual": self.max_residual,
            "worst_point": list(self.worst_point),
            "tol": self.tol,
            "pass": self.passed,
        }


@dataclass
class ConditionReport:
    """Outcome of a sampled check: one entry per condition plus a
    combined verdict.  ``verdict`` is true only if every condition
    passed at its effective tolerance."""

    check: str
    system: str
    params: dict = field(default_factory=dict)
    conditions: list = field(default_factory=list)

    @property
    def verdict(self):
        return all(c.passed for c in self.conditions)

    def to_json_dict(self):
        return {
            "check": self.check,
            "system": self.system,
            "params": self.params,
            "conditions": [c.to_json_dict() for c in self.conditions],
            "verdict": "pass" if self.verdict else "fail",
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), indent=2)


def _sampled_check(check: str, names, residuals_at: Callable, points, tol: float,
                   system: str, params: dict | None) -> ConditionReport:
    """The one loop behind every sampled check.

    ``residuals_at(block)`` takes a block of at most SAMPLE_CHUNK sample
    points, in sample order, and returns one residual per name (an
    array stacked over the block's points, matrix or scalar per point)
    and the size of the data at each point, such as the largest
    Jacobian entry.  Each condition keeps its worst residual and the point
    where it occurred (a tie goes to the later point).  The effective
    tolerance is tol * max(1, s) with s the largest size over all
    points: residuals of well-scaled data are compared as-is, steep
    Jacobians widen the band proportionally.  A non-finite residual or
    size raises EvaluationError naming the check, the condition and the
    point, since it could neither pass nor fail.  The first bad point
    in sample order decides the error, as in a point-by-point loop: a
    block whose evaluation raises is evaluated again one point at a
    time, and a NumericsError of one point's evaluation gets the check
    and the point added to its message; any other exception, such as a
    bug in a user callable, surfaces as itself.
    """
    if len(points) == 0 or np.size(points[0]) == 0:  # atleast_2d([]) is one empty point
        raise DomainError(f"{check} needs at least one sample point")
    worst = [0.0] * len(names)
    worst_point = [points[0]] * len(names)
    scale = 1.0
    for block, (residuals, sizes) in _blocks(check, residuals_at, points):
        count = len(block)
        sizes = np.asarray(sizes, dtype=float)
        mags = np.array([np.abs(np.reshape(r, (count, -1))).max(axis=1)
                         for r in residuals])
        finite = (sizes < np.inf) & (mags < np.inf).all(axis=0)  # NaN fails too
        if not finite.all():
            i = int(np.argmin(finite))
            _require_finite(check, "data size", sizes[i], block[i])
            for name, mag in zip(names, mags[:, i]):
                _require_finite(check, name, mag, block[i])
        scale = max(scale, float(sizes.max()))
        for k, row in enumerate(mags):
            i = count - 1 - int(np.argmax(row[::-1]))  # the later point of a tie
            if row[i] >= worst[k]:
                worst[k] = float(row[i])
                worst_point[k] = block[i]
    eff = tol * max(1.0, scale)
    report = ConditionReport(check=check, system=system, params=params or {})
    report.conditions = [
        ConditionResult(name=name, max_residual=mag, worst_point=_coords(z),
                        tol=eff, passed=mag <= eff)
        for name, mag, z in zip(names, worst, worst_point)
    ]
    return report


def _blocks(check: str, residuals_at: Callable, points):
    """(block, residuals_at(block)) over ``points`` in blocks of at most
    SAMPLE_CHUNK; a block that raises is redone in blocks of one, so the
    first point that raises, or that has a non-finite residual, in
    sample order decides the error.  A NumericsError raised at one
    point names the check and the point."""
    for start in range(0, len(points), SAMPLE_CHUNK):
        block = points[start:start + SAMPLE_CHUNK]
        if len(block) > 1:
            try:
                result = residuals_at(block)
            except Exception:
                pass
            else:
                yield block, result
                continue
        for i in range(len(block)):
            try:
                result = residuals_at(block[i:i + 1])
            except NumericsError as exc:
                exc.args = (f"{check} at point {_coords(block[i])}: {exc}",)
                raise
            yield block[i:i + 1], result


def _require_finite(check, condition, value, z):
    if not value < np.inf:  # NaN fails the comparison too
        raise EvaluationError(f"{check}: non-finite {condition} at point {_coords(z)}")


def _coords(z):
    """A sample point as the list of floats reports and errors show."""
    return [float(v) for v in np.atleast_1d(z)]


def check_dhc_explicit(fiber: FiberMap, eq: ExplicitSOdE, samples,
                       tol: float = 1e-6, system: str = "", params: dict | None = None):
    """Sampled discrete Helmholtz verdict for an explicit recurrence.

    ``samples`` holds stacked pair points of length 2n.  The verdict is
    existence of obstructions on the sampled set only; passing means no
    obstruction was found at these points.
    """
    n = fiber.dim
    return _sampled_check(
        "dhc-explicit", ("dHC1", "dHC2", "dHC3"),
        lambda block: _dhc_explicit(fiber, eq, block[:, :n], block[:, n:]),
        np.atleast_2d(np.asarray(samples, dtype=float)), tol, system, params)


def check_dhc_implicit(fiber: FiberMap, eq: ImplicitSOdE, samples,
                       tol: float = 1e-6, system: str = "", params: dict | None = None):
    """Sampled implicit discrete Helmholtz verdict; samples are pair
    points, the third triple member is solved from phi = 0, one point
    at a time."""
    n = fiber.dim

    def residuals_at(block):
        q0, q1 = block[:, :n], block[:, n:]
        q2 = numkit.pointwise(lambda a, b: implicit_step(eq, a, b), (q0, q1))
        return _dhc_implicit(fiber, eq, q0, q1, q2)

    return _sampled_check(
        "dhc-implicit", ("dHC1", "dHC2", "dHC3"), residuals_at,
        np.atleast_2d(np.asarray(samples, dtype=float)), tol, system, params)


def check_isotropy(embedding: Callable, samples, tol: float = 1e-6,
                   system: str = "", params: dict | None = None,
                   ambient=None, lagrangian_dim: int | None = None):
    """Sampled isotropy verdict for an embedding of chart points.

    With ``lagrangian_dim`` (the ambient half-dimension) the report
    gains a dimension-count condition, upgrading isotropic to
    Lagrangian when the chart dimension matches.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))

    def residuals_at(block):
        jac, pulled = _pullback(embedding, block, ambient)
        return (pulled,), [_squared(v) for v in np.abs(jac).max(axis=(1, 2)).tolist()]

    report = _sampled_check("isotropy", ("isotropy",), residuals_at, samples,
                            tol, system, params)
    if lagrangian_dim is not None:
        m = samples.shape[1]
        gap = float(abs(m - lagrangian_dim))
        report.conditions.append(ConditionResult(
            name="lagrangian-dimension", max_residual=gap,
            worst_point=[float(m)], tol=0.5, passed=gap < 0.5,
        ))
    return report


def _squared(v):
    """The float ``v`` squared as libm's pow() rounds it (Python's ``**``),
    and inf where that overflows, which Python raises instead."""
    try:
        return v ** 2
    except OverflowError:
        return np.inf


def check_chc(phi: Callable, jets, tol: float = 1e-6,
              system: str = "", params: dict | None = None):
    """Classical Helmholtz verdict along a list of jets; the worst point
    of a condition is its jet flattened to (q, qd, qdd, qddd)."""
    flat_jets = np.array([
        np.concatenate([np.atleast_1d(np.asarray(p, dtype=float)) for p in jet])
        for jet in jets])
    return _sampled_check(
        "chc", ("cHC1", "cHC2", "cHC3"),
        lambda block: (chc_classical(phi, np.split(block, 4, axis=-1)), np.ones(len(block))),
        flat_jets, tol, system, params)


def check_ihc(fiber: Callable, ode: ImplicitSOdE, points, tol: float = 1e-6,
              system: str = "", params: dict | None = None):
    """Implicit continuous Helmholtz verdict at stacked (q, qd) points."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[1] // 2
    return _sampled_check(
        "ihc", ("IHC1", "IHC2", "IHC3"),
        lambda block: (chc_implicit(fiber, ode, block[:, :n], block[:, n:]),
                       np.ones(len(block))),
        points, tol, system, params)


def check_functional(f: Callable, g: Callable, points, tol: float = 1e-10,
                     system: str = "", params: dict | None = None,
                     fx: Callable | None = None):
    """Verdict for a candidate solution pair of the one-dimensional
    compatibility equation."""
    return _sampled_check(
        "functional", ("functional",),
        lambda block: ((functional_residual_1d(f, g, block, fx)[1],), np.ones(len(block))),
        np.asarray(points, dtype=float).reshape(-1, 2), tol, system, params)


def check_two_form(omega: TwoFormField, samples, flow: Callable | None = None,
                   n_vertical: int | None = None, kernel: str = "second",
                   tol: float = 1e-6, system: str = "", params: dict | None = None):
    """Sampled two-form diagnostics.

    Closure, vertical-kernel and discrete-Lie are pass/fail conditions,
    with the tolerance widened in proportion to the largest form entry
    seen; the determinant and flat-map singular value are reported raw
    in params (min over samples) since their thresholds are the
    caller's call.
    """
    names = ("closure", "vertical") + (("lie",) if flow is not None else ())
    minima = {"abs_det": np.inf, "flat_sigma": np.inf}

    def residuals_at(block):
        out = two_form_checks(omega, block, flow=flow, n_vertical=n_vertical,
                              kernel=kernel)
        for key in minima:
            minima[key] = min(minima[key], float(out[key].min()))
        return [out[name] for name in names], out["magnitude"]

    report = _sampled_check("two-form", names, residuals_at,
                            np.atleast_2d(np.asarray(samples, dtype=float)),
                            tol, system, params)
    report.params = dict(params or {}, min_abs_det=float(minima["abs_det"]),
                         min_flat_sigma=float(minima["flat_sigma"]))
    return report
