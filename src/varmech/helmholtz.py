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
``check_functional``) each supply a residual function to one sample
loop, ``_sampled_check``, which walks the samples in blocks of at most
SAMPLE_CHUNK points, keeps the worst residual and point per condition
and applies the scaled tolerance.  Isotropy, dhc-explicit,
dhc-implicit, ihc and two-form evaluate a whole block at once when
their callables are complex-safe: embeddings, slot maps, implicit
equations and two-form fields built from them compute over a leading
axis, so one call covers every complex-step point of the block.  Only
Newton solves stay per point: the third member of dhc-implicit's
triples and ihc's accelerations.  Two-form takes blocks in any case,
evaluating and differentiating an unmarked field one point at a time
inside them; the other checks on unmarked callables, chc and
functional run a per-point function on each point of a block.

All residuals here are exact zeros for variational data, so any value
above the derivatives' noise floor is meaningful.  The first
derivatives of embeddings, fiber maps, implicit equations and two-form
fields built from callables marked by ``numkit.complex_safe`` (as every
catalogue fiber map and recurrence is) come from the complex step and
are exact to rounding, so their residuals sit at rounding level (about
1e-15 relative).  ihc's time derivative of the momentum Jacobian is
the order-4 stencil applied to the complex-step Jacobian, since one
complex step cannot be nested in another.  Unmarked callables and the
nested differences of chc keep the difference stencils, whose floor
is about 1e-10.  Every function is pure, so evaluating a block at once
gives the residuals of evaluating its points one by one.
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
    makes the map, and the embeddings built from it, complex-safe; such
    a ``func`` also takes points stacked on leading axes.
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
        axes, checked for shape; the points and the value keep their
        dtype, so complex points pass through."""
        q0 = np.asarray(q0)
        q1 = np.asarray(q1)
        p = np.asarray(self.func(q0, q1))
        expected = numkit.lead_shape(q0, q1) + (self.dim,)
        if p.shape != expected:
            raise DomainError(f"fiber map returned shape {p.shape}, expected {expected}")
        return p

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
    (q0, q1); stacked pairs (S, n), which need a complex-safe fiber map
    and recurrence, give stacks of both."""
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
    triples (S, n), which need a complex-safe fiber map and phi, give
    stacks of both."""
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
    map and a recurrence; input is stacked z = (q0, q1) of length 2n.
    It is complex-safe when both ``func`` and ``gamma`` are, and then
    takes points stacked on leading axes too."""
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
    A ``coeff`` marked by ``numkit.complex_safe`` also takes points
    stacked on leading axes, so ``check_two_form`` differentiates it at
    a whole block of samples in one call."""

    dim: int
    coeff: Callable

    def __call__(self, z):
        """``coeff``'s matrix at z, one per point of the leading axes,
        checked for shape; the point and the value keep their dtype, so
        complex points pass through.  An unmarked ``coeff`` is called
        once per point of a stack."""
        z = np.asarray(z)
        if z.ndim > 1 and not numkit.is_complex_safe(self.coeff):
            return np.stack([self(p) for p in z])
        w = np.asarray(self.coeff(z))
        expected = z.shape[:-1] + (self.dim, self.dim)
        if w.shape != expected:
            raise DomainError(f"coefficient field returned shape {w.shape}, "
                              f"expected {expected}")
        return w

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
    and differentiated one point at a time, complex-safe ones at all
    points at once.  Returns a dict with:
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
        image = (flow(z) if not lead or numkit.is_complex_safe(flow)
                 else np.stack([flow(p) for p in z]))
        pulled = _transpose(jac) @ omega(np.asarray(image, dtype=float)) @ jac
        out["lie"] = np.abs(pulled - w).max(axis=(-2, -1))
    if not lead:
        out = {key: float(value) for key, value in out.items()}
    return out


# ---------------------------------------------------------------------------
# continuous Helmholtz conditions


@dataclass
class ImplicitODE:
    """Continuous implicit second-order equation phi(q, qdot, qddot) = 0
    with optional analytic acceleration Jacobian ``c``.  A ``phi`` (and
    ``c``) marked by ``numkit.complex_safe`` also takes points stacked
    on leading axes, and ``check_ihc`` then evaluates a block of samples
    at once."""

    dim: int
    phi: Callable
    c: Callable | None = None

    def __call__(self, q, qd, qdd):
        """``phi`` at (q, qd, qdd), one value per point of the leading
        axes, checked for shape; the points and the value keep their
        dtype, so complex points pass through."""
        q = np.asarray(q)
        qd = np.asarray(qd)
        qdd = np.asarray(qdd)
        val = np.asarray(self.phi(q, qd, qdd))
        expected = numkit.lead_shape(q, qd, qdd) + (self.dim,)
        if val.shape != expected:
            raise DomainError(f"phi returned shape {val.shape}, expected {expected}")
        return val

    def C(self, q, qd, qdd):
        """Jacobian of phi in the acceleration slot: the analytic ``c``
        when given, else order-4 differences at one point."""
        if self.c is not None:
            return np.asarray(self.c(q, qd, qdd), dtype=float)
        return numkit.fd_jacobian4(lambda a: self(q, qd, a), np.asarray(qdd, dtype=float))

    def solve_acceleration(self, q, qd):
        """The acceleration solving phi(q, qd, .) = 0, by Newton from 0."""
        q = np.asarray(q, dtype=float)
        qd = np.asarray(qd, dtype=float)
        return numkit.newton_solve(lambda a: self(q, qd, a), np.zeros(self.dim),
                                   jacobian=lambda a: self.C(q, qd, a))


def chc_classical(phi: Callable, jet):
    """Classical Helmholtz residuals of a force expression phi(q, qd, qdd)
    along a jet (q, qd, qdd, qddd).

    The three residual matrices (acceleration symmetry, position block,
    velocity block) vanish identically iff phi is the Euler-Lagrange
    expression of some regular Lagrangian.  Total time derivatives are
    expanded along the supplied jet, including the third-derivative
    component, with nested order-4 stencils so the noise floor stays
    near 1e-9.
    """
    q, qd, qdd, qddd = (np.atleast_1d(np.asarray(p, dtype=float)) for p in jet)
    n = q.size
    z = np.concatenate([q, qd, qdd])
    zdot = np.concatenate([qd, qdd, qddd])
    flat = lambda zz: np.asarray(phi(zz[:n], zz[n : 2 * n], zz[2 * n :]), dtype=float)
    jac = numkit.fd_jacobian4(flat, z)
    aq, ad, add = jac[:, :n], jac[:, n : 2 * n], jac[:, 2 * n :]
    dt_jac = numkit.fd_directional4(lambda zz: numkit.fd_jacobian4(flat, zz), z, zdot)
    dt_ad, dt_add = dt_jac[:, n : 2 * n], dt_jac[:, 2 * n :]
    r1 = add - add.T
    r2 = (aq - aq.T) - 0.5 * (dt_ad - dt_ad.T)
    r3 = (ad + ad.T) - (dt_add + dt_add.T)
    return r1, r2, r3


def chc_implicit(fiber: Callable, ode: ImplicitODE, q, qd, qdd=None):
    """Helmholtz residuals for an implicit equation tested against a
    candidate velocity-space momentum map F(q, qd).

    The acceleration is solved from phi = 0 when not supplied.  The
    residuals vanish iff F fits the equation variationally; unlike the
    classical test this never needs the equation solved for qddot in
    closed form, only the acceleration Jacobian C, which must be
    regular (SingularJacobian otherwise).

    Points stacked on a leading axis (S, n), which need a complex-safe
    ``fiber``, ``phi`` and ``c`` (when given), give stacks of the
    residuals; their accelerations are still solved one point at a
    time.  The first derivatives of F and phi are then complex steps,
    and the time derivative of F's Jacobian is the order-4 stencil
    along (qd, qdd) applied to the complex-step Jacobian (a complex
    step cannot be nested in another), at all stencil points at once.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    qd = np.atleast_1d(np.asarray(qd, dtype=float))
    n = q.shape[-1]
    if qdd is None:
        qdd = (ode.solve_acceleration(q, qd) if q.ndim == 1 else
               np.stack([ode.solve_acceleration(a, b) for a, b in zip(q, qd)]))
    qdd = np.atleast_1d(np.asarray(qdd, dtype=float))

    z = np.concatenate([q, qd], axis=-1)
    zdot = np.concatenate([qd, qdd], axis=-1)
    flat = numkit.complex_safe(lambda zz: fiber(zz[..., :n], zz[..., n:]), fiber)
    jac = numkit.fd_jacobian4(flat, z)
    fq, fd = jac[..., :n], jac[..., n:]
    dt_jac = numkit.fd_directional4(lambda zz: numkit.fd_jacobian4(flat, zz), z, zdot)
    dt_fq, dt_fd = dt_jac[..., :n], dt_jac[..., n:]

    # phi's Jacobian in all three slots; its last block is C unless c is given
    jphi = numkit.fd_jacobian4(numkit.complex_safe(
        lambda zz: ode(zz[..., :n], zz[..., n:2 * n], zz[..., 2 * n:]), ode.phi),
        np.concatenate([z, qdd], axis=-1))
    jq, jd = jphi[..., :n], jphi[..., n:2 * n]
    cmat = jphi[..., 2 * n:] if ode.c is None else ode.C(q, qd, qdd)
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
    Jacobian entry; ``_per_point`` lifts a function of one point to
    this form.  Each condition keeps its worst residual and the point
    where it occurred (a tie goes to the later point).  The effective
    tolerance is tol * max(1, s) with s the largest size over all
    points: residuals of well-scaled data are compared as-is, steep
    Jacobians widen the band proportionally.  A non-finite residual or
    size raises EvaluationError naming the check, the condition and the
    point, since it could neither pass nor fail.  The first bad point
    in sample order decides the error, as in a point-by-point loop: a
    block whose evaluation raises is evaluated again one point at a
    time, and a NumericsError of one point's evaluation gets the check
    and the point added to its message.
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


def _per_point(residuals_at: Callable) -> Callable:
    """Lift ``residuals_at(z) -> (residuals, size)`` at one point to the
    block form ``_sampled_check`` takes, calling it on each point of a
    block in order."""

    def at_block(block):
        residuals, sizes = zip(*(residuals_at(z) for z in block))
        return list(zip(*residuals)), sizes

    return at_block


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
    if numkit.is_complex_safe(fiber.func, eq.gamma):
        residuals_at = lambda block: _dhc_explicit(fiber, eq, block[:, :n], block[:, n:])
    else:  # callables without the mark take one point at a time
        residuals_at = _per_point(lambda z: _dhc_explicit(fiber, eq, z[:n], z[n:]))
    return _sampled_check(
        "dhc-explicit", ("dHC1", "dHC2", "dHC3"), residuals_at,
        np.atleast_2d(np.asarray(samples, dtype=float)), tol, system, params)


def check_dhc_implicit(fiber: FiberMap, eq: ImplicitSOdE, samples,
                       tol: float = 1e-6, system: str = "", params: dict | None = None):
    """Sampled implicit discrete Helmholtz verdict; samples are pair
    points, the third triple member is solved from phi = 0, one point
    at a time.  With a complex-safe fiber map and phi the rest of a
    block is evaluated at once."""
    n = fiber.dim

    def residuals_at(block):
        q0, q1 = block[:, :n], block[:, n:]
        q2 = np.stack([implicit_step(eq, a, b) for a, b in zip(q0, q1)])
        return _dhc_implicit(fiber, eq, q0, q1, q2)

    if not numkit.is_complex_safe(fiber.func, eq.phi):
        residuals_at = _per_point(lambda z: _dhc_implicit(
            fiber, eq, z[:n], z[n:], implicit_step(eq, z[:n], z[n:])))
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
    flat_jets = [np.concatenate([np.atleast_1d(np.asarray(p, dtype=float)) for p in jet])
                 for jet in jets]
    return _sampled_check(
        "chc", ("cHC1", "cHC2", "cHC3"),
        _per_point(lambda z: (chc_classical(phi, np.split(z, 4)), 1.0)),
        flat_jets, tol, system, params)


def check_ihc(fiber: Callable, ode: ImplicitODE, points, tol: float = 1e-6,
              system: str = "", params: dict | None = None):
    """Implicit continuous Helmholtz verdict at stacked (q, qd) points.
    With a complex-safe ``fiber``, ``phi`` and ``c`` (when given), a
    block of points is evaluated at once, bar the accelerations."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[1] // 2
    if numkit.is_complex_safe(fiber, ode.phi) and (ode.c is None
                                                   or numkit.is_complex_safe(ode.c)):
        residuals_at = lambda block: (chc_implicit(fiber, ode, block[:, :n], block[:, n:]),
                                      np.ones(len(block)))
    else:
        residuals_at = _per_point(lambda z: (chc_implicit(fiber, ode, z[:n], z[n:]), 1.0))
    return _sampled_check("ihc", ("IHC1", "IHC2", "IHC3"), residuals_at, points, tol,
                          system, params)


def check_functional(f: Callable, g: Callable, points, tol: float = 1e-10,
                     system: str = "", params: dict | None = None,
                     fx: Callable | None = None):
    """Verdict for a candidate solution pair of the one-dimensional
    compatibility equation."""
    return _sampled_check(
        "functional", ("functional",),
        _per_point(lambda z: ((_functional_residual(f, g, z[0], z[1], fx),), 1.0)),
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
