"""Structural properties that should hold across the whole catalogue.

Each test sweeps several built-in systems: rescaled Lagrangians keep
their solutions, the two Legendre transforms commute with the step, the
induced phase-space map is symplectic, the explicit and implicit
Helmholtz tests agree wherever both apply, and the isotropy verdict
does not depend on which momentum convention builds the embedding.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from varmech import helmholtz as hz
from varmech import numkit
from varmech.lagrangian import (del_residual, del_step, hamiltonian_map,
                                lagrangian_two_form, legendre_minus,
                                legendre_plus)
from varmech.nonholonomic import rule_from_spec
from varmech.sode import explicit_to_implicit
from varmech.systems import extended_disk, make_system

VARIATIONAL = ["toy-free-particle", "harmonic-exact", "backward-error"]
WITH_DISK = VARIATIONAL + ["extended-disk"]


def catalogue_lagrangian(name):
    if name == "extended-disk":
        return extended_disk()
    return make_system(name).lagrangian


def seeded_pairs(dim, count, seed, spread=0.4):
    rng = np.random.default_rng(seed)
    return rng.uniform(-spread, spread, (count, 2, dim))


# ---------------------------------------------------------------------------
# rescaling by a constant (h^2 in particular) changes nothing observable


@pytest.mark.parametrize("name", WITH_DISK)
def test_rescaled_lagrangian_keeps_solutions(name):
    lag = catalogue_lagrangian(name)
    scaled = lag.scaled(lag.h ** 2)
    for q0, q1 in seeded_pairs(lag.dim, 5, seed=11):
        q2 = del_step(lag, q0, q1)
        assert_allclose(del_step(scaled, q0, q1), q2, atol=1e-9)
        assert np.max(np.abs(del_residual(scaled, q0, q1, q2))) < 1e-9
        w = lagrangian_two_form(lag, q0, q1)
        ws = lagrangian_two_form(scaled, q0, q1)
        assert_allclose(ws, lag.h ** 2 * w, atol=1e-6)


# ---------------------------------------------------------------------------
# the two Legendre transforms agree across one step of the recurrence


@pytest.mark.parametrize("name", WITH_DISK)
def test_legendre_transforms_commute_with_the_step(name):
    lag = catalogue_lagrangian(name)
    for q0, q1 in seeded_pairs(lag.dim, 5, seed=21):
        q2 = del_step(lag, q0, q1)
        base_plus, mom_plus = legendre_plus(lag, q0, q1)
        base_minus, mom_minus = legendre_minus(lag, q1, q2)
        assert_allclose(base_plus, base_minus, atol=0)
        assert_allclose(mom_plus, mom_minus, atol=1e-9)
        # stepping in momentum variables reproduces the pair picture
        p0 = legendre_minus(lag, q0, q1)[1]
        q1_again, p1 = hamiltonian_map(lag, q0, p0)
        assert_allclose(q1_again, q1, atol=1e-9)
        assert_allclose(p1, mom_plus, atol=1e-9)


# ---------------------------------------------------------------------------
# the induced phase-space map preserves the canonical two-form


@pytest.mark.parametrize("name", WITH_DISK)
def test_phase_space_map_is_symplectic(name):
    lag = catalogue_lagrangian(name)
    n = lag.dim
    s = hz.canonical_omega_matrix(n)
    def phase(z):
        q1, p1 = hamiltonian_map(lag, z[:n], z[n:], tol=1e-13)
        return np.concatenate([q1, p1])

    rng = np.random.default_rng(31)
    for _ in range(4):
        q0 = rng.uniform(-0.4, 0.4, n)
        q1 = rng.uniform(-0.4, 0.4, n)
        z = np.concatenate([q0, -lag.D1(q0, q1)])
        jac = numkit.fd_jacobian4(phase, z)
        scale = max(1.0, float(np.max(np.abs(jac))) ** 2)
        assert np.max(np.abs(jac.T @ s @ jac - s)) < 1e-6 * scale


# ---------------------------------------------------------------------------
# explicit and implicit Helmholtz residuals agree where both apply


@pytest.mark.parametrize("name", VARIATIONAL)
def test_helmholtz_forms_agree(name):
    system = make_system(name)
    ieq = explicit_to_implicit(system.recurrence)
    for q0, q1 in seeded_pairs(system.dim, 5, seed=41):
        q2 = system.recurrence(q0, q1)
        explicit = hz.dhc_explicit(system.fiber, system.recurrence, q0, q1)
        implicit = hz.dhc_implicit(system.fiber, ieq, q0, q1, q2)
        for a, b in zip(explicit, implicit):
            assert np.max(np.abs(np.asarray(a) - np.asarray(b))) < 1e-6
    samples = hz.sample_box(2 * system.dim, 8, seed=42)
    explicit_report = hz.check_dhc_explicit(system.fiber, system.recurrence,
                                            samples, tol=1e-6)
    implicit_report = hz.check_dhc_implicit(system.fiber, ieq, samples,
                                            tol=1e-6)
    assert explicit_report.verdict and implicit_report.verdict


# ---------------------------------------------------------------------------
# isotropy does not depend on the momentum convention


@pytest.mark.parametrize("name", VARIATIONAL)
def test_isotropy_agrees_between_momentum_conventions(name):
    system = make_system(name)
    samples = hz.sample_box(2 * system.dim, 8, seed=51, box=0.5)
    probe = (samples[0][: system.dim], samples[0][system.dim:])
    plus = hz.plus_from_minus(system.fiber, system.recurrence, probe=probe)
    minus_report = hz.check_isotropy(
        hz.gamma_embedding(system.fiber, system.recurrence), samples, tol=1e-6)
    plus_report = hz.check_isotropy(
        hz.gamma_embedding(plus, system.recurrence), samples, tol=1e-6)
    assert minus_report.verdict and plus_report.verdict


def test_isotropy_equivalence_holds_on_disk_failures_too():
    disk = make_system("rolling-disk")
    samples = disk.chart_samples(8, seed=52)
    cases = [("doubled-rate", "midpoint", True),
             ("doubled-rate", "euler-a", False),
             ("turn-ratio", "midpoint", False)]
    for fiber_name, rule_name, expected in cases:
        rule = rule_from_spec(rule_name)
        embed = disk.chart_embedding(disk.fibers[fiber_name], rule)
        advance_pair = disk.reduced_recurrence(rule)

        def advance(z, rule=rule, advance_pair=advance_pair):
            q0, q1 = disk.complete_pair(rule, q0=z[:4], theta1=z[4],
                                        phi1=z[5])
            q2 = advance_pair(q0, q1)
            return np.concatenate([q1, q2[:2]])

        def embed_advanced(z, embed=embed, advance=advance):
            return embed(advance(z))

        minus_report = hz.check_isotropy(embed, samples, tol=1e-6)
        advanced_report = hz.check_isotropy(embed_advanced, samples, tol=1e-6)
        assert minus_report.verdict == expected
        assert advanced_report.verdict == minus_report.verdict
