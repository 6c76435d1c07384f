"""Acceptance sweep: the headline behaviors at their stated tolerances.

One test per criterion; each prints a one-line summary with the
measured extremes (visible with pytest -s, and the pytest verdict line
itself records pass/fail per criterion).
"""

import math
import time

import numpy as np

from varmech import bridge, invariants, numkit
from varmech import helmholtz as hz
from varmech.lagrangian import (del_residual, del_step, hamiltonian_map,
                                legendre_minus, legendre_plus)
from varmech.lagrangian import simulate as del_simulate
from varmech.nonholonomic import dla_simulate, rule_from_spec
from varmech.sode import explicit_to_implicit
from varmech.systems import (exact_oscillator, extended_disk,
                             functional_catalog, implicit_exp, make_system)

_T0 = time.perf_counter()


def report(line):
    print(line)


def test_criterion_1_toy_affine_del_and_explicit_helmholtz():
    start = time.perf_counter()
    toy = make_system("toy-free-particle")
    q0, q1 = toy.initial
    pts, _ = del_simulate(toy.lagrangian, q0, q1, 1000)
    affine = q0 + np.arange(1002)[:, None] * (q1 - q0)
    worst_affine = float(np.max(np.abs(pts - affine)))
    worst_del = max(
        float(np.max(np.abs(del_residual(toy.lagrangian, pts[k], pts[k + 1],
                                         pts[k + 2]))))
        for k in range(1000))
    samples = hz.sample_box(4, 64, box=1.0, seed=0)
    rep = hz.check_dhc_explicit(toy.fiber, toy.recurrence, samples, tol=1e-8)
    worst_dhc = max(c.max_residual for c in rep.conditions)
    elapsed = time.perf_counter() - start
    assert worst_affine < 1e-10
    assert worst_del < 1e-10
    assert rep.verdict and worst_dhc < 1e-8
    assert elapsed < 1.0
    report(f"criterion 1 toy particle: PASS (affine {worst_affine:.1e}, "
           f"DEL {worst_del:.1e}, dHC {worst_dhc:.1e}, {elapsed:.2f} s)")


def test_criterion_2_harmonic_exactness_and_recursion_operator():
    h = 0.1
    osc = exact_oscillator(h)

    sode = bridge.exp_map_discretize(bridge.continuous_oscillator(), h)
    rng = np.random.default_rng(5)
    worst_flow = 0.0
    for _ in range(16):
        x0, x1 = rng.uniform(-1.0, 1.0, 2)
        got = float(sode(np.array([x0]), np.array([x1]))[0])
        worst_flow = max(worst_flow, abs(got - (2.0 * math.cos(h) * x1 - x0)))
    assert worst_flow < 1e-8

    points, _ = del_simulate(osc.lagrangian, *osc.initial, 10_000)
    x = points[:, 0]
    quad = x[:-1] ** 2 - 2.0 * math.cos(h) * x[:-1] * x[1:] + x[1:] ** 2
    drift_quad = float(np.ptp(quad) / abs(np.mean(quad)))
    assert drift_quad < 1e-10

    quarter = exact_oscillator(math.pi / 2)
    op_quarter = invariants.recursion_operator(quarter.two_form(),
                                               quarter.alternate_two_form())
    gap_identity = float(np.max(np.abs(
        op_quarter(np.array([0.0, 1.0])) - 4.0 * np.eye(2))))
    assert gap_identity < 1e-9

    op = invariants.recursion_operator(osc.two_form(),
                                       osc.alternate_two_form())
    rows = invariants.pair_operator_on_orbit(op, osc.recurrence,
                                             *osc.initial, 1000, max_power=2)
    drift_traces = float(max(np.ptp(rows[:, 0]), np.ptp(rows[:, 1])))
    assert drift_traces < 1e-8
    report(f"criterion 2 harmonic: PASS (flow {worst_flow:.1e}, invariant "
           f"{drift_quad:.1e}, operator {gap_identity:.1e}, traces "
           f"{drift_traces:.1e})")


def test_criterion_3_disk_energy_constancy_profile():
    start = time.perf_counter()
    disk = make_system("rolling-disk")
    steps = 10_000

    def relative_ranges(spec):
        rule = rule_from_spec(spec)
        q0, q1 = disk.initial_pair(rule)
        _, series, _ = dla_simulate(disk.system, rule, q0, q1, steps,
                                    energies=disk.energies)
        return {name: float(np.ptp(vals) / abs(np.mean(vals)))
                for name, vals in series.items()}

    worst_alpha = 0.0
    for a in (0.0, 0.25, 0.5, 0.75, 1.0):
        worst_alpha = max(worst_alpha,
                          max(relative_ranges(f"alpha:{a}").values()))
    assert worst_alpha < 1e-8

    euler = {spec: max(relative_ranges(spec).values())
             for spec in ("euler-a", "euler-b")}
    assert euler["euler-a"] > 1e-4
    assert euler["euler-b"] > 1e-4

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(f"criterion 3 disk energies: PASS (alpha flat {worst_alpha:.1e}, "
           f"euler ranges {euler['euler-a']:.1e}/{euler['euler-b']:.1e}, "
           f"{elapsed:.1f} s)")


def test_criterion_4_isotropy_verdict_quintet():
    disk = make_system("rolling-disk")
    samples = disk.chart_samples(32, seed=0)
    cases = [("doubled-rate", "midpoint", True),
             ("doubled-increment", "midpoint", True),
             ("doubled-rate", "alpha:0.3", True),
             ("doubled-rate", "alpha:0.85", True),
             ("doubled-rate", "euler-a", False),
             ("turn-ratio", "midpoint", False)]
    summary = []
    for fiber_name, rule_spec, expected in cases:
        embedding = disk.chart_embedding(disk.fibers[fiber_name],
                                         rule_from_spec(rule_spec))
        rep = hz.check_isotropy(embedding, samples, tol=1e-6)
        assert rep.verdict == expected, (fiber_name, rule_spec)
        summary.append(f"{fiber_name}/{rule_spec}:"
                       f"{'pass' if rep.verdict else 'fail'}")
    report("criterion 4 isotropy verdicts: PASS (" + ", ".join(summary) + ")")


def test_criterion_5_extended_lagrangian_on_constraint_triples():
    h = 0.05
    ext = extended_disk(h)
    rng = np.random.default_rng(9)
    worst_xy = worst_theta = worst_phi = 0.0
    for _ in range(40):
        thetas = np.cumsum(np.concatenate([[rng.uniform(-1, 1)],
                                           rng.uniform(0.05, 0.6, 2)]))
        phis = np.cumsum(np.concatenate([[rng.uniform(-1, 1)],
                                         rng.uniform(0.05, 0.6, 2)]))
        xs, ys = [rng.uniform(-1, 1)], [rng.uniform(-1, 1)]
        for k in range(2):
            mu = 0.5 * (phis[k] + phis[k + 1])
            xs.append(xs[-1] + (thetas[k + 1] - thetas[k]) * math.cos(mu))
            ys.append(ys[-1] + (thetas[k + 1] - thetas[k]) * math.sin(mu))
        triple = [np.array([thetas[k], phis[k], xs[k], ys[k]])
                  for k in range(3)]
        r = del_residual(ext, *triple)
        worst_xy = max(worst_xy, float(np.max(np.abs(r[2:]))))
        worst_theta = max(worst_theta, abs(
            r[0] + (2.0 / h) * (thetas[2] - 2 * thetas[1] + thetas[0])))
        worst_phi = max(worst_phi, abs(
            r[1] + (1.0 / h) * (phis[2] - 2 * phis[1] + phis[0])))
    assert worst_xy < 1e-8
    assert worst_theta < 1e-8
    assert worst_phi < 1e-8
    report(f"criterion 5 extended Lagrangian: PASS (xy {worst_xy:.1e}, "
           f"theta {worst_theta:.1e}, phi {worst_phi:.1e})")


def test_criterion_6_backward_error_order_study():
    slopes = {}
    worst_recurrence = 0.0
    for gauge in (0.0, 1.0):
        _, _, slope = bridge.order_study_backward(gauge=gauge)
        assert 2.8 <= slope <= 3.2
        slopes[gauge] = slope
        system = make_system("backward-error", gauge=gauge)
        rng = np.random.default_rng(8)
        for _ in range(8):
            a, b = rng.uniform(-1.0, 1.0, (2, 1))
            q2 = del_step(system.lagrangian, a, b)
            expected = (2.0 - system.h ** 2) * b - a
            worst_recurrence = max(worst_recurrence,
                                   float(np.max(np.abs(q2 - expected))))
    assert worst_recurrence < 1e-10
    case = bridge.backward_error_objects(h=0.1, gauge=0.0)
    x1, p1 = case.phase_step(1.0, 0.0)
    assert x1 == 0.99 and p1 == -0.1
    report(f"criterion 6 backward error: PASS (slopes {slopes[0.0]:.3f}/"
           f"{slopes[1.0]:.3f}, recurrence {worst_recurrence:.1e}, "
           f"phase step exact)")


def test_criterion_7_implicit_force_variationality():
    case = implicit_exp()
    probes = case.probes(32, seed=0)
    rep = hz.check_ihc(case.momentum, case.ode, probes, tol=1e-7)
    worst_ihc = max(c.max_residual for c in rep.conditions)
    assert rep.verdict and worst_ihc < 1e-7

    classical = hz.check_chc(case.force, case.jets, tol=1e-7)
    assert not classical.verdict
    worst_gap = 0.0
    for jet in case.jets:
        _, _, r3 = hz.chc_classical(case.force, jet)
        worst_gap = max(worst_gap, abs(
            float(np.max(np.abs(r3))) - case.worst_residual_reference(jet)))
    assert worst_gap < 1e-8
    report(f"criterion 7 implicit force law: PASS (ihc {worst_ihc:.1e}, "
           f"classical gap {worst_gap:.1e})")


def test_criterion_8_functional_pairs():
    pairs = functional_catalog()
    assert len(pairs) == 5
    worst_all = 0.0
    for pair in pairs:
        points = pair.samples(32, seed=0)
        assert points.shape == (32, 2)
        worst, _ = hz.functional_residual_1d(pair.f, pair.g, points,
                                             fx=pair.fx)
        assert worst < 1e-10, pair.name
        worst_all = max(worst_all, worst)
    report(f"criterion 8 functional pairs: PASS (worst {worst_all:.1e} "
           f"over {len(pairs)} pairs)")


def test_criterion_9_property_families_and_runtime():
    names = ["toy-free-particle", "harmonic-exact", "backward-error"]
    families = {"scaling": 0, "legendre": 0, "symplectic": 0,
                "helmholtz-agreement": 0, "isotropy-convention": 0}
    for name in names:
        system = make_system(name)
        lag = system.lagrangian
        n = lag.dim
        rng = np.random.default_rng(17)
        q0, q1 = rng.uniform(-0.4, 0.4, (2, n))
        q2 = del_step(lag, q0, q1)

        scaled = lag.scaled(lag.h ** 2)
        assert np.max(np.abs(del_step(scaled, q0, q1) - q2)) < 1e-9
        families["scaling"] += 1

        base_plus, mom_plus = legendre_plus(lag, q0, q1)
        base_minus, mom_minus = legendre_minus(lag, q1, q2)
        assert np.array_equal(base_plus, base_minus)
        assert np.max(np.abs(mom_plus - mom_minus)) < 1e-9
        families["legendre"] += 1

        s = hz.canonical_omega_matrix(n)
        def phase(z, lag=lag, n=n):
            out = hamiltonian_map(lag, z[:n], z[n:], tol=1e-13)
            return np.concatenate(out)

        z = np.concatenate([q0, -lag.D1(q0, q1)])
        jac = numkit.fd_jacobian4(phase, z)
        scale = max(1.0, float(np.max(np.abs(jac))) ** 2)
        assert np.max(np.abs(jac.T @ s @ jac - s)) < 1e-6 * scale
        families["symplectic"] += 1

        ieq = explicit_to_implicit(system.recurrence)
        explicit = hz.dhc_explicit(system.fiber, system.recurrence, q0, q1)
        implicit = hz.dhc_implicit(system.fiber, ieq, q0, q1, q2)
        gap = max(float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
                  for a, b in zip(explicit, implicit))
        assert gap < 1e-6
        families["helmholtz-agreement"] += 1

        samples = hz.sample_box(2 * n, 6, seed=19, box=0.5)
        plus = hz.plus_from_minus(system.fiber, system.recurrence)
        rep_minus = hz.check_isotropy(
            hz.gamma_embedding(system.fiber, system.recurrence), samples,
            tol=1e-6)
        rep_plus = hz.check_isotropy(
            hz.gamma_embedding(plus, system.recurrence), samples, tol=1e-6)
        assert rep_minus.verdict and rep_plus.verdict
        families["isotropy-convention"] += 1

    assert all(count >= 3 for count in families.values())
    elapsed = time.perf_counter() - _T0
    assert elapsed < 60.0
    report(f"criterion 9 property families: PASS ({len(families)} families "
           f"x {len(names)} systems, acceptance total {elapsed:.1f} s)")
