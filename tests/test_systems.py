import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from varmech import numkit, systems
from varmech.errors import DomainError, UnknownSystem
from varmech.helmholtz import functional_residual_1d, sample_box
from varmech.lagrangian import del_residual, simulate
from varmech.nonholonomic import rule_from_spec
from varmech.sode import implicit_step


def test_registry_names_and_unknown():
    names = systems.system_names()
    assert "rolling-disk" in names and "harmonic-exact" in names
    assert len(names) == len(set(names)) == 7
    with pytest.raises(UnknownSystem):
        systems.make_system("frictionless-bead")
    with pytest.raises(TypeError):
        systems.make_system("toy-free-particle", viscosity=2.0)


def test_free_particle_solutions_are_affine():
    fp = systems.make_system("toy-free-particle", h=0.1, dim=3)
    q0, q1 = fp.initial
    q2 = fp.recurrence(q0, q1)
    assert_allclose(q2, 2 * q1 - q0, atol=1e-15)
    assert_allclose(del_residual(fp.lagrangian, q0, q1, q2), np.zeros(3),
                    atol=1e-13)
    assert fp.energies["kinetic"](q0, q1) > 0


def test_oscillator_two_lagrangians_share_solutions():
    ho = systems.exact_oscillator(0.1)
    q0, q1 = ho.initial
    q2 = ho.recurrence(q0, q1)
    assert_allclose(del_residual(ho.lagrangian, q0, q1, q2), [0.0], atol=1e-13)
    assert_allclose(del_residual(ho.alternate_lagrangian, q0, q1, q2), [0.0],
                    atol=1e-13)
    # quartic slot derivatives against finite differences of its value
    rng = np.random.default_rng(1)
    a, b = rng.uniform(-1, 1, (2, 1))
    alt = ho.alternate_lagrangian
    fd1 = numkit.fd_gradient(lambda q: alt.value(q, b), a)
    fd2 = numkit.fd_gradient(lambda q: alt.value(a, q), b)
    assert_allclose(alt.D1(a, b), fd1, atol=1e-7)
    assert_allclose(alt.D2(a, b), fd2, atol=1e-7)
    fd12 = numkit.fd_jacobian(lambda q: alt.D1(a, q), b)
    assert_allclose(alt.D12(a, b), fd12, atol=1e-7)


def test_oscillator_invariant_is_constant():
    ho = systems.exact_oscillator(0.1)
    q0, q1 = ho.initial
    values = []
    for _ in range(300):
        values.append(ho.invariant(q0, q1))
        q0, q1 = q1, ho.recurrence(q0, q1)
    assert np.ptp(values) < 1e-14
    assert_allclose(values[0], math.sin(0.1) ** 2, atol=1e-15)
    assert_allclose(ho.energies["oscillation"](*ho.initial), 0.5, atol=1e-12)


def test_oscillator_rejects_bad_step():
    with pytest.raises(DomainError):
        systems.exact_oscillator(h=math.pi)
    with pytest.raises(DomainError):
        systems.exact_oscillator(h=0.0)


def test_alternate_two_form_only_where_defined():
    ho = systems.exact_oscillator(0.1)
    w = ho.alternate_two_form()(np.array([0.3, -0.2]))
    assert w.shape == (2, 2)
    fp = systems.free_particle()
    with pytest.raises(DomainError):
        fp.alternate_two_form()


def test_disk_initial_pair_documented_values():
    disk = systems.rolling_disk()
    q0, q1 = disk.initial_pair(rule_from_spec("midpoint"))
    assert_allclose(q0, [0.5, 0.3, 1.0, 1.0])
    assert q1[0] == 0.525 and q1[1] == 0.31
    mu = (0.3 + 0.31) / 2
    assert_allclose(q1[2], 1.0 + 0.025 * math.cos(mu), atol=1e-15)
    assert_allclose(q1[3], 1.0 + 0.025 * math.sin(mu), atol=1e-15)
    # euler-a evaluates the forms at the left endpoint instead
    q0a, q1a = disk.initial_pair(rule_from_spec("euler-a"))
    assert_allclose(q1a[2], 1.0 + 0.025 * math.cos(0.3), atol=1e-15)


def test_disk_chart_samples_keep_increments_in_range():
    disk = systems.rolling_disk()
    z = disk.chart_samples(64, seed=4)
    assert z.shape == (64, 6)
    dth = z[:, 4] - z[:, 0]
    dph = z[:, 5] - z[:, 1]
    for d in (dth, dph):
        assert np.all(d >= 0.1 - 1e-12) and np.all(d <= 0.6 + 1e-12)


def test_disk_chart_embedding_shape_and_base():
    disk = systems.rolling_disk()
    emb = disk.chart_embedding(disk.fibers["doubled-rate"], rule_from_spec("midpoint"))
    z = disk.chart_samples(1, seed=0)[0]
    image = emb(z)
    assert image.shape == (16,)
    assert_allclose(image[:4], z[:4])
    assert_allclose(image[8:10], z[4:])
    assert set(disk.fibers) == {"doubled-rate", "doubled-increment", "turn-ratio"}


def test_extended_disk_reduces_on_constraint_triples():
    ext = systems.extended_disk(0.05)
    thetas = [0.5, 0.8, 1.3]
    phis = [0.3, 0.45, 0.52]
    xs, ys = [1.0], [1.0]
    for k in range(2):
        mu = (phis[k] + phis[k + 1]) / 2
        xs.append(xs[-1] + (thetas[k + 1] - thetas[k]) * math.cos(mu))
        ys.append(ys[-1] + (thetas[k + 1] - thetas[k]) * math.sin(mu))
    triple = [np.array([thetas[k], phis[k], xs[k], ys[k]]) for k in range(3)]
    r = del_residual(ext, *triple)
    # x, y equations vanish identically on the constraint set
    assert np.max(np.abs(r[2:])) < 1e-13
    # angle equations measure the deviation from uniform progression
    assert_allclose(r[0], -(2 / 0.05) * (thetas[2] - 2 * thetas[1] + thetas[0]),
                    atol=1e-12)
    assert_allclose(r[1], -(1 / 0.05) * (phis[2] - 2 * phis[1] + phis[0]),
                    atol=1e-12)


def test_extended_disk_slot_derivatives():
    ext = systems.extended_disk(0.05)
    rng = np.random.default_rng(2)
    a, b = rng.uniform(-1, 1, (2, 4))
    assert_allclose(ext.D1(a, b),
                    numkit.fd_gradient(lambda q: ext.value(q, b), a), atol=1e-7)
    assert_allclose(ext.D2(a, b),
                    numkit.fd_gradient(lambda q: ext.value(a, q), b), atol=1e-7)
    assert_allclose(ext.D12(a, b),
                    numkit.fd_jacobian4(lambda q: ext.D1(a, q), b), atol=1e-9)


def _extended_disk_d12_at_one_point(h, q0, q1):
    """extended-disk's D12 as written for one point."""
    d = q1 - q0
    mu = 0.5 * (q0[1] + q1[1])
    cs, sn = np.cos(mu), np.sin(mu)
    return np.array([
        [-(2.0 / h - 1.0), 0.5 * (sn * d[2] - cs * d[3]), -cs, -sn],
        [0.5 * (-sn * d[2] + cs * d[3]),
         -1.0 / h - 0.25 * d[0] * (cs * d[2] + sn * d[3]),
         -0.5 * d[0] * sn, 0.5 * d[0] * cs],
        [-cs, 0.5 * d[0] * sn, 1.0, 0.0],
        [-sn, -0.5 * d[0] * cs, 0.0, 1.0],
    ])


def test_extended_disk_d12_computes_over_leading_axes():
    # marked, so the two-form check batches it; each point of a stack
    # keeps the bits of the one-point formula
    ext = systems.extended_disk(0.05)
    assert numkit.is_complex_safe(ext.d12)
    z = sample_box(8, 40, box=2.0, seed=4)
    stacked = ext.d12(z[:, :4], z[:, 4:])
    assert stacked.shape == (40, 4, 4)
    for zi, m in zip(z, stacked):
        reference = _extended_disk_d12_at_one_point(0.05, zi[:4], zi[4:])
        assert ext.D12(zi[:4], zi[4:]).tobytes() == reference.tobytes()
        assert m.tobytes() == reference.tobytes()


def test_implicit_exp_callables_compute_over_leading_axes():
    case = systems.implicit_exp()
    assert numkit.is_complex_safe(case.ode.phi, case.ode.c, case.momentum)
    q, qd, qdd = np.random.default_rng(8).uniform(-1, 1, size=(3, 6, 2))
    phi = case.ode.phi(q, qd, qdd)
    c = case.ode.c(q, qd, qdd)
    for i in range(6):
        # the one-point forms the system was first written with
        e = np.exp(qdd[i, 0] - q[i, 0])
        assert phi[i].tobytes() == np.array([e - 1.0, qdd[i, 1] - q[i, 1]]).tobytes()
        assert c[i].tobytes() == np.diag([e, 1.0]).tobytes()
    assert case.momentum(q, qd).tobytes() == qd.tobytes()


def test_backward_error_gauge_free_dynamics():
    plain = systems.backward_error(h=0.1, gauge=0.0)
    gauged = systems.backward_error(h=0.1, gauge=1.0)
    a, b = np.array([0.8]), np.array([0.75])
    assert_allclose(plain.recurrence(a, b), gauged.recurrence(a, b), atol=0)
    assert_allclose(plain.recurrence(a, b), (2 - 0.01) * b - a, atol=1e-15)
    for sys in (plain, gauged):
        q0, q1 = sys.initial
        q2 = sys.recurrence(q0, q1)
        assert np.max(np.abs(del_residual(sys.lagrangian, q0, q1, q2))) < 1e-13
        assert_allclose(sys.fiber(a, b), -sys.lagrangian.D1(a, b), atol=1e-15)


@pytest.mark.parametrize("gauge", [0.0, 1.0, -0.7])
def test_backward_error_shadow_energy_is_conserved(gauge):
    be = systems.backward_error(h=0.1, gauge=gauge)
    traj, series = simulate(be.lagrangian, np.array([0.3]), np.array([0.35]),
                            2000, energies=be.energies)
    shadow = series["shadow"]
    assert np.ptp(shadow) / abs(np.mean(shadow)) < 1e-12


def test_implicit_exp_jets_sit_on_the_manifold():
    case = systems.implicit_exp()
    for q, qd, qdd, _ in case.jets:
        assert np.max(np.abs(case.force(q, qd, qdd))) < 1e-14
    first, second = case.jets
    assert_allclose(case.worst_residual_reference(first), 2.0, atol=1e-15)
    assert_allclose(case.worst_residual_reference(second), 0.4, atol=1e-12)
    probes = case.probes(8, seed=1)
    assert probes.shape == (8, 4)
    acc = case.ode.solve_last(np.array([0.3, -0.2]), np.array([0.1, 0.1]),
                              np.zeros(2))
    assert_allclose(acc, [0.3, -0.2], atol=1e-11)


def test_exp_recurrence_is_free_motion_in_disguise():
    er = systems.exp_recurrence(h=0.1)
    q0, q1 = er.initial
    q2 = implicit_step(er.equation, q0, q1)
    assert_allclose(q2, 2 * q1 - q0, atol=1e-11)
    assert_allclose(er.energies["kinetic"](q0, q1), 0.5, atol=1e-12)


def test_functional_catalog_pairs_solve_the_equation():
    pairs = systems.functional_catalog()
    assert len(pairs) == 5
    assert len({p.name for p in pairs}) == 5
    for pair in pairs:
        pts = pair.samples(32, seed=6)
        assert pts.shape == (32, 2)
        exact, _ = functional_residual_1d(pair.f, pair.g, pts, fx=pair.fx)
        stencil, _ = functional_residual_1d(pair.f, pair.g, pts)
        assert exact < 1e-12, pair.name
        assert stencil < 1e-10, pair.name


def test_functional_admissibility_filters_samples():
    contracting = systems.functional_catalog()[2]
    pts = contracting.samples(64, seed=0)
    assert np.all(np.abs(pts[:, 0]) > 0.2)
    assert np.all(np.abs(pts[:, 1]) > 0.2)


DISK_RULES = ("midpoint", "trapezoidal", "alpha:0.3", "alpha:0.85", "euler-a", "euler-b")


def _marked_catalogue_callables():
    """(label, pair callable, (count, 2n) sample points) for every fiber
    map and explicit recurrence of the catalogue."""
    cases = []
    for name in ("toy-free-particle", "harmonic-exact", "backward-error"):
        params = {"gauge": 1.0} if name == "backward-error" else {}
        bundle = systems.make_system(name, **params)
        box = sample_box(2 * bundle.dim, 32, seed=3)
        cases += [(f"{name} fiber", bundle.fiber.func, box),
                  (f"{name} recurrence", bundle.recurrence.gamma, box)]
        cases += [(f"{name} {energy}", func, box)
                  for energy, func in bundle.energies.items()]
    er = systems.make_system("exp-recurrence")
    cases += [("exp-recurrence fiber", er.fiber.func, sample_box(2, 32, seed=3)),
              ("exp-recurrence kinetic", er.energies["kinetic"], sample_box(2, 32, seed=3))]
    ho = systems.make_system("harmonic-exact")
    for label, lag in (("d12", ho.lagrangian), ("alternate d12", ho.alternate_lagrangian)):
        cases.append((f"harmonic-exact {label}", numkit.complex_safe(
            lambda q0, q1, d12=lag.d12: d12(q0, q1).reshape(q0.shape[:-1] + (1,)), lag.d12),
            sample_box(2, 32, seed=3)))
    # extended-disk's d12 and implicit-exp's phi, c and momentum, as pair
    # maps of flat values: the matrices flattened, phi's three slots
    # split off the pair (q, qd | qdd) and its second half
    ext = systems.make_system("extended-disk")
    cases.append(("extended-disk d12", numkit.complex_safe(
        lambda q0, q1: ext.d12(q0, q1).reshape(q0.shape[:-1] + (16,)), ext.d12),
        sample_box(8, 32, box=2.0, seed=3)))
    ie = systems.make_system("implicit-exp")
    cases.append(("implicit-exp momentum", ie.momentum, sample_box(4, 32, seed=3)))
    triple = lambda f: lambda a, b: f(a[..., :2], np.concatenate(
        [a[..., 2:], b[..., :1]], axis=-1), b[..., 1:])
    flat_c = lambda a, b: triple(ie.ode.c)(a, b).reshape(a.shape[:-1] + (4,))
    cases += [("implicit-exp phi", numkit.complex_safe(triple(ie.ode.phi), ie.ode.phi),
               sample_box(6, 32, seed=3)),
              ("implicit-exp c", numkit.complex_safe(flat_c, ie.ode.c),
               sample_box(6, 32, seed=3))]
    disk = systems.make_system("rolling-disk")
    chart = disk.chart_samples(32, seed=3)
    for spec in DISK_RULES:
        rule = rule_from_spec(spec)
        pairs = np.array([np.concatenate(disk.complete_pair(rule, z[:4], z[4], z[5]))
                          for z in chart])
        if spec == "midpoint":
            cases += [(f"rolling-disk fiber {fiber}", disk.fibers[fiber].func, pairs)
                      for fiber in sorted(disk.fibers)]
            cases += [(f"rolling-disk {energy}", func, pairs)
                      for energy, func in disk.energies.items()]
        cases.append((f"rolling-disk reduced recurrence {spec}",
                      disk.reduced_recurrence(rule).gamma, pairs))
    return [pytest.param(*case, id=case[0]) for case in cases]


@pytest.mark.parametrize("label, func, points", _marked_catalogue_callables())
def test_marked_catalogue_callables_are_analytic(label, func, points):
    # a mark on a callable that is not analytic in its points (a cast, a
    # math function, a branch on a value) shows as a complex-step
    # Jacobian that disagrees with the order-4 stencil.  The stencil runs
    # at a tenth of its step, in the offset y = 10 (z' - z): at its own
    # step its truncation error on turn-ratio reaches 1e-7 relative at
    # chart points with a phi increment near 0.1.
    assert getattr(func, "complex_safe", False), label
    n = points.shape[1] // 2
    pair = numkit.complex_safe(lambda z: func(z[..., :n], z[..., n:]))
    for z in points:
        order4 = 10.0 * numkit.fd_jacobian4(lambda y: pair(z + y / 10.0), np.zeros(2 * n))
        step = numkit.fd_jacobian4(pair, z)
        bound = 1e-8 * max(1.0, float(np.max(np.abs(order4))))
        assert np.max(np.abs(step - order4)) <= bound, (label, z)


def _catalogue_monitors():
    """(label, pair observable, dim) for every energy monitor of the
    catalogue and harmonic-exact's invariant."""
    cases = []
    for name, params in (("toy-free-particle", {}), ("harmonic-exact", {}),
                         ("backward-error", {"gauge": 1.0}), ("exp-recurrence", {}),
                         ("rolling-disk", {})):
        bundle = systems.make_system(name, **params)
        cases += [(f"{name} {energy}", func, bundle.dim)
                  for energy, func in bundle.energies.items()]
    ho = systems.make_system("harmonic-exact")
    cases.append(("harmonic-exact invariant", ho.invariant, 1))
    return [pytest.param(*case, id=case[0]) for case in cases]


@pytest.mark.parametrize("label, monitor, dim", _catalogue_monitors())
def test_catalogue_monitor_blocks_match_per_pair_calls_bit_for_bit(label, monitor, dim):
    # marked, so pair_series hands each monitor blocks of PAIR_CHUNK
    # pairs; squares are products, which round alike on a block and on
    # one pair
    assert numkit.is_complex_safe(monitor), label
    points = np.random.default_rng(5).uniform(-2.0, 2.0, (3002, dim))
    block = numkit.pair_series({label: monitor}, points)[label]
    per_pair = np.array([monitor(a, b) for a, b in zip(points[:-1], points[1:])])
    assert block.shape == (3001,)
    assert block.tobytes() == per_pair.tobytes(), label
