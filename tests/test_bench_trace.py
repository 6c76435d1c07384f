"""The benchmark's per-layer tracer still binds the program's names.

``bench/bench_trace.py`` wraps public functions by name; a refactor
that renames or removes one of them breaks the traced benchmark.  This
runs one small check and two short simulations, one of them constrained,
under the tracer.
"""

from pathlib import Path

import pytest

import varmech.cli as cli
from varmech import (helmholtz, invariants, lagrangian, nonholonomic, numkit,
                     sode, systems)

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = (cli, helmholtz, invariants, lagrangian, nonholonomic, numkit, sode, systems)


@pytest.fixture
def bench_trace(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import bench_trace
    return bench_trace


def _bindings():
    names = {(mod.__name__, name): value for mod in MODULES
             for name, value in vars(mod).items()}
    names[("FiberMap", "__call__")] = helmholtz.FiberMap.__call__
    return names


def test_tracer_binds_and_restores(bench_trace, tmp_path):
    # one untraced call first: main fills its parser cache on its first
    # call in a process, a binding the tracer does not make
    assert cli.main(["check", "isotropy", "--system", "harmonic-exact",
                     "--points", "4", "--out", str(tmp_path / "warm.json")]) == 0
    before = _bindings()
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        assert numkit.fd_jacobian4 is not before[("varmech.numkit", "fd_jacobian4")]
        assert cli.main(["check", "isotropy", "--system", "harmonic-exact",
                         "--points", "4", "--out", str(tmp_path / "iso.json")]) == 0
        assert cli.main(["simulate", "--system", "harmonic-exact", "--steps", "5",
                         "--out", str(tmp_path / "run.csv")]) == 0
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    stats = tracer.stats
    assert stats["numkit.fd_jacobian4"].calls > 0
    assert stats["helmholtz.check"].items == 4
    assert stats["lagrangian.del_step"].calls == 5
    assert stats["cli.render_csv"].calls == 1
    assert tracer.fiber_evals > 0
    # the constrained stepper, under a tracer of its own so the counts
    # above stay those of one check and one unconstrained run
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        assert cli.main(["simulate", "--system", "rolling-disk", "--steps", "5",
                         "--out", str(tmp_path / "disk.csv")]) == 0
    finally:
        tracer.uninstall()
    after = _bindings()
    assert all(after[key] is before[key] for key in before)
    assert tracer.stats["nonholonomic.dla_step"].calls == 5
