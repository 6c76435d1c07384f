"""End-to-end tests of the command-line interface.

Everything drives varmech.cli.main directly so exit codes, file
contents, and stderr text are all observable in-process.
"""

import csv
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import varmech
import varmech.cli as cli
from varmech.cli import main, render_csv
from varmech.lagrangian import simulate as lagrangian_simulate
from varmech.nonholonomic import dla_simulate, midpoint_energy, rule_from_spec
from varmech.systems import make_system


def run_csv(path):
    with open(path, encoding="utf-8") as handle:
        return list(csv.reader(handle))


def test_simulate_matches_library_run_bit_exactly(tmp_path):
    out = tmp_path / "osc.csv"
    rc = main(["simulate", "--system", "harmonic-exact", "--steps", "7",
               "--out", str(out)])
    assert rc == 0
    rows = run_csv(out)
    assert rows[0] == ["k", "x", "oscillation"]
    assert len(rows) == 10

    bundle = make_system("harmonic-exact")
    points, _ = lagrangian_simulate(bundle.lagrangian, *bundle.initial, 7)
    parsed = np.array([[float(row[1])] for row in rows[1:]])
    assert np.array_equal(parsed, points)
    # energy cells cover every pair, and the final row leaves them blank
    assert all(row[2] != "" for row in rows[1:-1])
    assert rows[-1][2] == ""


def test_simulate_zero_steps_writes_two_rows(tmp_path):
    out = tmp_path / "pair.csv"
    rc = main(["simulate", "--system", "exp-recurrence", "--steps", "0",
               "--out", str(out)])
    assert rc == 0
    rows = run_csv(out)
    assert len(rows) == 3
    assert rows[1][0] == "0" and rows[2][0] == "1"
    assert rows[1][2] != "" and rows[2][2] == ""


def test_simulate_defaults_to_stdout(capsys):
    rc = main(["simulate", "--system", "toy-free-particle", "--steps", "2"])
    assert rc == 0
    text = capsys.readouterr().out
    assert text.startswith("k,q1,q2,kinetic\n")
    assert len(text.strip().splitlines()) == 5


def test_rerun_is_byte_identical(tmp_path):
    args = ["simulate", "--system", "rolling-disk", "--rule", "alpha:0.25",
            "--steps", "40"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()

    report_args = ["check", "isotropy", "--system", "rolling-disk",
                   "--seed", "5", "--points", "8"]
    ja = tmp_path / "a.json"
    jb = tmp_path / "b.json"
    assert main(report_args + ["--out", str(ja)]) == 0
    assert main(report_args + ["--out", str(jb)]) == 0
    assert ja.read_bytes() == jb.read_bytes()


def test_disk_csv_round_trips_exact_floats(tmp_path):
    out = tmp_path / "disk.csv"
    rc = main(["simulate", "--system", "rolling-disk", "--rule", "midpoint",
               "--steps", "30", "--out", str(out)])
    assert rc == 0
    rows = run_csv(out)
    assert rows[0] == ["k", "theta", "phi", "x", "y", "K1d", "K2d", "K3d"]

    disk = make_system("rolling-disk")
    rule = rule_from_spec("midpoint")
    points, _, _ = dla_simulate(disk.system, rule, *disk.initial_pair(rule), 30)
    parsed = np.array([[float(v) for v in row[1:5]] for row in rows[1:]])
    assert np.array_equal(parsed, points)


def reference_csv(coords, energy_funcs, points, failed_at=None):
    """The per-cell writer render_csv must match byte for byte: one
    ``format(v, ".17g")`` per cell, energies evaluated pair by pair."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    series = {name: [float(fn(a, b)) for a, b in zip(points[:-1], points[1:])]
              for name, fn in energy_funcs.items()}
    lines = ["k," + ",".join(list(coords) + list(series))]
    total = points.shape[0]
    for k in range(total):
        cells = [str(k)]
        cells.extend(format(v, ".17g") for v in points[k])
        if k + 1 < total:
            cells.extend(format(values[k], ".17g") for values in series.values())
        else:
            cells.extend([""] * len(series))
        lines.append(",".join(cells))
    if failed_at is not None:
        lines.append(f"# failed at step {failed_at}")
    return "\n".join(lines) + "\n"


SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16,
           1e16 + 2, 0.1, 1 / 3, 2.0 ** -1074 * 3, 1.7976931348623157e308, 123456789.0]


@pytest.mark.parametrize("rows, failed_at", [(1, None), (2, None), (7, 5), (2500, None),
                                             (2500, 2497)])
def test_render_csv_matches_per_cell_writer(rows, failed_at):
    rng = np.random.default_rng(rows)
    points = rng.standard_normal((rows, 3)) * 10.0 ** rng.integers(-300, 300, (rows, 3))
    cells = points.reshape(-1)
    cells[:len(SPECIAL)] = SPECIAL[:cells.size]
    energies = {"first": lambda a, b: a[0],        # special values reach energy cells
                "gap": lambda a, b: b[1] - a[1],
                "mid": midpoint_energy(lambda q, v: q[2] * v[0], 0.1)}
    coords = ("a", "b", "c")
    with np.errstate(all="ignore"):
        for funcs in (energies, {}):   # and a system without energies
            text = render_csv(coords, funcs, points, failed_at)
            assert text == reference_csv(coords, funcs, points, failed_at)


def test_render_csv_matches_per_cell_writer_on_disk_run():
    disk = make_system("rolling-disk")
    rule = rule_from_spec("euler-b")
    points, _, _ = dla_simulate(disk.system, rule, *disk.initial_pair(rule), 2500)
    text = render_csv(disk.coord_names(), disk.energies, points)
    assert text == reference_csv(disk.coord_names(), disk.energies, points)
    assert text.splitlines()[-1].endswith(",,,")


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nsystem = harmonic-exact\nsteps = 9\n")
    out = tmp_path / "o.csv"
    rc = main(["simulate", "--config", str(cfg), "--steps", "2",
               "--out", str(out)])
    assert rc == 0
    assert len(run_csv(out)) == 5


def test_config_file_rejections(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    for text in ("volume = 11\n",
                 "system = harmonic-exact\nsystem = toy-free-particle\n",
                 "just some words\n"):
        bad.write_text(text)
        rc = main(["simulate", "--config", str(bad)])
        assert rc == 1
        assert "config error" in capsys.readouterr().err
    rc = main(["simulate", "--config", str(tmp_path / "absent.cfg")])
    assert rc == 1


@pytest.mark.parametrize("args", [
    ["simulate", "--system", "no-such-system"],
    ["simulate"],  # system missing entirely
    ["simulate", "--system", "harmonic-exact", "--h", "0"],
    ["simulate", "--system", "harmonic-exact", "--h", "4.0"],
    ["simulate", "--system", "harmonic-exact", "--steps", "-3"],
    ["simulate", "--system", "harmonic-exact", "--steps", "2.5"],
    ["simulate", "--system", "harmonic-exact", "--tol=-1e-9"],
    ["simulate", "--system", "implicit-exp"],
    ["simulate", "--system", "extended-disk"],
    ["simulate", "--system", "harmonic-exact", "--rule", "midpoint"],
    ["simulate", "--system", "rolling-disk", "--rule", "alpha:x"],
    ["simulate", "--system", "harmonic-exact", "--q0", "1.0"],
    ["simulate", "--system", "harmonic-exact", "--q0", "1,2", "--q1", "3,4"],
    ["simulate", "--system", "harmonic-exact", "--dim", "3"],
    ["check", "chc", "--system", "toy-free-particle"],
    ["check", "ihc", "--system", "rolling-disk"],
    ["check", "dhc-explicit", "--system", "implicit-exp"],
    ["check", "isotropy", "--system", "rolling-disk", "--fiber", "nonsense"],
    ["check", "two-form", "--system", "implicit-exp"],
    # non-finite numbers are configuration errors
    ["simulate", "--system", "rolling-disk", "--steps", "3", "--tol", "inf"],
    ["check", "isotropy", "--system", "rolling-disk", "--fiber", "turn-ratio", "--tol", "inf"],
    ["simulate", "--system", "rolling-disk", "--h", "inf"],
    ["check", "dhc-explicit", "--system", "toy-free-particle", "--box", "inf"],
    ["simulate", "--system", "rolling-disk", "--q0", "nan,0,0,0", "--q1", "0,0,0,0"],
    # counts beyond numpy's largest shape, rejected before any allocation
    ["simulate", "--system", "harmonic-exact", "--steps", "100000000000000000000"],
    ["check", "dhc-explicit", "--system", "toy-free-particle",
     "--points", "100000000000000000000"],
    ["check", "isotropy", "--system", "rolling-disk", "--points", "100000000000000000000"],
])
def test_config_errors_exit_one(args, tmp_path, capsys):
    out = tmp_path / "never.txt"
    rc = main(args + ["--out", str(out)])
    assert rc == 1
    assert not out.exists()
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("h", "0"), ("steps", "-1"), ("points", "0"), ("box", "inf"), ("tol", "nan"),
    ("seed", "1.5"), ("dim", "two"), ("q0", "1,,2"),
])
def test_config_file_values_are_cast_and_checked_like_flags(key, value, tmp_path, capsys):
    args = ["simulate", "--system", "toy-free-particle"]
    assert main(args + [f"--{key}={value}"]) == 1
    from_flag = capsys.readouterr().err
    assert from_flag.startswith(f"config error: {key} ")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    assert main(args + ["--config", str(cfg)]) == 1
    assert capsys.readouterr().err == from_flag


def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as exc:
        main(["check", "bogus-check", "--system", "toy-free-particle"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_solver_failure_keeps_partial_csv(tmp_path, capsys):
    out = tmp_path / "partial.csv"
    rc = main(["simulate", "--system", "rolling-disk", "--steps", "5",
               "--tol", "1e-30", "--out", str(out)])
    assert rc == 2
    assert "failed" in capsys.readouterr().err
    lines = out.read_text().strip().splitlines()
    assert lines[-1] == "# failed at step 0"
    assert lines[0].startswith("k,theta")
    assert len(lines) == 4  # header, two seed rows, comment


def test_initial_pair_override(tmp_path):
    out = tmp_path / "o.csv"
    rc = main(["simulate", "--system", "toy-free-particle", "--dim", "1",
               "--q0", "0.5", "--q1", "0.75", "--steps", "2",
               "--out", str(out)])
    assert rc == 0
    rows = run_csv(out)
    values = [float(row[1]) for row in rows[1:]]
    assert values == [0.5, 0.75, 1.0, 1.25]


def test_check_pass_report(tmp_path):
    out = tmp_path / "r.json"
    rc = main(["check", "dhc-explicit", "--system", "toy-free-particle",
               "--points", "16", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert list(doc.keys()) == ["check", "system", "params", "conditions",
                                "verdict"]
    assert doc["verdict"] == "pass"
    assert doc["system"] == "toy-free-particle"
    assert doc["params"]["points"] == 16
    assert all(c["pass"] for c in doc["conditions"])


def test_check_fail_exit_three_report_still_written(tmp_path):
    out = tmp_path / "chc.json"
    rc = main(["check", "chc", "--system", "implicit-exp", "--out", str(out)])
    assert rc == 3
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "fail"
    worst = {c["name"]: c for c in doc["conditions"]}
    assert not worst["cHC3"]["pass"]
    assert abs(worst["cHC3"]["max_residual"] - 2.0) < 1e-8


def test_isotropy_report_records_fiber_and_rule(tmp_path):
    out = tmp_path / "iso.json"
    rc = main(["check", "isotropy", "--system", "rolling-disk",
               "--fiber", "turn-ratio", "--points", "8", "--out", str(out)])
    assert rc == 3
    doc = json.loads(out.read_text())
    assert doc["params"]["fiber"] == "turn-ratio"
    assert doc["params"]["rule"] == "midpoint"
    assert doc["verdict"] == "fail"


def test_check_with_nan_inside_stencil_exits_two(tmp_path, capsys, monkeypatch):
    # an isotropic embedding made NaN at the inner order-4 stencil points
    # of every sample: a numerical failure, not a passing verdict
    import varmech.cli as cli
    from varmech.helmholtz import sample_box

    samples = sample_box(2, 4, seed=0)

    def embedding(fiber, recurrence):
        def embed(z):
            gap = np.min(np.max(np.abs(samples - z), axis=1))
            if 0.0 < gap < 1.5e-3:
                return np.full(4, np.nan)
            return np.concatenate([z, z])
        return embed

    monkeypatch.setattr(cli, "gamma_embedding", embedding)
    out = tmp_path / "iso.json"
    rc = main(["check", "isotropy", "--system", "harmonic-exact", "--points", "4",
               "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "numerical failure" in capsys.readouterr().err


def test_isotropy_data_size_past_the_float_range_exits_two(tmp_path, capsys):
    # at h = 1e-160 the fiber map's slope 1/sin(h) squares past the float
    # range: a numerical failure naming the first sample, not a traceback
    from varmech.helmholtz import sample_box

    out = tmp_path / "iso.json"
    rc = main(["check", "isotropy", "--system", "harmonic-exact", "--h", "1e-160",
               "--points", "2", "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    first = sample_box(2, 2, seed=0)[0].tolist()
    assert capsys.readouterr().err == (
        f"numerical failure: isotropy: non-finite data size at point {first}\n")


@pytest.mark.parametrize("args", [["dhc-implicit", "--system", "exp-recurrence",
                                   "--box", "1e300"],
                                  ["ihc", "--system", "implicit-exp", "--box", "1e10"]],
                         ids=["dhc-implicit", "ihc"])
def test_a_numerical_failure_prints_one_line_and_no_numpy_warning(args, tmp_path, capsys):
    # exp overflows at these boxes: the NumericsError reports it, in one
    # line, and numpy warns nothing, as on the console
    out = tmp_path / "report.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["check"] + args + ["--points", "600", "--out", str(out)]) == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"numerical failure: {args[0]} at point [")
    assert not out.exists()


def test_isotropy_on_rolling_disk_rejects_box(tmp_path, capsys):
    out = tmp_path / "iso.json"
    rc = main(["check", "isotropy", "--system", "rolling-disk", "--box", "0.1",
               "--points", "8", "--out", str(out)])
    assert rc == 1
    assert not out.exists()
    assert "box" in capsys.readouterr().err


def test_check_two_form_on_extended_disk(tmp_path):
    out = tmp_path / "w.json"
    rc = main(["check", "two-form", "--system", "extended-disk",
               "--points", "8", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "pass"
    assert doc["params"]["min_abs_det"] > 0


BOX_PARAMS = ["tol", "points", "seed", "box", "h"]
DHC = ["dHC1", "dHC2", "dHC3"]
IHC = ["IHC1", "IHC2", "IHC3"]
TWO_FORM_PARAMS = BOX_PARAMS + ["min_abs_det", "min_flat_sigma"]


@pytest.mark.parametrize("which, system, extra, code, tol, names, params", [
    ("dhc-explicit", "toy-free-particle", [], 0, 1e-8, DHC, BOX_PARAMS),
    ("dhc-implicit", "exp-recurrence", [], 0, 1e-8, DHC, BOX_PARAMS),
    ("dhc-implicit", "harmonic-exact", [], 0, 1e-8, DHC, BOX_PARAMS),
    ("isotropy", "rolling-disk", [], 0, 1e-6, ["isotropy"],
     ["tol", "points", "seed", "h", "fiber", "rule", "sampler"]),
    ("isotropy", "harmonic-exact", [], 0, 1e-6,
     ["isotropy", "lagrangian-dimension"], BOX_PARAMS),
    ("chc", "implicit-exp", [], 3, 1e-7, ["cHC1", "cHC2", "cHC3"], ["tol", "jets"]),
    ("ihc", "implicit-exp", [], 0, 1e-7, IHC, ["tol", "points", "seed"]),
    ("ihc", "implicit-exp", ["--box", "0.5"], 0, 1e-7, IHC,
     ["tol", "points", "seed", "box"]),
    ("two-form", "extended-disk", [], 0, 1e-6, ["closure", "vertical"],
     TWO_FORM_PARAMS),
    ("two-form", "harmonic-exact", [], 0, 1e-6, ["closure", "vertical"],
     TWO_FORM_PARAMS),
])
def test_check_table_branches(which, system, extra, code, tol, names, params,
                              tmp_path):
    out = tmp_path / "report.json"
    rc = main(["check", which, "--system", system, "--points", "8"] + extra
              + ["--out", str(out)])
    assert rc == code
    text = out.read_text()
    assert text.endswith("}\n")
    doc = json.loads(text)
    assert doc["check"] == which
    assert doc["system"] == system
    assert doc["verdict"] == ("pass" if code == 0 else "fail")
    assert [c["name"] for c in doc["conditions"]] == names
    assert list(doc["params"]) == params
    assert doc["params"]["tol"] == tol


def test_no_temp_files_left_behind(tmp_path):
    out = tmp_path / "o.csv"
    assert main(["simulate", "--system", "harmonic-exact", "--steps", "1",
                 "--out", str(out)]) == 0
    leftovers = [p for p in tmp_path.iterdir() if p.name != "o.csv"]
    assert leftovers == []


@pytest.mark.parametrize("args, code", [
    (["simulate", "--system", "harmonic-exact", "--steps", "3"], 0),
    (["check", "isotropy", "--system", "harmonic-exact", "--points", "4"], 0),
    (["check", "isotropy", "--system", "rolling-disk", "--fiber", "turn-ratio",
      "--points", "4"], 3),
    (["simulate", "--system", "exp-recurrence", "--tol", "1e-17"], 2),
])
@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_output_is_a_config_error(args, code, target, tmp_path, capsys):
    """A write failure exits 1 with one config-error line, whatever the
    run's outcome (shown by the run's exit code with a writable path),
    and leaves no temp file."""
    out = tmp_path / "missing" / "x.out" if target == "missing-dir" else tmp_path / "dir"
    (tmp_path / "dir").mkdir()
    assert main(args + ["--out", str(tmp_path / "ok.out")]) == code
    capsys.readouterr()
    assert main(args + ["--out", str(out)]) == 1
    reason = "No such file or directory" if target == "missing-dir" else "Is a directory"
    assert capsys.readouterr() == (
        "", f"config error: cannot write output file {out}: {reason}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "ok.out"]
    assert list((tmp_path / "dir").iterdir()) == []


# One process's sequence of calls: a passing check, a simulation to
# stdout, a usage error, --help, a config error, a failing verdict, a
# solver failure, and the first call again.
SEQUENCE = [
    ["check", "isotropy", "--system", "harmonic-exact", "--points", "8",
     "--out", "report.json"],
    ["simulate", "--system", "harmonic-exact", "--steps", "5"],
    ["check", "bogus-check", "--system", "toy-free-particle"],
    ["check", "--help"],
    ["simulate", "--system", "harmonic-exact", "--steps", "-1", "--out", "run.csv"],
    ["check", "isotropy", "--system", "rolling-disk", "--fiber", "turn-ratio",
     "--points", "8", "--out", "report.json"],
    ["simulate", "--system", "exp-recurrence", "--tol", "1e-17", "--out", "run.csv"],
]


def _directory_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_in_process_calls_match_fresh_processes(tmp_path, monkeypatch, capsys):
    """Calls through one process's main give the stdout, stderr, exit
    code and files of the same argv run as ``python -m varmech`` in a
    fresh process, and the parser is built once for all of them."""
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the terminal width
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(varmech.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    fresh = []
    for i, argv in enumerate(SEQUENCE):
        cwd = tmp_path / f"fresh{i}"
        cwd.mkdir()
        done = subprocess.run([sys.executable, "-m", "varmech"] + argv, cwd=cwd,
                              env=env, capture_output=True, text=True, timeout=120)
        fresh.append((done.stdout, done.stderr, done.returncode, _directory_bytes(cwd)))

    builds = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
    for i, argv in enumerate(SEQUENCE + SEQUENCE[:1]):
        cwd = tmp_path / f"in-process{i}"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (out, err, code, _directory_bytes(cwd)) == fresh[i % len(SEQUENCE)], argv
    assert [code for _, _, code, _ in fresh] == [0, 0, 1, 0, 1, 3, 2]
    assert len(builds) == 1
