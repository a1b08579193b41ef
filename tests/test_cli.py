import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from algopt import scenarios
from algopt.cli import main
from algopt.core import so3_structure
from algopt.errors import ChatteringError
from algopt.scenarios import SCENARIOS, default_config


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    assert "so3-bang-bang" in out
    assert "classical-tm-lq" in out
    assert "wong-so3-r2" in out


def test_validate_passes_builtin(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scenario": "so3-bang-bang"})
    assert main(["validate", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"]


def test_run_writes_artifacts_and_reports(tmp_path, capsys):
    cfg = default_config("classical-tm-lq")
    path = write_config(tmp_path, cfg)
    out_dir = tmp_path / "artifacts"
    assert main(["run", path, "--out", str(out_dir)]) == 0
    stdout = capsys.readouterr().out
    assert "pass" in stdout
    for name in ("trajectory.csv", "costate.csv", "audit.json", "invariants.json"):
        assert (out_dir / name).exists()


def test_run_accepts_overrides(tmp_path):
    cfg = default_config("classical-tm-lq")
    path = write_config(tmp_path, cfg)
    out_dir = tmp_path / "artifacts"
    assert main(["run", path, "--out", str(out_dir), "--step", "2e-3",
                 "--tol", "1e-4"]) == 0
    traj = (out_dir / "trajectory.csv").read_text().splitlines()
    assert len(traj) == 502    # header + 501 nodes at step 2e-3


def test_bad_config_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, {"scenario": "so3-bang-bang",
                                   "z_init": [1.0]})
    assert main(["run", path, "--out", str(tmp_path / "x")]) == 2
    assert "z_init" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json")]) == 2


def test_audit_round_trip(tmp_path, capsys):
    cfg = default_config("so3-bang-bang")
    cfg["horizon"] = 3.0   # includes one control switch
    path = write_config(tmp_path, cfg)
    out_dir = tmp_path / "artifacts"
    assert main(["run", path, "--out", str(out_dir)]) == 0
    capsys.readouterr()
    code = main(["audit", path,
                 "--traj", str(out_dir / "trajectory.csv"),
                 "--costate", str(out_dir / "costate.csv")])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["passed"]


def test_audit_detects_corrupted_costate(tmp_path, capsys):
    cfg = default_config("so3-bang-bang")
    cfg["horizon"] = 2.0
    path = write_config(tmp_path, cfg)
    out_dir = tmp_path / "artifacts"
    main(["run", path, "--out", str(out_dir)])
    costate = out_dir / "costate.csv"
    lines = costate.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    z1 = header.index("z_1")
    for row in rows:
        row[z1] = repr(float(row[z1]) + 0.5)
    costate.write_text("\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n")
    capsys.readouterr()
    code = main(["audit", path,
                 "--traj", str(out_dir / "trajectory.csv"),
                 "--costate", str(costate)])
    assert code == 1


@pytest.mark.parametrize("change, field", [
    ({"z_init": [float("nan"), 1.0, 0.2]}, "z_init[0]"),
    ({"params": [1, 2]}, "params"),
    ({"solver": "fast"}, "solver"),
    ({"solver": {"seed": -1}}, "solver.seed"),
    ({"solver": {"symbol_samples": "many"}}, "solver.symbol_samples"),
    ({"solver": {"symbol_samples": True}}, "solver.symbol_samples"),
    ({"symbol_samples": -1}, "symbol_samples"),   # a solver key at the top level
    ({"solver": {"stpe": 0.01}}, "solver.stpe"),
    ({"params": {"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0], "c": 1.0}}, "params.c"),
    ({"scenario": "wong-so3-r2", "params": {"metric_linear": [[0.0]]}}, "params.metric_linear"),
    ({"scenario": "custom", "chart": {"kind": "tangent", "dim": 1}}, "horizon"),
    ({"solver": {"tol": 0.0}}, "solver.tol"),
    ({"z0_mode": "mixed"}, "z0_mode"),
])
def test_bad_input_exits_2_with_field_path(tmp_path, capsys, change, field):
    path = write_config(tmp_path, dict(default_config("so3-bang-bang"), **change))
    assert main(["run", path, "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")


def test_non_object_config_exits_2_without_an_empty_path(tmp_path, capsys):
    path = write_config(tmp_path, [1, 2])
    assert main(["run", path, "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == "config error: config must be a JSON object\n"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_run_then_audit_round_trip(tmp_path, capsys, name):
    """The audit of a default run's CSVs, with no flag, takes its mode from
    the scenario, passes, and prints the audit.json that the run wrote."""
    path = write_config(tmp_path, default_config(name))
    out_dir = tmp_path / "artifacts"
    assert main(["run", path, "--out", str(out_dir)]) == 0
    capsys.readouterr()
    code = main(["audit", path, "--traj", str(out_dir / "trajectory.csv"),
                 "--costate", str(out_dir / "costate.csv")])
    printed = capsys.readouterr().out
    report = json.loads(printed)
    assert code == 0
    assert report["verdicts"] and all(report["verdicts"].values())
    assert printed == (out_dir / "audit.json").read_text()


@pytest.mark.parametrize("horizon, step", [(0.002, 0.001), (0.001, 0.001), (0.003, 0.002)])
def test_cone_check_without_an_observation_time_exits_2(tmp_path, capsys, horizon, step):
    path = write_config(tmp_path, {"scenario": "so3-bang-bang", "horizon": horizon,
                                   "solver": {"step": step, "symbol_samples": 5}})
    assert main(["run", path, "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith("config error: solver.symbol_samples: ")


# z.b = 0.0045 falls at unit rate, so the one switch is near t = 0.00451; at
# step 1e-3 it is the middle node of the flow's grid, and the node five after
# it is past the end (horizon 0.008) or the horizon end itself (0.009).
@pytest.mark.parametrize("horizon", [0.008, 0.009])
def test_cone_check_observes_off_the_switch_on_a_short_grid(tmp_path, capsys, horizon):
    path = write_config(tmp_path, {"scenario": "so3-bang-bang", "horizon": horizon,
                                   "z_init": [0.9955, 0.0045, -1.0],
                                   "solver": {"step": 0.001, "symbol_samples": 5}})
    out_dir = tmp_path / "artifacts"
    assert main(["run", path, "--out", str(out_dir)]) == 0
    report = json.loads((out_dir / "invariants.json").read_text())
    assert len(report["notes"]["switch_times"]) == 1
    cone = [c for c in report["checks"] if c["name"] == "cone_support"]
    assert len(cone) == 1 and cone[0]["passed"]


def coarse_so3_run(tmp_path):
    """An so3 run on 17 nodes with one switch; the switch is one node in 17,
    above the 5% that the audit's own breakpoint guess accepts."""
    cfg = default_config("so3-bang-bang")
    cfg["horizon"] = 3.0
    cfg["solver"].update(step=0.2, tol=0.02)
    path = write_config(tmp_path, cfg)
    out_dir = tmp_path / "artifacts"
    main(["run", path, "--out", str(out_dir)])
    assert len((out_dir / "switches.csv").read_text().split()) == 2
    return path, out_dir


def test_audit_reads_the_switches_that_run_wrote(tmp_path, capsys):
    path, out_dir = coarse_so3_run(tmp_path)
    written = json.loads((out_dir / "audit.json").read_text())
    capsys.readouterr()
    code = main(["audit", path, "--traj", str(out_dir / "trajectory.csv"),
                 "--costate", str(out_dir / "costate.csv")])
    report = json.loads(capsys.readouterr().out)
    assert written["passed"] and code == 0
    assert report == written


def test_audit_infers_the_switch_without_a_switches_file(tmp_path, capsys):
    """Without switches.csv the audit takes the node where u changes as the
    breakpoint, one node in 3,001 here, and gives the audit that run wrote."""
    cfg = default_config("so3-bang-bang")
    cfg["horizon"] = 3.0   # one switch
    path = write_config(tmp_path, cfg)
    out_dir = tmp_path / "artifacts"
    assert main(["run", path, "--out", str(out_dir)]) == 0
    assert len((out_dir / "switches.csv").read_text().split()) == 2
    (out_dir / "switches.csv").unlink()
    capsys.readouterr()
    code = main(["audit", path, "--traj", str(out_dir / "trajectory.csv"),
                 "--costate", str(out_dir / "costate.csv")])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["passed"]
    assert report == json.loads((out_dir / "audit.json").read_text())


@pytest.mark.parametrize("text", ["t\nnot-a-time\n", "t\n1.2345\n", "t\n0\n"])
def test_audit_rejects_a_bad_switches_file(tmp_path, capsys, text):
    path, out_dir = coarse_so3_run(tmp_path)
    (out_dir / "switches.csv").write_text(text)
    capsys.readouterr()
    assert main(["audit", path, "--traj", str(out_dir / "trajectory.csv"),
                 "--costate", str(out_dir / "costate.csv")]) == 2
    assert "switches.csv" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["traj", "costate", "grid"])
def test_audit_names_a_missing_or_mismatched_file(tmp_path, capsys, bad):
    """A missing --traj or --costate file, or a costate from another grid,
    exits 2 and names the file."""
    path = write_config(tmp_path, dict(default_config("so3-bang-bang"), horizon=1.0))
    for step in ("1e-3", "2e-3"):
        main(["run", path, "--out", str(tmp_path / step), "--step", step])
    traj, costate = tmp_path / "1e-3" / "trajectory.csv", tmp_path / "1e-3" / "costate.csv"
    named = tmp_path / "2e-3" / "costate.csv" if bad == "grid" else tmp_path / "absent.csv"
    if bad == "traj":
        traj = named
    else:
        costate = named
    capsys.readouterr()
    assert main(["audit", path, "--traj", str(traj), "--costate", str(costate)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {named}: ")


@pytest.mark.parametrize("name", ["classical-tm-lq", "wong-so3-r2"])
@pytest.mark.parametrize("u_max", ["big", -1, 0, [1], True, 10**400])
def test_bad_u_max_exits_2_with_its_path(tmp_path, capsys, name, u_max):
    cfg = default_config(name)
    cfg["params"]["u_max"] = u_max
    path = write_config(tmp_path, cfg)
    assert main(["run", path, "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith("config error: params.u_max: ")


def with_entry(text, column, value):
    """CSV text with the first row's entry in ``column`` replaced by ``value``."""
    lines = text.splitlines()
    row = lines[1].split(",")
    row[lines[0].split(",").index(column)] = value
    return "\n".join([lines[0], ",".join(row)] + lines[2:]) + "\n"


@pytest.mark.parametrize("flag, corrupt", [
    ("traj", lambda text: "hello\n"),
    ("costate", lambda text: "hello\n"),
    ("traj", lambda text: text.splitlines()[0] + "\n"),    # header only
    ("traj", lambda text: ""),
    ("costate", lambda text: with_entry(text, "z_1", "nan")),
    ("traj", lambda text: with_entry(text, "x_1", "abc")),   # genfromtxt reads NaN
], ids=["traj-hello", "costate-hello", "traj-header-only", "traj-empty",
        "costate-nan", "traj-non-numeric"])
def test_audit_names_a_file_that_is_not_an_artifact_table(tmp_path, capsys, flag, corrupt):
    """A --traj or --costate file that exists but is not an artifact table
    exits 2 and names the file, instead of a traceback or a passing audit."""
    path = write_config(tmp_path, default_config("classical-tm-lq"))
    out_dir = tmp_path / "artifacts"
    assert main(["run", path, "--out", str(out_dir)]) == 0
    files = {"traj": out_dir / "trajectory.csv", "costate": out_dir / "costate.csv"}
    files[flag].write_text(corrupt(files[flag].read_text()))
    capsys.readouterr()
    assert main(["audit", path, "--traj", str(files["traj"]),
                 "--costate", str(files["costate"])]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {files[flag]}: ")


@pytest.mark.parametrize("z0", [lambda k: "0.5", lambda k: ("0", "-1")[k % 2]],
                         ids=["positive", "varying"])
def test_audit_names_a_costate_whose_z0_is_not_one_multiplier(tmp_path, capsys, z0):
    """A z0 column that is positive or varies down the rows exits 2 and names
    the file, instead of a traceback or an audit at the first row's z0."""
    path = write_config(tmp_path, default_config("classical-tm-lq"))
    out_dir = tmp_path / "artifacts"
    assert main(["run", path, "--out", str(out_dir)]) == 0
    costate = out_dir / "costate.csv"
    lines = costate.read_text().splitlines()
    col = lines[0].split(",").index("z0")
    rows = [line.split(",") for line in lines[1:]]
    for k, row in enumerate(rows):
        row[col] = z0(k)
    costate.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")
    capsys.readouterr()
    assert main(["audit", path, "--traj", str(out_dir / "trajectory.csv"),
                 "--costate", str(costate)]) == 2
    assert capsys.readouterr().err == (f"config error: {costate}: column 'z0' must hold "
                                       "one value, at most 0\n")


@pytest.mark.parametrize("chart, field", [
    ({"kind": "affine-anchor", "anchor_const": [["a"]]}, "chart.anchor_const"),
    ({"kind": "atiyah", "base_dim": 1, "table": [[["a"]]]}, "chart.table"),
    ({"kind": "atiyah", "base_dim": -1, "table": [[[0.0]]]}, "chart.base_dim"),
    ({"kind": "atiyah", "base_dim": 101, "table": [[[0.0]]]}, "chart.base_dim"),
    ({"kind": "tangent", "dim": 101}, "chart.dim"),
    ({"kind": "tangent", "dim": 2, "base_dim": 5, "tabel": 1}, "chart.base_dim"),
    ({"kind": "lie-algebra", "table": [[[0.0]]], "dim": 1}, "chart.dim"),
    ({"kind": "atiyah", "base_dim": 1, "table": [[[0.0]]], "anchor_const": [[1.0]]},
     "chart.anchor_const"),
    ({"kind": "affine-anchor", "anchor_const": [[1.0]], "table": [[[0.0]]],
      "connection_const": [[0.0]]}, "chart.connection_const"),
    ({"kind": "atiyah", "base_dim": 2, "table": so3_structure().tolist(),
      "connection_const": [[0.0, 0.1], [0.1, 0.0], [0.0, 0.0]]}, "chart.connection_const"),
    ({"kind": "lie-algebra", "table": [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]},
     "chart.table"),
    ({"kind": "affine-anchor", "anchor_const": [[1.0, 0.0]], "table": [[[0.0]]]}, "chart.table"),
])
def test_bad_chart_spec_exits_2_with_its_path(tmp_path, capsys, chart, field):
    """Non-numeric tables, a lie-algebra table that is not skew, an
    affine-anchor table that does not match the anchor, negative dimensions,
    dimensions past the cap of 100 (tangent_bundle(n) holds two (n, n, n)
    tables) and keys that the kind does not read, an atiyah chart's
    connection among them, are config errors."""
    path = write_config(tmp_path, {"scenario": "custom", "chart": chart})
    assert main(["validate", path]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")


@pytest.mark.parametrize("made, config", [("classical-tm-lq", "so3-bang-bang"),
                                          ("so3-bang-bang", "classical-tm-lq")])
def test_audit_names_artifacts_of_another_system(tmp_path, capsys, made, config):
    """LQ artifacts audited with the so3 config, and so3 artifacts with the LQ
    config, exit 2 naming the file instead of a matmul traceback."""
    out_dir = tmp_path / "artifacts"
    main(["run", write_config(tmp_path, dict(default_config(made), horizon=1.0), "made.json"),
          "--out", str(out_dir)])
    capsys.readouterr()
    traj = out_dir / "trajectory.csv"
    assert main(["audit", write_config(tmp_path, default_config(config)), "--traj", str(traj),
                 "--costate", str(out_dir / "costate.csv")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {traj}: has ")


def test_audit_names_a_costate_of_another_fiber(tmp_path, capsys):
    """A costate CSV whose z columns do not match the fiber exits 2 naming it."""
    path = write_config(tmp_path, default_config("classical-tm-lq"))
    out_dir = tmp_path / "artifacts"
    assert main(["run", path, "--out", str(out_dir)]) == 0
    costate = out_dir / "costate.csv"
    rows = [line.split(",") for line in costate.read_text().splitlines()]
    for row in rows:
        row.insert(2, "0" if row is not rows[0] else "z_2")
    costate.write_text("\n".join(",".join(row) for row in rows) + "\n")
    capsys.readouterr()
    assert main(["audit", path, "--traj", str(out_dir / "trajectory.csv"),
                 "--costate", str(costate)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {costate}: has 2 z_ columns")


def test_audit_names_a_trajectory_with_a_column_gap(tmp_path, capsys):
    """The header t,x_2,a_1,u_1 exits 2 naming the file."""
    path = write_config(tmp_path, default_config("classical-tm-lq"))
    out_dir = tmp_path / "artifacts"
    assert main(["run", path, "--out", str(out_dir)]) == 0
    traj = out_dir / "trajectory.csv"
    traj.write_text(traj.read_text().replace("x_1", "x_2", 1))
    capsys.readouterr()
    assert main(["audit", path, "--traj", str(traj),
                 "--costate", str(out_dir / "costate.csv")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {traj}: x_ columns ")


def overflowing_so3_run(tmp_path, capsys):
    """Config path and artifacts of a so3 run from a covector of norm 1e200,
    whose checks overflow (the run exits 1)."""
    path = write_config(tmp_path, {"scenario": "so3-bang-bang", "horizon": 1,
                                   "z_init": [1e200, 0, 0]})
    out_dir = tmp_path / "artifacts"
    assert main(["run", path, "--out", str(out_dir)]) == 1
    capsys.readouterr()
    return path, ["--traj", str(out_dir / "trajectory.csv"),
                  "--costate", str(out_dir / "costate.csv")]


def test_audit_prints_the_strict_json_it_writes(tmp_path, capsys):
    """The overflowing checks print as null, never as NaN or Infinity, and
    stdout is the audit.json written beside it."""
    path, files = overflowing_so3_run(tmp_path, capsys)
    assert main(["audit", path, *files, "--out", str(tmp_path / "audit")]) == 1
    printed = capsys.readouterr().out

    def reject(constant):
        raise ValueError(f"non-finite number {constant} on stdout")

    report = json.loads(printed, parse_constant=reject)
    assert report["covector_min_norm"] is None and not report["passed"]
    assert printed == (tmp_path / "audit" / "audit.json").read_text()


def test_audit_of_an_overflowing_run_warns_nothing(tmp_path, capsys):
    """As ``run``, the audit fails the overflowing checks without numpy's
    overflow warnings: a warning here is an error."""
    path, files = overflowing_so3_run(tmp_path, capsys)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["audit", path, *files]) == 1
    assert capsys.readouterr().err == ""


def test_diverged_run_prints_its_time_as_a_plain_float(tmp_path, capsys):
    """An initial point of 1e200 diverges at the first step; the error line
    gives t as a float, not as a numpy scalar's repr."""
    path = write_config(tmp_path, {"scenario": "wong-so3-r2",
                                   "initial_point": [1e200, 1e200]})
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: integration produced a non-finite state at t=0.001\n"


def test_diverged_run_stops_at_its_first_step(tmp_path, capsys):
    """A flow whose first step is non-finite raises there instead of stepping
    NaN states to the horizon, which on these 5,000 nodes, each a NaN box
    stage with a face search, takes over 10 s."""
    path = write_config(tmp_path, {"scenario": "wong-so3-r2", "initial_point": [1e200, 1e200],
                                   "solver": {"step": 2e-4}})
    start = time.perf_counter()
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 1
    assert time.perf_counter() - start < 2.0
    assert capsys.readouterr().err == ("error: integration produced a non-finite state "
                                       "at t=0.0002\n")


def chatter(*args, **kwargs):
    raise ChatteringError(10_000, 0.25)


@pytest.mark.parametrize("error, line, t", [
    ("IntegrationDivergedError", "integration produced a non-finite state at t=0.001", 0.001),
    ("ChatteringError", "more than 10000 control switches by t=0.25; aborting", 0.25)],
    ids=["diverged", "chattering"])
def test_failed_flow_writes_its_report_before_the_error(tmp_path, capsys, monkeypatch, error,
                                                        line, t):
    """A Wong flow from 1e200 diverges at its first step, and a patched flow
    chatters: each leaves invariants.json with a failed flow check naming the
    error and its time as a plain float, strict JSON, and no other artifact,
    while the CLI prints its one error line and exits 1 as before."""
    if error == "ChatteringError":
        monkeypatch.setattr(scenarios, "integrate_pmp_flow", chatter)
    path = write_config(tmp_path, {"scenario": "wong-so3-r2", "initial_point": [1e200, 1e200]})
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {line}\n"
    assert [p.name for p in out.iterdir()] == ["invariants.json"]

    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    report = json.loads((out / "invariants.json").read_text(), parse_constant=reject)
    assert report["passed"] is False and report["scenario"] == "wong-so3-r2"
    assert report["checks"][-1] == {"name": "flow", "error": error, "t": t, "passed": False}
    assert all(c["passed"] for c in report["checks"][:-1])


def test_run_on_a_custom_chart_writes_only_its_chart_checks(tmp_path, capsys):
    """A custom config has no flow: run validates its chart and writes
    invariants.json alone, with the two axiom checks."""
    path = write_config(tmp_path, {"scenario": "custom", "chart": {"kind": "tangent", "dim": 2}})
    out_dir = tmp_path / "artifacts"
    assert main(["run", path, "--out", str(out_dir)]) == 0
    assert [p.name for p in out_dir.iterdir()] == ["invariants.json"]
    report = json.loads((out_dir / "invariants.json").read_text())
    assert report["scenario"] == "custom" and report["passed"]
    assert [c["name"] for c in report["checks"]] == ["skew_symmetry", "anchor_morphism"]


def test_validate_builds_an_atiyah_chart_from_config(tmp_path, capsys):
    """TR^2 x so(3) from a config: base_dim and the so(3) table build a chart
    that passes the axiom checks."""
    chart = {"kind": "atiyah", "base_dim": 2, "table": so3_structure().tolist()}
    path = write_config(tmp_path, {"scenario": "custom", "chart": chart})
    assert main(["validate", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["chart"] == "config-atiyah" and report["passed"]


# Its anchor is no bracket morphism: the residual is 1e600, inf - inf in floats.
NAN_MORPHISM = {"scenario": "custom", "chart": {
    "kind": "affine-anchor", "anchor_const": [[1e300, 1e300]],
    "anchor_linear": [[[1e300], [2e300]]], "table": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]}}


def test_a_nan_morphism_residual_fails_validate_and_run_unwarned(tmp_path, capsys):
    """A NaN residual fails the anchor_morphism check, written as null, and
    both commands exit 1 without numpy's invalid-value warning."""
    path = write_config(tmp_path, NAN_MORPHISM)
    out_dir = tmp_path / "artifacts"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["validate", path]) == 1
        printed = capsys.readouterr()
        assert main(["run", path, "--out", str(out_dir)]) == 1
    assert printed.err == "" and capsys.readouterr().err == ""
    for report in (json.loads(printed.out), json.loads((out_dir / "invariants.json").read_text())):
        morph = report["checks"][1]
        assert morph["name"] == "anchor_morphism" and morph["value"] is None
        assert morph["passed"] is False and report["passed"] is False


@pytest.mark.parametrize("argv", [
    ["validate", "--step", "1e-3"],
    ["validate", "--tol", "1e-5"],
    ["validate", "--z0", "normal"],
    ["audit", "--step", "1e-3"],
    ["audit", "--seed", "1"],
    ["audit", "--z0", "normal"],
    ["audit", "--mode", "fixed-time"],
], ids=lambda argv: " ".join(argv[:2]))
def test_a_flag_the_command_does_not_read_is_a_usage_error(tmp_path, capsys, argv):
    """validate reads only --seed, and audit only --traj, --costate, --out
    and --tol: its grid and z0 come from the CSVs and its mode from the
    scenario."""
    command, *flag = argv
    files = ["--traj", "t.csv", "--costate", "c.csv"] if command == "audit" else []
    with pytest.raises(SystemExit) as exit_:
        main([command, write_config(tmp_path, default_config("classical-tm-lq")), *files, *flag])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


CUSTOM = {"scenario": "custom", "chart": {"kind": "tangent", "dim": 1}}


@pytest.mark.parametrize("cfg, field", [
    (dict(CUSTOM, z0_mode="normal"), "z0_mode"),
    (dict(CUSTOM, solver={"step": 1e-3}), "solver.step"),
    (dict(CUSTOM, solver={"tol": 1e-5}), "solver.tol"),
    (dict(CUSTOM, solver={"symbol_samples": 5}), "solver.symbol_samples"),
    ({"scenario": "classical-tm-lq", "solver": {"symbol_samples": 5}}, "solver.symbol_samples"),
    ({"scenario": "wong-so3-r2", "solver": {"symbol_samples": 5}}, "solver.symbol_samples"),
], ids=["custom-z0_mode", "custom-step", "custom-tol", "custom-symbol_samples",
        "lq-symbol_samples", "wong-symbol_samples"])
def test_a_key_the_run_does_not_read_exits_2_with_its_path(tmp_path, capsys, cfg, field):
    """A custom run only validates its chart, and the cone check's needles
    need a finite control set."""
    assert main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: unknown field")


@pytest.mark.parametrize("flag, key, value", [("--seed", "seed", 7),
                                               ("--z0", "z0_mode", "abnormal")])
def test_run_flags_reach_the_config(tmp_path, flag, key, value):
    """run's --seed and --z0 set solver.seed and z0_mode, as the config block
    of invariants.json shows; the abnormal LQ extremal passes its checks."""
    path = write_config(tmp_path, default_config("classical-tm-lq"))
    out_dir = tmp_path / "artifacts"
    assert main(["run", path, "--out", str(out_dir), flag, str(value)]) == 0
    config = json.loads((out_dir / "invariants.json").read_text())["config"]
    assert (config["solver"] if key == "seed" else config)[key] == value


def test_config_that_is_not_json_exits_2_with_its_path(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("{scenario: so3-bang-bang")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {path}: invalid JSON: ")


def test_a_config_nested_too_deeply_exits_2_without_a_traceback(tmp_path):
    """100,000 nested lists under params.a make json.load recurse past
    Python's limit; run exits 2 with one config error line naming the file,
    in a fresh process as a user runs it."""
    path = tmp_path / "config.json"
    path.write_text('{"scenario": "so3-bang-bang", "params": {"a": '
                    + "[" * 100_000 + "]" * 100_000 + "}}")
    env = {**os.environ, "PYTHONPATH": str(Path(scenarios.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-m", "algopt.cli", "run", str(path), "--out",
                          str(tmp_path / "out")], capture_output=True, text=True, timeout=60,
                         env=env)
    assert out.returncode == 2
    assert out.stderr.splitlines() == [f"config error: {path}: JSON nested too deeply to read"]
    assert "Traceback" not in out.stderr


def test_audit_of_a_custom_config_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, CUSTOM)
    assert main(["audit", path, "--traj", "t.csv", "--costate", "c.csv"]) == 2
    assert capsys.readouterr().err == ("config error: scenario: auditing requires a "
                                       "built-in scenario\n")


def test_the_parser_built_once_runs_alike_after_a_bad_flag(tmp_path, capsys):
    """main builds its parser once per process: a run, a bad flag (exit 2)
    and the same run again give the same stdout and artifacts."""
    path = write_config(tmp_path, default_config("classical-tm-lq"))
    out_dir = tmp_path / "artifacts"

    def run():
        assert main(["run", path, "--out", str(out_dir)]) == 0
        return capsys.readouterr().out, {f.name: f.read_bytes() for f in out_dir.iterdir()}

    first = run()
    with pytest.raises(SystemExit) as exc:
        main(["run", path, "--no-such-flag"])
    assert exc.value.code == 2
    assert "--no-such-flag" in capsys.readouterr().err
    assert run() == first
