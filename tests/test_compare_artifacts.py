"""The artifact comparison of tools/compare_artifacts.py on hand-made run
directories: one equal, one with a CSV cell moved by one ulp, one with a
check's verdict flipped."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "compare_artifacts.py"
_spec = importlib.util.spec_from_file_location("compare_artifacts", _PATH)
compare_artifacts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_artifacts)

CHECK = {"name": "maximum_condition", "value": 2e-6, "tolerance": 1e-5, "passed": True}


def write_run(root: Path, name: str, x_last: float = 0.25, check: dict = CHECK) -> None:
    run = root / name
    (run / "artifacts").mkdir(parents=True)
    (run / "artifacts" / "trajectory.csv").write_bytes(
        f"t,x_1,u_1\r\n0,0.5,1\r\n0.001,{x_last!r},1\r\n".encode())
    (run / "artifacts" / "invariants.json").write_text(json.dumps(
        {"schema_version": 1, "checks": [check], "passed": check["passed"]}, indent=2))
    (run / "exit").write_text("0" if check["passed"] else "1")
    (run / "stdout").write_text("artifacts written to <out>\n")
    (run / "stderr").write_text("")


@pytest.fixture
def runs(tmp_path):
    base, change = tmp_path / "base", tmp_path / "change"
    for name in ("equal", "ulp", "flipped"):
        write_run(base, name)
    write_run(change, "equal")
    write_run(change, "ulp", x_last=float(np.nextafter(0.25, 1.0)))
    write_run(change, "flipped", check={**CHECK, "value": 2e-5, "passed": False})
    return base, change


def test_equal_runs_compare_equal(runs):
    base, change = runs
    assert compare_artifacts.compare_run(base / "equal", change / "equal") == (
        {"files": True, "exit": True, "stdout": True, "stderr": True}, [])


def test_a_one_ulp_move_names_its_file_and_column(runs):
    base, change = runs
    equal, details = compare_artifacts.compare_run(base / "ulp", change / "ulp")
    assert equal == {"files": False, "exit": True, "stdout": True, "stderr": True}
    assert details == ["trajectory.csv: differs", "  x_1: max |delta| 5.55e-17 over 1 row(s)"]


def test_a_flipped_check_shows_its_value_and_verdict(runs):
    base, change = runs
    equal, details = compare_artifacts.compare_run(base / "flipped", change / "flipped")
    assert equal == {"files": False, "exit": False, "stdout": True, "stderr": True}
    assert details == ["invariants.json: differs",
                       "  checks[maximum_condition].passed: True -> False",
                       "  checks[maximum_condition].value: 2e-06 -> 2e-05",
                       "  passed: True -> False",
                       "exit: '0' -> '1'"]


def test_the_report_counts_the_identical_configs(runs):
    base, change = runs
    text = compare_artifacts.report(["equal", "ulp", "flipped"], base, change)
    lines = text.splitlines()
    assert lines[1].split() == ["equal", "same", "same", "same", "same"]
    assert lines[2].split() == ["ulp", "DIFF", "same", "same", "same"]
    assert lines[3].split() == ["flipped", "DIFF", "DIFF", "same", "same"]
    assert lines[4] == "1 of 3 configs identical"
