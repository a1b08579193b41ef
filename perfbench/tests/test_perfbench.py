"""Tests of the benchmark harness itself: input generation, op checks and tracing."""

import inspect
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, nested_count, self_times  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_for_a_seed(name, tmp_path):
    wl = workloads.WORKLOADS[name]

    def contents(seed, where):
        return [f.read_bytes() for i in range(2) for f in wl.prepare(seed, i, where)]

    first = contents(11, tmp_path / "a")
    assert first == contents(11, tmp_path / "b")
    assert first != contents(12, tmp_path / "c")


def test_so3_draws_lie_on_the_free_time_level():
    a, b = np.array(workloads.SO3_A), np.array(workloads.SO3_B)
    for i in range(200):
        rng = workloads.op_rng(3, i)
        switching = workloads.draw_switching_covector(rng)
        shoot = workloads.draw_shoot_covector(rng)
        for z in (switching, shoot):
            assert abs(z @ a + abs(z @ b) - 1.0) < 1e-12
        assert 1.07 < np.linalg.norm(switching) < 1.63


def test_shoot_targets_switch_once_within_the_horizon():
    from algopt.pmp import integrate_pmp_flow
    from algopt.scenarios import build_so3_bang_bang_system

    system = build_so3_bang_bang_system(workloads.SO3_A, workloads.SO3_B)
    for i in range(5):
        z = workloads.draw_shoot_covector(workloads.op_rng(3, i))
        flow = integrate_pmp_flow(system, np.zeros(0), z, -1.0, 0.0,
                                  workloads.SHOOT_HORIZON, step=workloads.SHOOT_STEP)
        assert len(flow.switch_times) == 1
        assert 1.1 < flow.switch_times[0] < 1.7


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        Span("cli.main", 0.0, 10.0, -1, 0),
        Span("scenarios.run_scenario", 1.0, 9.0, 0, 0),
        Span("scenarios.scenario_x", 2.0, 6.0, 1, 0),   # same layer: walked through
        Span("pmp.integrate_pmp_flow", 3.0, 5.0, 2, 0),
        Span("numerics.integrate_segmented", 3.5, 4.0, 3, 0),
        Span("serialize.write_costate_csv", 7.0, 8.5, 1, 0),
    ]
    assert self_times(spans) == pytest.approx([2.0, 4.5, 2.0, 1.5, 0.5, 1.5])
    assert nested_count(spans, "scenarios.run_scenario", "pmp.integrate_pmp_flow") == 1
    assert nested_count(spans, "pmp.shoot_endpoint", "pmp.integrate_pmp_flow") == 0


def _algopt_functions():
    return {(name, attr): value for name, mod in list(sys.modules.items())
            if name == "algopt" or name.startswith("algopt.")
            for attr, value in vars(mod).items() if inspect.isfunction(value)}


def test_tracer_rebinds_every_binding_and_restores_them():
    before = _algopt_functions()
    with Tracer():
        during = _algopt_functions()
        wrappers = [v for v in during.values() if hasattr(v, "__wrapped__")]
        originals = {id(v.__wrapped__) for v in wrappers}
        assert not any(id(v) in originals for v in during.values())
        # Some functions are also bound in other modules by "from .x import y";
        # those bindings are wrapped as well.
        assert len(originals) < len(wrappers)
    assert _algopt_functions() == before


def test_counts_repeat_exactly_across_traced_runs(tmp_path):
    lq = workloads.RunWorkload("lq", (workloads.classical_config,))
    seen = []
    for tag in ("first", "second"):
        loaded = lq.load(lq.prepare(5, 0, tmp_path / tag))
        tracer = Tracer()
        with tracer:
            result = lq.run(loaded, tmp_path / tag / "out")
        assert result.ok, result.detail
        seen.append((tracer.counts, tracer.extra))
    assert seen[0] == seen[1]
    assert seen[0][0]["cli.main"] == 1


def test_rejected_config_counts_as_failed(tmp_path):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"scenario": "so3-bang-bang", "z_init": [1.0, 0.0]}))
    wl = workloads.WORKLOADS["bang-bang-cone"]
    result = wl.run([config], tmp_path / "out")
    assert not result.ok
    assert "exit 2" in result.detail[0]


def test_parse_importtime():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       727 |     450238 |     scipy.optimize\n"
            "import time:       630 |     607967 | algopt\n")
    assert bench_run.parse_importtime(text) == {"scipy.optimize": 0.450238,
                                                "algopt": 0.607967}


def test_exits_nonzero_without_the_program(tmp_path):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "shoot",
                           "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
