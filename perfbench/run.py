"""Benchmark of the ``algopt`` pipeline: run, cone-check and shooting workloads.

    python3 perfbench/run.py --workload {bang-bang-cone,box-energy,shoot} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from ``src``.
Each workload is one client in one process (a closed loop: the next op starts
when the previous one ends), with BLAS and OpenMP pinned to one thread in this
process's environment only.  Inputs are generated from ``--seed``; see
``workloads.py`` for the draws and why each workload exists.

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds.
``--trace 1`` runs a fixed number of ops untraced and then the same ops traced,
and reports per-layer metrics per op; a fixed op count makes the counts repeat
exactly for a seed.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Machine info,
every op time and any failure details go to ``.perfbench_work/<run>/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer, nested_count, summarize

# Pin native thread pools before numpy is imported, in this process and the
# probes it starts.  Nothing outside the benchmark's own environment changes.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402 - after the pinning above

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("bang-bang-cone", "box-energy", "shoot")

SETUP_SAMPLES = 7        # fresh-interpreter set-ups per run; the median is reported
IMPORT_SAMPLES = 3       # -X importtime probes per traced run
CALIBRATION_SAMPLES = 3  # calibration loops between consecutive ops

# End-to-end metrics in the JSON result, whose bounds gate a change.  The op
# time is gated as op_p50_norm, the median over ops of the op time divided by
# the time of a fixed calibration loop run just before and after that op: on a
# shared VM the whole machine switches between a fast and a slow state, which
# spread the per-run median op time by 9-29% between quartiles over ten seeds,
# and the ratio cancels most of that.  op_p50_s and
# ops_per_s are printed beside it.  setup_s is corrected the same way and
# reported in seconds at the reference speed, where one calibration loop takes
# REFERENCE_CALIBRATION_S.
GATED = ("setup_s", "op_p50_norm", "ok_ratio", "peak_rss_mb")
TRACED_OPS = {"bang-bang-cone": 3, "box-energy": 4, "shoot": 2}
REFERENCE_CALIBRATION_S = 0.025

# Per-layer metrics and their units.  Names ending in "calls", "s" or "self_s"
# are read from the traced function they name, per op; the rest are computed
# in traced_run.
PER_LAYER = {
    "numerics.rk4_step.calls": "count/op",
    "numerics.integrate_segmented.s": "s/op",
    "control.costate_rhs.calls": "count/op",
    "core.anchor_at.calls": "count/op",
    "core.structure_at.calls": "count/op",
    "pmp.integrate_pmp_flow.s": "s/op",
    "pmp.switches": "count/op",
    "pmp.verify_extremal.s": "s/op",
    "pmp.hamiltonian.calls": "count/op",
    "control.simulate_trajectory.s": "s/op",
    "control.transport_frame.s": "s/op",
    "pmp.make_needle_context.s": "s/op",
    "pmp.needle_vector.s": "s/op",
    "pmp.needle_vector.calls": "count/op",
    "paths.EPath.base_at.calls": "count/op",
    "pmp.shoot_endpoint.s": "s/op",
    "pmp.flows_per_shoot": "count",
    "pmp.develop_to_group.s": "s/op",
    "scenarios.run_scenario.self_s": "s/op",
    "scenarios.validate_chart.s": "s/op",
    "numerics.grid_derivative.s": "s/op",
    "serialize.write.s": "s/op",
    "serialize.bytes_written": "B/op",
    "cli.main.self_s": "s/op",
    "setup.import_s": "s",
    "setup.import_scipy_optimize_s": "s",
    "trace.op_p50_s": "s",
    "trace.overhead_s": "s",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def machine_info() -> dict:
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu or platform.processor(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "platform": platform.platform()}


# ---------------------------------------------------------------------------
# Set-up and import probes (fresh interpreters)
# ---------------------------------------------------------------------------

def setup_seconds(root: Path, workload: str, files) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that import algopt and load the
    first op's inputs, and the same times divided by the calibration loops
    timed just before and after each."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, *map(str, files)]
    env = child_env(root)
    samples, normalized = [], []
    calibration = calibration_samples()
    for _ in range(SETUP_SAMPLES):
        # No timeout: with one, the wait polls and rounds the time to 50 ms.
        start = time.perf_counter()
        subprocess.run(cmd, cwd=root, env=env, check=True)
        samples.append(time.perf_counter() - start)
        before, calibration = calibration, calibration_samples()
        normalized.append(samples[-1] / statistics.fmean(before + calibration))
    return samples, normalized


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from ``python -X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        out.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return out


def import_seconds(root: Path) -> tuple[float, float]:
    """Median of ``import algopt`` and of its ``scipy.optimize`` import."""
    totals, scipy_opt = [], []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import algopt"],
                              cwd=root, env=child_env(root), check=True, timeout=120,
                              capture_output=True, text=True)
        times = parse_importtime(proc.stderr)
        totals.append(times["algopt"])
        scipy_opt.append(times.get("scipy.optimize", 0.0))
    return statistics.median(totals), statistics.median(scipy_opt)


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def calibration_seconds() -> float:
    """Time of a fixed loop of small numpy products and float arithmetic, the
    kind of work the program's RK4 and audit loops do (about 25 ms)."""
    a, v, total = np.arange(9.0).reshape(3, 3), np.ones(3), 0.0
    start = time.perf_counter()
    for i in range(6000):
        w = a @ v + np.concatenate((v[:1], v[1:]))
        total += float(w.sum()) + math.sqrt(i)
    return time.perf_counter() - start


def calibration_samples() -> list[float]:
    return [calibration_seconds() for _ in range(CALIBRATION_SAMPLES)]


def run_op(wl, seed: int, index: int, inputs: Path, out: Path):
    """Generates and loads op ``index``'s inputs, then runs it; only the run
    is timed."""
    loaded = wl.load(wl.prepare(seed, index, inputs))
    result = wl.run(loaded, out)
    wl.verify(loaded, result)
    shutil.rmtree(out, ignore_errors=True)
    return result


def untraced_run(root, wl, seed, seconds, work) -> dict:
    inputs, out = work / "inputs", work / "out"
    first = wl.prepare(seed, 0, inputs)
    setup, setup_normalized = setup_seconds(root, wl.name, first)

    # calibration[i] is timed just before op i and calibration[i + 1] just
    # after it; each op is divided by the mean of the loops around it.  The
    # machine switches between a fast and a slow state within seconds, and
    # the mean follows a window that straddles a switch where the median
    # drops the minority state (over ten seeds on bang-bang-cone, the mean
    # gave a quartile spread of 7% where the median gave 11%).
    ops, normalized = [], []
    calibration = [calibration_samples()]
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        ops.append(run_op(wl, seed, len(ops), inputs, out / f"op{len(ops)}"))
        calibration.append(calibration_samples())
        normalized.append(ops[-1].seconds / statistics.fmean(calibration[-2] + calibration[-1]))

    # Bit-reproducibility: the first op's inputs once more, untimed.
    checks = []
    if wl.repeats_first_op:
        again = run_op(wl, seed, 0, inputs, out / "repeat")
        again.ok &= again.digest == ops[0].digest
        if again.digest != ops[0].digest:
            again.detail.append("repeat of op 0 produced different outputs")
        checks.append(again)

    times = [op.seconds for op in ops]
    attempted = len(ops) + len(checks)
    failed = sum(not op.ok for op in (*ops, *checks))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup_normalized) * REFERENCE_CALIBRATION_S, "s"),
        "setup_raw_s": (statistics.median(setup), "s"),
        "op_p50_norm": (statistics.median(normalized), "calib"),
        "op_p50_s": (statistics.median(times), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "calibration_p50_s": (statistics.median(sum(calibration, [])), "s"),
        "ok_ratio": (1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "op_seconds": times, "calibration_seconds": calibration, "setup_samples": setup,
            "setup_normalized": setup_normalized,
            "failures": [d for op in (*ops, *checks) for d in op.detail]}


def traced_run(root, wl, seed, work) -> dict:
    inputs, out = work / "inputs", work / "out"
    import_s, scipy_s = import_seconds(root)
    n = TRACED_OPS[wl.name]
    plain = [run_op(wl, seed, i, inputs, out / f"plain{i}") for i in range(n)]
    # Inputs are loaded before the tracer is installed and checked after it
    # is removed, so spans and counts hold the timed calls and none of the
    # harness's own work.
    loaded = [wl.load(wl.prepare(seed, i, inputs)) for i in range(n)]
    tracer = Tracer()
    traced = []
    with tracer:
        for i, op_inputs in enumerate(loaded):
            tracer.op = i
            traced.append(wl.run(op_inputs, out / f"traced{i}"))
    for op_inputs, result in zip(loaded, traced):
        wl.verify(op_inputs, result)
    shutil.rmtree(out, ignore_errors=True)
    for p, t in zip(plain, traced):
        if p.digest != t.digest:
            t.ok = False
            t.detail.append("traced op produced different outputs than the untraced one")

    summary = summarize(tracer)
    spans = tracer.spans
    shoots = summary.get("pmp.shoot_endpoint", {}).get("calls", 0)
    traced_p50 = statistics.median(op.seconds for op in traced)
    values = {
        "pmp.switches": tracer.extra.get("pmp.switches", 0.0) / n,
        "pmp.flows_per_shoot": (nested_count(spans, "pmp.shoot_endpoint",
                                             "pmp.integrate_pmp_flow") / shoots
                                if shoots else 0.0),
        "serialize.write.s": sum(v["s"] for k, v in summary.items()
                                 if k.startswith("serialize.write_")) / n,
        "serialize.bytes_written": tracer.extra.get("serialize.bytes_written", 0.0) / n,
        "setup.import_s": import_s,
        "setup.import_scipy_optimize_s": scipy_s,
        "trace.op_p50_s": traced_p50,
        "trace.overhead_s": traced_p50 - statistics.median(op.seconds for op in plain),
    }
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name not in values:
            func, key = name.rsplit(".", 1)
            values[name] = summary.get(func, {}).get(key, 0.0) / n
        metrics[name] = (values[name], unit)

    (work / "spans.json").write_text(json.dumps({
        "fields": ["name", "start", "end", "parent", "op"],
        "spans": [[s.name, s.start, s.end, s.parent, s.op] for s in spans],
        "summary": summary,
        "extra": tracer.extra,
    }))
    ops = plain + traced
    return {"metrics": metrics, "attempted": len(ops),
            "failed": sum(not op.ok for op in ops),
            "op_seconds": [op.seconds for op in ops],
            "failures": [d for op in ops for d in op.detail]}


def pin_to_one_cpu() -> None:
    """Keep this process and its probes on one CPU.  On a shared VM the two
    vCPUs ran at different speeds (15 ms against 21 ms for one loop), so a
    migration mid-run shows up as a step in op time; the highest-numbered CPU
    is used every run."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_to_one_cpu()
    root = Path.cwd()
    if not (root / "src" / "algopt" / "__init__.py").is_file():
        print(f"perfbench: no algopt sources under {root / 'src'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import algopt
    if not Path(algopt.__file__).resolve().is_relative_to((root / "src").resolve()):
        print(f"perfbench: imported algopt from {algopt.__file__}, not from the checkout",
              file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    work = root / ".perfbench_work" / f"{wl.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    if args.trace:
        result = traced_run(root, wl, args.seed, work)
    else:
        result = untraced_run(root, wl, args.seed, args.seconds, work)

    attempted, failed = result["attempted"], result["failed"]
    info = machine_info()
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": info, "failed_ratio": failed / attempted,
              **{k: v for k, v in result.items() if k != "metrics"},
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}}
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"ops {attempted} attempted, {failed} failed  machine {json.dumps(info)}")
    print(f"  failed_ratio = {failed / attempted:.6g} ratio")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name} = {value:.6g} {unit}")
    for detail in result["failures"]:
        print(f"  FAILED: {detail}")
    metrics = record["metrics"] if args.trace else {k: record["metrics"][k] for k in GATED}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
