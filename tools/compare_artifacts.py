"""Compare what ``algopt run`` writes at two git revisions, config by config.

    python tools/compare_artifacts.py BASE [CHANGE]

BASE and CHANGE are git revisions of this repository; CHANGE defaults to the
working tree.  Each revision is checked out with ``git worktree add
--detach`` into a temporary directory, which is removed afterwards.  Both
trees run the same fixed list of configs (``configs()``): the three built-in
defaults in normal and abnormal mode, four box and symbol variants, an so3
run whose cone check cuts its needle context on a switch, a custom
tangent chart, a wong-so3-r2 run that diverges after ten steps, LQ from a
zero and from a signed-zero costate and LQ diverging at t = 0.077, and the
so3-bang-bang, wong-so3-r2 and classical-tm-lq draws 0-11 of seed 1 from
``perfbench/workloads.py``.  Each tree runs them in one subprocess, with
``PYTHONPATH`` set to that tree's ``src``, through
``algopt.cli.main(["run", config, "--out", dir])``; the two subprocesses run
side by side.

For each config the report says whether every file, the exit code, stdout
(with the output path masked) and stderr are equal.  Where a CSV differs it
gives the largest |difference| in each column, and where a JSON report
differs each value that moved, a check's value and verdict included.

Exit status: 0 whenever the two trees could be compared, whatever the
differences; 2 when they could not (a revision that does not check out, or a
tree whose runner fails).
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
ARTIFACTS = "artifacts"   # a config's output directory, beside its exit, stdout and stderr
_ABSENT = "(absent)"

# Runs inside a tree's subprocess: argv is the config directory and the output
# root; each config's exit code, stdout and stderr are kept beside its output.
# A fresh warnings filter per config shows each warning as a fresh process would.
RUNNER = r"""
import contextlib, io, json, sys, traceback, warnings
from pathlib import Path
import algopt
from algopt.cli import main

src = Path(sys.argv[3]).resolve()
if Path(algopt.__file__).resolve().parent.parent != src:
    sys.exit(f"algopt imported from {algopt.__file__}, not from {src}")
configs, out_root = Path(sys.argv[1]), Path(sys.argv[2])
for name in json.loads((configs / "index.json").read_text()):
    run_dir = out_root / name
    run_dir.mkdir(parents=True)
    out = run_dir / "artifacts"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings():
        warnings.simplefilter("default")
        try:
            code = main(["run", str(configs / (name + ".json")), "--out", str(out)])
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = "traceback"
    (run_dir / "exit").write_text(str(code))
    (run_dir / "stdout").write_text(stdout.getvalue().replace(str(out.resolve()), "<out>"))
    (run_dir / "stderr").write_text(stderr.getvalue())
"""


def _workloads():
    """perfbench/workloads.py, imported read-only for its config makers."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    return importlib.import_module("workloads")


def configs() -> dict[str, dict]:
    """The 52 configs, by name.  Defaults are partial configs, so each tree
    fills in its own; abnormal runs set ``z0_mode``, which every revision
    since the option existed reads from the file."""
    out = {}
    for name in ("so3-bang-bang", "classical-tm-lq", "wong-so3-r2"):
        out[name] = {"scenario": name}
        out[f"{name}-abnormal"] = {"scenario": name, "z0_mode": "abnormal"}
    out["classical-tm-lq-u_max-0.1"] = {"scenario": "classical-tm-lq", "params": {"u_max": 0.1}}
    # The LQ field is constant, and its flow one stage and a sum, from a zero
    # costate too, unless an entry of -0.0 has the rate +0.0 or the sum flags
    # (here: overflows): those are stepped instead.
    out["classical-tm-lq-zero-costate"] = {"scenario": "classical-tm-lq", "z_init": [0.0]}
    out["classical-tm-lq-signed-zero"] = {"scenario": "classical-tm-lq", "z_init": [-0.0],
                                          "initial_point": [-0.0]}
    out["classical-tm-lq-diverged"] = {"scenario": "classical-tm-lq", "initial_point": [1.79e308],
                                       "z_init": [1e307], "params": {"u_max": 1e308}}
    for u_max in (0.85, 0.5):
        out[f"wong-so3-r2-u_max-{u_max}"] = {"scenario": "wong-so3-r2", "params": {"u_max": u_max}}
    out["so3-bang-bang-symbols-200"] = {"scenario": "so3-bang-bang",
                                        "solver": {"symbol_samples": 200}}
    # The middle node, the cone check's observation time, is the last node
    # before the first switch (2.22144147): the needle context's control is
    # cut on that switch (horizons 4.44 and 4.441 do this at step 1e-3).
    out["so3-bang-bang-cut-at-switch"] = {"scenario": "so3-bang-bang", "horizon": 4.44,
                                          "solver": {"symbol_samples": 50}}
    out["custom-tangent-2"] = {"scenario": "custom", "chart": {"kind": "tangent", "dim": 2}}
    # Its costate grows about 1e29-fold per step; the step to t = 0.011, after
    # ten finite ones, first overflows inside a stage (b = F(x)^T z), so the
    # failed run's report covers a step the fused flow takes again on arrays.
    out["wong-so3-r2-diverged"] = {"scenario": "wong-so3-r2", "initial_point": [1e10, 1e10]}
    workloads = _workloads()
    for label, make in (("bang-bang-cone", workloads.bang_bang_config),
                        ("wong", workloads.wong_config), ("lq", workloads.classical_config)):
        for i in range(12):
            out[f"{label}-{i:02d}"] = make(1, i)
    return out


# ---------------------------------------------------------------------------
# Comparison of two run directories
# ---------------------------------------------------------------------------

def _files(d: Path) -> dict[str, Path]:
    return {str(p.relative_to(d)): p for p in sorted(d.rglob("*")) if p.is_file()}


def _csv(text: str) -> tuple[list[str], np.ndarray]:
    lines = text.splitlines()
    rows = [[float(v) for v in line.split(",")] for line in lines[1:] if line]
    return lines[0].split(","), np.array(rows, dtype=float).reshape(len(rows), -1)


def csv_deltas(old: str, new: str) -> list[str]:
    """The largest |difference| in each column that moved, or why the tables
    cannot be set side by side."""
    try:
        (head_a, a), (head_b, b) = _csv(old), _csv(new)
    except (ValueError, IndexError) as exc:
        return [f"not comparable as tables: {exc}"]
    if head_a != head_b or a.shape != b.shape:
        return [f"header or shape differs: {len(head_a)} columns x {len(a)} rows -> "
                f"{len(head_b)} columns x {len(b)} rows"]
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(invalid="ignore"):
        delta = np.where(same, 0.0, np.abs(a - b))
    return [f"{name}: max |delta| {np.nanmax(np.where(np.isnan(col), np.inf, col)):.3g} "
            f"over {np.count_nonzero(~ok)} row(s)"
            for name, col, ok in zip(head_a, delta.T, same.T) if not ok.all()]


def _leaves(obj, path: str = "") -> dict:
    """A JSON value as {path: leaf}; a list of checks is keyed by check name."""
    if isinstance(obj, dict) and obj:
        items = [(f"{path}.{key}" if path else key, val) for key, val in obj.items()]
    elif isinstance(obj, list) and obj:
        named = all(isinstance(v, dict) and "name" in v for v in obj)
        items = [(f"{path}[{v['name'] if named else i}]", v) for i, v in enumerate(obj)]
    else:
        return {path: obj}
    return {k: v for key, val in items for k, v in _leaves(val, key).items()}


def json_deltas(old: str, new: str) -> list[str]:
    """Each value that moved, as ``path: old -> new``; a check's value and
    its verdict appear as ``checks[name].value`` and ``checks[name].passed``."""
    try:
        a, b = _leaves(json.loads(old)), _leaves(json.loads(new))
    except ValueError as exc:
        return [f"not comparable as JSON: {exc}"]
    return [f"{key}: {a.get(key, _ABSENT)!r} -> {b.get(key, _ABSENT)!r}"
            for key in sorted(set(a) | set(b)) if a.get(key, _ABSENT) != b.get(key, _ABSENT)]


def compare_run(old: Path, new: Path) -> tuple[dict[str, bool], list[str]]:
    """For one config's run directories: whether the files, exit code, stdout
    and stderr are equal, and the details of each difference."""
    equal, details = {}, []
    fa, fb = _files(old / ARTIFACTS), _files(new / ARTIFACTS)
    for name in sorted(set(fa) ^ set(fb)):
        details.append(f"{name}: only in {'base' if name in fa else 'change'}")
    for name in sorted(set(fa) & set(fb)):
        a, b = fa[name].read_bytes(), fb[name].read_bytes()
        if a == b:
            continue
        details.append(f"{name}: differs")
        moved = {".csv": csv_deltas, ".json": json_deltas}.get(Path(name).suffix)
        if moved is not None:
            details += [f"  {line}" for line in moved(a.decode(), b.decode())]
    equal["files"] = not details
    for part in ("exit", "stdout", "stderr"):
        a, b = ((d / part).read_text() if (d / part).is_file() else None for d in (old, new))
        equal[part] = a == b
        if a != b:
            details.append(f"{part}: {a!r} -> {b!r}" if part == "exit" else f"{part} differs:")
            if part != "exit":
                details += [f"  base:   {line}" for line in (a or "").splitlines()]
                details += [f"  change: {line}" for line in (b or "").splitlines()]
    return equal, details


def report(names, old_root: Path, new_root: Path) -> str:
    """The table of every config and the details of each that differs."""
    parts = ("files", "exit", "stdout", "stderr")
    width = max(len(n) for n in names)
    lines = [f"{'config':<{width}}  " + "  ".join(f"{p:<6}" for p in parts)]
    details, n_same = [], 0
    for name in names:
        equal, moved = compare_run(old_root / name, new_root / name)
        n_same += all(equal.values())
        lines.append(f"{name:<{width}}  " + "  ".join(
            f"{'same' if equal[p] else 'DIFF':<6}" for p in parts))
        if moved:
            details += ["", f"{name}:"] + [f"  {line}" for line in moved]
    lines.append(f"{n_same} of {len(names)} configs identical")
    return "\n".join(lines + details)


# ---------------------------------------------------------------------------
# Checkouts and runs
# ---------------------------------------------------------------------------

def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, text=True,
                          capture_output=True).stdout.strip()


def _start(tree: Path, config_dir: Path, out: Path, log) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.Popen([sys.executable, "-c", RUNNER, str(config_dir), str(out),
                             str(tree / "src")], env=env, cwd=tree,
                            stdout=log, stderr=subprocess.STDOUT)


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2 or argv[0].startswith("-"):
        print("usage: " + __doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    revs = list(argv) + [None] * (2 - len(argv))
    with tempfile.TemporaryDirectory(prefix="compare-artifacts-") as tmp:
        tmp = Path(tmp)
        config_dir = tmp / "configs"
        config_dir.mkdir()
        cfgs = configs()
        for name, cfg in cfgs.items():
            (config_dir / f"{name}.json").write_text(json.dumps(cfg))
        (config_dir / "index.json").write_text(json.dumps(list(cfgs)))
        trees, added = [], []
        try:
            for label, rev in zip(("base", "change"), revs):
                if rev is None:
                    print(f"{label}: working tree")
                    trees.append(ROOT)
                    continue
                commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
                print(f"{label}: {rev} ({commit[:12]})")
                _git("worktree", "add", "--detach", str(tmp / label), commit)
                added.append(tmp / label)
                trees.append(tmp / label)
            logs = {label: tmp / f"{label}.log" for label in ("base", "change")}
            procs = {}
            for tree, (label, log) in zip(trees, logs.items()):
                with open(log, "w") as fh:
                    procs[label] = _start(tree, config_dir, tmp / f"out-{label}", fh)
            failed = [label for label, proc in procs.items() if proc.wait() != 0]
            for label in failed:
                print(f"the {label} tree's runner failed (exit {procs[label].returncode}):\n"
                      f"{logs[label].read_text()}", file=sys.stderr)
            if failed:
                return 2
            print(report(list(cfgs), tmp / "out-base", tmp / "out-change"))
        except subprocess.CalledProcessError as exc:
            print(f"git {' '.join(exc.cmd[3:])} failed: {exc.stderr.strip()}", file=sys.stderr)
            return 2
        finally:
            for path in added:
                subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                                str(path)], capture_output=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
