"""Command-line entry point.

    algopt list-scenarios
    algopt validate <config.json>
    algopt run <config.json> [--out DIR] [--step S] [--tol T] [--seed N]
                             [--z0 {normal,abnormal}]
    algopt audit <config.json> --traj trajectory.csv --costate costate.csv
                             [--tol T] [--mode {free-time,fixed-time}]

Exit status 0 when every enabled check passes, 1 on audit failure, 2 on
configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .errors import AlgoptError, ConfigError
from .pmp import verify_extremal
from .scenarios import SCENARIOS, run_scenario, validate_chart, validate_config
from .serialize import (_report_text, infer_breakpoints, read_costate_csv,
                        read_trajectory_csv, write_report_json)


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(path, "config file not found") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(path, f"invalid JSON: {exc}") from None


def _apply_overrides(cfg: dict, args) -> dict:
    if not isinstance(cfg, dict) or not isinstance(cfg.get("solver") or {}, dict):
        return cfg   # left for validate_config to reject with a field path
    cfg = dict(cfg)
    solver = dict(cfg.get("solver") or {})
    if args.step is not None:
        solver["step"] = args.step
    if getattr(args, "tol", None) is not None:
        solver["tol"] = args.tol
    if args.seed is not None:
        solver["seed"] = args.seed
    cfg["solver"] = solver
    if getattr(args, "z0", None) is not None:
        cfg["z0_mode"] = args.z0
    return cfg


def _cmd_list(args) -> int:
    for name in SCENARIOS:
        print(name)
    return 0


def _cmd_validate(args) -> int:
    cfg = _apply_overrides(_load_config(args.config), args)
    report = validate_chart(cfg)
    print(_report_text(report))
    return 0 if report["passed"] else 1


def _cmd_run(args) -> int:
    cfg = _apply_overrides(_load_config(args.config), args)
    report = run_scenario(cfg, args.out)
    for check in report["checks"]:
        status = "pass" if check["passed"] else "FAIL"
        print(f"{status}  {check['name']}: {check['value']:.3g} "
              f"(tol {check['tolerance']:.3g})")
    print(f"artifacts written to {Path(args.out).resolve()}")
    return 0 if report["passed"] else 1


def _switch_times(written: Path, path, u_nodes) -> tuple[float, ...]:
    """The switch times ``run`` wrote beside the trajectory; without them, the
    nodes where the control changes, unless at over 5% of the nodes."""
    if not written.is_file():
        guess = infer_breakpoints(path.grid.nodes, u_nodes)
        return guess if len(guess) <= 0.05 * path.grid.n_nodes else ()
    try:
        times = tuple(float(t) for t in written.read_text().split()[1:])
    except ValueError:
        times = (np.nan,)
    if not set(times) <= set(path.grid.nodes):
        raise ConfigError(str(written), "expected a header, then one node time per line")
    return times


def _cmd_audit(args) -> int:
    cfg = validate_config(_apply_overrides(_load_config(args.config), args))
    if cfg["scenario"] not in SCENARIOS:
        raise ConfigError("scenario", "auditing requires a built-in scenario")
    sys_ = SCENARIOS[cfg["scenario"]].system(cfg)
    for file in (args.traj, args.costate):
        if not Path(file).is_file():
            raise ConfigError(file, "file not found")
    path, u_nodes = read_trajectory_csv(args.traj)
    breakpoints = _switch_times(Path(args.traj).with_name("switches.csv"), path, u_nodes)
    if breakpoints:
        path, u_nodes = read_trajectory_csv(args.traj, breakpoints)
    costate, _ = read_costate_csv(args.costate)   # only its nodes and z are read
    n, m = sys_.alg.base_dim, sys_.alg.fiber_dim
    for file, prefix, cols, want in (
            (args.traj, "x_", path.base, n), (args.traj, "a_", path.fiber, m),
            (args.traj, "u_", u_nodes, sys_.control_space.dim),
            (args.costate, "z_", costate.z, m)):
        if cols.shape[1] != want:
            raise ConfigError(file, f"has {cols.shape[1]} {prefix} columns; the "
                                    f"{cfg['scenario']} system needs {want}")
    if not np.array_equal(costate.grid.nodes, path.grid.nodes):
        raise ConfigError(args.costate, "costate times do not match the trajectory's")
    with np.errstate(over="ignore", invalid="ignore"):   # as run_scenario: overflow fails a check
        audit = verify_extremal(sys_, path, costate, u_nodes, mode=args.mode,
                                tol=float(cfg["solver"]["tol"]))
    report = audit.to_dict()
    if args.out:
        write_report_json(Path(args.out) / "audit.json", report)
    print(_report_text(report))
    return 0 if audit.passed else 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="algopt",
                                     description="optimal control on anchored bundle charts")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-scenarios", help="print the built-in scenario names")

    p_val = sub.add_parser("validate", help="check the chart axioms only")
    p_val.add_argument("config")

    p_run = sub.add_parser("run", help="run a scenario and write artifacts")
    p_run.add_argument("config")
    p_run.add_argument("--out", default="out")

    p_audit = sub.add_parser("audit", help="audit trajectory/costate CSVs")
    p_audit.add_argument("config")
    p_audit.add_argument("--traj", required=True)
    p_audit.add_argument("--costate", required=True)
    p_audit.add_argument("--mode", choices=("free-time", "fixed-time"),
                         default="free-time")
    p_audit.add_argument("--out", default=None)

    for p in (p_val, p_run, p_audit):
        p.add_argument("--step", type=float, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--z0", choices=("normal", "abnormal"), default=None)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    handlers = {
        "list-scenarios": _cmd_list,
        "validate": _cmd_validate,
        "run": _cmd_run,
        "audit": _cmd_audit,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except AlgoptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
