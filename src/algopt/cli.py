"""Command-line entry point.

    algopt list-scenarios
    algopt validate <config.json> [--seed N]
    algopt run <config.json> [--out DIR] [--step S] [--tol T] [--seed N]
                             [--z0 {normal,abnormal}]
    algopt audit <config.json> --traj trajectory.csv --costate costate.csv
                             [--out DIR] [--tol T]

An audit takes its grid and z0 from the CSVs and its mode from the scenario.

Exit status 0 when every enabled check passes, 1 on audit failure, 2 on
configuration errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .errors import AlgoptError, ConfigError
from .pmp import verify_extremal
from .scenarios import SCENARIOS, run_scenario, validate_chart, validate_config
from .serialize import _report_text, read_costate_csv, read_trajectory_csv, write_report_json


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(path, "config file not found") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(path, f"invalid JSON: {exc}") from None


def _apply_overrides(cfg: dict, args) -> dict:
    """``cfg`` with the set flags: --step, --tol, --seed in solver, --z0 as z0_mode."""
    if not isinstance(cfg, dict) or not isinstance(cfg.get("solver") or {}, dict):
        return cfg   # left for validate_config to reject with a field path
    flags = {k: v for k, v in vars(args).items() if v is not None}
    solver = dict(cfg.get("solver") or {})
    solver.update({k: flags[k] for k in ("step", "tol", "seed") if k in flags})
    cfg = dict(cfg, solver=solver)
    if "z0" in flags:
        cfg["z0_mode"] = flags["z0"]
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


def _cmd_audit(args) -> int:
    cfg = validate_config(_apply_overrides(_load_config(args.config), args))
    if cfg["scenario"] not in SCENARIOS:
        raise ConfigError("scenario", "auditing requires a built-in scenario")
    scenario = SCENARIOS[cfg["scenario"]]
    sys_ = scenario.problem(cfg)[0]
    for file in (args.traj, args.costate):
        if not Path(file).is_file():
            raise ConfigError(file, "file not found")
    path, u_nodes = read_trajectory_csv(args.traj, Path(args.traj).with_name("switches.csv"))
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
        audit = verify_extremal(sys_, path, costate, u_nodes, mode=scenario.mode,
                                tol=float(cfg["solver"]["tol"]))
    report = audit.to_dict()
    if args.out:
        write_report_json(Path(args.out) / "audit.json", report)
    print(_report_text(report))
    return 0 if audit.passed else 1


@functools.cache   # built once per process; parse_args leaves it as it was
def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="algopt",
                                     description="optimal control on anchored bundle charts")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-scenarios", help="print the built-in scenario names")

    p_val = sub.add_parser("validate", help="check the chart axioms only")
    p_val.add_argument("config")
    p_val.add_argument("--seed", type=int)

    p_run = sub.add_parser("run", help="run a scenario and write artifacts")
    p_run.add_argument("config")
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--step", type=float)
    p_run.add_argument("--tol", type=float)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--z0", choices=("normal", "abnormal"))

    p_audit = sub.add_parser("audit", help="audit trajectory/costate CSVs")
    p_audit.add_argument("config")
    p_audit.add_argument("--traj", required=True)
    p_audit.add_argument("--costate", required=True)
    p_audit.add_argument("--out")
    p_audit.add_argument("--tol", type=float)
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
