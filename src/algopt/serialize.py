"""CSV and JSON artifact formats.

Column layouts (all tables row-major, one sample per line):

  path CSV        t, x_1..x_n, a_1..a_m
  homotopy CSV    t, eps, x_1..x_n, a_1..a_m, b_1..b_m
  trajectory CSV  t, x_1..x_n, a_1..a_m, u_1..u_p
  costate CSV     t, z_1..z_m, z0, H
  frame CSV       t, B_11..B_mm, Bbar_11..Bbar_mm
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .control import TransportFrame
from .numerics import TimeGrid
from .paths import EPath, HomotopyField
from .pmp import CostatePath

__all__ = [
    "write_path_csv",
    "read_path_csv",
    "write_homotopy_csv",
    "write_trajectory_csv",
    "read_trajectory_csv",
    "write_costate_csv",
    "read_costate_csv",
    "write_frame_csv",
    "write_report_json",
]

_FMT = "%.17g"


def _write_rows(file, header: list[str], rows) -> None:
    path = Path(file)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_FMT % v for v in row])


def _names(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{j+1}" for j in range(count)]


def _columns(data, prefix: str) -> np.ndarray:
    """The numbered columns prefix1, prefix2, ... of a parsed table, (N, count)."""
    count = sum(1 for c in data.dtype.names if c.startswith(prefix))
    if not count:
        return np.zeros((np.atleast_1d(data["t"]).size, 0))
    return np.column_stack([np.atleast_1d(data[name]) for name in _names(prefix, count)])


def write_path_csv(file, path: EPath) -> None:
    write_trajectory_csv(file, path, np.zeros((path.grid.n_nodes, 0)))


def read_path_csv(file, breakpoints=()) -> EPath:
    return read_trajectory_csv(file, breakpoints)[0]


def write_homotopy_csv(file, field: HomotopyField) -> None:
    if field.b is None:
        raise ValueError("homotopy field has no b component")
    T, E, m = field.a.shape
    n = field.base.shape[2]
    header = ["t", "eps"] + _names("x_", n) + _names("a_", m) + _names("b_", m)

    def rows():
        for it, t in enumerate(field.t_grid.nodes):
            for ie, e in enumerate(field.eps_nodes):
                yield np.concatenate(([t, e], field.base[it, ie],
                                      field.a[it, ie], field.b[it, ie]))

    _write_rows(file, header, rows())


def write_trajectory_csv(file, path: EPath, u_nodes: np.ndarray) -> None:
    u_nodes = np.atleast_2d(np.asarray(u_nodes, dtype=float))
    n, m, p = path.base_dim, path.fiber_dim, u_nodes.shape[1]
    header = ["t"] + _names("x_", n) + _names("a_", m) + _names("u_", p)
    rows = (np.concatenate(([t], path.base[k], path.fiber[k], u_nodes[k]))
            for k, t in enumerate(path.grid.nodes))
    _write_rows(file, header, rows)


def read_trajectory_csv(file, breakpoints=()) -> tuple[EPath, np.ndarray]:
    data = np.genfromtxt(file, delimiter=",", names=True)
    ts = np.atleast_1d(data["t"])
    grid = TimeGrid.from_nodes(ts, tuple(breakpoints))
    path = EPath(grid, _columns(data, "x_"), _columns(data, "a_"))
    return path, _columns(data, "u_")


def infer_breakpoints(ts: np.ndarray, u_nodes: np.ndarray) -> tuple[float, ...]:
    """Interior node times where the sampled control changes value; used to
    reconstruct segment structure when auditing CSV artifacts."""
    u_nodes = np.atleast_2d(np.asarray(u_nodes, dtype=float))
    out = []
    for k in range(1, len(ts) - 1):
        if not np.array_equal(u_nodes[k], u_nodes[k - 1]):
            out.append(float(ts[k]))
    return tuple(out)


def write_costate_csv(file, costate: CostatePath, h_nodes: np.ndarray) -> None:
    header = ["t"] + _names("z_", costate.fiber_dim) + ["z0", "H"]
    rows = (np.concatenate(([t], costate.z[k], [costate.z0, h_nodes[k]]))
            for k, t in enumerate(costate.grid.nodes))
    _write_rows(file, header, rows)


def read_costate_csv(file, breakpoints=()) -> tuple[CostatePath, np.ndarray]:
    data = np.genfromtxt(file, delimiter=",", names=True)
    ts = np.atleast_1d(data["t"])
    z0 = float(np.atleast_1d(data["z0"])[0])
    h = np.atleast_1d(data["H"])
    grid = TimeGrid.from_nodes(ts, tuple(breakpoints))
    return CostatePath(grid, _columns(data, "z_"), z0), h


def write_frame_csv(file, frame: TransportFrame) -> None:
    m = frame.B.shape[1]
    header = (["t"] + [f"B_{i+1}{j+1}" for i in range(m) for j in range(m)]
              + [f"Bbar_{i+1}{j+1}" for i in range(m) for j in range(m)])
    rows = (np.concatenate(([t], frame.B[k].ravel(), frame.Bbar[k].ravel()))
            for k, t in enumerate(frame.grid.nodes))
    _write_rows(file, header, rows)


def write_report_json(file, report: dict) -> None:
    path = Path(file)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")
