"""CSV and JSON artifact formats.

Column layouts (all tables row-major, one sample per line):

  trajectory CSV  t, x_1..x_n, a_1..a_m, u_1..u_p
  costate CSV     t, z_1..z_m, z0, H
  switches CSV    t, then one control-switch time per line (LF line ends)

The readers raise ConfigError naming the file when it is not such a table.
"""

from __future__ import annotations

import json
import math
import warnings
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .numerics import TimeGrid
from .paths import EPath
from .pmp import CostatePath

__all__ = [
    "write_trajectory_csv",
    "read_trajectory_csv",
    "write_costate_csv",
    "read_costate_csv",
    "write_switch_times",
    "write_report_json",
]

_FMT = "%.17g"


def _write_rows(file, header: list[str], table: np.ndarray) -> None:
    """The header and the rows of an (N, k) float table, comma-separated with
    CRLF line ends: the bytes ``csv.writer`` gives for plain names and
    numbers."""
    path = Path(file)
    path.parent.mkdir(parents=True, exist_ok=True)
    row = ",".join([_FMT] * table.shape[1]) + "\r\n"
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(row % tuple(r) for r in table.tolist())


def _names(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{j+1}" for j in range(count)]


def _columns(data, prefix: str, file) -> np.ndarray:
    """The numbered columns prefix1, prefix2, ... of a parsed table, (N, count),
    read by their numbers; raises ConfigError naming the file unless the
    numbers run from 1 without a gap."""
    names = _names(prefix, sum(1 for c in data.dtype.names if c.startswith(prefix)))
    if not set(names) <= set(data.dtype.names):
        raise ConfigError(str(file), f"{prefix} columns are not numbered 1 to {len(names)}")
    return np.column_stack([data[name] for name in names]) if names else np.zeros((len(data), 0))


def write_trajectory_csv(file, path: EPath, u_nodes: np.ndarray) -> None:
    u_nodes = np.atleast_2d(np.asarray(u_nodes, dtype=float))
    n, m, p = path.base_dim, path.fiber_dim, u_nodes.shape[1]
    header = ["t"] + _names("x_", n) + _names("a_", m) + _names("u_", p)
    _write_rows(file, header, np.column_stack([path.grid.nodes, path.base, path.fiber, u_nodes]))


def _read_table(file, fields: tuple[str, ...]) -> tuple[np.ndarray, TimeGrid]:
    """Rows of an artifact CSV and the time grid of its ``t`` column.  Raises
    ConfigError naming the file unless it has a header holding ``fields``
    and at least two rows of finite numbers at increasing times (a
    non-numeric entry parses as NaN)."""
    try:
        with warnings.catch_warnings():   # an empty file warns, then fails
            warnings.simplefilter("ignore")
            data = np.atleast_1d(np.genfromtxt(file, delimiter=",", names=True))
    except (ValueError, IndexError):   # ragged rows; an empty file
        raise ConfigError(str(file), "not a CSV table with one header line") from None
    for name in fields:
        if name not in data.dtype.names:
            raise ConfigError(str(file), f"no column {name!r}")
    for name in data.dtype.names:
        if not np.all(np.isfinite(data[name])):
            raise ConfigError(str(file), f"column {name!r} has a non-numeric or non-finite entry")
    return data, _grid(file, data["t"], ())


def _grid(file, nodes, breakpoints) -> TimeGrid:
    try:
        return TimeGrid.from_nodes(nodes, tuple(breakpoints))
    except ValueError as exc:   # under two rows, times not increasing, a breakpoint off them
        raise ConfigError(str(file), str(exc)) from None


def read_trajectory_csv(file, switches=None) -> tuple[EPath, np.ndarray]:
    """The path and the control samples of a trajectory CSV.  Given the path
    of a switches CSV, the grid breaks at the times :func:`_switch_times`
    reads from it."""
    data, grid = _read_table(file, ("t",))
    base, fiber, u_nodes = (_columns(data, prefix, file) for prefix in ("x_", "a_", "u_"))
    if switches is not None:
        grid = _grid(file, grid.nodes, _switch_times(Path(switches), grid.nodes, u_nodes))
    return EPath(grid, base, fiber), u_nodes


def infer_breakpoints(ts: np.ndarray, u_nodes: np.ndarray) -> tuple[float, ...]:
    """Interior node times where the sampled control changes value; used to
    reconstruct segment structure when auditing CSV artifacts."""
    u_nodes = np.atleast_2d(np.asarray(u_nodes, dtype=float))
    changed = (u_nodes[1:-1] != u_nodes[:-2]).any(axis=1)
    return tuple(float(t) for t in np.asarray(ts)[1:-1][changed])


def write_switch_times(file, times) -> None:
    Path(file).write_text("t\n" + "".join(_FMT % t + "\n" for t in times))


def _switch_times(file: Path, nodes: np.ndarray, u_nodes: np.ndarray) -> tuple[float, ...]:
    """The node times in a switches CSV; without the file, the nodes where the
    control changes, unless at over 5% of the nodes."""
    if not file.is_file():
        guess = infer_breakpoints(nodes, u_nodes)
        return guess if len(guess) <= 0.05 * len(nodes) else ()
    header, _, body = file.read_text().partition("\n")
    if header.strip() != "t":
        raise ConfigError(str(file), "expected the header 't' on the first line")
    try:
        times = tuple(float(t) for t in body.split())
    except ValueError:
        times = (np.nan,)
    if not set(times) <= set(nodes[1:-1]):
        raise ConfigError(str(file), "expected a header, then one interior node time per line")
    return times


def write_costate_csv(file, costate: CostatePath, h_nodes: np.ndarray) -> None:
    header = ["t"] + _names("z_", costate.fiber_dim) + ["z0", "H"]
    nodes = costate.grid.nodes
    _write_rows(file, header, np.column_stack([nodes, costate.z, np.full(len(nodes), costate.z0),
                                               h_nodes]))


def read_costate_csv(file) -> tuple[CostatePath, np.ndarray]:
    data, grid = _read_table(file, ("t", "z0", "H"))
    z0 = data["z0"]
    if np.ptp(z0) != 0 or z0[0] > 0:
        raise ConfigError(str(file), "column 'z0' must hold one value, at most 0")
    return CostatePath(grid, _columns(data, "z_", file), float(z0[0])), data["H"]


def write_report_json(file, report: dict) -> None:
    """The report as :func:`_report_text`, with a final newline."""
    Path(file).parent.mkdir(parents=True, exist_ok=True)
    Path(file).write_text(_report_text(report) + "\n")


def _report_text(report: dict) -> str:
    """Strict JSON (RFC 8259 has no NaN or Infinity): a non-finite number,
    numpy scalars and array entries included, is written as null."""
    return json.dumps(_plain(report), indent=2, sort_keys=True, allow_nan=False)


def _plain(obj):
    """``obj`` with numpy values as Python ones and non-finite floats as None."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, np.generic):
        obj = obj.item()
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj
