import csv
import io
import json

import numpy as np
import pytest

from algopt.numerics import TimeGrid
from algopt.paths import EPath
from algopt.pmp import CostatePath
from algopt.serialize import (_report_text, infer_breakpoints, read_costate_csv,
                              read_trajectory_csv, write_costate_csv, write_switch_times,
                              write_trajectory_csv)
from algopt.errors import ConfigError


def test_path_round_trip(tmp_path):
    """A path with a base and a breakpoint, and no control columns, comes back
    from the trajectory CSV and its switches CSV bit for bit."""
    grid = TimeGrid(0.0, 1.0, 0.125, (0.5,))
    ts = grid.nodes
    base = np.column_stack([np.sin(ts), ts])
    fiber = np.column_stack([np.cos(ts)])
    p = EPath(grid, base, fiber)
    f = tmp_path / "path.csv"
    write_trajectory_csv(f, p, np.zeros((grid.n_nodes, 0)))
    write_switch_times(tmp_path / "switches.csv", grid.breakpoints)
    assert (tmp_path / "switches.csv").read_bytes() == b"t\n0.5\n"
    q, u = read_trajectory_csv(f, tmp_path / "switches.csv")
    assert u.shape == (grid.n_nodes, 0)
    assert np.array_equal(q.grid.nodes, p.grid.nodes)
    assert np.array_equal(q.base, p.base)
    assert np.array_equal(q.fiber, p.fiber)
    assert q.grid.breakpoints == (0.5,)


@pytest.mark.parametrize("text", ["0.5\n", "0.25\n0.5\n", "time\n0.5\n", ""])
def test_a_switches_file_without_its_header_is_a_config_error(tmp_path, text):
    """The first line of a switches CSV must be the header t: a file that
    starts with a time, or with another name, or is empty, is rejected with
    its path instead of read as a shorter list of switches."""
    grid = TimeGrid(0.0, 1.0, 0.125)
    f = tmp_path / "traj.csv"
    write_trajectory_csv(f, EPath(grid, np.zeros((grid.n_nodes, 0)), np.ones((grid.n_nodes, 1))),
                         np.zeros((grid.n_nodes, 1)))
    (tmp_path / "switches.csv").write_text(text)
    with pytest.raises(ConfigError) as err:
        read_trajectory_csv(f, tmp_path / "switches.csv")
    assert err.value.path == str(tmp_path / "switches.csv")


def test_trajectory_and_costate_round_trip(tmp_path):
    grid = TimeGrid(0.0, 1.0, 0.25)
    N = grid.n_nodes
    path = EPath(grid, np.zeros((N, 0)), np.arange(3 * N, dtype=float).reshape(N, 3))
    u = np.linspace(-1, 1, N)[:, None]
    write_trajectory_csv(tmp_path / "traj.csv", path, u)
    p2, u2 = read_trajectory_csv(tmp_path / "traj.csv")
    assert np.array_equal(u2, u)
    assert np.array_equal(p2.fiber, path.fiber)
    assert p2.base.shape == (N, 0)

    costate = CostatePath(grid, np.linspace(0, 1, 2 * N).reshape(N, 2), -1.0)
    h = np.zeros(N)
    write_costate_csv(tmp_path / "cost.csv", costate, h)
    c2, h2 = read_costate_csv(tmp_path / "cost.csv")
    assert np.array_equal(c2.z, costate.z)
    assert c2.z0 == -1.0
    assert np.array_equal(h2, h)


def test_csv_rows_are_the_bytes_of_csv_writer(tmp_path):
    """A table is written as csv.writer writes it: the header, then one row
    per node of %.17g numbers, every line ending in CRLF."""
    grid = TimeGrid(0.0, 1.0, 0.5)
    base = np.array([[1.0 / 3.0], [-0.0], [1e300]])
    fiber = np.array([[2.0 ** -1074, 0.1], [np.nan, -np.inf], [12.5, 7e-5]])
    u = np.array([[1.0], [-1.0], [0.25]])
    f = tmp_path / "traj.csv"
    write_trajectory_csv(f, EPath(grid, base, fiber), u)
    reference = io.StringIO(newline="")
    writer = csv.writer(reference)
    writer.writerow(["t", "x_1", "a_1", "a_2", "u_1"])
    for row in np.column_stack([grid.nodes, base, fiber, u]):
        writer.writerow(["%.17g" % v for v in row])
    assert f.read_bytes() == reference.getvalue().encode()
    assert f.read_bytes().startswith(b"t,x_1,a_1,a_2,u_1\r\n0,0.33333333333333331,")


def test_infer_breakpoints():
    ts = np.array([0.0, 0.1, 0.2, 0.3, 0.4])
    u = np.array([[1.0], [1.0], [-1.0], [-1.0], [1.0]])
    assert infer_breakpoints(ts, u) == (0.2,)


def test_numbered_columns_are_read_by_their_numbers(tmp_path):
    """Columns written out of order are read back by number, not position."""
    f = tmp_path / "traj.csv"
    f.write_text("t,a_2,x_1,a_1,u_1\n0,20,1,10,5\n1,21,2,11,6\n")
    path, u = read_trajectory_csv(f)
    assert path.base.tolist() == [[1.0], [2.0]]
    assert path.fiber.tolist() == [[10.0, 20.0], [11.0, 21.0]]
    assert u.tolist() == [[5.0], [6.0]]


@pytest.mark.parametrize("header", ["t,x_2,a_1,u_1", "t,x_0,a_1,u_1", "t,x_1,a_1,a_3,u_1"])
def test_misnumbered_columns_are_a_config_error_naming_the_file(tmp_path, header):
    """A gap in the numbers, or numbers not starting at 1, exit 2 with the
    file's path instead of a KeyError-like traceback."""
    f = tmp_path / "traj.csv"
    values = ",".join(["0"] * len(header.split(",")))
    f.write_text(f"{header}\n{values}\n{values.replace('0', '1', 1)}\n")
    with pytest.raises(ConfigError) as err:
        read_trajectory_csv(f)
    assert err.value.path == str(f)


def test_report_text_writes_numpy_values_as_plain_json():
    """Array entries and numpy scalars become Python numbers, and a
    non-finite one null, so the text is strict JSON."""
    text = _report_text({"a": np.array([1.0, np.nan]), "b": np.float64(np.inf),
                         "c": np.int64(3)})
    assert json.loads(text, parse_constant=pytest.fail) == {"a": [1.0, None], "b": None, "c": 3}
