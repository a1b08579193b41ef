import itertools
from math import copysign

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from algopt.errors import IntegrationDivergedError
from algopt.numerics import (TimeGrid, _float_rk4, finite_difference_jacobian,
                             grid_derivative, integrate, integrate_segmented)


def test_grid_rejects_bad_intervals():
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, -0.1)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 0.1, (1.5,))
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 0.1, (0.0,))


def test_grid_contains_breakpoints_exactly():
    bp = 0.3333333333333333
    grid = TimeGrid(0.0, 1.0, 1e-3, (bp, 0.5))
    assert bp in grid.nodes
    assert 0.5 in grid.nodes
    assert grid.nodes[0] == 0.0 and grid.nodes[-1] == 1.0
    assert np.all(np.diff(grid.nodes) > 0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(t0=st.floats(0.0, 1e8), step=st.floats(1e-4, 1e-1), n=st.integers(1, 60),
       cuts=st.lists(st.integers(1, 59), max_size=3))
@example(t0=121843.2827230996, step=0.002043118942748335, n=2, cuts=[])
@example(t0=121843.2827230996, step=0.002043118942748335, n=3, cuts=[2])
def test_a_whole_number_of_steps_repeats_no_node(t0, step, n, cuts):
    """Far from 0 a sum t + step can round to the segment's end while more
    than step (1 + slack) remained before it; that node ends the segment
    once.  t1 and the breakpoints are sums t0 + step + ... + step."""
    sums = list(itertools.accumulate([t0] + [step] * n))
    t1 = sums[-1]
    grid = TimeGrid(t0, t1, step, tuple(sums[c] for c in cuts if c < n))
    nodes = grid.nodes
    assert nodes[0] == t0 and nodes[-1] == t1
    assert np.all(np.diff(nodes) > 0)
    assert set(grid.breakpoints) <= set(nodes.tolist())


def test_grid_from_nodes_requires_breakpoint_membership():
    with pytest.raises(ValueError):
        TimeGrid.from_nodes([0.0, 0.5, 1.0], breakpoints=(0.25,))
    grid = TimeGrid.from_nodes([0.0, 0.5, 1.0], breakpoints=(0.5,))
    assert grid.segment_bounds == ((0, 1), (1, 2))


def test_integrate_zero_field_is_exact():
    grid = TimeGrid(0.0, 1.0, 0.01)
    ys = integrate(lambda t, y: np.zeros(1), grid, np.array([3.0]))
    assert np.all(ys == 3.0)


def test_integrate_exponential():
    grid = TimeGrid(0.0, 1.0, 1e-3)
    ys = integrate(lambda t, y: y, grid, np.array([1.0]))
    assert abs(ys[-1, 0] - np.e) < 1e-9


def test_breakpoint_node_present_for_switching_field():
    grid = TimeGrid(0.0, 1.0, 1e-2, (0.5,))

    def make_rhs(seg, lo, hi):
        sign = 1.0 if seg == 0 else -1.0
        return lambda t, y: sign * np.ones(1)

    ys = integrate_segmented(make_rhs, grid, np.array([0.0]))
    idx = np.searchsorted(grid.nodes, 0.5)
    assert grid.nodes[idx] == 0.5
    assert abs(ys[idx, 0] - 0.5) < 1e-12
    assert abs(ys[-1, 0]) < 1e-12


def test_rk4_order():
    def run(step):
        ys = integrate(lambda t, y: y, TimeGrid(0.0, 1.0, step), np.array([1.0]))
        return abs(ys[-1, 0] - np.e)

    coarse, fine = run(0.02), run(0.01)
    assert coarse / fine >= 12.0


def test_breakpoint_insertion_is_silent_on_smooth_rhs():
    rhs = lambda t, y: np.array([np.sin(t) * y[0]])
    plain = integrate(rhs, TimeGrid(0.0, 1.0, 1e-3), np.array([1.0]))
    split = integrate(rhs, TimeGrid(0.0, 1.0, 1e-3, (0.5004,)), np.array([1.0]))
    rel = abs(plain[-1, 0] - split[-1, 0]) / abs(plain[-1, 0])
    assert rel < 1e-12


def test_divergence_reports_time():
    grid = TimeGrid(0.0, 2.0, 1e-2)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationDivergedError) as err:
            integrate(lambda t, y: y * y, grid, np.array([5.0]))
    assert 0.0 < err.value.t <= 2.0


def test_fd_jacobian_identity():
    jac = finite_difference_jacobian(lambda x: x, np.array([1.0, -2.0]))
    assert np.allclose(jac, np.eye(2), atol=1e-10)


def test_fd_jacobian_square():
    jac = finite_difference_jacobian(lambda x: x ** 2, np.array([2.0]), h=1e-5)
    assert abs(jac[0, 0] - 4.0) < 1e-8


def test_fd_jacobian_constant():
    jac = finite_difference_jacobian(lambda x: np.array([7.0, 1.0]), np.array([0.3, 0.4]))
    assert np.all(jac == 0.0)


def test_fd_jacobian_rejects_nonpositive_step():
    with pytest.raises(ValueError):
        finite_difference_jacobian(lambda x: x, np.array([1.0]), h=0.0)


def test_grid_derivative_one_sided_at_kinks():
    # continuous values with a slope jump at the breakpoint: the stored node
    # sample belongs to both segments, the derivative estimate to the right one
    grid = TimeGrid(0.0, 1.0, 0.05, (0.5,))
    ts = grid.nodes
    vals = np.where(ts < 0.5, ts, 0.5 + 3.0 * (ts - 0.5))[:, None]
    dv = grid_derivative(grid, vals)
    k = np.searchsorted(ts, 0.5)
    assert abs(dv[k, 0] - 3.0) < 1e-9
    assert abs(dv[k - 1, 0] - 1.0) < 1e-9


@pytest.mark.parametrize("y0, zdot, summed", [
    ([0.25, 0.5], 0.0, True), ([-0.0, 0.0], 0.0, True), ([0.25, -0.0], -0.0, True),
    ([0.25, -0.0], 0.0, False)])
def test_a_constant_step_is_summed_with_the_bits_of_stepping(y0, zdot, summed):
    """The stage (x, z) -> (sign of z, zdot) reads z alone, whose rate is
    zdot = ±0: declared constant, its flow is one stage evaluation and a sum,
    with the bytes of the same stage stepped.  A z of -0.0 at rate +0.0 turns
    +0.0 at the first stage input, so that flow is stepped (and x moves the
    other way from its second stage on)."""
    calls = []

    def stage(v):
        calls.append(1)
        return [copysign(1.0, v[1]), zdot]

    grid = TimeGrid(0.0, 1.0, 0.1)
    flow = integrate(_float_rk4(stage, constant=True), grid, np.array(y0))
    assert len(calls) == (1 if summed else 1 + 4 * 10)
    assert flow.tobytes() == integrate(_float_rk4(stage), grid, np.array(y0)).tobytes()


def test_a_constant_step_whose_rate_is_not_finite_is_stepped():
    """A stage on Python floats flags nothing: its rate 1e308 * 10.0 is inf,
    so the last stage input is not finite and the steps are taken instead,
    the first of which raises as stepping does."""
    step = _float_rk4(lambda v: [1e308 * 10.0, 0.0], constant=True)
    with pytest.raises(IntegrationDivergedError) as raised:
        integrate(step, TimeGrid(0.0, 1.0, 0.5), np.array([0.0, 1.0]))
    assert raised.value.t == 0.5
