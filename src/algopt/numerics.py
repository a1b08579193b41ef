"""Deterministic fixed-step ODE integration with discontinuity-aware time grids.

All flow computations in the library go through :func:`integrate` /
:func:`integrate_segmented`, which apply classical fourth-order Runge-Kutta
segment-wise between declared breakpoints and never step across one.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from math import isfinite
from typing import Sequence

import numpy as np

from .errors import IntegrationDivergedError

__all__ = [
    "TimeGrid",
    "integrate",
    "integrate_segmented",
    "rk4_step",
    "finite_difference_jacobian",
    "grid_derivative",
]

# Relative slack when deciding whether a remaining interval still fits one step.
_STEP_SLACK = 1e-9


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid on [t0, t1] refined so that every breakpoint is a node.

    Nodes are accumulated segment-by-segment (t += step) so that repeated
    unit-rate integration reproduces node times bitwise.  The final interval
    of each segment may be shorter than ``step``.  ``nodes_override`` carries
    explicit nodes for grids obtained by path composition, where spacing is
    no longer uniform; ``step`` is then the nominal (maximal) spacing.  An
    array given there is owned by the grid, which makes it read-only.
    """

    t0: float
    t1: float
    step: float
    breakpoints: tuple[float, ...] = ()
    nodes_override: tuple[float, ...] | np.ndarray | None = field(default=None, repr=False,
                                                                  compare=False)

    def __post_init__(self):
        if not (self.t0 < self.t1):
            raise ValueError(f"need t0 < t1, got [{self.t0}, {self.t1}]")
        if not (self.step > 0):
            raise ValueError(f"step must be positive, got {self.step}")
        bps = tuple(float(b) for b in np.unique(np.asarray(self.breakpoints, dtype=float)))
        for b in bps:
            if not (self.t0 < b < self.t1):
                raise ValueError(f"breakpoint {b} outside open interval ({self.t0}, {self.t1})")
        object.__setattr__(self, "breakpoints", bps)

    @classmethod
    def from_nodes(cls, nodes: Sequence[float], breakpoints: Sequence[float] = (),
                   step: float | None = None) -> "TimeGrid":
        nodes = tuple(float(t) for t in nodes)
        if len(nodes) < 2:
            raise ValueError("need at least two nodes")
        diffs = np.diff(nodes)
        if np.any(diffs <= 0):
            raise ValueError("nodes must be strictly increasing")
        node_set = set(nodes)
        for b in breakpoints:
            if float(b) not in node_set:
                raise ValueError(f"breakpoint {b} is not a node")
        if step is None:
            step = float(diffs.max())
        return cls(nodes[0], nodes[-1], step, tuple(breakpoints), nodes_override=nodes)

    @cached_property
    def nodes(self) -> np.ndarray:
        if self.nodes_override is not None:
            out = np.asarray(self.nodes_override, dtype=float)
        else:
            bounds = (self.t0, *self.breakpoints, self.t1)
            acc = []
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                t = lo
                acc.append(t)
                while hi - t > self.step * (1.0 + _STEP_SLACK):
                    t = t + self.step
                    acc.append(t)
            acc.append(self.t1)
            out = np.asarray(acc, dtype=float)
        out.flags.writeable = False
        return out

    @cached_property
    def segment_bounds(self) -> tuple[tuple[int, int], ...]:
        """Index ranges (start, stop inclusive) of the smooth segments."""
        nodes = self.nodes
        cuts = [0]
        for b in self.breakpoints:
            cuts.append(int(np.searchsorted(nodes, b)))
        cuts.append(len(nodes) - 1)
        return tuple((cuts[k], cuts[k + 1]) for k in range(len(cuts) - 1))

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


def _rk4_sum(y, h: float, k1, k2, k3, k4):
    """RK4's update from the four stage slopes, on arrays or on Python floats:
    elementwise IEEE adds and multiplies, so both give the same bits.

    The increment is written as ``h * (combo / 6)`` so that a unit-rate RHS
    advances the state by exactly ``h`` in floating point.
    """
    return y + h * ((k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0)


def _rk4(f_lo, f_mid, f_hi, y, h: float):
    """The classical RK4 stage formula, with the field at the left end, the
    midpoint and the right end of the step given as ``y -> dy`` callables."""
    k1 = f_lo(y)
    k2 = f_mid(y + (h / 2.0) * k1)
    k3 = f_mid(y + (h / 2.0) * k2)
    k4 = f_hi(y + h * k3)
    return _rk4_sum(y, h, k1, k2, k3, k4)


def rk4_step(fn, t: float, y: np.ndarray, h: float) -> np.ndarray:
    """One classical RK4 step of ``y' = fn(t, y)``."""
    t_mid = t + h / 2.0
    return _rk4(lambda v: fn(t, v), lambda v: fn(t_mid, v), lambda v: fn(t + h, v), y, h)


def _rk4_matrix(X: np.ndarray) -> np.ndarray:
    """R(X) = I + X + X^2/2 + X^3/6 + X^4/24, the stability polynomial of RK4:
    on a linear ODE y' = A y an RK4 step of length h is y -> R(hA) y
    (Hairer, Norsett and Wanner, *Solving ODEs I*, IV.2)."""
    eye = np.eye(X.shape[-1])
    return eye + X @ (eye + X @ (eye / 2.0 + X @ (eye / 6.0 + X / 24.0)))


class _linear_rk4:
    """RK4 on y' = A y as a step (t, y, h) -> R(hA) y, t unread (:func:`_rk4_matrix`).
    y is a vector or the columns of a frame flattened row-major; R is formed
    again only when h changes.  :func:`_held_steps` steps ``R`` on y's (m, k)
    shape itself."""

    def __init__(self, A: np.ndarray):
        self.dim = len(A)
        self.R = lru_cache(maxsize=1)(lambda h: _rk4_matrix(h * A))

    def __call__(self, t, y, h):
        return (self.R(h) @ y.reshape(self.dim, -1)).ravel()


class _float_rk4:
    """RK4 on the autonomous y' = stage(y) as a step (t, y, h) -> y, t unread.
    ``stage`` maps a state (the step's input array for k1, a list of floats
    for the others) to its derivative as a list of floats, and the stage
    inputs and :func:`_rk4_sum` run on Python floats: the bits of
    :func:`_rk4` on arrays, without numpy's per-call cost on a small state.
    Python floats do not warn, so a step with a non-finite stage input or
    result is taken again by :func:`_rk4` on arrays, which warns or raises as
    the caller's errstate says."""

    def __init__(self, stage):
        self.stage = stage

    def __call__(self, t, y, h):
        stage, y0, s = self.stage, y.tolist(), h / 2.0
        k1 = stage(y)
        v = [a + s * k for a, k in zip(y0, k1)]
        if isfinite(sum(v)):   # inf or NaN if any term is (or if finite ones overflow)
            k2 = stage(v)
            v = [a + s * k for a, k in zip(y0, k2)]
            if isfinite(sum(v)):
                k3 = stage(v)
                v = [a + h * k for a, k in zip(y0, k3)]
                if isfinite(sum(v)):
                    k4 = stage(v)
                    v = [_rk4_sum(a, h, p, q, r, w) for a, p, q, r, w in zip(y0, k1, k2, k3, k4)]
                    if isfinite(sum(v)):
                        return np.array(v)

        def on_arrays(v):
            return np.array(stage(v))

        return _rk4(on_arrays, on_arrays, on_arrays, y, h)


def _rk4_sampled(fn, lo: tuple, hi: tuple, y, h: float):
    """One RK4 step of ``y' = fn(*coefficients, y)`` whose coefficients are
    node samples: ``lo`` at the left node and ``hi`` at the right one.  The
    midpoint stages use the mean of the two samples."""
    mid = tuple(0.5 * (a + b) for a, b in zip(lo, hi))
    return _rk4(lambda v: fn(*lo, v), lambda v: fn(*mid, v), lambda v: fn(*hi, v), y, h)


def _held_steps(advance, nodes, y) -> np.ndarray:
    """The states at ``nodes[1:]`` stepped from y by ``advance`` (t, y, h) -> y,
    stacked, up to the first non-finite one.  The times are read once, as
    Python floats; a :class:`_linear_rk4` step is taken as R(h) @ Y on y's
    (m, k) shape.  A non-finite first step raises before another is taken
    (NaN steps flag nothing).  Later steps run under an errstate raising on
    overflow and invalid values; a flagged one ends the states, so the next
    call takes it first and warns as the caller's errstate says, as in a
    node-by-node loop."""
    ts = np.asarray(nodes, dtype=float).tolist()
    hs = [b - a for a, b in zip(ts, ts[1:])]
    R = advance.R if isinstance(advance, _linear_rk4) else None
    ys = [advance(ts[0], y, hs[0]) if R is None else R(hs[0]) @ y.reshape(advance.dim, -1)]
    if not np.isfinite(ys[0]).all():
        raise IntegrationDivergedError(ts[1])
    with suppress(FloatingPointError), np.errstate(over="raise", invalid="raise"):
        for t, h in zip(ts[1:], hs[1:]):
            ys.append(advance(t, ys[-1], h) if R is None else R(h) @ ys[-1])
    ys = np.array(ys).reshape(len(ys), -1)
    finite = np.isfinite(ys[1:]).all(axis=1)
    return ys if finite.all() else ys[:1 + finite.argmin()]


def integrate_segmented(make_rhs, grid: TimeGrid, y0: np.ndarray) -> np.ndarray:
    """RK4 over ``grid``, with a per-segment RHS factory.

    ``make_rhs(seg_index, t_lo, t_hi)`` returns the RHS callable used on that
    segment (or a matrix A: y' = A y, by :func:`_linear_rk4`, or a
    :class:`_float_rk4` step), so piecewise fields (e.g. held controls) are
    evaluated on the correct side of each breakpoint, including at the closing
    stage point.  Each segment goes by :func:`_held_steps`, in as many passes
    as it flags steps.  Returns (n_nodes, dim).
    """
    y = np.array(y0, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValueError("initial state must be finite")
    nodes = grid.nodes
    out = np.empty((len(nodes), y.size))
    out[0] = y
    for seg_index, (i0, i1) in enumerate(grid.segment_bounds):
        fn = make_rhs(seg_index, nodes[i0], nodes[i1])
        advance = (fn if isinstance(fn, _float_rk4) else _linear_rk4(fn)
                   if isinstance(fn, np.ndarray) else partial(rk4_step, fn))
        while i0 < i1:
            ys = _held_steps(advance, nodes[i0:i1 + 1], y)
            out[i0 + 1:i0 + 1 + len(ys)] = ys
            i0, y = i0 + len(ys), ys[-1]
    return out


def integrate(rhs, grid: TimeGrid, y0: np.ndarray) -> np.ndarray:
    """RK4 integration of ``rhs``, a callable ``(t, y) -> dy`` (or a
    :class:`_float_rk4` step), at every node of ``grid``.  It is evaluated
    segment-wise and must be well defined at segment closures."""
    return integrate_segmented(lambda seg, lo, hi: rhs, grid, y0)


def finite_difference_jacobian(fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference Jacobian of ``fn`` at ``x``; column j uses x +/- h e_j."""
    if not (h > 0):
        raise ValueError("finite-difference step must be positive")
    x = np.asarray(x, dtype=float)
    f0 = np.atleast_1d(np.asarray(fn(x), dtype=float))
    jac = np.empty((f0.size, x.size))
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        fp = np.atleast_1d(np.asarray(fn(x + e), dtype=float))
        fm = np.atleast_1d(np.asarray(fn(x - e), dtype=float))
        jac[:, j] = (fp - fm) / (2.0 * h)
    return jac


def grid_derivative(grid: TimeGrid, values: np.ndarray) -> np.ndarray:
    """Time derivative of node samples, segment-wise (never across breakpoints).

    Uses second-order central differences inside each segment and one-sided
    differences at segment edges.  At a breakpoint node the derivative of the
    right segment wins, matching the convention that samples stored at a
    breakpoint carry the right-hand limit.
    """
    values = np.asarray(values, dtype=float)
    nodes = grid.nodes
    if values.shape[0] != len(nodes):
        raise ValueError("sample count does not match grid nodes")
    out = np.empty_like(values)
    for i0, i1 in grid.segment_bounds:
        seg_t = nodes[i0:i1 + 1]
        seg_v = values[i0:i1 + 1]
        edge = 2 if len(seg_t) >= 3 else 1
        out[i0:i1 + 1] = np.gradient(seg_v, seg_t, axis=0, edge_order=edge)
    return out
