"""Control systems on a chart: trajectory simulation, the cost-absorbing
extension, and the two parallel-transport operators with their pairing law.

Transport along a trajectory x(t) integrates, jointly with the base,

    fiber flow      ydot^i = df^i/dx^a rho^a_k y^k + c^i_jk y^j f^k ,
    dual flow       zdot_k = -rho^a_k (df^i/dx^a z_i + dL/dx^a z0)
                             + c^i_jk f^j z_i ,          z0dot = 0.

The two flows preserve the fiber/dual pairing exactly when the structure
functions are skew; :func:`pairing_drift` measures the numerical defect.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .core import (ChartAlgebroid, _dual_field, _lift_matrix, _shaped, affine_matrix_field,
                   product_with_time)
from .numerics import TimeGrid, finite_difference_jacobian, integrate_segmented
from .paths import EPath

__all__ = [
    "FiniteSet",
    "Box",
    "ControlSpace",
    "ControlSignal",
    "ControlSystem",
    "control_affine",
    "Trajectory",
    "simulate_trajectory",
    "extend_system",
    "transport_B",
    "transport_Bbar",
    "pairing_drift",
]

_BOX_SLACK = 1e-12   # of Box.contains; pmp._affine_pmp_step clips within it, calls _box_qp past it


def _as_control(u) -> np.ndarray:   # held values, 1-D float arrays already, pass as they are
    return (u if type(u) is np.ndarray and u.ndim == 1 and u.dtype == float
            else np.atleast_1d(np.asarray(u, dtype=float)))


@dataclass(frozen=True)
class FiniteSet:
    """Finite control set; values are kept in listing order for tie-breaking."""

    values: tuple

    def __post_init__(self):
        vals = tuple(_as_control(v) for v in self.values)
        if not vals:
            raise ValueError("finite control set must be nonempty")
        if len({v.shape for v in vals}) != 1:
            raise ValueError("control values must share one dimension")
        object.__setattr__(self, "values", vals)

    @property
    def dim(self) -> int:
        return self.values[0].size

    def contains(self, u) -> bool:
        u = _as_control(u)
        return any(np.allclose(u, v, atol=1e-12) for v in self.values)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box of controls, with an optional exact maximizer
    ``maximizer(x, z, z0) -> u`` of H over the box, as :func:`control_affine`
    registers; without one, maximizing H over it raises UnsupportedDimensionError."""

    lower: np.ndarray
    upper: np.ndarray
    maximizer: Callable | None = None

    def __post_init__(self):
        lo = _as_control(self.lower)
        hi = _as_control(self.upper)
        if lo.shape != hi.shape or np.any(lo > hi):
            raise ValueError("box bounds must satisfy lower <= upper componentwise")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, u):   # one bool per row of a stack
        u = _as_control(u)
        return np.all((u >= self.lower - _BOX_SLACK) & (u <= self.upper + _BOX_SLACK), axis=-1)

    def clip(self, u) -> np.ndarray:
        return np.clip(_as_control(u), self.lower, self.upper)


ControlSpace = Union[FiniteSet, Box]


@dataclass(frozen=True)
class ControlSignal:
    """Piecewise-constant control; right-continuous at its switch times."""

    t0: float
    t1: float
    switch_times: tuple[float, ...]
    values: tuple

    def __post_init__(self):
        st = tuple(float(s) for s in self.switch_times)
        if any(not (self.t0 < s < self.t1) for s in st):
            raise ValueError("switch times must lie strictly inside the interval")
        if any(b >= a for a, b in zip(st[1:], st[:-1])):
            raise ValueError("switch times must be strictly increasing")
        vals = tuple(_as_control(v) for v in self.values)
        if len(vals) != len(st) + 1:
            raise ValueError(f"{len(st)} switch times need {len(st) + 1} segment values")
        object.__setattr__(self, "switch_times", st)
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, u, t0: float, t1: float) -> "ControlSignal":
        return cls(t0, t1, (), (u,))

    def value(self, t: float) -> np.ndarray:
        idx = int(np.searchsorted(self.switch_times, t, side="right"))
        return self.values[idx]


@dataclass(frozen=True)
class ControlSystem:
    """Control map f(x, u) into the fiber and running cost L(x, u)."""

    alg: ChartAlgebroid
    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    L: Callable[[np.ndarray, np.ndarray], float]
    control_space: ControlSpace
    f_jacobian: Callable | None = None   # (x, u) -> (m, n)
    L_gradient: Callable | None = None   # (x, u) -> (n,)
    affine: tuple | None = None          # the (F, G) tables of control_affine

    def f_at(self, x, u) -> np.ndarray:
        out = self.f(np.asarray(x, dtype=float), _as_control(u))
        return _shaped(out, (self.alg.fiber_dim,), "f returned shape")

    def L_at(self, x, u) -> float:
        return float(self.L(np.asarray(x, dtype=float), _as_control(u)))

    def f_jac_at(self, x, u) -> np.ndarray:
        if self.f_jacobian is not None:
            return np.asarray(self.f_jacobian(np.asarray(x, dtype=float), _as_control(u)),
                              dtype=float)
        u = _as_control(u)
        return finite_difference_jacobian(lambda p: self.f_at(p, u), x)

    def L_grad_at(self, x, u) -> np.ndarray:
        if self.L_gradient is not None:
            return np.asarray(self.L_gradient(np.asarray(x, dtype=float), _as_control(u)),
                              dtype=float)
        u = _as_control(u)
        return finite_difference_jacobian(lambda p: self.L_at(p, u), x)[0]


def _box_qp(b: np.ndarray, G: np.ndarray, c: float, box: Box) -> np.ndarray:
    """argmax of b.u - (c/2) u.G u over the box at each row of b (k, p) and
    G (k, p, p), for c >= 0 and G positive definite.  For c > 0 it is the
    interior point G^-1 b / c when feasible, else (rows outside only) the
    best feasible stationary point over the 3^p faces of the box (each
    coordinate free, at its lower or at its upper bound): a concave maximum
    is the stationary point of the face it lies inside.  H is formed only on
    the rows whose face point lies in the box, so an infeasible face point
    far outside it cannot overflow.  For one control the best face is the
    bound nearest the interior point, so every row is that point clipped,
    with no search (each caller clips anyway).  For c = 0 it is the sign
    rule, the upper bound where b_j >= 0."""
    if c == 0:
        return np.where(b >= 0, box.upper, box.lower)
    u = (np.linalg.inv(G) @ b[..., None])[..., 0] / c
    if b.shape[1] == 1:
        return box.clip(u)
    out = ~box.contains(u)
    if not out.any():
        return u
    b, G = b[out], G[out]
    best, best_h = u[out], np.full(len(b), -np.inf)
    for face in map(np.array, itertools.product((0, 1, 2), repeat=b.shape[1])):
        free = face == 2
        v = np.tile(np.where(face == 0, box.lower, box.upper), (len(b), 1))
        if free.any():
            rhs = b[:, free] - (c * G[:, free][:, :, ~free] @ v[:, ~free, None])[..., 0]
            v[:, free] = np.linalg.solve(G[:, free][:, :, free], rhs[..., None])[..., 0] / c
        ok, h = box.contains(v), np.full(len(b), -np.inf)
        w, Gw = v[ok], G[ok]
        h[ok] = (b[ok, None] @ w[..., None] - 0.5 * c * (w[:, None] @ Gw @ w[..., None]))[:, 0, 0]
        better = h > best_h
        best[better], best_h[better] = v[better], h[better]
    u[out] = best
    return u


def control_affine(alg: ChartAlgebroid, F, G, u_max: float) -> ControlSystem:
    """The system f(x, u) = F(x) u with the cost L(x, u) = 1/2 u.G(x) u over
    the box |u_j| <= u_max, with exact Jacobians.  ``F`` and ``G`` are
    (const, linear) pairs of :func:`core.affine_matrix_field` (linear may be
    None): F(x) has shape (m, p), G(x) shape (p, p), and each linear part one
    more axis (n,), else ``ValueError`` names the table; G(x) is symmetric positive
    definite where the system is used.  The box's maximizer of
    H = b.u + (z0/2) u.G u, b = F(x).T z, is exact (:func:`_box_qp`).  The
    audit and the fused flow read F and G from ``affine``, zero linear parts as None,
    and dh/dx from the Jacobians, which take one control or a stack of them."""
    m, n, p = alg.fiber_dim, alg.base_dim, np.shape(F[0])[-1] if np.ndim(F[0]) else 0
    for name, (c, d), shape in (("F", F, (m, p)), ("G", G, (p, p))):
        _shaped(c, shape, f"{name} has shape")
        if d is not None:
            _shaped(d, shape + (n,), f"{name}'s linear part has shape")
    F, G = ((c, None if d is None or not np.any(d) else d) for c, d in (F, G))
    F_at, dF = affine_matrix_field(*F)
    G_at, dG = affine_matrix_field(*G)
    dF_u = np.moveaxis(dF(np.zeros(n)), 1, 2).reshape(m * n, p)
    dG_u = dG(np.zeros(n)).reshape(p, p * n)
    box = Box(-u_max * np.ones(p), u_max * np.ones(p), maximizer=lambda x, z, z0: _box_qp(
        (F_at(x).T @ z)[None], G_at(x)[None], -z0, box)[0])

    def f_jacobian(x, u):   # (m, n), or (k, m, n) for a stack u (k, p), row by row the same bits
        if u.ndim == 1:   # one gemv, the BLAS call of the stack's matmul
            return dF_u.dot(u).reshape(m, n)
        return (dF_u @ u[..., None]).reshape(u.shape[:-1] + (m, n))

    def L_gradient(x, u):   # (n,), or (k, n) for a stack u (k, p), row by row the same bits
        row = u[..., None, :]
        return 0.5 * (row @ (row @ dG_u).reshape(u.shape[:-1] + (p, n)))[..., 0, :]

    return ControlSystem(
        alg=alg,
        f=lambda x, u: F_at(x) @ u,
        L=lambda x, u: 0.5 * float(u @ G_at(x) @ u),
        control_space=box,
        f_jacobian=f_jacobian,
        L_gradient=L_gradient,
        affine=(F, G),
    )


@dataclass(frozen=True)
class Trajectory:
    """An admissible path together with the control that produced it."""

    path: EPath
    control: ControlSignal


def _flow_rhs(sys: ControlSystem, u, block):
    """RHS ``(t, state) -> dstate`` of the base flow xdot = rho(x) f(x, u) on
    the state (x, w), with wdot = block(x, u, w) appended.  ``u`` is a held
    control value, or a callable (x, w) -> u; every stage evaluates u, the
    chart and the block."""
    n = sys.alg.base_dim
    pick = u if callable(u) else (lambda x, w: u)

    def rhs(t, state):
        x, w = state[:n], state[n:]
        v = pick(x, w)
        return np.concatenate([sys.alg.anchor_at(x) @ sys.f_at(x, v), block(x, v, w)])

    return rhs


@dataclass(frozen=True)
class _PointTable:
    """What holding a control fixes when no coefficient reads the base point:
    over a point, and on the cost extension of a point system (``point`` of
    :func:`_held_pass`), whose one base coordinate, the accrued cost, nothing
    reads.  Row i is for the control value v_i: F[i] = f(v_i), L[i] = L(v_i),
    the dual transport zdot = K[i] z (columns of costate_rhs; its z0 term
    z0 dL/dx vanishes) and the complete lift ydot = M[i] y."""

    F: np.ndarray  # (k, m)
    L: np.ndarray  # (k,)
    K: np.ndarray  # (k, m, m)
    M: np.ndarray  # (k, m, m)


def _point_table(sys: ControlSystem, values, x=np.zeros(0)) -> _PointTable:
    """The table of ``sys`` over the control values, at the base point x."""
    eye = np.eye(sys.alg.fiber_dim)
    F = np.array([sys.f_at(x, v) for v in values])
    K = [np.column_stack([costate_rhs(sys, x, v, e, 0.0) for e in eye]) for v in values]
    M = [_lift_matrix(sys.alg, x, f, sys.f_jac_at(x, v)) for f, v in zip(F, values)]
    return _PointTable(F, np.array([sys.L_at(x, v) for v in values]), np.array(K), np.array(M))


def _signal_grid(sys: ControlSystem, signal: ControlSignal, step: float) -> TimeGrid:
    """The grid on the signal's interval with its switch times as
    breakpoints; raises unless every control value lies in the control space."""
    for v in signal.values:
        if not sys.control_space.contains(v):
            raise ValueError(f"control value {v} outside the control space")
    return TimeGrid(signal.t0, signal.t1, step, signal.switch_times)


def _held_pass(sys: ControlSystem, signal: ControlSignal, grid: TimeGrid, x0, w0=None,
               dual: bool = False, z0: float = 0.0, point: bool = False):
    """(base, fiber samples f(x, u), w samples or None) on ``grid``, each
    segment holding the signal's value at its midpoint; w is the fiber
    transport ydot = M y of the vector or frame w0, or for ``dual`` the dual
    transport (costate_rhs at z0) of the vector w0.  Where no coefficient
    reads the base (over a point, or ``point``), a segment holds a row of
    :func:`_point_table` at x0: the base adds the RK4 increments of its
    constant rate rho f(v), and w steps by R(hA).  With a base one
    :func:`_flow_rhs` pass carries both."""
    n = sys.alg.base_dim
    x0 = np.asarray(x0, dtype=float)
    y0 = np.zeros(0) if w0 is None else np.ravel(w0)
    at_node = np.searchsorted(signal.switch_times, grid.nodes, side="right")
    if point or not n:
        table = _point_table(sys, signal.values, x0)
        mats = table.K if dual else table.M
        r = (table.F @ sys.alg.anchor_at(x0).T)[at_node[:-1]]
        steps = np.diff(grid.nodes)[:, None] * ((r + 2.0 * r + 2.0 * r + r) / 6.0)
        base = np.cumsum(np.concatenate([x0[None], steps]), axis=0)
        fiber = table.F[at_node]

        def held(seg, lo, hi):
            return mats[np.searchsorted(signal.switch_times, 0.5 * (lo + hi), side="right")]

        w = None if w0 is None else integrate_segmented(held, grid, y0)
    else:
        def block(x, v, w):
            if w0 is None:
                return w
            if dual:
                return costate_rhs(sys, x, v, w, z0)
            M = _lift_matrix(sys.alg, x, sys.f_at(x, v), sys.f_jac_at(x, v))
            return (M @ w.reshape(w0.shape)).ravel()

        def held(seg, lo, hi):
            return _flow_rhs(sys, signal.value(0.5 * (lo + hi)), block)

        state = integrate_segmented(held, grid, np.concatenate([x0, y0]))
        base = np.ascontiguousarray(state[:, :n])
        w = state[:, n:]
        fiber = np.array([sys.f_at(x, signal.values[k]) for x, k in zip(base, at_node)])
    return base, fiber, None if w0 is None else w.reshape((-1,) + w0.shape)


def simulate_trajectory(sys: ControlSystem, signal: ControlSignal, x0: np.ndarray,
                        step: float = 1e-3) -> Trajectory:
    """Integrate xdot = rho(x) f(x, u(t)) on the signal's interval, with samples
    a = f(x, u) (by :func:`_held_pass`; over a point, the table's f(v) on an (N, 0) base)."""
    x0 = _shaped(x0, (sys.alg.base_dim,), "initial point has shape")
    grid = _signal_grid(sys, signal, step)
    base, fiber, _ = _held_pass(sys, signal, grid, x0)
    return Trajectory(EPath(grid, base, fiber), signal)


def extend_system(sys: ControlSystem) -> ControlSystem:
    """Absorb the cost: on the time-extended chart (:func:`core.product_with_time`)
    the control map becomes (L(x, u), f(x, u)), the extra base coordinate
    integrates the running cost, and the cost of the extended system is
    identically zero."""
    n, m = sys.alg.base_dim, sys.alg.fiber_dim

    def f_ext(xx, u):
        x = xx[1:]
        return np.concatenate(([sys.L_at(x, u)], sys.f_at(x, u)))

    def f_jac_ext(xx, u):
        x = xx[1:]
        out = np.zeros((m + 1, n + 1))
        out[0, 1:] = sys.L_grad_at(x, u)
        out[1:, 1:] = sys.f_jac_at(x, u)
        return out

    return ControlSystem(
        alg=product_with_time(sys.alg),
        f=f_ext,
        L=lambda xx, u: 0.0,
        control_space=sys.control_space,
        f_jacobian=f_jac_ext,
        L_gradient=lambda xx, u: np.zeros(n + 1),
    )


def costate_rhs(sys: ControlSystem, x: np.ndarray, u: np.ndarray, z: np.ndarray,
                z0: float) -> np.ndarray:
    """zdot_k = -rho^a_k (df^i/dx^a z_i + dL/dx^a z0) + c^i_jk f^j z_i."""
    alg, dh_dx = sys.alg, None
    if alg.base_dim:
        dh_dx = sys.f_jac_at(x, u).T @ z + z0 * sys.L_grad_at(x, u)
    return _dual_field(alg.structure_at(x), alg.anchor_at(x), sys.f_at(x, u), z, dh_dx)


def _transport(sys: ControlSystem, traj: Trajectory, w0: np.ndarray, dual: bool,
               z0: float = 0.0) -> np.ndarray:
    """Samples (N, *w0.shape) of :func:`_held_pass`'s transport of w0 along traj."""
    return _held_pass(sys, traj.control, traj.path.grid, traj.path.base[0], w0, dual, z0)[2]


def transport_B(sys: ControlSystem, traj: Trajectory, y0: np.ndarray) -> np.ndarray:
    """Transport the fiber vector y0 along the trajectory; returns samples (N, m)."""
    y0 = _shaped(y0, (sys.alg.fiber_dim,), "fiber vector has shape")
    return _transport(sys, traj, y0, False)


def transport_Bbar(sys: ControlSystem, traj: Trajectory, z0_pair) -> tuple[np.ndarray, float]:
    """Transport a dual vector along the trajectory.

    ``z0_pair`` is (z, z0); the multiplier z0 is a constant parameter of the
    flow and is never integrated.  The plain dual transport is the z0 = 0
    case.  Returns (samples (N, m), z0).
    """
    z_init, z0 = z0_pair
    z_init = _shaped(z_init, (sys.alg.fiber_dim,), "dual vector has shape")
    z0 = float(z0)
    return _transport(sys, traj, z_init, True, z0), z0


def pairing_drift(sys: ControlSystem, traj: Trajectory, y0: np.ndarray,
                  xi0: np.ndarray) -> float:
    """Max over the grid of |<B y0, Bbar xi0> - <y0, xi0>|."""
    ys = transport_B(sys, traj, y0)
    zs, _ = transport_Bbar(sys, traj, (xi0, 0.0))
    pairing = np.einsum("ni,ni->n", ys, zs)
    return float(np.abs(pairing - pairing[0]).max())
