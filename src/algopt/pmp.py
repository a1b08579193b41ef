"""Generalized Pontryagin machinery: the Hamiltonian and its maximization,
closed-loop extremal integration, extremal audits, needle variations with the
reachable-cone support test, group development, endpoint shooting, and the
clock-extension of time-dependent problems.

The Hamiltonian is H(z, u) = <f(x, u), z> + z0 L(x, u) with a constant
multiplier z0 <= 0.  Along an extremal the costate follows the dual transport
flow of :mod:`algopt.control` with the maximizing control inserted.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass
from functools import partial
from operator import le, lt
from typing import Callable, Sequence

import numpy as np

from .control import (_BOX_SLACK, Box, ControlSignal, ControlSystem, FiniteSet, Trajectory,
                      _box_qp, _flow_rhs, _held_pass, _point_table, _signal_grid,
                      costate_rhs, extend_system)
from .core import (ChartAlgebroid, _check, _constant_field, _dual_field, _shaped,
                   _with_unit_direction)
from .errors import ChatteringError, IntegrationDivergedError, UnsupportedDimensionError
from .numerics import (TimeGrid, _float_rk4, _grid_rule, _held_steps, _linear_rk4,
                       _rk4_matrix, _rk4_sampled, finite_difference_jacobian, grid_derivative,
                       integrate, rk4_step)
from .paths import EPath, _node_interp, _sampler

__all__ = [
    "CostatePath",
    "VariationSymbol",
    "ExtremalAudit",
    "PmpFlow",
    "hamiltonian",
    "maximize_hamiltonian",
    "integrate_pmp_flow",
    "verify_extremal",
    "NeedleContext",
    "make_needle_context",
    "needle_vector",
    "needle_vectors",
    "sample_symbols",
    "cone_support_check",
    "develop_to_group",
    "ShootingResult",
    "shoot_endpoint",
    "TimeDependentControlSystem",
    "autonomize",
    "time_dependence_audit",
]

_TIE_GAP = 1e-10   # times max(1, |z|): H scales with (z, z0)
# Steps whose development propagators are built in one batched RK4 step;
# bounds the (block, d, d) arrays on long paths.
_DEVELOP_BLOCK = 1024
_REORTHONORMALIZE_EVERY = 100   # steps between orthogonal re-projections of a skew development
# Nodes a held value steps ahead over a point before one H table checks them.
_FLOW_BLOCK = 64
_AUDIT_BLOCK = 128   # nodes per block of the control-affine audit's arrays
# Width to which integrate_pmp_flow's bisection localizes a switch time.
_SWITCH_TOL = 1e-9
_MAX_SWITCHES = 10_000   # integrate_pmp_flow's switch limits: in all, and within
_MAX_STEP_SWITCHES = 50   # one grid step, where a sliding mode makes hundreds
_MAX_EVALS = 2000   # flows one shoot_endpoint call may run
_CONE_TOL = 1e-6   # of cone_support_check: max <d, z> over the needles
_CLOCK_TOL = 1e-5   # of time_dependence_audit's dH/dt residual
# Relative forward-difference step of the shooting Jacobian where it does not
# come from the switch times.  Where the endpoint depends on z only through
# switch times, they are localized to _SWITCH_TOL, and the endpoint map is
# piecewise constant on that scale.  At a step of sqrt(_SWITCH_TOL) that
# quantization is about 3e-5 of each difference; at scipy's default step of
# 1.5e-8 the Jacobian would be mostly quantization noise.
_SHOOT_DIFF_STEP = np.sqrt(_SWITCH_TOL)
# Least distance from a switch of sample_symbols' spike times and of the cone
# check's observation time (scenarios._observation_time).
_SPIKE_GUARD = 1e-6
# A switch whose rate sigma' = dF.K z_s has a cosine below this to the costate
# velocity grazes: its time is no smooth function of z_init there.
_GRAZE = 1e-6


@dataclass(frozen=True)
class CostatePath:
    """Sampled dual curve z(t) with the constant abnormal multiplier z0 <= 0."""

    grid: TimeGrid
    z: np.ndarray  # (N, m)
    z0: float

    def __post_init__(self):
        z = np.atleast_2d(np.asarray(self.z, dtype=float))
        if z.shape[0] != self.grid.n_nodes:
            raise ValueError("costate sample rows do not match grid nodes")
        if self.z0 > 0:
            raise ValueError(f"multiplier must satisfy z0 <= 0, got {self.z0}")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "z0", float(self.z0))

    @property
    def fiber_dim(self) -> int:
        return self.z.shape[1]


def hamiltonian(sys: ControlSystem, z: np.ndarray, z0: float, x: np.ndarray, u) -> float:
    """H(z, u) = <f(x, u), z> + z0 L(x, u)."""
    z = _shaped(z, (sys.alg.fiber_dim,), "dual vector has shape")
    return float(z @ sys.f_at(x, u) + z0 * sys.L_at(x, u))


def _point_hamiltonians(table, z: np.ndarray, z0: float) -> np.ndarray:
    """H over the rows of a per-control table, on the last axis, for z of
    shape (m,) or (N, m); each <z, F[i]> is a stacked row-by-column
    ``matmul``, the dot kernel of :func:`hamiltonian`, so the bits match."""
    return (z[..., None, None, :] @ table.F[:, :, None])[..., 0, 0] + z0 * table.L


def _ties(values: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Whether the best of ``values`` (H over a finite set, last axis) has a
    runner-up within _TIE_GAP max(1, |z|); a single value never ties."""
    top = np.sort(values, axis=-1)
    gap = top[..., -1] - top[..., -2] if top.shape[-1] > 1 else np.inf
    # |z| of z scaled by a power of two, which is exact: the bits of the plain
    # norm, whose squares overflow above |z| of about 1.3e154; small entries
    # may underflow when scaled, which moves no bit of the sum.
    _, e = np.frexp(np.abs(z).max(axis=-1))
    with np.errstate(under="ignore"):
        size = np.ldexp(np.linalg.norm(np.ldexp(z, -e[..., None]), axis=-1), e)
    return gap <= _TIE_GAP * np.maximum(1.0, size)


def _argmax(sys: ControlSystem, z, z0, x) -> np.ndarray:
    """The control of :func:`maximize_hamiltonian`, without its H."""
    U = sys.control_space
    if isinstance(U, FiniteSet):
        return U.values[int(np.argmax([hamiltonian(sys, z, z0, x, v) for v in U.values]))]
    if U.maximizer is None:
        raise UnsupportedDimensionError("this box needs a registered maximizer of H")
    return U.clip(U.maximizer(np.asarray(x, dtype=float), np.asarray(z, dtype=float), z0))


def maximize_hamiltonian(sys: ControlSystem, z, z0, x) -> tuple[np.ndarray, float]:
    """Pointwise maximization of H over the control space; returns (u, H).

    Finite sets are searched exhaustively with ties broken by lowest listing
    index.  Boxes use their registered maximizer when present, clipped to the
    box: the exact one of :func:`control.control_affine` (the interior
    solution, else the best stationary point over the box faces), or a
    scenario's own; a box without one raises :class:`UnsupportedDimensionError`.
    """
    u = _argmax(sys, z, z0, x)
    return u, hamiltonian(sys, z, z0, x, u)


# ---------------------------------------------------------------------------
# Closed-loop extremal integration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PmpFlow:
    """Result of closed-loop integration of the maximized Hamiltonian flow.

    Over a finite control set ``control`` is the piecewise-constant signal
    with one segment per switch.  Over a box the control is carried by
    ``u_nodes`` alone and ``control`` is None: it varies continuously, or,
    for a declared control-affine system at z0 = 0, it takes the box's
    vertices with bisected ``switch_times`` and ``tie_times`` as over a
    finite set.
    """

    path: EPath
    control: ControlSignal | None
    costate: CostatePath
    u_nodes: np.ndarray       # (N, p) maximizing control re-evaluated per node
    h_nodes: np.ndarray       # (N,) Hamiltonian values at nodes
    switch_times: tuple[float, ...]
    tie_times: tuple[float, ...]    # nodes whose best H ties with the runner-up


def _pmp_rhs(sys: ControlSystem, u, z0: float):
    """State-plus-costate RHS with the control u held, or, for u None,
    maximized at every stage."""
    def maximizer(x, z):
        return _argmax(sys, z, z0, x)

    return _flow_rhs(sys, maximizer if u is None else u,
                     lambda x, v, z: costate_rhs(sys, x, v, z, z0))


def _affine_pmp_step(sys: ControlSystem, z0: float) -> _float_rk4:
    """The RK4 step of ``_pmp_rhs(sys, None, z0)`` for a
    :func:`control.control_affine` system at z0 < 0, fused from its tables
    read once per flow: F(x) = F0 + F1 x, u = G^-1 b / -z0 (b = F(x)^T z; G^-1
    formed once where G is constant; no division at -z0 = 1), as ``_box_qp``,
    which runs only when u leaves the box, and dh/dx only for a linear part of
    F or G, by the system's own Jacobians: costate_rhs's bits.  u is tested on
    Python floats: strictly inside the box it is kept, within ``_BOX_SLACK``
    clipped, past it (or NaN) sent to ``_box_qp`` and clipped.  Without
    linear parts the anchor term (zero) is left out.  A constant anchor and
    structure (:func:`core._constant_field`) are read once here, the table
    laid out as (m, m * m).  The stage reads x and z from its input, an array
    or a list of floats, and returns the derivative as a list of floats
    (:class:`numerics._float_rk4`).  The field is constant, and the step
    declared ``constant``, where F and G have no linear part and the chart a
    constant anchor and an all-zero structure table (TR^n, or any abelian
    chart): the stage then reads z alone and returns zdot = ±0, and
    :func:`numerics._held_steps` sums its increments without stepping."""
    alg, U, n, m = sys.alg, sys.control_space, sys.alg.base_dim, sys.alg.fiber_dim
    rho_c, c_c = _constant_field(alg, "anchor"), _constant_field(alg, "structure")
    table = None if c_c is None else c_c.reshape(m, m * m)
    (F0, F1), (G0, G1) = ((np.asarray(c, dtype=float), d) for c, d in sys.affine)
    G_inv = np.linalg.inv(G0) if G1 is None else None
    zero = None if F1 is None and G1 is None else np.zeros(n)   # None: no anchor term
    lo, hi = U.lower.tolist(), U.upper.tolist()
    lo_slack, hi_slack = (U.lower - _BOX_SLACK).tolist(), (U.upper + _BOX_SLACK).tolist()
    f_jacobian, L_gradient, c = sys.f_jacobian, sys.L_gradient, -z0

    def stage(v):
        y = np.asarray(v)
        x, z = y[:n], y[n:]
        Fx = F0 if F1 is None else F0 + F1 @ x
        Gx, b = G0 if G1 is None else G0 + G1 @ x, z.dot(Fx)
        u = (np.linalg.inv(Gx) if G_inv is None else G_inv).dot(b)
        if c != 1.0:   # x / 1.0 is x
            u = u / c
        ul = u.tolist()
        if not (all(map(lt, lo, ul)) and all(map(lt, ul, hi))):
            if not (all(map(le, lo_slack, ul)) and all(map(le, ul, hi_slack))):
                u = _box_qp(b[None], Gx[None], c, U)[0]
            u = u.clip(U.lower, U.upper)
        f, rho = Fx.dot(u), alg.anchor_at(x) if rho_c is None else rho_c
        dh_dx = zero if F1 is None else z.dot(f_jacobian(x, u))
        if G1 is not None:
            dh_dx = dh_dx + z0 * L_gradient(x, u)
        c_x = alg.structure_at(x) if table is None else table
        return rho.dot(f).tolist() + _dual_field(c_x, rho, f, z, dh_dx).tolist()

    return _float_rk4(stage, constant=F1 is None and G1 is None and rho_c is not None
                      and table is not None and not table.any())


def integrate_pmp_flow(sys: ControlSystem, x0, z_init, z0: float, t0: float,
                       t1: float, step: float = 1e-3) -> PmpFlow:
    """Integrate state and costate with the pointwise-maximizing control.

    Over a finite set each segment holds the best value.  The held value steps
    up to ``_FLOW_BLOCK`` nodes of :func:`numerics._grid_rule` ahead over a
    point (one with a base) by :func:`numerics._held_steps`, and one H table
    over them finds the first node with another value best; the nodes before
    it pass.  Within that step the switch is localized to ``_SWITCH_TOL`` by
    bisection on the same test, whether the held value is still the argmax of
    H, and inserted as a grid breakpoint; the next segment holds the argmax at
    the bracket's upper end.  A declared control-affine system at z0 = 0 has
    H = b.u linear in u, so it runs the same loop over the 2^p vertices of its
    box, upper bounds listed first so that a tie keeps the sign rule (b_j >= 0
    takes the upper bound).  Other boxes use the maximizer at every
    integration stage and keep the control only as ``u_nodes``; a declared
    control-affine system takes the fused step of :func:`_affine_pmp_step`;
    where that field is constant (as in LQ), :func:`numerics._held_steps`
    evaluates its stage once and sums its RK4 increments, with the stepped
    flow's bits, unless its guard steps it.  Aborts with :class:`ChatteringError`
    past ``_MAX_SWITCHES`` switches, or past ``_MAX_STEP_SWITCHES`` within one
    ``step`` of time (a sliding mode, which a bang-bang flow cannot follow).
    """
    if z0 > 0:
        raise ValueError("multiplier must satisfy z0 <= 0")
    n = sys.alg.base_dim
    state = np.concatenate([_shaped(x0, (n,), "initial point has shape"),
                            _shaped(z_init, (sys.alg.fiber_dim,), "initial covector has shape")])
    U = sys.control_space
    box = isinstance(U, Box)
    if box and sys.affine is not None and z0 == 0:
        U = FiniteSet(tuple(itertools.product(*zip(U.upper, U.lower))))
    switch_times: list[float] = []

    if isinstance(U, Box):
        grid = TimeGrid(t0, t1, step)
        node_list = grid.nodes
        affine = sys.affine is not None
        rhs = _affine_pmp_step(sys, z0) if affine else _pmp_rhs(sys, None, z0)
        states = integrate(rhs, grid, state)
        tie_times: list[float] = []   # box maximizers report no runner-up gap
        base, zs = states[:, :n], states[:, n:]
        if affine:
            Gx, b, h = _affine_at(sys, base, zs, z0)
            u_nodes = U.clip(_box_qp(b, Gx, -z0, U))
            h_nodes, fiber = (a[:, 0] for a in h(u_nodes[:, None]))
        else:
            u_nodes = np.array([_argmax(sys, z, z0, x) for x, z in zip(base, zs)])
            fiber = np.array([sys.f_at(x, u) for x, u in zip(base, u_nodes)])
            h_nodes = np.array([hamiltonian(sys, z, z0, x, u)
                                for x, z, u in zip(base, zs, u_nodes)])
    else:
        if n:   # rows: H over the set at each state, and each held value's step (t, y, h) -> y
            def h_at(ys):
                return np.array([[hamiltonian(sys, y[n:], z0, y[:n], v) for v in U.values]
                                 for y in ys])
            steps = [partial(rk4_step, _pmp_rhs(sys, v, z0)) for v in U.values]
        else:   # both fixed per control over a point
            table = _point_table(sys, U.values)
            h_at = partial(_point_hamiltonians, table, z0=z0)
            steps = [_linear_rk4(K) for K in table.K]

        # The nodes, and the states and H rows as per-block arrays; y is the last node's.
        node_list, y = [t0], state.copy()
        states, rows = [y[None]], [h_at(y[None])]
        i_cur = int(rows[0].argmax())
        seg_values = [U.values[i_cur]]
        while node_list[-1] < t1:
            # A block of held steps (one with a base), checked by one H table; its
            # nodes pass up to its first new argmax, which is checked as one step.
            ts = [*itertools.islice(_grid_rule(node_list[-1], t1, step),
                                    2 if n else _FLOW_BLOCK + 1)]
            ys = _held_steps(steps[i_cur], ts, y)
            try:   # where H flags, it is evaluated (and warns) at the next node alone
                with np.errstate(over="raise", invalid="raise"):
                    block_rows = h_at(ys)
            except FloatingPointError:
                ys, block_rows = ys[:1], h_at(ys[:1])
            moved = block_rows.argmax(axis=1) != i_cur
            j = int(moved.argmax()) if moved.any() else len(ys) - 1
            if j:
                node_list += ts[1:j + 1]
                states.append(ys[:j])
                rows.append(block_rows[:j])
                y = ys[j - 1]
            t = node_list[-1]
            t_next, y_next, row_next = ts[j + 1], ys[j], block_rows[j]
            if moved[j]:
                if len(switch_times) >= _MAX_SWITCHES:
                    raise ChatteringError(_MAX_SWITCHES, t_next)
                lo, hi, y_hi, row_hi = t, t_next, y_next, row_next   # bisect on the same test
                while hi - lo > _SWITCH_TOL:
                    mid = 0.5 * (lo + hi)
                    if not lo < mid < hi:   # one ulp wide at a large t
                        break
                    y_mid = steps[i_cur](t, y, mid - t)
                    row_mid = h_at(y_mid[None])[0]
                    if row_mid.argmax() != i_cur:
                        hi, y_hi, row_hi = mid, y_mid, row_mid
                    else:
                        lo = mid
                if t1 - hi > 1e-12:   # else the switch falls on the horizon end: no segment left
                    t_next, y_next, row_next = hi, y_hi, row_hi
                    switch_times.append(hi)
                    recent = switch_times[-1 - _MAX_STEP_SWITCHES:]
                    if len(recent) > _MAX_STEP_SWITCHES and recent[0] > hi - step:
                        raise ChatteringError(_MAX_STEP_SWITCHES, hi)
                    i_cur = int(row_hi.argmax())
                    seg_values.append(U.values[i_cur])
            node_list.append(t_next)
            y = y_next
            states.append(y[None])
            rows.append(row_next[None])

        states, rows = np.concatenate(states), np.concatenate(rows)
        base, zs = states[:, :n], states[:, n:]
        idx = rows.argmax(axis=1)
        u_nodes = np.array(U.values)[idx]
        fiber = (np.array([sys.f_at(x, u) for x, u in zip(base, u_nodes)]) if n
                 else table.F[idx])
        h_nodes = rows[np.arange(len(idx)), idx]
        tie_times = np.asarray(node_list)[_ties(rows, zs)].tolist()
    signal = None if box else ControlSignal(t0, t1, tuple(switch_times), tuple(seg_values))

    # The nodes of TimeGrid(t0, t1, step, switch_times), by its rule: not built again.
    nodes = np.array(node_list, dtype=float)
    grid = TimeGrid(float(nodes[0]), float(nodes[-1]), step, tuple(switch_times),
                    nodes_override=nodes)
    return PmpFlow(EPath(grid, base, fiber), signal, CostatePath(grid, zs, z0), u_nodes,
                   h_nodes, tuple(switch_times), tuple(tie_times))


# ---------------------------------------------------------------------------
# Extremal audits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtremalAudit:
    """Outcome of checking the maximum-principle conditions on sampled curves."""

    mode: str
    tol: float
    max_condition_violation: float
    costate_residual: float
    h_drift: float
    covector_min_norm: float
    verdicts: dict
    notes: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def _candidate_controls(sys: ControlSystem):
    U = sys.control_space
    if isinstance(U, FiniteSet):
        return list(U.values)
    if U.dim > 3:
        return [0.5 * (U.lower + U.upper)]
    axes = [np.linspace(lo, hi, 9) for lo, hi in zip(U.lower, U.upper)]
    return [np.array(combo) for combo in itertools.product(*axes)]


def _affine_at(sys: ControlSystem, x, z, z0: float):
    """At the rows of x (k, n) and z (k, m) for a :func:`control.control_affine`
    system: G(x), b = F(x)^T z and ``h(w)``, H and f(x, w) at controls
    w (k, j, p), as (k, j) and (k, j, m).  Stacked products whose rows keep
    the bits of F(x), G(x), f_at and hamiltonian at one point.  Controls shared
    by the rows (w of shape (1, j, p)) take f as one gemv of the (k m, p) table
    per control, the BLAS call of the rows' matmul for m > 1 (for m = 1 that
    is a dot, which a gemv does not match), and, where G is constant, L once
    per control, not per row."""
    Fx, Gx = (np.broadcast_to(c, (len(x),) + np.shape(c)) if d is None
              else c + (d @ x[:, None, :, None])[..., 0] for c, d in sys.affine)
    b = (Fx.swapaxes(1, 2) @ z[..., None])[..., 0]
    G0, G1 = sys.affine[1]
    G = np.asarray(G0) if G1 is None else Gx[:, None]
    k, m, p = Fx.shape

    def h(w):
        if len(w) == 1 and m > 1:
            tall = Fx.reshape(k * m, p)
            f = np.stack([tall.dot(v).reshape(k, m) for v in w[0]], axis=1)[..., None]
        else:
            f = Fx[:, None] @ w[..., None]
        L = 0.5 * (w[..., None, :] @ G @ w[..., None])
        return (z[:, None, None] @ f + z0 * L)[..., 0, 0], f[..., 0]

    return Gx, b, h


def _affine_block(sys: ControlSystem, x, z, z0: float, u, candidates):
    """At a block of nodes of a :func:`control.control_affine` system: H at u,
    the two best H over the candidates, H at the exact maximizer and the dual
    flow, by stacked products whose rows keep the per-node bits of
    hamiltonian, maximize_hamiltonian and costate_rhs; dh/dx comes from the
    system's own Jacobians, with a term left out where its linear part is None."""
    Gx, b, h = _affine_at(sys, x, z, z0)
    h_u, f = h(u[:, None])
    U = sys.control_space
    h_star = h(U.clip(_box_qp(b, Gx, -z0, U))[:, None])[0][:, 0]
    values = np.sort(h(np.asarray(candidates)[None])[0], axis=1)[:, -2:]
    (_, F1), (_, G1) = sys.affine
    zero = None if F1 is None and G1 is None else np.zeros(x.shape)   # None: no anchor term
    dh_dx = zero if F1 is None else (sys.f_jacobian(x, u).swapaxes(1, 2) @ z[..., None])[..., 0]
    if G1 is not None:
        dh_dx = dh_dx + z0 * sys.L_gradient(x, u)
    rhs = _dual_field(_sampler(sys.alg, "structure")(x), _sampler(sys.alg, "anchor")(x),
                      f[:, 0], z, dh_dx)
    return h_u[:, 0], values, h_star, rhs


def _unique_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(a, axis=0, return_inverse=True)`` for a float table (N, p)
    by a lexsort of its columns, not a sort of a structured view: the rows in
    the same order (field by field, NaN last), rows equal as floats one row
    (-0.0 and 0.0 too, the first in the stable order standing for them) and
    each row with a NaN its own."""
    order = np.lexsort(a.T[::-1])
    rows = a[order]
    new = np.ones(len(a), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    which = np.empty(len(a), dtype=np.intp)
    which[order] = np.cumsum(new) - 1
    return rows[new], which


def verify_extremal(sys: ControlSystem, path: EPath, costate: CostatePath,
                    u_nodes: np.ndarray, mode: str = "free-time",
                    tol: float = 1e-5) -> ExtremalAudit:
    """Audit the maximum-principle conditions along sampled curves.

    At every non-breakpoint node: (1) H(z, u) must dominate H(z, v) for the
    sampled candidates v up to ``tol`` (ties over a finite set are counted
    as the flow counts them); (2) the costate must satisfy the dual flow
    equation (finite-difference residual); (3) |H| <= tol in free-time
    mode, |H - mean H| <= tol in fixed-time mode; (4) z0 <= 0 holds by
    construction and z must be nowhere-vanishing when z0 = 0.  H over the
    candidates is a (nodes x candidates) table: for a declared control-affine
    system one array per block of nodes (:func:`_affine_block`); over a point
    ``z F.T + z0 L`` from the per-control table of the candidates and of the
    rows of ``u_nodes``, with the dual flow ``K(u) z``; otherwise node by
    node from :func:`hamiltonian` (two best values kept) and
    :func:`costate_rhs` calls.
    """
    if mode not in ("free-time", "fixed-time"):
        raise ValueError(f"unknown mode {mode!r}")
    if not np.array_equal(path.grid.nodes, costate.grid.nodes):
        raise ValueError("trajectory and costate grids do not match")
    nodes = path.grid.nodes
    N = len(nodes)
    z, z0, x = costate.z, costate.z0, path.base
    notes: list[str] = []
    u_nodes = np.atleast_2d(np.asarray(u_nodes, dtype=float))
    if u_nodes.shape[0] != N:
        raise ValueError("u_nodes rows do not match grid nodes")
    keep = ~np.isin(nodes, path.grid.breakpoints)
    inner = keep.copy()   # the nodes inside a segment
    inner[[0, -1]] = False

    U = sys.control_space
    candidates = _candidate_controls(sys)
    c = len(candidates)
    h_star = -np.inf   # H at the exact maximizer, where the box has one
    if sys.affine is not None:
        rows = (slice(s, s + _AUDIT_BLOCK) for s in range(0, N, _AUDIT_BLOCK))
        blocks = zip(*(_affine_block(sys, x[r], z[r], z0, u_nodes[r], candidates) for r in rows))
        h_vals, values, h_star, rhs = map(np.concatenate, blocks)
        values, h_star, rhs = values[keep], h_star[keep], rhs[inner]
    elif sys.alg.base_dim == 0:
        used, which = _unique_rows(u_nodes)
        table = _point_table(sys, [*candidates, *used])
        which = c + which
        H = _point_hamiltonians(table, z, z0)
        h_vals, values = H[np.arange(N), which], H[keep, :c]
        rhs = np.einsum("nij,nj->ni", table.K[which[inner]], z[inner])
    else:
        h_vals = np.array([hamiltonian(sys, z[k], z0, x[k], u_nodes[k]) for k in range(N)])
        top = min(c, 2)   # a node's two best values are all that is read from its row
        values = np.fromiter((np.sort([hamiltonian(sys, z[k], z0, x[k], v) for v in candidates])
                              [-top:] for k in np.flatnonzero(keep)), (float, top), keep.sum())
        rhs = np.fromiter((costate_rhs(sys, x[k], u_nodes[k], z[k], z0)
                           for k in np.flatnonzero(inner)), (float, z.shape[1]), inner.sum())
    if sys.affine is None and isinstance(U, Box) and U.maximizer is not None:
        h_star = [maximize_hamiltonian(sys, z[k], z0, x[k])[1] for k in np.flatnonzero(keep)]
    best = np.maximum(values.max(axis=1), h_star)
    max_violation = float(np.max(best - h_vals[keep], initial=0.0))
    n_ties = np.count_nonzero(_ties(values, z[keep])) if isinstance(U, FiniteSet) else 0
    if n_ties:
        notes.append(f"maximizer tie at {n_ties} node(s); singular arcs are flagged, "
                     "not resolved")
    dz = grid_derivative(path.grid, z)
    costate_residual = float(np.max(np.abs(dz[inner] - rhs), initial=0.0))
    h_kept = h_vals[keep]
    if mode == "free-time":
        h_drift = float(np.abs(h_kept).max())
    else:
        h_drift = float(np.abs(h_kept - h_kept.mean()).max())
    covector_min = float(np.linalg.norm(z, axis=1).min())
    if z0 == 0.0:
        notes.append("abnormal multiplier (z0 = 0) accepted; the strict-negativity "
                     "variant of the transversality statement is not enforced")
    verdicts = {
        "maximum_condition": bool(max_violation <= tol),
        "costate_flow": bool(costate_residual <= tol),
        "hamiltonian_profile": bool(h_drift <= tol),
        "multiplier": bool(z0 != 0.0 or covector_min > tol),
    }
    return ExtremalAudit(mode, tol, max_violation, costate_residual, h_drift,
                         covector_min, verdicts, tuple(notes))


# ---------------------------------------------------------------------------
# Needle variations and the reachable cone
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VariationSymbol:
    """Data of a needle variation: spike times and values, the observation
    time, spike widths (per unit deformation), and the horizon change."""

    taus: tuple[float, ...]
    vs: tuple
    tau: float
    dts: tuple[float, ...]
    dt: float

    def __post_init__(self):
        taus = tuple(float(s) for s in self.taus)
        dts = tuple(float(s) for s in self.dts)
        vs = tuple(np.atleast_1d(np.asarray(v, dtype=float)) for v in self.vs)
        if not (len(taus) == len(dts) == len(vs)):
            raise ValueError("taus, vs and dts must have equal length")
        if any(b < a for a, b in zip(taus[:-1], taus[1:])):
            raise ValueError("spike times must be nondecreasing")
        if taus and taus[-1] > self.tau:
            raise ValueError("spike times must not exceed the observation time")
        if any(d < 0 for d in dts):
            raise ValueError("spike widths must be nonnegative")
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "dts", dts)
        object.__setattr__(self, "vs", vs)
        object.__setattr__(self, "tau", float(self.tau))


@dataclass(frozen=True)
class NeedleContext:
    """Cost-extended trajectory and transport frame backing needle evaluation."""

    sys: ControlSystem
    esys: ControlSystem
    etraj: Trajectory
    frame_B: np.ndarray  # (N, m+1, m+1), transport from t0 to each node

    @property
    def grid(self) -> TimeGrid:
        return self.etraj.path.grid

    def base_at(self, t) -> np.ndarray:
        return self.etraj.path.base_at(t)

    def frame_at(self, t) -> np.ndarray:
        """Linear interpolation of the frame at a time, or (k, m, m) at each
        of an array of times (:func:`paths._node_interp`)."""
        return _node_interp(self.grid.nodes, self.frame_B, t)


def make_needle_context(sys: ControlSystem, control: ControlSignal, x0,
                        step: float = 1e-3) -> NeedleContext:
    """Cost-extended trajectory under ``control`` and its fiber transport B,
    by one :func:`control._held_pass` (needle directions never read the dual
    transport).  The extension of a point system takes the pass's table
    route, since nothing reads its one base coordinate, the accrued cost:
    bit for bit the cost of :func:`control.simulate_trajectory`."""
    x0 = _shaped(x0, (sys.alg.base_dim,), "initial point has shape")
    esys = extend_system(sys)
    grid = _signal_grid(esys, control, step)
    base, fiber, frame = _held_pass(esys, control, grid, np.append(0.0, x0),
                                    np.eye(esys.alg.fiber_dim), point=not sys.alg.base_dim)
    return NeedleContext(sys, esys, Trajectory(EPath(grid, base, fiber), control), frame)


def needle_vectors(ctx: NeedleContext, symbols: Sequence[VariationSymbol]) -> np.ndarray:
    """First-order endpoint directions (k, m+1) of the needle variations, each
    in the cost-extended fiber over the trajectory point at its observation time:

        d = fext(x(tau), u(tau)) dt
            + sum_i B_{tau tau_i} [fext(x(tau_i), v_i) - fext(x(tau_i), u(tau_i))] dt_i .

    One pass for all symbols: the base, frame and control are read at every
    observation and spike time at once, every spike of nonzero width takes
    one stacked solve and product (a zero-width spike is skipped), and
    ``np.add.at`` adds each row's terms in spike order, so each row has the
    bits of its symbol alone.  Over a point the extended f reads no base
    coordinate, so it is evaluated once per distinct control value (keyed by
    its bytes) and its rows reused.
    """
    control, grid, f = ctx.etraj.control, ctx.grid, ctx.esys.f_at
    if not ctx.sys.alg.base_dim:
        rows_of, f_at = {}, f

        def f(x, u):
            key = u.tobytes()
            if key not in rows_of:
                rows_of[key] = f_at(x, u)
            return rows_of[key]

    if not all(grid.t0 < s.tau < grid.t1 for s in symbols):
        raise ValueError("observation time must lie strictly inside the interval")
    times = np.array([t for s in symbols for t in (*s.taus, s.tau)])
    bad = (times <= grid.t0) | ~_off_switches(times, control.switch_times)
    if bad.any():
        t = float(times[bad.argmax()])
        raise ValueError("spike times must lie strictly inside the interval" if t <= grid.t0
                         else f"time {t} lies within {_SPIKE_GUARD} of a switch of the control")
    k, m1 = len(symbols), ctx.esys.alg.fiber_dim
    # (spike index, row) of every spike of nonzero width, spike index first
    spikes = sorted((i, r) for r, s in enumerate(symbols) for i, w in enumerate(s.dts) if w)
    at = np.array([s.tau for s in symbols] + [symbols[r].taus[i] for i, r in spikes])
    xs, frames = ctx.base_at(at), ctx.frame_at(at)
    us = [control.values[j] for j in np.searchsorted(control.switch_times, at, side="right")]
    d = np.array([s.dt for s in symbols])[:, None] * np.array(
        [f(x, u) for x, u in zip(xs[:k], us)]).reshape(k, m1)
    deltas = np.array([f(x, symbols[r].vs[i]) - f(x, u)
                       for (i, r), x, u in zip(spikes, xs[k:], us[k:])]).reshape(-1, m1, 1)
    rows = np.array([r for _, r in spikes], dtype=int)
    w = np.array([symbols[r].dts[i] for i, r in spikes]).reshape(-1, 1)
    np.add.at(d, rows, w * (frames[rows] @ np.linalg.solve(frames[k:], deltas))[..., 0])
    return d


def needle_vector(ctx: NeedleContext, symbol: VariationSymbol) -> np.ndarray:
    """The direction of one needle variation: :func:`needle_vectors` of it alone."""
    return needle_vectors(ctx, [symbol])[0]


def _off_switches(times, switch_times) -> np.ndarray:
    """Whether each of ``times`` lies more than _SPIKE_GUARD from every switch."""
    bounds = np.concatenate(([-np.inf], switch_times, [np.inf]))
    i = np.searchsorted(bounds, times)   # bounds[i - 1] < t <= bounds[i]: the nearest two
    return np.minimum(times - bounds[i - 1], bounds[i] - times) > _SPIKE_GUARD


def sample_symbols(rng: np.random.Generator, ctx: NeedleContext, tau: float,
                   n: int) -> list[VariationSymbol]:
    """Random variation symbols of one to three spikes, with spike times drawn
    from the grid nodes more than _SPIKE_GUARD from every switch."""
    nodes = ctx.grid.nodes
    pool = nodes[(nodes > ctx.grid.t0) & (nodes < tau)
                 & _off_switches(nodes, ctx.etraj.control.switch_times)]
    if pool.size == 0:
        raise ValueError("no admissible spike times below the observation time")
    U = ctx.sys.control_space
    out = []
    for _ in range(n):
        s = int(rng.integers(1, 4))
        taus = np.sort(pool[rng.integers(0, pool.size, size=s)])
        if isinstance(U, FiniteSet):
            vs = [U.values[int(rng.integers(0, len(U.values)))] for _ in range(s)]
        else:
            vs = [U.lower + (U.upper - U.lower) * rng.random(U.dim) for _ in range(s)]
        dts = rng.random(s)
        dt = float(rng.uniform(-1.0, 1.0))
        out.append(VariationSymbol(tuple(taus), tuple(vs), tau, tuple(dts), dt))
    return out


def cone_support_check(needles: Sequence[np.ndarray], z_ext: np.ndarray) -> dict:
    """Certify empirically that the extended covector supports the sampled
    needle directions: the ``cone_support`` check of max <d, z> (NaN if any
    pairing is) against _CONE_TOL."""
    if len(needles) == 0:
        raise ValueError("need at least one needle direction")
    z_ext = np.asarray(z_ext, dtype=float)
    return _check("cone_support", np.max([np.dot(d, z_ext) for d in needles]), _CONE_TOL)


# ---------------------------------------------------------------------------
# Group development and endpoint shooting
# ---------------------------------------------------------------------------

def _rep_matrices(alg: ChartAlgebroid, rep) -> np.ndarray:
    """rep(e_k) on the fiber basis, (m, d, d), checked as :func:`develop_to_group` states."""
    basis = np.eye(alg.fiber_dim)
    mats = np.array([np.asarray(rep(e), dtype=float) for e in basis])
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValueError("rep must produce square matrices")
    x = np.zeros(alg.base_dim)
    for i, j in itertools.product(range(len(basis)), repeat=2):
        lhs = np.tensordot(alg.bracket(x, basis[i], basis[j]), mats, axes=(0, 0))
        if np.abs(lhs - (mats[i] @ mats[j] - mats[j] @ mats[i])).max() > 1e-10:
            raise ValueError("rep is not bracket-compatible on the basis")
    return mats


def develop_to_group(alg: ChartAlgebroid, path: EPath, rep) -> np.ndarray:
    """Development of a fiber path over a point into the matrix group:
    solves gdot = g rep(a(t)) from the identity and returns g(t1).

    ``rep`` maps fiber vectors linearly to square matrices and must intertwine
    the bracket with the commutator on basis pairs (checked to 1e-10).
    The equation is linear in g, so each RK4 step is g -> g P_k with P_k the
    same step applied to the identity; the propagators of a block of steps
    come from one batched step and are then composed in order.  A breakpoint
    node stores the fiber's right-hand limit, so the step that ends at one
    holds its start sample instead of blending across the jump; otherwise the
    endpoint would jump by O(step) as a switch crosses a grid node.  For
    skew-symmetric representations the running product is re-projected onto
    the orthogonal group every ``_REORTHONORMALIZE_EVERY`` steps.
    """
    if alg.base_dim != 0:
        raise ValueError("development requires a chart over a point (zero anchor)")
    return _develop(_rep_matrices(alg, rep), path)


def _develop(mats: np.ndarray, path: EPath) -> np.ndarray:
    """:func:`develop_to_group` with rep(e_k) given, and checked, as ``mats``."""
    skew = all(np.abs(Mi + Mi.T).max() <= 1e-12 for Mi in mats)

    nodes = path.grid.nodes
    left, right = path.fiber[:-1], path.fiber[1:].copy()
    ends = np.array([i1 for _, i1 in path.grid.segment_bounds[:-1]], dtype=int)
    right[ends - 1] = left[ends - 1]
    eye = np.eye(mats.shape[1])
    g = eye
    n_steps = len(nodes) - 1
    for lo in range(0, n_steps, _DEVELOP_BLOCK):
        hi = min(lo + _DEVELOP_BLOCK, n_steps)
        R0, R1 = (np.einsum("ki,ijl->kjl", a[lo:hi], mats) for a in (left, right))
        h = np.diff(nodes[lo:hi + 1])[:, None, None]
        P = _rk4_sampled(lambda A, y: y @ A, (R0,), (R1,), eye, h)
        for k in range(lo, hi):
            g = g @ P[k - lo]
            if skew and (k + 1) % _REORTHONORMALIZE_EVERY == 0:
                uu, _, vv = np.linalg.svd(g)
                g = uu @ vv
    if skew:
        uu, _, vv = np.linalg.svd(g)
        g = uu @ vv
    return g


def _segment_propagator(X: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The product of the RK4 steps R(h_k X) of a segment whose steps are h:
    all but the last have the length h[0] (the steps commute)."""
    return np.linalg.matrix_power(_rk4_matrix(h[0] * X), len(h) - 1) @ _rk4_matrix(h[-1] * X)


def _switch_jacobian(table, mats: np.ndarray, flow: PmpFlow, z0: float) -> np.ndarray | None:
    """d g(t1) / d z_init, shape (d, d, m), for the development g of a flow
    over a point with a finite set whose per-control table is ``table`` and
    whose rep(e_k) are ``mats``; None at a grazing switch.

    Over a point the dual transport is linear, so z_init moves the endpoint
    only through the switch times.  One walk over the arcs carries
    S = dz/dz_init and T = dg/dz_init.  On an arc held at value i, S is
    left-multiplied by the arc's propagator of zdot = K_i z and T
    right-multiplied by that of gdot = g A_i, A_i = rep(F_i): products of the
    RK4 steps R(hK_i) and R(hA_i).  At a switch i -> j at t_s, where the flow
    holds z_s, sigma = H_j - H_i vanishes, so with dF = F_j - F_i

        dt_s = -(dF S) / (dF K_i z_s),   S += (K_i - K_j) z_s dt_s,
        T += g(t_s) (A_i - A_j) dt_s

    (the jump terms of Hiskens and Pai, IEEE TCAS-I 47, 2000).  A switch is
    grazing when |dF K_i z_s| <= _GRAZE |dF| |K_i z_s|.
    """
    grid, z = flow.path.grid, flow.costate.z
    bounds = grid.segment_bounds
    held = _point_hamiltonians(table, z[[i0 for i0, _ in bounds]], z0).argmax(axis=1)
    A = np.tensordot(table.F, mats, axes=(1, 0))
    S, g = np.eye(z.shape[1]), np.eye(mats.shape[1])
    T = np.zeros(g.shape + (z.shape[1],))
    for k, (i0, i1) in enumerate(bounds):
        i, h = held[k], np.diff(grid.nodes[i0:i1 + 1])
        P = _segment_propagator(A[i], h)
        g, T = g @ P, np.einsum("abk,bc->ack", T, P)
        if k + 1 == len(bounds):
            return T
        j, z_s = held[k + 1], z[i1]
        dF, dz = table.F[j] - table.F[i], table.K[i] @ z_s
        rate = dF @ dz
        if abs(rate) <= _GRAZE * np.linalg.norm(dF) * np.linalg.norm(dz):
            return None
        S = _segment_propagator(table.K[i], h) @ S
        dt_s = -(dF @ S) / rate
        S = S + np.outer((table.K[i] - table.K[j]) @ z_s, dt_s)
        T = T + (g @ (A[i] - A[j]))[..., None] * dt_s


@dataclass(frozen=True)
class ShootingResult:
    z_init: np.ndarray
    t1: float
    residual: float
    converged: bool
    n_evaluations: int


def shoot_endpoint(sys: ControlSystem, rep, target: np.ndarray, z_guess,
                   z0: float = -1.0, t0: float = 0.0, t1: float | None = None,
                   duration_guess: float = 1.0, step: float = 1e-3,
                   residual_tol: float = 1e-4) -> ShootingResult:
    """Find an initial covector (and, when ``t1`` is None, a horizon) whose
    extremal develops to the target group element.

    Indirect shooting by trust-region least squares (``scipy.optimize.
    least_squares``, method ``trf`` with the ``lsmr`` subproblem solver) over
    z, plus the duration in free time, on the endpoint residual
    ``(g - target).ravel()`` and rows that every solution satisfies:

    - in free time, the transversality row H(z_init) = 0;
    - in fixed time, |z|^2 = |z_guess|^2, where the maximizing control does
      not change under z -> s z for s > 0: at z0 = 0, or over a finite set
      on which L takes a single value.  There the endpoint does not depend
      on |z|, and the row removes that flat direction; elsewhere it would
      contradict reachable targets.

    Over a finite set the endpoint's Jacobian comes from the flow already
    run (:func:`_switch_jacobian`), plus g(t1) rep(f) for the duration in
    free time.  Over a box, and for an evaluation with a grazing switch, it
    is taken by forward differences with relative step
    ``_SHOOT_DIFF_STEP``.  A chattering or diverged flow counts as a
    residual of 1e6.  ``residual`` is the Frobenius norm of the endpoint
    residual at the returned point and the result is flagged not-converged
    when it is not below ``residual_tol``.  ``n_evaluations`` counts every
    flow the shot ran, difference columns included; ``_MAX_EVALS`` bounds it.

    Raises ``ValueError`` before any flow when ``rep`` fails the checks of
    :func:`develop_to_group`, when ``target`` does not have the shape of
    ``rep``'s matrices, when ``z_guess`` is not a fiber covector, or when
    ``target``, ``z_guess`` or ``duration_guess`` is not finite.
    """
    from scipy.optimize import least_squares   # the only user; keeps `import algopt` light

    if sys.alg.base_dim != 0:
        raise ValueError("endpoint shooting requires a chart over a point")
    m = sys.alg.fiber_dim
    target = np.asarray(target, dtype=float)
    z_guess = np.asarray(z_guess, dtype=float)
    mats = _rep_matrices(sys.alg, rep)
    shape = mats.shape[1:]
    if target.shape != shape:
        raise ValueError(f"target has shape {target.shape}, rep's matrices {shape}")
    if z_guess.shape != (m,):
        raise ValueError(f"z_guess has shape {z_guess.shape}, expected ({m},)")
    if not (np.isfinite(target).all() and np.isfinite(z_guess).all()
            and np.isfinite(duration_guess)):
        raise ValueError("target, z_guess and duration_guess must be finite")
    free_time = t1 is None
    x0 = np.zeros(0)
    U = sys.control_space
    table = _point_table(sys, U.values) if isinstance(U, FiniteSet) else None
    norm_row = not free_time and (z0 == 0 or (table is not None and np.ptp(table.L) == 0))
    failed = np.zeros(target.size)
    failed[0] = 1e6   # residual of a chattering or diverged flow
    n_flows = 0

    def endpoint(params):
        """The endpoint residual at params, and its Jacobian, or None where
        that needs differences."""
        nonlocal n_flows
        z, jac = params[:m], np.zeros((target.size, len(params)))
        duration = abs(params[m]) if free_time else (t1 - t0)
        if duration <= 1e-9:   # no flow: g(t) = I + t rep(f(u)) + O(t^2)
            g, f = np.eye(shape[0]), sys.f_at(x0, _argmax(sys, z, z0, x0))
        else:
            if n_flows >= _MAX_EVALS:
                return failed, None
            n_flows += 1
            try:
                flow = integrate_pmp_flow(sys, x0, z, z0, t0, t0 + duration,
                                          step=min(step, duration / 4.0))
            except (ChatteringError, IntegrationDivergedError):
                return failed, None
            g, f = _develop(mats, flow.path), flow.path.fiber[-1]
            T = None if table is None else _switch_jacobian(table, mats, flow, z0)
            if T is None:
                return (g - target).ravel(), None
            jac[:, :m] = T.reshape(target.size, m)
        if free_time:   # d g(t1) / d t1 = g(t1) rep(f(t1))
            jac[:, m] = np.sign(params[m]) * (g @ np.tensordot(f, mats, axes=1)).ravel()
        return (g - target).ravel(), jac

    def level(params):
        """The level rows at params and their gradients."""
        z = params[:m]
        if free_time:
            u = _argmax(sys, z, z0, x0)
            return [hamiltonian(sys, z, z0, x0, u)], [np.append(sys.f_at(x0, u), 0.0)]
        if norm_row:
            return [z @ z - z_guess @ z_guess], [2.0 * z]
        return [], []

    last = {}   # the last evaluation: params, endpoint residual and Jacobian

    def fun(params):
        r, jac = endpoint(params)
        last.update(x=params.copy(), r=r, jac=jac)
        return np.concatenate([r, level(params)[0]])

    def jacobian(params):
        if not np.array_equal(last.get("x"), params):
            fun(params)
        jac = last["jac"]
        if jac is None:   # forward differences, or a zero Jacobian, which stops the solver
            n = len(params)
            if n_flows + n > _MAX_EVALS:
                return np.zeros((target.size + len(level(params)[0]), n))
            h = _SHOOT_DIFF_STEP * np.where(params >= 0, 1.0, -1.0) * np.maximum(1.0, abs(params))
            h = (params + h) - params
            jac = np.column_stack([(endpoint(params + hk * e)[0] - last["r"]) / hk
                                   for hk, e in zip(h, np.eye(n))])
        return np.vstack([jac, *level(params)[1]])

    params0 = np.append(z_guess, duration_guess) if free_time else z_guess
    res = least_squares(fun, params0, jac=jacobian, method="trf", max_nfev=_MAX_EVALS,
                        tr_solver="lsmr")
    best = res.x
    residual = float(np.linalg.norm(res.fun[:target.size]))
    t1_best = (t0 + abs(best[m])) if free_time else t1
    return ShootingResult(best[:m], float(t1_best), residual,
                          residual < residual_tol, n_flows)


# ---------------------------------------------------------------------------
# Time-dependent problems via the clock extension
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeDependentControlSystem:
    """Control data with explicit C1 time dependence: f(x, t, u), L(x, t, u)."""

    alg: ChartAlgebroid
    f: Callable
    L: Callable
    control_space: object

    def f_t_at(self, x, t, u) -> np.ndarray:
        return finite_difference_jacobian(lambda s: self.f(x, s[0], u), [t], 1e-6)[:, 0]

    def L_t_at(self, x, t, u) -> float:
        return float(finite_difference_jacobian(lambda s: self.L(x, s[0], u), [t], 1e-6)[0, 0])


def autonomize(tdsys: TimeDependentControlSystem) -> ControlSystem:
    """The clock extension: ``tdsys`` on the chart with a clock appended as
    its last base coordinate (unit dynamics; the control map gains a constant
    unit component), so a flow starts from ``np.append(x0, t0)``."""
    n = tdsys.alg.base_dim
    chart = _with_unit_direction(tdsys.alg, False, "clock-extended")

    def f_ext(xe, u):
        return np.concatenate([np.asarray(tdsys.f(xe[:n], float(xe[n]), u), dtype=float),
                               [1.0]])

    def L_ext(xe, u):
        return float(tdsys.L(xe[:n], float(xe[n]), u))

    return ControlSystem(chart, f_ext, L_ext, tdsys.control_space)


def time_dependence_audit(tdsys: TimeDependentControlSystem, flow: PmpFlow) -> dict:
    """Runtime checks of a flow of ``autonomize(tdsys)``.

    Verifies that the clock coordinate reproduces t exactly, that the clock
    costate compensates the Hamiltonian (H + xi constant), and that the
    sampled dH/dt matches  z_i df^i/dt + z0 dL/dt (to ``_CLOCK_TOL``), with
    H evaluated from ``tdsys`` at the nodes.  Raises ``ValueError`` when the
    flow's base and fiber dimensions are not ``tdsys``'s plus one.
    """
    clock, m = tdsys.alg.base_dim, tdsys.alg.fiber_dim
    dims, extended = (flow.path.base.shape[1], flow.costate.fiber_dim), (clock + 1, m + 1)
    if dims != extended:
        raise ValueError(f"flow has base and fiber dimensions {dims}, expected {extended}")
    nodes = flow.path.grid.nodes
    clock_error = float(np.abs(flow.path.base[:, clock] - nodes).max())

    xi = flow.costate.z[:, m]
    z = flow.costate.z[:, :m]
    z0 = flow.costate.z0
    x = flow.path.base[:, :clock]
    H = np.array([float(z[k] @ np.asarray(tdsys.f(x[k], nodes[k], flow.u_nodes[k]), dtype=float))
                  + z0 * float(tdsys.L(x[k], nodes[k], flow.u_nodes[k]))
                  for k in range(len(nodes))])
    dH = grid_derivative(flow.path.grid, H.reshape(-1, 1))[:, 0]
    inner = [k for i0, i1 in flow.path.grid.segment_bounds for k in range(i0 + 1, i1)]
    expected = [float(z[k] @ tdsys.f_t_at(x[k], nodes[k], flow.u_nodes[k])
                      + z0 * tdsys.L_t_at(x[k], nodes[k], flow.u_nodes[k])) for k in inner]
    residual = float(np.max(np.abs(dH[inner] - expected), initial=0.0))

    h_plus_xi = H + xi
    return {
        "clock_error": clock_error,
        "dhdt_residual": residual,
        "h_plus_xi_drift": float(np.abs(h_plus_xi - h_plus_xi[0]).max()),
        "xi_drift": float(np.abs(xi - xi[0]).max()),
        "h_drift": float(np.abs(H - H[0]).max()),
        "passed": clock_error == 0.0 and residual <= _CLOCK_TOL,
    }
