"""Admissible paths, their compositions and reparameterizations, and homotopy
fields with the generating ODE and residual checks.

Sampling conventions: a path stores one sample per grid node.  The fiber may
jump at breakpoints; the sample stored at a breakpoint node carries the
right-hand limit, and residuals are always evaluated segment-wise so a jump
never enters a difference quotient.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import ChartAlgebroid, _constant_field
from .errors import AdmissibilityWarning, CompositionError, IntegrationDivergedError
from .numerics import TimeGrid, _rk4, grid_derivative

__all__ = [
    "EPath",
    "HomotopyField",
    "HomotopyReport",
    "admissibility_residual",
    "compose_paths",
    "reparameterize_unit",
    "null_path",
    "homotopy_residual",
    "generate_infinitesimal_homotopy",
    "shrink_homotopy",
]

_COMPOSE_TOL = 1e-9   # largest base gap at the joint that compose_paths accepts


@dataclass(frozen=True)
class EPath:
    """Sampled path: base points x(t) in R^n and fiber vectors a(t) in R^m."""

    grid: TimeGrid
    base: np.ndarray   # (N, n)
    fiber: np.ndarray  # (N, m)

    def __post_init__(self):
        base = np.atleast_2d(np.asarray(self.base, dtype=float))
        fiber = np.atleast_2d(np.asarray(self.fiber, dtype=float))
        n_nodes = self.grid.n_nodes
        if base.shape[0] != n_nodes or fiber.shape[0] != n_nodes:
            raise ValueError(f"sample rows ({base.shape[0]}, {fiber.shape[0]}) "
                             f"do not match the {n_nodes} grid nodes")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "fiber", fiber)

    @property
    def base_dim(self) -> int:
        return self.base.shape[1]

    @property
    def fiber_dim(self) -> int:
        return self.fiber.shape[1]

    def base_at(self, t) -> np.ndarray:
        """Linear interpolation of the (continuous) base curve."""
        return _node_interp(self.grid.nodes, self.base, t)

    def fiber_at(self, t) -> np.ndarray:
        """Linear interpolation of the fiber samples; a breakpoint's node holds
        the right-hand limit, which the step before it blends toward."""
        return _node_interp(self.grid.nodes, self.fiber, t)


def _node_interp(nodes: np.ndarray, values: np.ndarray, t) -> np.ndarray:
    """Node samples (N, ...) at one time, or (k, ...) at an array of times, each
    bracketed once for all entries: entry for entry ``np.interp``'s value, by
    its formula and, where that is NaN, its fallbacks (the NaN time, the right
    node's formula, a flat step's sample: inf on samples [0, inf, inf])."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    j = np.clip(np.searchsorted(nodes, ts, side="right") - 1, 0, len(nodes) - 2)
    out = values.take(np.where(ts >= nodes[-1], len(nodes) - 1, j), axis=0)
    between = ~((ts <= nodes[0]) | (ts >= nodes[-1]) | (ts == nodes[j]))
    if between.any():
        col = (-1,) + (1,) * (values.ndim - 1)   # one time per row of samples
        j, tb = j[between], ts[between].reshape(col)
        lo, hi, v0, v1 = nodes[j].reshape(col), nodes[j + 1].reshape(col), values[j], values[j + 1]
        with np.errstate(all="ignore"):   # np.interp does not warn
            slope = (v1 - v0) / (hi - lo)
            value = slope * (tb - lo) + v0
            nan = value != value
            if nan.any():   # rare: a NaN time or non-finite samples
                value = np.where(nan, np.where(tb == tb, slope * (tb - hi) + v1, tb), value)
                value = np.where((value != value) & (v0 == v1) & (tb == tb), v0, value)
        out[between] = value
    return out if np.ndim(t) else out[0]


def null_path(alg: ChartAlgebroid, x0: np.ndarray, t0: float = 0.0, t1: float = 1.0,
              step: float = 0.1) -> EPath:
    """The zero path sitting at a fixed base point."""
    grid = TimeGrid(t0, t1, step)
    n = grid.n_nodes
    base = np.tile(np.asarray(x0, dtype=float), (n, 1))
    return EPath(grid, base, np.zeros((n, alg.fiber_dim)))


def admissibility_residual(alg: ChartAlgebroid, path: EPath) -> float:
    """Max over interior nodes of |xdot - rho(x) a|.

    xdot comes from segment-wise central differences (one-sided at
    breakpoints); the two boundary nodes of the whole interval are excluded.
    """
    if path.grid.n_nodes < 3:
        raise ValueError("need at least 3 grid nodes")
    dx = grid_derivative(path.grid, path.base)[1:-1]
    return _anchor_defect(_sampler(alg, "anchor")(path.base[1:-1]), dx, path.fiber[1:-1])


def compose_paths(p: EPath, q: EPath) -> EPath:
    """Concatenate q after p, shifting q in time; the joint becomes a breakpoint."""
    gap = float(np.linalg.norm(p.base[-1] - q.base[0]))
    if gap > _COMPOSE_TOL:
        raise CompositionError(gap)
    shift = p.grid.t1 - q.grid.t0
    nodes = np.concatenate([p.grid.nodes, q.grid.nodes[1:] + shift])
    breakpoints = (*p.grid.breakpoints, p.grid.t1,
                   *(b + shift for b in q.grid.breakpoints))
    grid = TimeGrid.from_nodes(nodes, breakpoints, step=max(p.grid.step, q.grid.step))
    base = np.vstack([p.base, q.base[1:]])
    fiber = np.vstack([p.fiber[:-1], q.fiber])
    return EPath(grid, base, fiber)


def reparameterize_unit(p: EPath) -> EPath:
    """Affine reparameterization onto [0, 1] with fiber rescaled by the duration.

    The new samples are abar(t) = (t1 - t0) a(t0 + (t1 - t0) t); node times map
    exactly, so no interpolation happens.
    """
    t0, t1 = p.grid.t0, p.grid.t1
    span = t1 - t0
    nodes = (p.grid.nodes - t0) / span
    breakpoints = tuple((b - t0) / span for b in p.grid.breakpoints)
    grid = TimeGrid.from_nodes(nodes, breakpoints, step=p.grid.step / span)
    return EPath(grid, p.base.copy(), span * p.fiber)


# ---------------------------------------------------------------------------
# Homotopy fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HomotopyField:
    """Two-parameter family over (t, eps): base x, t-direction fiber a, and the
    infinitesimal-deformation fiber b (may be absent until generated), each
    indexed (t node, eps node, component).  Like time nodes, the eps nodes
    must be at least two and strictly increasing."""

    t_grid: TimeGrid
    eps_nodes: np.ndarray       # (E,)
    base: np.ndarray            # (T, E, n)
    a: np.ndarray               # (T, E, m)
    b: np.ndarray | None = None  # (T, E, m)

    def __post_init__(self):
        eps = np.asarray(self.eps_nodes, dtype=float)
        if eps.ndim != 1 or len(eps) < 2 or not np.all(np.diff(eps) > 0):
            raise ValueError("eps_nodes must be at least two strictly increasing values")
        T, E = self.t_grid.n_nodes, len(eps)
        for name, arr in (("base", self.base), ("a", self.a)):
            arr = np.asarray(arr, dtype=float)
            if arr.shape[:2] != (T, E):
                raise ValueError(f"{name} has leading shape {arr.shape[:2]}, expected {(T, E)}")
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "eps_nodes", eps)
        if self.b is not None:
            b = np.asarray(self.b, dtype=float)
            if b.shape != self.a.shape:
                raise ValueError("b must match the shape of a")
            object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class HomotopyReport:
    equation_residual: float
    t_admissibility: float
    eps_admissibility: float

    @property
    def max_residual(self) -> float:
        """The largest of the three, NaN if any is NaN."""
        return float(np.max([self.equation_residual, self.t_admissibility,
                             self.eps_admissibility]))


def _eps_gradient(eps_nodes: np.ndarray, values: np.ndarray) -> np.ndarray:
    edge = 2 if len(eps_nodes) >= 3 else 1
    return np.gradient(values, eps_nodes, axis=1, edge_order=edge)


def _sampler(alg: ChartAlgebroid, field: str):
    """``points -> values`` for the chart field "anchor" or "structure": a
    (..., n) stack of points maps to (..., n, m) or (..., m, m, m), one
    evaluation per point.  A constant field (:func:`core._constant_field`)
    is evaluated once, here, and broadcast, read-only."""
    value = _constant_field(alg, field)
    if value is not None:
        return lambda points: np.broadcast_to(value, points.shape[:-1] + value.shape)
    n, m = alg.base_dim, alg.fiber_dim
    at, shape = (alg.anchor_at, (n, m)) if field == "anchor" else (alg.structure_at, (m, m, m))
    return lambda points: np.reshape([at(x) for x in points.reshape(-1, n)],
                                     points.shape[:-1] + shape)


def _anchor_defect(rho: np.ndarray, dx: np.ndarray, v: np.ndarray) -> float:
    """Largest |dx - rho v| over a stack of samples; 0.0 when it is empty."""
    res = dx - np.einsum("...ai,...i->...a", rho, v)
    return float(np.linalg.norm(res, axis=-1).max(initial=0.0))


def homotopy_residual(alg: ChartAlgebroid, field: HomotopyField) -> HomotopyReport:
    """Residual of  d_t b = d_eps a + c(x)[b, a]  plus the two admissibility defects.

    Partials are central differences (segment-wise in t); the maxima run over
    grid points interior in both directions, 0.0 when there are none.  The
    chart is sampled once per interior point, one t node at a time.
    """
    if field.b is None:
        raise ValueError("field has no b component")
    inner = (slice(1, -1), slice(1, -1))
    x, a, b = field.base[inner], field.a[inner], field.b[inner]
    res = (grid_derivative(field.t_grid, field.b)[inner]
           - _eps_gradient(field.eps_nodes, field.a)[inner])
    structure = _sampler(alg, "structure")
    for k in range(len(x)):   # structure values of one t node at a time
        res[k] -= np.einsum("eijk,ej,ek->ei", structure(x[k]), b[k], a[k])
    rho = _sampler(alg, "anchor")(x)
    dx_dt = grid_derivative(field.t_grid, field.base)[inner]
    dx_de = _eps_gradient(field.eps_nodes, field.base)[inner]
    return HomotopyReport(float(np.abs(res).max(initial=0.0)),
                          _anchor_defect(rho, dx_dt, a), _anchor_defect(rho, dx_de, b))


def generate_infinitesimal_homotopy(alg: ChartAlgebroid, field: HomotopyField,
                                    b0: np.ndarray) -> tuple[HomotopyField, float]:
    """Integrate  d_t b = d_eps a + c(x)[b, a],  b(t0, eps) = b0(eps).

    Requires a t-admissible family a over base x and a rho-admissible b0 over
    x(t0, .).  Each RK4 step advances every eps at once, one einsum per
    stage, with the structure sampled once at each node and each midpoint of
    x (once per call over a point base).  Returns the completed field
    together with the monitor

        chi = max |d_eps x - rho(x) b| ,

    which stays at discretization level exactly when the chart is almost Lie;
    a warning is emitted when it exceeds 1e-3.
    """
    x, a, nodes = field.base, field.a, field.t_grid.nodes
    b0 = np.asarray(b0, dtype=float)
    if b0.shape != a.shape[1:]:
        raise ValueError(f"b0 has shape {b0.shape}, expected {a.shape[1:]}")
    da_de = _eps_gradient(field.eps_nodes, a)
    structure = _sampler(alg, "structure")

    def rhs(c, a_lv, da_lv):
        return lambda B: da_lv + np.einsum("eijk,ej,ek->ei", c, B, a_lv)

    b = np.empty_like(a)
    b[0] = b0
    c_hi = structure(x[0])
    for k in range(len(nodes) - 1):
        c_lo, c_mid, c_hi = c_hi, structure(0.5 * (x[k] + x[k + 1])), structure(x[k + 1])
        b[k + 1] = _rk4(rhs(c_lo, a[k], da_de[k]),
                        rhs(c_mid, 0.5 * (a[k] + a[k + 1]), 0.5 * (da_de[k] + da_de[k + 1])),
                        rhs(c_hi, a[k + 1], da_de[k + 1]), b[k], nodes[k + 1] - nodes[k])
        if not np.all(np.isfinite(b[k + 1])):
            raise IntegrationDivergedError(nodes[k + 1])

    chi = _anchor_defect(_sampler(alg, "anchor")(x), _eps_gradient(field.eps_nodes, x), b)
    if chi > 1e-3:
        warnings.warn(f"base-admissibility monitor reached {chi:.3g}; "
                      "the chart may fail the anchor-morphism axiom or the inputs "
                      "may be inadmissible", AdmissibilityWarning)
    return replace(field, b=b), chi


def shrink_homotopy(alg: ChartAlgebroid, p: EPath, n_t: int = 33,
                    n_eps: int = 33) -> HomotopyField:
    """Deformation shrinking a unit-interval path to its start point.

    Samples abar(t, eps) = eps a(t eps) and bbar(t, eps) = t a(t eps) over the
    base x(t eps).  The eps = 0 slice is the null path, the eps = 1 slice is
    the original; the initial infinitesimal deformation vanishes and the final
    one equals a.  Residual checks of the output assume p is sampled from a C1
    curve; fiber jumps in p map to discontinuity curves in (t, eps) that the
    strong-form residual does not account for.
    """
    if abs(p.grid.t0) > 1e-12 or abs(p.grid.t1 - 1.0) > 1e-12:
        raise ValueError("path must be parameterized by [0, 1]; "
                         "apply reparameterize_unit first")
    t_grid = TimeGrid(0.0, 1.0, 1.0 / (n_t - 1))
    eps = np.linspace(0.0, 1.0, n_eps)
    ts = t_grid.nodes
    tt, ee = np.meshgrid(ts, eps, indexing="ij")
    s = (tt * ee).ravel()
    a_s = p.fiber_at(s).reshape(len(ts), n_eps, p.fiber_dim)
    x_s = p.base_at(s).reshape(len(ts), n_eps, p.base_dim)
    a_field = ee[..., None] * a_s
    b_field = tt[..., None] * a_s
    return HomotopyField(t_grid, eps, x_s, a_field, b_field)

