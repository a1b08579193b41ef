"""Built-in scenarios, fixtures, and the config-driven runner.

Each built-in scenario is registered once, as a :class:`Scenario` in
``SCENARIOS``: its config defaults, field checks and problem (the control
system, which carries the chart, the start and the oracles), which
:func:`_solve` flows, audits and judges.  A config names a registered
scenario, or ``custom`` to validate a user-supplied chart only.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .control import ControlSignal, ControlSystem, FiniteSet, control_affine, costate_rhs
from .core import (ChartAlgebroid, _check, _Constant, affine_matrix_field, atiyah_trivial,
                   lie_algebra, so3_algebra, so3_structure, tangent_bundle,
                   validate_anchor_morphism, validate_skew)
from .errors import ChatteringError, ConfigError, IntegrationDivergedError
from .numerics import _rk4_sampled, grid_derivative
from .pmp import (_SPIKE_GUARD, ExtremalAudit, PmpFlow, _off_switches, cone_support_check,
                  integrate_pmp_flow, make_needle_context, needle_vectors, sample_symbols,
                  verify_extremal)
from .serialize import (write_costate_csv, write_report_json, write_switch_times,
                        write_trajectory_csv)

__all__ = [
    "SCHEMA_VERSION",
    "WongFixture",
    "ScenarioResult",
    "build_so3_bang_bang_system",
    "scenario_so3_bang_bang",
    "build_wong_system",
    "scenario_wong",
    "build_lq_system",
    "scenario_classical",
    "classical_reduction_residual",
    "Scenario",
    "SCENARIOS",
    "default_config",
    "validate_config",
    "build_chart_from_config",
    "run_scenario",
]

SCHEMA_VERSION = 1

# Largest horizon / step a config may ask for; a flow stores every node.
_MAX_NODES = 1_000_000
# Largest solver.symbol_samples; each symbol is one needle vector of the cone check.
_MAX_SYMBOL_SAMPLES = 100_000
# Largest chart.dim and chart.base_dim; tangent_bundle(n) holds two (n, n, n) tables.
_MAX_CHART_DIM = 100


# ---------------------------------------------------------------------------
# The one pipeline: flow, audit, oracles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioResult:
    """A scenario's flow and audit, its checks in report order (its oracles'
    and the audit values it reports) and its report's notes."""

    flow: PmpFlow
    audit: ExtremalAudit
    checks: list
    notes: dict

    def value(self, name: str) -> float:
        """The value of the check called ``name``."""
        return next(c["value"] for c in self.checks if c["name"] == name)


def _solve(name: str, problem: tuple, z0: float, horizon: float, step: float,
           tol: float) -> ScenarioResult:
    """Flow ``problem`` = (system, x0, z_init, oracles) over [0, horizon],
    audit it in the scenario's mode and judge it by ``oracles(flow, audit)``,
    which returns the checks and the notes."""
    sys, x0, z_init, oracles = problem
    flow = integrate_pmp_flow(sys, x0, z_init, z0, 0.0, horizon, step=step)
    audit = verify_extremal(sys, flow.path, flow.costate, flow.u_nodes,
                            mode=SCENARIOS[name].mode, tol=tol)
    return ScenarioResult(flow, audit, *oracles(flow, audit))


# ---------------------------------------------------------------------------
# so(3) bang-bang
# ---------------------------------------------------------------------------

def build_so3_bang_bang_system(a, b) -> ControlSystem:
    """Rotation at unit cost about the axis a + u b, u in {-1, +1}."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return ControlSystem(
        alg=so3_algebra(),
        f=lambda x, u: a + u[0] * b,
        L=lambda x, u: 1.0,
        control_space=FiniteSet(([-1.0], [1.0])),
        f_jacobian=lambda x, u: np.zeros((3, 0)),
        L_gradient=lambda x, u: np.zeros(0),
    )


def _so3_problem(a, b, z_init) -> tuple:
    """The two-axis time-optimal problem and its oracles: the switching law
    u = sgn<z, b>, the zero Hamiltonian level, the conserved |z|, and the
    costate equation zdot_j = c^k_ij (a^i + u b^i) z_k: one RK4 step of it
    from each node, under the control stored there (the right-hand limit at
    a switch), must reach the next node; the residual is the miss / step."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)

    def oracles(flow: PmpFlow, audit: ExtremalAudit):
        nodes, z, u = flow.path.grid.nodes, flow.costate.z, flow.u_nodes[:, 0]
        sigma = z @ b
        judged = ~np.isin(nodes, flow.switch_times) & (sigma != 0.0)
        violations = int(np.count_nonzero(u[judged] != np.sign(sigma[judged])))
        singular = bool(np.max(np.abs(sigma)) < 1e-12)
        norms = np.linalg.norm(z, axis=1)

        K = np.einsum("kij,ni->njk", so3_structure(), a + u[:-1, None] * b)
        h = np.diff(nodes)[:, None]
        reached = _rk4_sampled(lambda A, w: np.einsum("njk,nk->nj", A, w), (K,), (K,), z[:-1], h)
        residual = float(np.max(np.abs(z[1:] - reached) / h, initial=0.0))
        return [
            _check("maximum_condition", audit.max_condition_violation, audit.tol),
            _check("switching_law_violations", float(violations), 0.0),
            _check("hamiltonian_zero", audit.h_drift, 1e-6),
            _check("casimir_drift", np.abs(norms - norms[0]).max(), 1e-8),
            _check("costate_equation", residual, 1e-6),
        ], {"singular": singular, "switch_times": list(flow.switch_times)}

    return build_so3_bang_bang_system(a, b), np.zeros(0), z_init, oracles


def scenario_so3_bang_bang(a, b, z_init, z0: float = -1.0, horizon: float = 10.0,
                           step: float = 1e-3, tol: float = 1e-5) -> ScenarioResult:
    """Run the two-axis time-optimal pipeline (see :func:`_so3_problem`)."""
    return _solve("so3-bang-bang", _so3_problem(a, b, z_init), z0, horizon, step, tol)


# ---------------------------------------------------------------------------
# Wong equations on a trivialized Atiyah chart
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WongFixture:
    """Affine connection and metric data on TM x g over R^base_dim.

    A(x) = connection_const + connection_linear @ x with shape (k, d);
    g(x) = metric_const + metric_linear @ x with shape (d, d).  The curvature

        B^i_ab = d_a A^i_b - d_b A^i_a - c^i_jk A^j_a A^k_b

    is skew in (a, b); its structure-constant term carries the sign for which
    the reduced momentum equation closes along extremals of the energy cost
    (measured against the dual-transport flow; see the momentum residual in
    :func:`_wong_problem`).
    """

    algebra: np.ndarray                       # (k, k, k)
    connection_const: np.ndarray              # (k, d)
    connection_linear: np.ndarray = None      # (k, d, d)
    metric_const: np.ndarray = None           # (d, d)
    metric_linear: np.ndarray = None          # (d, d, d)

    def __post_init__(self):
        k, d = np.shape(self.connection_const)
        for name, shape, default in (
                ("algebra", (k, k, k), None), ("connection_const", (k, d), None),
                ("connection_linear", (k, d, d), np.zeros((k, d, d))),
                ("metric_const", (d, d), np.eye(d)),
                ("metric_linear", (d, d, d), np.zeros((d, d, d)))):
            val = getattr(self, name)
            val = np.asarray(default if val is None else val, dtype=float)
            if val.shape != shape:
                raise ValueError(f"{name} has shape {val.shape}, expected {shape}")
            object.__setattr__(self, name, val)

    @property
    def base_dim(self) -> int:
        return self.connection_const.shape[1]

    @property
    def algebra_dim(self) -> int:
        return self.connection_const.shape[0]

    def connection(self, x) -> np.ndarray:
        """A(x), at a point or at each row of a stack of points."""
        return self.connection_const + np.einsum("ibc,...c->...ib", self.connection_linear, x)

    def metric(self, x) -> np.ndarray:
        """g(x), at a point or at each row of a stack of points."""
        return self.metric_const + np.einsum("acb,...b->...ac", self.metric_linear, x)

    def curvature(self, x) -> np.ndarray:
        """B[..., i, a, b] = d_a A^i_b - d_b A^i_a - c^i_jk A^j_a A^k_b, where
        dA[i, b, a] = d A^i_b / d x^a is ``connection_linear``."""
        dA = self.connection_linear
        A = self.connection(x)
        return (np.einsum("iba->iab", dA) - dA
                - np.einsum("ijk,...ja,...kb->...iab", self.algebra, A, A))

    def curvature_antisymmetry(self, points) -> float:
        B = self.curvature(np.atleast_2d(points))
        return float(np.abs(B + np.swapaxes(B, -1, -2)).max())


def build_wong_system(fixture: WongFixture, u_max: float = 10.0) -> ControlSystem:
    """Control system f = (u, -A(x) u) with kinetic-energy cost 1/2 g(x)(u, u),
    as the control-affine form F(x) = [[I], [-A(x)]], G(x) = g(x) of
    :func:`control.control_affine`, whose box maximizer is exact: in the
    normal case u = g^{-1} (p - A(x)^T xi) / (-z0) when that is inside the
    box, otherwise the box-constrained maximizer.
    """
    d, k = fixture.base_dim, fixture.algebra_dim
    chart = atiyah_trivial(d, fixture.algebra, name="atiyah-so3" if k == 3 else "atiyah")
    F = (np.vstack([np.eye(d), -fixture.connection_const]),
         np.concatenate([np.zeros((d, d, d)), -fixture.connection_linear]))
    return control_affine(chart, F, (fixture.metric_const, fixture.metric_linear), u_max)


def _wong_problem(fixture: WongFixture, x0, z_init, u_max: float) -> tuple:
    """The fixed-interval energy-minimizing problem on the Atiyah chart from
    x0 with covector z_init = (p, xi), and its oracles: the residuals of the
    two reduced equations,

        d/dt ptilde_b + B^i_ab u^a xi_i + (z0/2) d g_ac/dx^b u^a u^c = 0 ,
        d/dt xi_j + c^k_ij A^i_b u^b xi_k = 0 ,

    and the drift of the speed g(u, u) over the nodes where every |u_j| < u_max:
    there g(u, u) = -2H / z0, and H is constant along the flow.  A metric
    singular at x0 is a ValueError.
    """
    d = fixture.base_dim
    x0 = np.asarray(x0, dtype=float)
    g0 = fixture.metric(x0)
    if abs(np.linalg.det(g0)) < 1e-12:
        raise ValueError("metric is singular at the initial point")

    def oracles(flow: PmpFlow, audit: ExtremalAudit):
        z0 = flow.costate.z0
        xs, us = flow.path.base, flow.u_nodes
        ps, xis = flow.costate.z[:, :d], flow.costate.z[:, d:]
        A = fixture.connection(xs)
        dptil = grid_derivative(flow.path.grid, ps - np.einsum("nib,ni->nb", A, xis))
        dxi = grid_derivative(flow.path.grid, xis)

        inner = slice(2, len(xs) - 2)
        r1 = (dptil + np.einsum("niab,na,ni->nb", fixture.curvature(xs), us, xis)
              + 0.5 * z0 * np.einsum("acb,na,nc->nb", fixture.metric_linear, us, us))
        r2 = dxi + np.einsum("kij,nib,nb,nk->nj", fixture.algebra, A, us, xis)
        speeds = np.einsum("na,nac,nc->n", us, fixture.metric(xs), us)[(np.abs(us) < u_max).all(1)]
        pts = np.random.default_rng(0).uniform(-1.0, 1.0, size=(25, d))
        return [
            _check("momentum_equation", np.max(np.abs(r1[inner]), initial=0.0), 1e-5),
            _check("internal_momentum_equation", np.max(np.abs(r2[inner]), initial=0.0), 1e-5),
            _check("speed_drift", np.abs(speeds - speeds[:1]).max(initial=0.0), 1e-6),
            _check("curvature_antisymmetry", fixture.curvature_antisymmetry(pts), 1e-10),
            _check("maximum_condition", audit.max_condition_violation, audit.tol),
        ], {}

    return build_wong_system(fixture, u_max=u_max), x0, z_init, oracles


def scenario_wong(fixture: WongFixture, x0, p_init, xi_init, z0: float = -1.0,
                  horizon: float = 1.0, step: float = 1e-3,
                  tol: float = 1e-5, u_max: float = 10.0) -> ScenarioResult:
    """Run the Wong pipeline (see :func:`_wong_problem`) with z_init = (p_init, xi_init)."""
    z_init = np.concatenate([np.asarray(p_init, dtype=float), np.asarray(xi_init, dtype=float)])
    return _solve("wong-so3-r2", _wong_problem(fixture, x0, z_init, u_max), z0, horizon, step, tol)


# ---------------------------------------------------------------------------
# Classical tangent-bundle reduction
# ---------------------------------------------------------------------------

def build_lq_system(u_max: float = 10.0) -> ControlSystem:
    """Scalar integrator xdot = u with cost u^2/2 on the tangent bundle of R:
    the control-affine form F = G = [[1]] of :func:`control.control_affine`,
    whose maximizer is u = z / (-z0) clipped to the box."""
    return control_affine(tangent_bundle(1), (np.eye(1), None), (np.eye(1), None), u_max)


def classical_reduction_residual(sys: ControlSystem, samples) -> float:
    """On a tangent-bundle chart the dual-transport equation must agree with
    the textbook adjoint zdot = -(df/dx)^T z - z0 dL/dx, identically.

    ``samples`` is an iterable of (x, u, z, z0) tuples; returns the largest
    absolute difference between the two formulas.
    """
    def gap(x, u, z, z0):
        textbook = -(sys.f_jac_at(x, u).T @ z + z0 * sys.L_grad_at(x, u))
        return np.abs(costate_rhs(sys, x, u, z, z0) - textbook).max()

    return float(np.max([gap(*sample) for sample in samples], initial=0.0))


def _lq_problem(z_init: float, x0: float, u_max: float) -> tuple:
    """The LQ problem with its hand-solvable oracle: the costate is constant,
    u = z / (-z0) clipped to the box (the sign rule at z0 = 0), and the
    state moves on a straight line; and the adjoint identity of
    :func:`classical_reduction_residual` on 20 random samples."""
    z_init, x0 = float(z_init), float(x0)
    sys = build_lq_system(u_max=u_max)

    def oracles(flow: PmpFlow, audit: ExtremalAudit):
        z0 = flow.costate.z0
        u_star = (float(np.clip(z_init / (-z0), -u_max, u_max)) if z0 < 0
                  else (u_max if z_init >= 0 else -u_max))
        x_exact = x0 + u_star * flow.path.grid.nodes
        err = np.max([np.abs(flow.path.base[:, 0] - x_exact).max(),   # NaN if any is
                      np.abs(flow.costate.z[:, 0] - z_init).max(),
                      np.abs(flow.u_nodes[:, 0] - u_star).max()])

        rng = np.random.default_rng(1)
        samples = [(rng.normal(size=1), rng.normal(size=1), rng.normal(size=1), z0)
                   for _ in range(20)]
        return [
            _check("closed_form_error", err, 1e-6),
            _check("reduction_residual", classical_reduction_residual(sys, samples), 1e-12),
            _check("hamiltonian_constancy", audit.h_drift, 1e-8),
        ], {}

    return sys, [x0], [z_init], oracles


def scenario_classical(z_init: float = 0.5, x0: float = 0.0, z0: float = -1.0,
                       horizon: float = 1.0, step: float = 1e-3,
                       tol: float = 1e-5, u_max: float = 10.0) -> ScenarioResult:
    """Run the LQ pipeline (see :func:`_lq_problem`)."""
    return _solve("classical-tm-lq", _lq_problem(z_init, x0, u_max), z0, horizon, step, tol)


# ---------------------------------------------------------------------------
# Scenario registry and the config-driven runner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """A built-in pipeline.

    ``mode`` is the problem's PMP mode: "free-time" (H = 0) or "fixed-time"
    (H constant).  ``defaults`` are the scenario-specific config fields;
    ``fields`` lists the arrays to check as (section, key, shape[, required]),
    with section "" for the top level.  ``problem(cfg)`` returns (system, x0,
    z_init, oracles) for :func:`_solve`; the system carries the chart that
    :func:`validate_chart` checks.
    """

    name: str
    mode: str
    defaults: dict
    fields: tuple
    problem: Callable[[dict], tuple]


def _u_max(cfg: dict) -> float:
    return float(cfg["params"].get("u_max", 10.0))


def _wong_fixture(params: dict) -> WongFixture:
    return WongFixture(so3_structure(), params["connection_const"],
                       params.get("connection_linear"))


SCENARIOS = {s.name: s for s in (
    # Time-optimal switching between two body-fixed rotation axes, on the
    # zero-anchor so(3) chart.
    Scenario(
        name="so3-bang-bang",
        mode="free-time",
        defaults={"horizon": 10.0, "z_init": [0.0, 1.0, 0.2],
                  "params": {"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0]}},
        fields=(("params", "a", (3,)), ("params", "b", (3,)), ("", "z_init", (3,))),
        problem=lambda cfg: _so3_problem(cfg["params"]["a"], cfg["params"]["b"], cfg["z_init"])),
    # Scalar linear-quadratic problem on the tangent bundle, with a
    # closed-form oracle.
    Scenario(
        name="classical-tm-lq",
        mode="fixed-time",
        defaults={"horizon": 1.0, "z_init": [0.5], "initial_point": [0.0],
                  "params": {"u_max": 10.0}},
        fields=(("", "z_init", (1,)), ("", "initial_point", (1,))),
        problem=lambda cfg: _lq_problem(cfg["z_init"][0], cfg["initial_point"][0], _u_max(cfg))),
    # Energy-minimizing trajectories on a trivialized Atiyah chart TM x so(3)
    # over R^2 with an affine connection, audited against the reduced
    # momentum/internal-momentum equations.
    Scenario(
        name="wong-so3-r2",
        mode="fixed-time",
        defaults={"horizon": 1.0, "z_init": [0.8, 0.5, 0.3, -0.2, 0.4],
                  "initial_point": [0.2, -0.1],
                  "params": {
                      "u_max": 10.0,
                      "connection_const": [[0.0, 0.1], [0.1, 0.0], [0.0, 0.0]],
                      "connection_linear": [
                          [[0.3, 0.0], [0.0, -0.2]],
                          [[0.0, 0.4], [0.1, 0.0]],
                          [[-0.2, 0.1], [0.3, 0.0]],
                      ],
                  }},
        fields=(("", "z_init", (5,)), ("", "initial_point", (2,)),
                ("params", "connection_const", (3, 2)),
                ("params", "connection_linear", (3, 2, 2), False)),
        problem=lambda cfg: _wong_problem(_wong_fixture(cfg["params"]), cfg["initial_point"],
                                          cfg["z_init"], _u_max(cfg))),
)}

_SOLVER_DEFAULTS = {"step": 1e-3, "tol": 1e-5, "seed": 0}


def default_config(name: str) -> dict:
    """A fresh, complete config of a registered scenario."""
    if name not in SCENARIOS:
        raise ConfigError("scenario", f"unknown scenario {name!r}; "
                                      f"known: {', '.join(SCENARIOS)} or 'custom'")
    return {"scenario": name, "z0_mode": "normal", **copy.deepcopy(SCENARIOS[name].defaults),
            "solver": dict(_SOLVER_DEFAULTS)}


def _label(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _expect(cfg: dict, key: str, kind, path: str):
    if key not in cfg:
        raise ConfigError(_label(path, key), "missing required field")
    val = cfg[key]
    if kind is float and isinstance(val, (int, float)) and not isinstance(val, bool):
        try:
            return float(val)
        except OverflowError:   # an integer literal past the float range
            raise ConfigError(_label(path, key), "number out of range") from None
    if not isinstance(val, kind) or (isinstance(val, bool) and kind is not bool):
        raise ConfigError(_label(path, key),
                          f"expected {kind.__name__}, got {type(val).__name__}")
    return val


def _numeric(cfg: dict, key: str, path: str) -> np.ndarray:
    raw = _expect(cfg, key, list, path)
    try:
        return np.asarray(raw, dtype=float)
    except (TypeError, ValueError, OverflowError):   # an integer past the float range
        raise ConfigError(_label(path, key), "expected a numeric array") from None


def _array(cfg: dict, key: str, path: str, shape: tuple, required: bool = True):
    if not required and cfg.get(key) is None:
        return None
    arr = _numeric(cfg, key, path)
    if arr.shape != shape:
        raise ConfigError(_label(path, key), f"expected shape {shape}, got {arr.shape}")
    return arr


def _reject_unknown(section: dict, path: str, keys) -> None:
    for key in sorted(set(section) - set(keys)):
        raise ConfigError(_label(path, key), "unknown field; known: " + ", ".join(sorted(keys)))


def _check_finite(value, path: str) -> None:
    """Reject NaN and infinities anywhere in a parsed JSON value; the JSON
    reader accepts ``NaN`` and ``Infinity``."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(path, f"non-finite number {value}")
    if isinstance(value, dict):
        for key, item in value.items():
            _check_finite(item, _label(path, key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _check_finite(item, f"{path}[{i}]")


def validate_config(config: dict) -> dict:
    """Normalize a scenario config, raising ConfigError with a field path.  A
    ``custom`` run only validates the chart, so it reads ``chart`` and
    ``solver.seed`` alone; the cone check's ``solver.symbol_samples`` is read
    where the control space is a finite set (needles need its switches)."""
    if not isinstance(config, dict):
        raise ConfigError("", "config must be a JSON object")
    _check_finite(config, "")
    name = _expect(config, "scenario", str, "")
    if name != "custom" and name not in SCENARIOS:
        raise ConfigError("scenario", f"unknown scenario {name!r}")
    for key in ("solver", "params"):
        if config.get(key) is not None and not isinstance(config[key], dict):
            raise ConfigError(key, f"expected an object, got {type(config[key]).__name__}")
    custom = name == "custom"
    out = {"scenario": name, "solver": {"seed": 0}} if custom else default_config(name)
    known = {"": {*out, "chart"} if custom else set(out),
             "params": set(out.get("params", ())),
             "solver": set(out["solver"]) if custom else {*out["solver"], "symbol_samples"}}
    for path, keys in known.items():
        _reject_unknown((config.get(path) or {}) if path else config, path, keys)
    out.update({k: v for k, v in config.items() if k not in ("solver", "params")})
    out["solver"] = solver = {**out["solver"], **(config.get("solver") or {})}
    for key in sorted({"seed", "symbol_samples"} & set(solver)):
        if _expect(solver, key, int, "solver") < 0:
            raise ConfigError(f"solver.{key}", "must be a non-negative integer")
    if solver.get("symbol_samples", 0) > _MAX_SYMBOL_SAMPLES:
        raise ConfigError("solver.symbol_samples",
                          f"above the limit of {_MAX_SYMBOL_SAMPLES} symbols")
    if custom:
        if "chart" not in out:
            raise ConfigError("chart", "custom scenarios must supply a chart spec")
        build_chart_from_config(out["chart"])
        return out

    out["params"] = params = {**out["params"], **(config.get("params") or {})}
    step = _expect(solver, "step", float, "solver")
    if not step > 0:
        raise ConfigError("solver.step", "must be positive")
    if not _expect(solver, "tol", float, "solver") > 0:
        raise ConfigError("solver.tol", "must be positive")
    if _expect(out, "z0_mode", str, "") not in ("normal", "abnormal"):
        raise ConfigError("z0_mode", "must be 'normal' or 'abnormal'")
    for section, key, shape, *required in SCENARIOS[name].fields:
        _array(out[section] if section else out, key, section, shape, *required)
    if "u_max" in SCENARIOS[name].defaults["params"]:   # the bound of a box
        if not _expect(params, "u_max", float, "params") > 0:
            raise ConfigError("params.u_max", "must be positive")
    horizon = _expect(out, "horizon", float, "")
    if not horizon > 0:
        raise ConfigError("horizon", "must be positive")
    if horizon / step > _MAX_NODES:
        raise ConfigError("horizon", f"horizon / solver.step is {horizon / step:.3g}, "
                                     f"above the limit of {_MAX_NODES} nodes")
    if ("symbol_samples" in solver
            and not isinstance(SCENARIOS[name].problem(out)[0].control_space, FiniteSet)):
        _reject_unknown(solver, "solver", _SOLVER_DEFAULTS)
    return out


def _chart_dim(spec: dict, key: str, least: int) -> int:
    dim = _expect(spec, key, int, "chart")
    if not least <= dim <= _MAX_CHART_DIM:
        raise ConfigError(f"chart.{key}", f"must be an integer from {least} to {_MAX_CHART_DIM}")
    return dim


def _structure_table(spec: dict) -> np.ndarray:
    table = _numeric(spec, "table", "chart")
    if table.ndim != 3 or len(set(table.shape)) != 1:
        raise ConfigError("chart.table", "expected an (m, m, m) table")
    return table


def build_chart_from_config(spec: dict) -> ChartAlgebroid:
    """Chart from a config spec: a structure-constant ``table`` over a point
    (``lie-algebra``), TR^dim (``tangent``), an Atiyah chart of ``base_dim``
    and an algebra ``table`` (``atiyah``), or an anchor rho(x) from
    ``anchor_const`` and ``anchor_linear`` with a constant ``table``
    (``affine-anchor``).  A key that the kind does not read is a ConfigError
    with its path."""
    if not isinstance(spec, dict):
        raise ConfigError("chart", f"expected an object, got {type(spec).__name__}")
    kind = _expect(spec, "kind", str, "chart")
    keys = {"lie-algebra": ("table",), "tangent": ("dim",),
            "atiyah": ("base_dim", "table"),
            "affine-anchor": ("anchor_const", "anchor_linear", "table")}
    if kind not in keys:
        raise ConfigError("chart.kind", f"unknown chart kind {kind!r}")
    _reject_unknown(spec, "chart", ("kind", *keys[kind]))
    if kind == "lie-algebra":
        try:
            return lie_algebra(_structure_table(spec), name="config-lie-algebra")
        except ValueError as exc:
            raise ConfigError("chart.table", str(exc)) from None
    if kind == "tangent":
        return tangent_bundle(_chart_dim(spec, "dim", 1))
    if kind == "atiyah":
        return atiyah_trivial(_chart_dim(spec, "base_dim", 0), _structure_table(spec),
                              name="config-atiyah")
    const = _numeric(spec, "anchor_const", "chart")   # affine-anchor
    if const.ndim != 2:
        raise ConfigError("chart.anchor_const", "expected an (n, m) matrix")
    n, m = const.shape
    linear = _array(spec, "anchor_linear", "chart", (n, m, n), required=False)
    table = _structure_table(spec)
    if table.shape[0] != m:
        raise ConfigError("chart.table", "table size does not match the anchor")
    anchor, anchor_jac = ((_Constant(const), _Constant(np.zeros((n, m, n)))) if linear is None
                          else affine_matrix_field(const, linear))
    return ChartAlgebroid(n, m, anchor, _Constant(table),
                          anchor_jacobian=anchor_jac, name="config-affine-anchor")


@np.errstate(over="ignore", invalid="ignore")
def validate_chart(cfg: dict) -> dict:
    """AL-axiom validation of the scenario's chart on 100 random points, to
    1e-6; overflow fails a check, unwarned, as in :func:`run_scenario`."""
    cfg = validate_config(cfg)
    name = cfg["scenario"]
    chart = (SCENARIOS[name].problem(cfg)[0].alg if name in SCENARIOS
             else build_chart_from_config(cfg["chart"]))
    rng = np.random.default_rng(cfg["solver"]["seed"])
    pts = rng.uniform(-1.0, 1.0, size=(100, chart.base_dim))
    skew = validate_skew(chart, pts, 1e-6)
    morph = validate_anchor_morphism(chart, pts, 1e-6)
    return {
        "schema_version": SCHEMA_VERSION,
        "chart": chart.name,
        "checks": [skew, morph],
        "passed": skew["passed"] and morph["passed"],
    }


def _observation_time(nodes: np.ndarray, switch_times) -> float:
    """The cone check's observation time: the middle flow node, else the node
    five after it, else the nearest later node, else the nearest earlier one.
    It must lie strictly inside the horizon, more than pmp._SPIKE_GUARD from every
    switch, and above at least one node that is too (a spike time, as
    :func:`sample_symbols` draws them); raises ConfigError when no node does.
    """
    inner = nodes[(nodes > nodes[0]) & _off_switches(nodes, switch_times)]
    first_spike = inner[0] if inner.size else np.inf
    mid, last = len(nodes) // 2, len(nodes) - 1
    for k in itertools.chain((mid, mid + 5), range(mid + 1, last), range(mid - 1, 0, -1)):
        if k < last and nodes[k] > first_spike and _off_switches(nodes[k], switch_times):
            return nodes[k]
    raise ConfigError("solver.symbol_samples",
                      "the grid has no observation time for the cone check (a node off "
                      "every switch with a spike time below it); use a finer solver.step "
                      "or a longer horizon, or set symbol_samples to 0")


def _cone_check(cfg: dict, sys: ControlSystem, flow: PmpFlow, n_symbols: int,
                step: float) -> dict:
    """Sampled support check of the extended covector against needle directions.
    No needle reads past the observation time tau, a flow node, so the needle
    context runs the flow's control only up to the first node more than
    pmp._SPIKE_GUARD after tau (the next node at any step above that), without
    the switches at or after it: its nodes, frames and spike times up to tau
    are those of the whole horizon."""
    nodes, control = flow.path.grid.nodes, flow.control
    tau = _observation_time(nodes, flow.switch_times)
    cut = nodes[min(int(np.searchsorted(nodes, tau + _SPIKE_GUARD, side="right")), len(nodes) - 1)]
    kept = int(np.searchsorted(control.switch_times, cut))
    ctx = make_needle_context(sys, ControlSignal(control.t0, cut, control.switch_times[:kept],
                                                 control.values[:kept + 1]),
                              flow.path.base[0], step=step)
    rng = np.random.default_rng(cfg["solver"]["seed"])
    needles = needle_vectors(ctx, sample_symbols(rng, ctx, tau, n_symbols))
    k = int(np.searchsorted(nodes, tau))
    z_ext = np.concatenate([[flow.costate.z0], flow.costate.z[k]])
    return cone_support_check(needles, z_ext)


@np.errstate(over="ignore", invalid="ignore")
def run_scenario(config: dict, out_dir) -> dict:
    """Validate the chart, run the configured pipeline, write artifacts
    (trajectory.csv, costate.csv, switches.csv, audit.json, invariants.json),
    and return the invariant report; overflow fails a check, unwarned.  A
    flow that diverges or chatters writes invariants.json with a failed
    ``flow`` check (the error's name and time) before its error propagates."""
    cfg = validate_config(config)
    name = cfg["scenario"]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    chart_report = validate_chart(cfg)
    if name == "custom":
        report = {
            "schema_version": SCHEMA_VERSION,
            "scenario": name,
            "checks": chart_report["checks"],
            "passed": chart_report["passed"],
        }
        write_report_json(out / "invariants.json", report)
        return report

    step = float(cfg["solver"]["step"])
    tol = float(cfg["solver"]["tol"])
    z0 = 0.0 if cfg["z0_mode"] == "abnormal" else -1.0
    head = {"schema_version": SCHEMA_VERSION, "scenario": name,
            "config": {k: v for k, v in cfg.items() if k != "params"}}
    problem = SCENARIOS[name].problem(cfg)
    try:
        result = _solve(name, problem, z0, float(cfg["horizon"]), step, tol)
    except (IntegrationDivergedError, ChatteringError) as exc:   # report the failed flow
        flow_check = {"name": "flow", "error": type(exc).__name__, "t": exc.t, "passed": False}
        write_report_json(out / "invariants.json", {
            **head, "checks": list(chart_report["checks"]) + [flow_check], "passed": False})
        raise
    flow = result.flow
    write_trajectory_csv(out / "trajectory.csv", flow.path, flow.u_nodes)
    write_costate_csv(out / "costate.csv", flow.costate, flow.h_nodes)
    write_report_json(out / "audit.json", result.audit.to_dict())
    write_switch_times(out / "switches.csv", flow.switch_times)

    checks = list(chart_report["checks"]) + result.checks
    n_symbols = int(cfg["solver"].get("symbol_samples", 0))
    if n_symbols > 0:
        checks.append(_cone_check(cfg, problem[0], flow, n_symbols, step))
    checks.append(_check("extremal_audit", 0.0 if result.audit.passed else 1.0, 0.0))
    report = {**head, "checks": checks, "notes": result.notes,
              "passed": all(c["passed"] for c in checks)}
    write_report_json(out / "invariants.json", report)
    return report
