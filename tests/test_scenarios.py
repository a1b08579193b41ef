import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algopt import scenarios
from algopt.control import control_affine
from algopt.core import so3_structure, tangent_bundle
from algopt.errors import ConfigError
from algopt.numerics import finite_difference_jacobian, grid_derivative
from algopt.pmp import CostatePath, integrate_pmp_flow, verify_extremal
from algopt.scenarios import (_MAX_SYMBOL_SAMPLES, WongFixture, _lq_problem,
                              build_chart_from_config,
                              build_lq_system, classical_reduction_residual,
                              default_config, run_scenario, scenario_classical,
                              scenario_so3_bang_bang, scenario_wong,
                              validate_chart, validate_config)


# ---------------------------------------------------------------------------
# so(3) bang-bang
# ---------------------------------------------------------------------------

def test_so3_default_pipeline():
    r = scenario_so3_bang_bang([1, 0, 0], [0, 1, 0], [0.0, 1.0, 0.2],
                               horizon=10.0, step=1e-3)
    assert r.audit.passed
    assert r.value("switching_law_violations") == 0
    assert not r.notes["singular"]
    assert r.audit.h_drift < 1e-6
    assert r.value("casimir_drift") < 1e-8
    assert r.value("costate_equation") < 1e-6
    assert len(r.flow.switch_times) >= 2


def test_so3_monotone_switching_function_never_switches():
    # b parallel to a: <z, b> is conserved, so the control never changes sign
    r = scenario_so3_bang_bang([0, 0, 1], [0, 0, 1], [0.3, 0.2, 0.5],
                               horizon=5.0, step=1e-3)
    assert len(r.flow.switch_times) == 0
    assert np.all(r.flow.u_nodes[:, 0] == 1.0)
    assert r.audit.passed


def test_so3_zero_axis_is_permanently_singular():
    r = scenario_so3_bang_bang([1, 0, 0], [0, 0, 0], [0.0, 0.0, 1.0],
                               horizon=1.0, step=1e-2)
    assert r.notes["singular"]
    assert len(r.flow.tie_times) > 0


def test_so3_abnormal_multiplier_mode():
    r = scenario_so3_bang_bang([1, 0, 0], [0, 1, 0], [0.0, 1.0, 0.0], z0=0.0,
                               horizon=2.0, step=1e-3, tol=1e-5)
    assert r.flow.costate.z0 == 0.0
    assert r.value("switching_law_violations") == 0


@pytest.mark.parametrize("z3", [2.2, 5.0])
def test_so3_costate_equation_holds_for_larger_covectors(z3):
    # on H = 0 for every z3; the old central-difference check read 1.09e-6
    # and 2.38e-6 here, its own O(step^2) error growing with |z|
    r = scenario_so3_bang_bang([1, 0, 0], [0, 1, 0], [0.0, 1.0, z3], horizon=3.0, step=1e-3)
    assert r.audit.h_drift < 1e-6
    assert r.value("costate_equation") <= 1e-6


def test_so3_costate_equation_fails_with_the_structure_sign_flipped(monkeypatch):
    monkeypatch.setattr(scenarios, "so3_structure", lambda: -so3_structure())
    r = scenario_so3_bang_bang([1, 0, 0], [0, 1, 0], [0.0, 1.0, 0.2], horizon=3.0, step=1e-3)
    assert r.value("costate_equation") > 1e-3


# ---------------------------------------------------------------------------
# Wong pipeline
# ---------------------------------------------------------------------------

def test_wong_default_residuals(wong_fixture):
    r = scenario_wong(wong_fixture, [0.2, -0.1], [0.8, 0.5], [0.3, -0.2, 0.4],
                      horizon=1.0, step=1e-3)
    assert r.value("momentum_equation") < 1e-5
    assert r.value("internal_momentum_equation") < 1e-5
    assert r.value("speed_drift") < 1e-6
    assert r.value("curvature_antisymmetry") < 1e-10
    assert r.audit.passed


def test_wong_nonconstant_metric_residuals():
    fixture = WongFixture(
        so3_structure(),
        connection_const=np.array([[0.0, 0.1], [0.1, 0.0], [0.0, 0.0]]),
        connection_linear=np.array([[[0.3, 0.0], [0.0, -0.2]],
                                    [[0.0, 0.4], [0.1, 0.0]],
                                    [[-0.2, 0.1], [0.3, 0.0]]]),
        metric_const=np.eye(2),
        metric_linear=0.1 * np.array([[[1.0, 0.0], [0.0, 0.5]],
                                      [[0.0, 0.5], [1.0, 0.0]]]),
    )
    r = scenario_wong(fixture, [0.2, -0.1], [0.8, 0.5], [0.3, -0.2, 0.4],
                      horizon=1.0, step=1e-3)
    assert r.value("momentum_equation") < 1e-5
    assert r.value("internal_momentum_equation") < 1e-5


def test_wong_oracle_matches_a_per_node_loop():
    """The oracle's array operations against its formulas node by node.  The
    sums run in another order, and the residuals differentiate ptilde and xi
    on the grid, so the tolerance is a few ulps of O(1) terms over the step."""
    A1 = np.array([[[0.3, 0.0], [0.0, -0.2]], [[0.0, 0.4], [0.1, 0.0]],
                   [[-0.2, 0.1], [0.3, 0.0]]])
    g1 = 0.1 * np.array([[[1.0, 0.0], [0.0, 0.5]], [[0.0, 0.5], [1.0, 0.0]]])
    fixture = WongFixture(so3_structure(), np.array([[0.0, 0.1], [0.1, 0.0], [0.0, 0.0]]), A1,
                          np.array([[1.0, 0.2], [0.2, 1.5]]), g1)
    z0, step = -1.0, 1e-3
    r = scenario_wong(fixture, [0.2, -0.1], [0.8, 0.5], [0.3, -0.2, 0.4], z0=z0,
                      horizon=0.2, step=step)
    xs, us, z, grid = r.flow.path.base, r.flow.u_nodes, r.flow.costate.z, r.flow.path.grid
    A = [fixture.connection_const + A1 @ x for x in xs]
    g = [fixture.metric_const + g1 @ x for x in xs]
    ptil = np.array([z[k, :2] - A[k].T @ z[k, 2:] for k in range(len(xs))])
    dptil = grid_derivative(grid, ptil)
    dxi = grid_derivative(grid, z[:, 2:])
    res1 = res2 = 0.0
    for k in range(2, len(xs) - 2):
        B = (np.einsum("iba->iab", A1) - A1
             - np.einsum("ijk,ja,kb->iab", fixture.algebra, A[k], A[k]))
        r1 = (dptil[k] + np.einsum("iab,a,i->b", B, us[k], z[k, 2:])
              + 0.5 * z0 * np.einsum("acb,a,c->b", g1, us[k], us[k]))
        r2 = dxi[k] + np.einsum("kij,ib,b,k->j", fixture.algebra, A[k], us[k], z[k, 2:])
        res1, res2 = max(res1, np.abs(r1).max()), max(res2, np.abs(r2).max())
    speeds = np.array([u @ gk @ u for u, gk in zip(us, g)])
    tol = 100 * np.finfo(float).eps / step
    assert abs(r.value("momentum_equation") - res1) < tol
    assert abs(r.value("internal_momentum_equation") - res2) < tol
    assert abs(r.value("speed_drift") - np.abs(speeds - speeds[0]).max()) < tol


def test_abnormal_wong_flow_bisects_its_vertex_switches(wong_fixture):
    """At z0 = 0 H is linear in u, so the default Wong extremal is bang-bang
    over the box's vertices: its 6 switches are bisected and inserted as
    breakpoints, so the momentum residual shrinks with the step and H stays
    on its level (with the switches inside RK4 steps the residual read 23.6
    at both steps and H drifted by 0.18)."""
    runs = [scenario_wong(wong_fixture, [0.2, -0.1], [0.8, 0.5], [0.3, -0.2, 0.4], z0=0.0,
                          step=step) for step in (1e-3, 5e-4)]
    for r in runs:
        assert r.flow.control is None
        assert len(r.flow.switch_times) == 6
        assert np.all(np.abs(r.flow.u_nodes) == 10.0)
        assert r.audit.verdicts["hamiltonian_profile"], r.audit.to_dict()
    assert runs[0].value("momentum_equation") >= 3.0 * runs[1].value("momentum_equation")


def test_wong_flat_connection_gives_straight_lines():
    flat = WongFixture(so3_structure(), connection_const=np.zeros((3, 2)))
    x0 = np.array([0.1, 0.2])
    p0 = np.array([0.6, -0.4])
    r = scenario_wong(flat, x0, p0, [0.3, -0.2, 0.4], horizon=1.0, step=1e-3)
    ts = r.flow.path.grid.nodes
    straight = x0[None, :] + ts[:, None] * p0[None, :]
    assert np.abs(r.flow.path.base - straight).max() < 1e-8
    assert np.abs(r.flow.costate.z[:, 2:] - np.array([0.3, -0.2, 0.4])).max() < 1e-10
    assert r.value("momentum_equation") < 1e-8


def test_wong_singular_metric_rejected():
    fixture = WongFixture(so3_structure(), connection_const=np.zeros((3, 2)),
                          metric_const=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        scenario_wong(fixture, [0.0, 0.0], [1.0, 0.0], [0.0, 0.0, 1.0])


def test_wong_curvature_antisymmetry_random(rng):
    fixture = WongFixture(so3_structure(),
                          connection_const=rng.normal(size=(3, 2)),
                          connection_linear=rng.normal(size=(3, 2, 2)))
    pts = rng.uniform(-1, 1, size=(50, 2))
    assert fixture.curvature_antisymmetry(pts) < 1e-12


# ---------------------------------------------------------------------------
# classical reduction
# ---------------------------------------------------------------------------

def test_classical_lq_matches_oracle():
    r = scenario_classical(z_init=0.5, horizon=1.0, step=1e-3)
    assert r.value("closed_form_error") < 1e-6
    assert r.value("reduction_residual") < 1e-12
    assert r.audit.h_drift < 1e-8
    assert r.audit.passed


@pytest.mark.parametrize("z_init", [0.5, -0.5])
def test_abnormal_classical_lq_takes_the_sign_rule(z_init):
    """At z0 = 0 the oracle's control is u_max for z >= 0 and -u_max below,
    and the flow's matches it."""
    r = scenario_classical(z_init=z_init, z0=0.0, u_max=2.0)
    assert r.value("closed_form_error") < 1e-6
    assert np.all(r.flow.u_nodes == (2.0 if z_init > 0 else -2.0))
    assert r.audit.passed


@pytest.mark.parametrize("z_init", [0.5, -0.5])
def test_classical_oracle_respects_the_box(tmp_path, z_init):
    """With an active box the oracle's control is z / (-z0) clipped to
    +-u_max, as the flow's is, so a correct extremal passes the run."""
    r = scenario_classical(z_init=z_init, u_max=0.1)
    assert r.value("closed_form_error") < 1e-6
    assert np.all(np.abs(r.flow.u_nodes) == 0.1)
    cfg = default_config("classical-tm-lq")
    cfg["z_init"], cfg["params"]["u_max"] = [z_init], 0.1
    assert run_scenario(cfg, tmp_path)["passed"]


def test_classical_oracle_fails_a_nan_costate():
    """One NaN costate entry makes closed_form_error NaN, and the check
    fails, though the state and control terms are exact."""
    sys, x0, z_init, oracles = _lq_problem(0.5, 0.0, 10.0)
    flow = integrate_pmp_flow(sys, x0, z_init, -1.0, 0.0, 1.0, step=1e-2)
    audit = verify_extremal(sys, flow.path, flow.costate, flow.u_nodes, mode="fixed-time")
    z = flow.costate.z.copy()
    z[3, 0] = np.nan
    sick = replace(flow, costate=CostatePath(flow.costate.grid, z, flow.costate.z0))
    assert oracles(flow, audit)[0][0]["passed"]
    check = oracles(sick, audit)[0][0]
    assert check["name"] == "closed_form_error"
    assert np.isnan(check["value"]) and not check["passed"]


def test_wong_speed_oracle_judges_only_the_free_nodes(tmp_path):
    """With u_max = 0.85 the default Wong extremal is free on its first 690
    of 1,001 nodes and on the box from there to the end.  g(u, u) = 2H is
    conserved only where the box is inactive, and only those nodes are
    judged, so the correct extremal passes every check."""
    cfg = default_config("wong-so3-r2")
    cfg["params"]["u_max"] = 0.85
    report = run_scenario(cfg, tmp_path)
    us = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1)[:, -2:]
    free = (np.abs(us) < 0.85).all(axis=1)
    assert len(free) == 1001 and free[:690].all() and not free[690:].any()
    speed = next(c for c in report["checks"] if c["name"] == "speed_drift")
    assert speed["value"] <= 1e-6 and report["passed"]


def test_classical_reduction_identity_nontrivial_system(rng):
    from algopt.control import ControlSystem, FiniteSet
    from algopt.core import tangent_bundle
    from algopt.scenarios import classical_reduction_residual

    tb = tangent_bundle(2)

    def f(x, u):
        return np.array([np.sin(x[1]) + u[0], x[0] ** 2 - u[0]])

    sys = ControlSystem(tb, f, lambda x, u: float(np.cos(x[0]) * x[1]),
                        FiniteSet(([0.0], [1.0])))
    samples = [(rng.normal(size=2), np.array([float(rng.integers(0, 2))]),
                rng.normal(size=2), -float(rng.random()))
               for _ in range(25)]
    assert classical_reduction_residual(sys, samples) < 1e-12


def test_classical_reduction_residual_keeps_a_nan_gap():
    """A NaN covector after a good sample makes the residual NaN, not the good gap."""
    sys = build_lq_system()
    good = (np.zeros(1), np.array([0.5]), np.array([0.3]), -1.0)
    sick = (np.zeros(1), np.array([0.5]), np.array([np.nan]), -1.0)
    assert classical_reduction_residual(sys, [good]) == 0.0
    assert np.isnan(classical_reduction_residual(sys, [good, sick]))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), p=st.integers(1, 3))
def test_classical_reduction_holds_on_random_control_affine_systems(seed, n, p):
    """On TR^n the dual transport of f = F(x) u, L = 1/2 u.G(x) u is the
    textbook adjoint, and the declared form's Jacobians are the central
    differences of f and L."""
    rng = np.random.default_rng(seed)
    R = rng.normal(size=(p, p))
    G1 = 0.1 * rng.normal(size=(p, p, n))
    sys = control_affine(tangent_bundle(n), (rng.normal(size=(n, p)), rng.normal(size=(n, p, n))),
                         (R @ R.T + np.eye(p), G1 + np.swapaxes(G1, 0, 1)), u_max=10.0)
    samples = [(rng.normal(size=n), rng.uniform(-2.0, 2.0, size=p), rng.normal(size=n),
                -float(rng.random())) for _ in range(5)]
    assert classical_reduction_residual(sys, samples) <= 1e-12
    for x, u, _, _ in samples:
        f_fd = finite_difference_jacobian(lambda y: sys.f_at(y, u), x)
        L_fd = finite_difference_jacobian(lambda y: sys.L_at(y, u), x)[0]
        assert np.abs(sys.f_jac_at(x, u) - f_fd).max() <= 1e-6
        assert np.abs(sys.L_grad_at(x, u) - L_fd).max() <= 1e-6


# ---------------------------------------------------------------------------
# config handling and the runner
# ---------------------------------------------------------------------------

def test_validate_config_rejects_unknown_scenario():
    with pytest.raises(ConfigError) as err:
        validate_config({"scenario": "nope"})
    assert "scenario" in err.value.path


def test_validate_config_names_bad_field():
    cfg = default_config("so3-bang-bang")
    cfg["z_init"] = [1.0, 2.0]     # wrong length
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert err.value.path == "z_init"


def test_validate_config_checks_solver_step():
    cfg = default_config("so3-bang-bang")
    cfg["solver"] = {"step": -1.0}
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert err.value.path == "solver.step"


def test_validate_config_inconsistent_wong_table():
    cfg = default_config("wong-so3-r2")
    cfg["params"] = dict(cfg["params"], connection_const=[[0.0, 0.1]])
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert err.value.path == "params.connection_const"


def test_default_config_is_a_fresh_copy():
    cfg = default_config("wong-so3-r2")
    cfg["params"]["connection_const"][0][0] = 99.0
    assert default_config("wong-so3-r2")["params"]["connection_const"][0][0] == 0.0


@pytest.mark.parametrize("text, field", [
    ('{"scenario": "so3-bang-bang", "horizon": Infinity}', "horizon"),
    ('{"scenario": "so3-bang-bang", "horizon": NaN}', "horizon"),
    ('{"scenario": "so3-bang-bang", "params": {"a": [1, -Infinity, 0]}}', "params.a[1]"),
    ('{"scenario": "so3-bang-bang", "solver": {"tol": NaN}}', "solver.tol"),
])
def test_validate_config_rejects_non_finite_numbers(text, field):
    with pytest.raises(ConfigError) as err:
        validate_config(json.loads(text))
    assert err.value.path == field


def test_validate_config_caps_the_node_count():
    cfg = default_config("so3-bang-bang")
    cfg["horizon"] = 1e4
    cfg["solver"]["step"] = 1e-4
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert err.value.path == "horizon"


@pytest.mark.parametrize("solver, field", [
    ({"seed": -1}, "solver.seed"),
    ({"seed": 1.5}, "solver.seed"),
    ({"seed": True}, "solver.seed"),
    ({"symbol_samples": "many"}, "solver.symbol_samples"),
    ({"symbol_samples": True}, "solver.symbol_samples"),
    ({"symbol_samples": -3}, "solver.symbol_samples"),
    ({"symbol_samples": _MAX_SYMBOL_SAMPLES + 1}, "solver.symbol_samples"),
])
def test_validate_config_checks_seed_and_symbol_samples(solver, field):
    cfg = default_config("so3-bang-bang")
    cfg["solver"].update(solver)
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert err.value.path == field


def test_validate_config_accepts_symbol_samples_at_the_cap():
    cfg = default_config("so3-bang-bang")
    cfg["solver"].update(seed=7, symbol_samples=_MAX_SYMBOL_SAMPLES)
    assert validate_config(cfg)["solver"]["symbol_samples"] == _MAX_SYMBOL_SAMPLES


@pytest.mark.parametrize("key", ["params", "solver"])
def test_validate_config_rejects_non_object_sections(key):
    cfg = default_config("classical-tm-lq")
    cfg[key] = [1, 2]
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert err.value.path == key


_AFFINE_ANCHOR = {"kind": "affine-anchor", "anchor_const": [[1.0, 0.0]],
                  "anchor_linear": [[[0.0], [1.0]]],
                  "table": [[[0.0, 1.0], [-1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}
_CONFIGS = [*map(default_config, scenarios.SCENARIOS), {"scenario": "custom",
                                                         "chart": _AFFINE_ANCHOR}]
_DELETE = object()
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from([10**400, -10**400, 1e308, -1e308, 5e-324, 2**63, -2**63 - 1]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=12)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_validate_config_raises_only_config_errors_on_random_json(data):
    """Random JSON values (nested objects and lists, wrong types, huge and
    non-finite numbers) put in place of, or taken out of, a built-in
    scenario's keys, a section's keys, or a custom chart spec's keys, either
    validate or raise ConfigError."""
    cfg = json.loads(json.dumps(data.draw(st.sampled_from(_CONFIGS))))
    keys = [(k,) for k in cfg] + [(k, j) for k, v in cfg.items() if isinstance(v, dict)
                                  for j in v]
    for path in data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3)):
        section = cfg if len(path) == 1 else cfg.get(path[0])
        value = data.draw(_JSON | st.sampled_from([_DELETE, float("nan"), float("inf")]))
        if not isinstance(section, dict):
            continue
        if value is _DELETE:
            section.pop(path[-1], None)
        else:
            section[path[-1]] = value
    try:
        validate_config(cfg)
    except ConfigError:
        pass


def test_build_chart_from_config_variants():
    chart = build_chart_from_config({"kind": "tangent", "dim": 2})
    assert chart.base_dim == 2
    chart = build_chart_from_config({"kind": "lie-algebra",
                                     "table": so3_structure().tolist()})
    assert chart.base_dim == 0 and chart.fiber_dim == 3
    with pytest.raises(ConfigError):
        build_chart_from_config({"kind": "mystery"})


def test_build_chart_affine_anchor_config():
    # anchor rho(x) = [1, x] with the repairing constant bracket: passes the
    # axioms; the same anchor with a zero table fails the morphism check
    spec = {
        "kind": "affine-anchor",
        "anchor_const": [[1.0, 0.0]],
        "anchor_linear": [[[0.0], [1.0]]],
        "table": [[[0.0, 1.0], [-1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
    }
    report = validate_chart({"scenario": "custom", "chart": spec})
    assert report["passed"]
    spec_zero = dict(spec, table=np.zeros((2, 2, 2)).tolist())
    report = validate_chart({"scenario": "custom", "chart": spec_zero})
    assert not report["passed"]


def test_run_scenario_cone_samples(tmp_path):
    cfg = default_config("so3-bang-bang")
    cfg["horizon"] = 3.0
    cfg["solver"] = dict(cfg["solver"], symbol_samples=100)
    report = run_scenario(cfg, tmp_path)
    names = [c["name"] for c in report["checks"]]
    assert "cone_support" in names
    assert report["passed"]
    assert (tmp_path / "switches.csv").exists()


def test_validate_chart_custom_scenario():
    report = validate_chart({"scenario": "custom",
                             "chart": {"kind": "lie-algebra",
                                       "table": so3_structure().tolist()}})
    assert report["passed"]


def test_run_scenario_writes_artifacts(tmp_path):
    cfg = default_config("classical-tm-lq")
    report = run_scenario(cfg, tmp_path)
    assert report["passed"]
    for name in ("trajectory.csv", "costate.csv", "audit.json", "invariants.json"):
        assert (tmp_path / name).exists(), name
    on_disk = json.loads((tmp_path / "invariants.json").read_text())
    assert on_disk["schema_version"] == 1
    assert all(c["passed"] for c in on_disk["checks"])


@pytest.mark.parametrize("scenario", ["so3-bang-bang", "classical-tm-lq", "wong-so3-r2"])
def test_run_scenario_is_bit_reproducible(tmp_path, scenario):
    cfg = default_config(scenario)
    cfg["horizon"] = min(cfg["horizon"], 2.0)   # so3's default of 10 shortened
    run_scenario(cfg, tmp_path / "one")
    run_scenario(cfg, tmp_path / "two")
    for name in ("trajectory.csv", "costate.csv", "invariants.json"):
        assert ((tmp_path / "one" / name).read_bytes()
                == (tmp_path / "two" / name).read_bytes()), name


def _api_call(cfg: dict):
    """The public scenario_* call with the arguments that ``cfg`` gives the run."""
    p, z = cfg["params"], cfg["z_init"]
    run = {"horizon": cfg["horizon"], "step": cfg["solver"]["step"], "tol": cfg["solver"]["tol"]}
    if cfg["scenario"] == "so3-bang-bang":
        return scenario_so3_bang_bang(p["a"], p["b"], z, **run)
    if cfg["scenario"] == "classical-tm-lq":
        return scenario_classical(z[0], cfg["initial_point"][0], u_max=p["u_max"], **run)
    fixture = WongFixture(so3_structure(), p["connection_const"], p["connection_linear"])
    return scenario_wong(fixture, cfg["initial_point"], z[:2], z[2:], u_max=p["u_max"], **run)


@pytest.mark.parametrize("scenario", sorted(scenarios.SCENARIOS))
def test_the_python_api_and_the_run_are_one_pipeline(tmp_path, scenario):
    """A default run's checks between the two chart checks and extremal_audit
    are the scenario_* call's checks, dict for dict, and its notes the call's."""
    cfg = default_config(scenario)
    report = run_scenario(cfg, tmp_path)
    result = _api_call(cfg)
    assert [c["name"] for c in report["checks"][:2]] == ["skew_symmetry", "anchor_morphism"]
    assert report["checks"][-1]["name"] == "extremal_audit"
    assert report["checks"][2:-1] == result.checks
    assert report["notes"] == result.notes


def test_reports_are_strict_json_when_a_check_overflows(tmp_path):
    """A covector of norm 1e200 overflows the Casimir norm: the check values
    NaN and inf are written as null, so both reports parse under a strict
    reader (RFC 8259 has no NaN or Infinity), and the run does not pass.
    The run warns about nothing: a warning here is an error."""
    cfg = {"scenario": "so3-bang-bang", "z_init": [1e200, 0.0, 0.0], "horizon": 1.0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_scenario(cfg, tmp_path)
    assert not report["passed"]

    def reject(constant):
        raise ValueError(f"non-finite number {constant} in a report")

    for name in ("invariants.json", "audit.json"):
        on_disk = json.loads((tmp_path / name).read_text(), parse_constant=reject)
        assert not on_disk["passed"]
    checks = json.loads((tmp_path / "invariants.json").read_text())["checks"]
    casimir = next(c for c in checks if c["name"] == "casimir_drift")
    assert casimir["value"] is None and not casimir["passed"]
