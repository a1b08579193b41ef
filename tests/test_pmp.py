import itertools
import os
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from algopt import pmp
from algopt.control import (Box, ControlSignal, ControlSystem, FiniteSet, _point_table,
                            _transport, control_affine, costate_rhs, simulate_trajectory,
                            transport_Bbar)
from algopt.core import lie_algebra, so3_structure, tangent_bundle
from algopt.errors import ChatteringError, UnsupportedDimensionError
from algopt.numerics import (TimeGrid, _float_rk4, _linear_rk4, grid_derivative, integrate,
                             rk4_step)
from algopt.paths import EPath, reparameterize_unit
from algopt.pmp import (CostatePath, TimeDependentControlSystem, VariationSymbol,
                        autonomize, cone_support_check, develop_to_group,
                        hamiltonian, integrate_pmp_flow, make_needle_context,
                        maximize_hamiltonian, needle_vector, sample_symbols,
                        shoot_endpoint, time_dependence_audit, verify_extremal)
from algopt.scenarios import (SCENARIOS, WongFixture, build_lq_system,
                              build_so3_bang_bang_system, build_wong_system, default_config)
from conftest import box_signal, random_control_affine, skew_hat


# ---------------------------------------------------------------------------
# Hamiltonian and maximization
# ---------------------------------------------------------------------------

def test_hamiltonian_vanishes_on_zero_covector(bang_bang_system):
    h = hamiltonian(bang_bang_system, np.zeros(3), 0.0, np.zeros(0), [1.0])
    assert h == 0.0


def test_hamiltonian_two_axis_value(bang_bang_system):
    # <(0,0,1), a + b> + z0 * 1 with a = e1, b = e2, u = +1
    h = hamiltonian(bang_bang_system, np.array([0.0, 0.0, 1.0]), -1.0,
                    np.zeros(0), [1.0])
    assert h == -1.0


def test_maximize_sign_rule(bang_bang_system):
    z = np.array([0.0, 0.7, 0.0])
    u, h = maximize_hamiltonian(bang_bang_system, z, -1.0, np.zeros(0))
    assert u[0] == 1.0
    assert abs(h - (0.7 - 1.0)) < 1e-15


def test_maximize_tie_takes_first_listed(bang_bang_system):
    z = np.array([0.5, 0.0, 0.0])   # <z, b> = 0: both controls give the same H
    u, _ = maximize_hamiltonian(bang_bang_system, z, -1.0, np.zeros(0))
    assert u[0] == -1.0             # first listed value


def test_hamiltonian_wong_form(wong_fixture):
    """H on the energy system equals p.v - xi.A(x)v + z0/2 g(x)(v, v)."""
    from algopt.scenarios import build_wong_system

    sys = build_wong_system(wong_fixture)
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = rng.uniform(-1, 1, size=2)
        p = rng.normal(size=2)
        xi = rng.normal(size=3)
        v = rng.uniform(-2, 2, size=2)
        z0 = -float(rng.random())
        direct = hamiltonian(sys, np.concatenate([p, xi]), z0, x, v)
        A = wong_fixture.connection(x)
        g = wong_fixture.metric(x)
        expected = float(p @ v - xi @ (A @ v) + z0 * 0.5 * v @ g @ v)
        assert abs(direct - expected) < 1e-12


def test_maximize_quadratic_box_against_grid_search(wong_fixture):
    from algopt.scenarios import build_wong_system

    sys = build_wong_system(wong_fixture)
    rng = np.random.default_rng(5)
    x = np.array([0.2, -0.1])
    z = rng.normal(size=5)
    u_closed, h_closed = maximize_hamiltonian(sys, z, -1.0, x)
    # independent zooming grid-search oracle
    lo, hi = -10.0 * np.ones(2), 10.0 * np.ones(2)
    best_u, best = None, -np.inf
    for _ in range(4):
        for u1 in np.linspace(lo[0], hi[0], 81):
            for u2 in np.linspace(lo[1], hi[1], 81):
                h = hamiltonian(sys, z, -1.0, x, [u1, u2])
                if h > best:
                    best, best_u = h, np.array([u1, u2])
        cell = (hi - lo) / 80.0
        lo = np.maximum(best_u - cell, -10.0)
        hi = np.minimum(best_u + cell, 10.0)
    assert np.abs(u_closed - best_u).max() < 1e-4
    assert h_closed >= best - 1e-8


def test_box_maximizer_on_a_non_diagonal_metric_reproduction():
    """Clipping g^{-1} p / (-z0) coordinate by coordinate gives u = (1, 1) and
    H = -1.975 here; a 101 x 101 grid finds 4.380."""
    fixture = WongFixture(so3_structure(), np.zeros((3, 2)),
                          metric_const=[[0.2026, -0.5385], [-0.5385, 3.1371]])
    u, h = maximize_hamiltonian(build_wong_system(fixture, u_max=1.0),
                                np.array([2.872, -3.716, 0.0, 0.0, 0.0]), -1.0, np.zeros(2))
    assert u.tolist() == [1.0, -1.0]
    assert abs(h - 4.37965) < 1e-12


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 3))
def test_box_maximizer_beats_a_fine_grid_on_non_diagonal_metrics(seed, p):
    """Wong systems over R^p with a random non-diagonal SPD metric and a box
    that cuts off the unconstrained maximizer: the maximizer's H is at least
    the best H on a fine grid over the box, computed from the fixture."""
    rng = np.random.default_rng(seed)
    R = rng.normal(size=(p, p))
    metric = R @ R.T + 0.1 * np.eye(p)
    fixture = WongFixture(so3_structure(), rng.normal(size=(3, p)), metric_const=metric)
    x, z = rng.uniform(-1.0, 1.0, size=p), rng.normal(size=p + 3)
    b = z[:p] - fixture.connection(x).T @ z[p:]
    u_max = rng.uniform(0.2, 0.9) * np.abs(np.linalg.solve(metric, b)).max()
    u, h = maximize_hamiltonian(build_wong_system(fixture, u_max=u_max), z, -1.0, x)
    assert np.all(np.abs(u) <= u_max)
    axis = np.linspace(-u_max, u_max, {1: 2001, 2: 201, 3: 41}[p])
    grid = np.stack(np.meshgrid(*[axis] * p, indexing="ij"), axis=-1).reshape(-1, p)
    grid_h = grid @ b - 0.5 * np.einsum("na,ab,nb->n", grid, metric, grid)
    assert h >= grid_h.max() - 1e-12


@pytest.mark.parametrize("p", [1, 4])
def test_box_without_maximizer_is_not_maximized(p):
    """H over a box is maximized only by a registered maximizer: without one,
    at a point and at a flow's first stage alike, whatever the dimension."""
    sys = ControlSystem(tangent_bundle(p), lambda x, u: u.copy(),
                        lambda x, u: 0.5 * float(u @ u), Box(-np.ones(p), np.ones(p)))
    with pytest.raises(UnsupportedDimensionError):
        maximize_hamiltonian(sys, np.full(p, 0.7), -1.0, np.zeros(p))
    with pytest.raises(UnsupportedDimensionError):
        integrate_pmp_flow(sys, np.zeros(p), np.full(p, 0.7), -1.0, 0.0, 0.1, step=1e-2)


def test_costate_path_rejects_positive_multiplier():
    grid = TimeGrid(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        CostatePath(grid, np.zeros((grid.n_nodes, 2)), 0.5)


# ---------------------------------------------------------------------------
# closed-loop integration
# ---------------------------------------------------------------------------

def test_flow_so3_keeps_casimir(bang_bang_system):
    flow = integrate_pmp_flow(bang_bang_system, np.zeros(0), [0.0, 1.0, 0.2],
                              -1.0, 0.0, 10.0, step=1e-3)
    norms = np.linalg.norm(flow.costate.z, axis=1)
    assert np.abs(norms - norms[0]).max() < 1e-8
    sigma = flow.costate.z @ np.array([0.0, 1.0, 0.0])
    bset = set(flow.switch_times)
    for k, t in enumerate(flow.path.grid.nodes):
        if t in bset or sigma[k] == 0.0:
            continue
        assert flow.u_nodes[k][0] == np.sign(sigma[k])
    assert len(flow.switch_times) >= 1
    assert np.abs(flow.h_nodes).max() < 1e-6


def test_flow_lq_matches_closed_form():
    sys = build_lq_system()
    flow = integrate_pmp_flow(sys, [0.0], [0.5], -1.0, 0.0, 1.0, step=1e-3)
    ts = flow.path.grid.nodes
    assert np.abs(flow.costate.z[:, 0] - 0.5).max() < 1e-6
    assert np.abs(flow.u_nodes[:, 0] - 0.5).max() < 1e-6
    assert np.abs(flow.path.base[:, 0] - 0.5 * ts).max() < 1e-6


def test_box_flow_keeps_its_control_as_node_samples():
    flow = integrate_pmp_flow(build_lq_system(), [0.0], [0.5], -1.0, 0.0, 1.0, step=1e-2)
    assert flow.control is None
    assert flow.u_nodes.shape == (flow.path.grid.n_nodes, 1)
    assert flow.switch_times == () and flow.tie_times == ()


def test_flow_zero_covector_flagged(bang_bang_system):
    flow = integrate_pmp_flow(bang_bang_system, np.zeros(0), np.zeros(3), 0.0,
                              0.0, 1.0, step=1e-2)
    audit = verify_extremal(bang_bang_system, flow.path, flow.costate, flow.u_nodes,
                            mode="free-time")
    assert not audit.verdicts["multiplier"]
    assert audit.covector_min_norm == 0.0


def test_flow_chattering_guard(bang_bang_system):
    with patch.object(pmp, "_MAX_SWITCHES", 3), pytest.raises(ChatteringError):
        integrate_pmp_flow(bang_bang_system, np.zeros(0), [0.0, 1.0, 0.2], -1.0,
                           0.0, 30.0, step=1e-3)


def test_a_sliding_flow_fails_within_one_grid_step():
    """At z0 = 0 this drift-free control-affine flow slides on b = 0 from
    about t = 0.06, hundreds of switches per grid step, which a bang-bang
    flow cannot follow.  It stops past pmp._MAX_STEP_SWITCHES switches within
    one step, not after pmp._MAX_SWITCHES in all (about 50 s of switching)."""
    rng = np.random.default_rng(1)
    sys = random_control_affine(rng, 2, 1, "atiyah", False)
    x0, z_init = rng.normal(size=2), rng.normal(size=sys.alg.fiber_dim)
    start = time.perf_counter()
    with pytest.raises(ChatteringError) as err:
        integrate_pmp_flow(sys, x0, z_init, 0.0, 0.0, 1.0, step=1e-2)
    assert time.perf_counter() - start < 1.0
    assert err.value.n_switches == pmp._MAX_STEP_SWITCHES and err.value.t < 0.1


def test_flow_rejects_positive_multiplier(bang_bang_system):
    with pytest.raises(ValueError):
        integrate_pmp_flow(bang_bang_system, np.zeros(0), [0.0, 1.0, 0.2], 1.0,
                           0.0, 1.0)


@pytest.mark.parametrize("name, x0, z_init, z0, message", [
    ("so3", [], [0.0, 1.0], -1.0, r"initial covector has shape \(2,\), expected \(3,\)"),
    ("lq", [], [0.3, 0.5], -1.0, r"initial point has shape \(0,\), expected \(1,\)"),
    ("lq", [0.0, 1.0], [0.5], 0.0, r"initial point has shape \(2,\), expected \(1,\)"),
    ("wong", [0.2], [0.1] * 6, -1.0, r"initial point has shape \(1,\), expected \(2,\)"),
], ids=["so3-covector", "lq-short-point", "lq-abnormal-long-point", "wong-short-point"])
def test_flow_names_a_misshapen_initial_point_or_covector(wong_fixture, name, x0, z_init, z0,
                                                          message):
    """Each control space checks x0 and z_init against the chart before the
    flow, so neither is silently split at the base dimension."""
    sys = {"so3": lambda: build_so3_bang_bang_system([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]),
           "lq": build_lq_system, "wong": lambda: build_wong_system(wong_fixture)}[name]()
    with pytest.raises(ValueError, match=message):
        integrate_pmp_flow(sys, x0, z_init, z0, 0.0, 0.1, step=0.01)


def test_a_three_valued_set_bisects_its_switches():
    """so(3) with u in {-1, 0, 1} and L = 1 + u^2/2 steps down 1 -> 0 -> -1:
    each switch is bisected onto the crossing of the two best H, which agree
    there to 1e-8 (the switch tolerance is 1e-9 in time)."""
    a, b = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    sys = ControlSystem(lie_algebra(so3_structure()), lambda x, u: a + u[0] * b,
                        lambda x, u: 1.0 + 0.5 * u[0] ** 2, FiniteSet(([-1.0], [0.0], [1.0])))
    flow = integrate_pmp_flow(sys, np.zeros(0), [0.0, 1.0, 0.2], -1.0, 0.0, 4.0, step=1e-3)
    assert [v[0] for v in flow.control.values] == [1.0, 0.0, -1.0]
    at_switch = flow.costate.z[np.isin(flow.path.grid.nodes, flow.switch_times)]
    H = np.sort([[hamiltonian(sys, z, -1.0, np.zeros(0), v) for v in sys.control_space.values]
                 for z in at_switch], axis=1)
    assert len(H) == 2
    assert np.all(H[:, -1] - H[:, -2] <= 1e-8)


def so3_default_flow():
    cfg = default_config("so3-bang-bang")
    sys = build_so3_bang_bang_system(cfg["params"]["a"], cfg["params"]["b"])
    return sys, np.zeros(0), cfg["z_init"], -1.0, cfg["horizon"]


def atiyah_vertex_flow():
    """An abnormal control-affine flow over the 8 vertices of a 3-D box, whose
    switches often have several values leading within one step."""
    rng = np.random.default_rng([7, 2, 3])
    sys = random_control_affine(rng, 2, 3, "atiyah", False)
    return sys, rng.uniform(-0.5, 0.5, 2), rng.normal(size=5), 0.0, 0.05


@pytest.mark.parametrize("case", [so3_default_flow, atiyah_vertex_flow])
def test_a_switch_costs_one_bisection_to_the_switch_tolerance(monkeypatch, case):
    """Each switch is bisected on the test that detects it, whether the held
    value is still the argmax of H: from a step of 1e-3 that is 20 steps to
    the 1e-9 tolerance per switch, however many values lead within the step.
    Steps taken inside held blocks (numerics._held_steps) are not counted."""
    count, held = [0], [False]

    def counted(step):
        def wrapped(*args):
            count[0] += not held[0]
            return step(*args)
        return wrapped

    def held_steps(*args):
        held[0] = True
        try:
            return real_held(*args)
        finally:
            held[0] = False

    real_held = pmp._held_steps
    monkeypatch.setattr(pmp, "_held_steps", held_steps)
    monkeypatch.setattr(pmp, "rk4_step", counted(pmp.rk4_step))
    monkeypatch.setattr(_linear_rk4, "__call__", counted(_linear_rk4.__call__))
    sys, x0, z_init, z0, horizon = case()
    flow = integrate_pmp_flow(sys, x0, z_init, z0, 0.0, horizon, step=1e-3)
    assert len(flow.switch_times) >= 2
    assert count[0] <= 20 * len(flow.switch_times)


def test_a_switch_at_a_large_time_is_localized_without_hanging():
    """At t = 1e7 a bracket one ulp (1.9e-9) wide is still wider than the
    1e-9 tolerance; the bisection stops there instead of repeating a
    midpoint that rounds to an end.  Run in a subprocess so that a hang
    fails the test instead of the suite."""
    code = ("import numpy as np\n"
            "from algopt.pmp import integrate_pmp_flow\n"
            "from algopt.scenarios import build_so3_bang_bang_system\n"
            "sys = build_so3_bang_bang_system([1, 0, 0], [0, 1, 0])\n"
            "flow = integrate_pmp_flow(sys, np.zeros(0), [0.0, 1.0, 0.2], -1.0, 1e7, 1e7 + 10.0)\n"
            "print(len(flow.switch_times))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(pmp.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=10, env=env)
    assert out.stdout.strip() == "2"


# Two steps far from 0: the sum t0 + step + step rounds to t1 although more
# than step (1 + slack) remained before it, so the rule must end there once.
LARGE_T0 = (121843.2827230996, 121843.2868093375, 0.002043118942748335)


@pytest.mark.parametrize("interval", [lambda h: (0.0, h, 1e-3), lambda h: LARGE_T0,
                                      lambda h: (123456.789, 123456.789 + h, 1e-3)],
                         ids=["default", "large-t0", "shifted"])
@pytest.mark.parametrize("case", [so3_default_flow, atiyah_vertex_flow])
def test_a_switching_flow_has_the_nodes_of_its_time_grid(case, interval):
    """A finite-set flow, over a point or with a base, places its nodes by
    the rule of TimeGrid with its switches as breakpoints, bit for bit:
    scenarios._cone_check rebuilds the needle grid up to its cut from them.
    The default and shifted horizons switch."""
    sys, x0, z_init, z0, horizon = case()
    t0, t1, step = interval(horizon)
    flow = integrate_pmp_flow(sys, x0, z_init, z0, t0, t1, step=step)
    grid = TimeGrid(t0, t1, step, flow.switch_times)
    assert flow.path.grid.nodes.tobytes() == grid.nodes.tobytes()
    assert flow.switch_times or (t0, t1, step) == LARGE_T0


def test_the_lq_box_flow_at_a_large_time_audits_with_a_finite_costate_residual():
    """On LARGE_T0 the LQ box flow has three distinct nodes, so the audit's
    grid derivative divides by no zero step, and nothing warns."""
    t0, t1, step = LARGE_T0
    sys = build_lq_system()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flow = integrate_pmp_flow(sys, [0.0], [0.5], -1.0, t0, t1, step=step)
        audit = verify_extremal(sys, flow.path, flow.costate, flow.u_nodes, mode="fixed-time")
    assert flow.path.grid.n_nodes == 3
    assert np.isfinite(audit.costate_residual) and audit.verdicts["costate_flow"]


@pytest.mark.parametrize("x0", [[], [0.1, 0.2]], ids=["empty", "long"])
@pytest.mark.parametrize("run", [simulate_trajectory, make_needle_context])
def test_a_trajectory_names_a_misshapen_initial_point(run, x0):
    """simulate_trajectory and make_needle_context check x0 against the chart,
    as integrate_pmp_flow does, instead of returning a base of the wrong width
    or failing in a reshape."""
    with pytest.raises(ValueError, match=rf"initial point has shape \({len(x0)},\), "
                                         r"expected \(1,\)"):
        run(build_lq_system(), ControlSignal(0.0, 1.0, (), ([0.5],)), x0)


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------

def so3_extremal(system, horizon=4.0, step=1e-3):
    return integrate_pmp_flow(system, np.zeros(0), [0.0, 1.0, 0.2], -1.0,
                              0.0, horizon, step=step)


def test_audit_passes_on_constructed_extremal(bang_bang_system):
    flow = so3_extremal(bang_bang_system)
    audit = verify_extremal(bang_bang_system, flow.path, flow.costate, flow.u_nodes,
                            mode="free-time", tol=1e-5)
    assert audit.passed, audit.to_dict()


def test_audit_detects_flipped_control(bang_bang_system):
    flow = so3_extremal(bang_bang_system)
    flipped = -flow.u_nodes
    audit = verify_extremal(bang_bang_system, flow.path, flow.costate, flipped,
                            mode="free-time", tol=1e-5)
    assert audit.max_condition_violation > 1e-3
    assert not audit.verdicts["maximum_condition"]


def test_audit_invariant_under_positive_scaling(bang_bang_system):
    lam = 2.0
    f1 = so3_extremal(bang_bang_system)
    f2 = integrate_pmp_flow(bang_bang_system, np.zeros(0),
                            lam * np.array([0.0, 1.0, 0.2]), lam * -1.0,
                            0.0, 4.0, step=1e-3)
    assert np.array_equal(f1.u_nodes, f2.u_nodes)
    assert np.allclose(f2.switch_times, f1.switch_times, atol=1e-8)
    a1 = verify_extremal(bang_bang_system, f1.path, f1.costate, f1.u_nodes, mode="free-time")
    a2 = verify_extremal(bang_bang_system, f2.path, f2.costate, f2.u_nodes,
                         mode="free-time", tol=lam * 1e-5)
    assert a1.verdicts == a2.verdicts
    assert np.abs(f2.h_nodes - lam * f1.h_nodes).max() < 1e-9


def test_audit_costate_flow_fails_on_a_costate_of_the_wrong_structure(bang_bang_system):
    """A costate integrated with sign-flipped structure constants still
    maximizes H node by node and keeps H = 0, but it does not follow the
    so(3) dual flow, and only the costate-flow verdict says so."""
    a, b = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    flipped = ControlSystem(lie_algebra(-so3_structure()), lambda x, u: a + u[0] * b,
                            lambda x, u: 1.0, FiniteSet(([-1.0], [1.0])))
    wrong = integrate_pmp_flow(flipped, np.zeros(0), [0.0, 1.0, 0.2], -1.0, 0.0, 4.0,
                               step=1e-3)
    audit = verify_extremal(bang_bang_system, wrong.path, wrong.costate, wrong.u_nodes,
                            mode="free-time", tol=1e-5)
    assert audit.costate_residual > 0.1
    assert audit.verdicts == {"maximum_condition": True, "costate_flow": False,
                              "hamiltonian_profile": True, "multiplier": True}


def test_box_audit_flags_perturbed_controls():
    sys = build_lq_system()
    flow = integrate_pmp_flow(sys, [0.0], [0.5], -1.0, 0.0, 1.0, step=1e-2)
    good = verify_extremal(sys, flow.path, flow.costate, flow.u_nodes, mode="fixed-time")
    assert good.passed, good.to_dict()
    bad = verify_extremal(sys, flow.path, flow.costate, flow.u_nodes + 0.1, mode="fixed-time")
    # H(u) = 0.5 u - u^2 / 2 peaks at u = 0.5 with 0.125; H(0.6) = 0.12
    assert abs(bad.max_condition_violation - 0.005) < 1e-12
    assert not bad.verdicts["maximum_condition"]
    assert bad.verdicts["costate_flow"] and bad.verdicts["hamiltonian_profile"]


def test_audit_notes_ties_on_a_degenerate_two_valued_set():
    sys = build_so3_bang_bang_system([1.0, 0.0, 0.0], [0.0, 0.0, 0.0])   # u moves nothing
    flow = integrate_pmp_flow(sys, np.zeros(0), [0.0, 0.0, 1.0], -1.0, 0.0, 1.0, step=1e-2)
    audit = verify_extremal(sys, flow.path, flow.costate, flow.u_nodes, mode="fixed-time")
    n = flow.path.grid.n_nodes
    assert len(flow.tie_times) == n == 101
    assert audit.notes == (f"maximizer tie at {n} node(s); singular arcs are flagged, "
                           "not resolved",)


def test_tie_count_is_invariant_under_scaling_the_covector():
    """H scales with (z, z0), so the flow's tie times and the audit's tie
    count must not change when both are scaled."""
    sys = build_so3_bang_bang_system([1.0, 0.0, 0.0], [0.0, 1e-11, 0.0])
    ties, notes = [], []
    for lam in (1.0, 100.0):
        flow = integrate_pmp_flow(sys, np.zeros(0), lam * np.array([0.0, 1.0, 0.2]), -lam,
                                  0.0, 2.0, step=1e-2)
        audit = verify_extremal(sys, flow.path, flow.costate, flow.u_nodes, mode="free-time")
        ties.append(len(flow.tie_times))
        notes.append(audit.notes)
    assert ties == [202, 202]
    assert notes[0] == notes[1] == ("maximizer tie at 201 node(s); singular arcs are "
                                    "flagged, not resolved",)


def test_no_ties_on_a_covector_whose_squares_overflow():
    """At z0 = 0 the extremal does not depend on the scale of z.  From
    |z| ~ 1e160 the squares of a plain norm overflow, which made every node
    a tie (101 of 101); the tie gap's |z| must stay finite and quiet."""
    sys = build_so3_bang_bang_system([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    with np.errstate(all="raise"):
        flow = integrate_pmp_flow(sys, np.zeros(0), 1e160 * np.array([0.3, 1.0, 0.2]), 0.0,
                                  0.0, 1.0, step=1e-2)
    assert flow.path.grid.n_nodes == 101
    assert flow.tie_times == ()


def test_audit_grid_mismatch_rejected(bang_bang_system):
    flow = so3_extremal(bang_bang_system, horizon=1.0)
    other = integrate_pmp_flow(bang_bang_system, np.zeros(0), [0.0, 1.0, 0.2],
                               -1.0, 0.0, 1.0, step=2e-3)
    with pytest.raises(ValueError):
        verify_extremal(bang_bang_system, flow.path, other.costate, flow.u_nodes)


@pytest.mark.parametrize("z0", [-1.0, 0.0])
def test_audit_of_a_box_above_three_controls_reads_the_exact_maximizer(z0):
    """Above p = 3 the audit's one grid candidate is the box's midpoint, so
    only H at the exact maximizer can see a control that is not the best."""
    I = np.eye(4)
    sys = control_affine(tangent_bundle(4), (I, None), (I, None), 1.0)
    assert [c.tolist() for c in pmp._candidate_controls(sys)] == [[0.0] * 4]
    flow = integrate_pmp_flow(sys, np.zeros(4), [1.0, 2.0, -1.0, 0.5], z0, 0.0, 1.0, step=1e-2)
    args = (sys, flow.path, flow.costate)
    assert verify_extremal(*args, flow.u_nodes, mode="fixed-time").passed
    audit = verify_extremal(*args, np.zeros_like(flow.u_nodes), mode="fixed-time")
    assert not audit.verdicts["maximum_condition"] and audit.max_condition_violation > 1.0


def per_node_audit(sys, path, costate, u_nodes, mode, tol):
    """verify_extremal's numbers, verdicts and notes on a box, from one
    hamiltonian, maximize_hamiltonian and costate_rhs call per node and
    candidate."""
    nodes, x, z, z0 = path.grid.nodes, path.base, costate.z, costate.z0
    keep = np.flatnonzero(~np.isin(nodes, path.grid.breakpoints))
    inner = keep[(keep > 0) & (keep < len(nodes) - 1)]
    U = sys.control_space
    axes = [np.linspace(lo, hi, 9) for lo, hi in zip(U.lower, U.upper)]
    candidates = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, U.dim)
    h = np.array([hamiltonian(sys, z[k], z0, x[k], u_nodes[k]) for k in range(len(nodes))])
    best = [max(maximize_hamiltonian(sys, z[k], z0, x[k])[1],
                *(hamiltonian(sys, z[k], z0, x[k], v) for v in candidates)) for k in keep]
    rhs = np.reshape([costate_rhs(sys, x[k], u_nodes[k], z[k], z0) for k in inner],
                     (-1, z.shape[1]))
    dz = grid_derivative(path.grid, z)[inner]
    numbers = {"max_condition_violation": max(0.0, float(np.max(best - h[keep]))),
               "costate_residual": float(np.abs(dz - rhs).max(initial=0.0)),
               "h_drift": float(np.abs(h[keep] - (0.0 if mode == "free-time"
                                                  else h[keep].mean())).max()),
               "covector_min_norm": float(np.linalg.norm(z, axis=1).min())}
    verdicts = {"maximum_condition": numbers["max_condition_violation"] <= tol,
                "costate_flow": numbers["costate_residual"] <= tol,
                "hamiltonian_profile": numbers["h_drift"] <= tol,
                "multiplier": z0 != 0.0 or numbers["covector_min_norm"] > tol}
    notes = () if z0 else ("abnormal multiplier (z0 = 0) accepted; the strict-negativity "
                           "variant of the transversality statement is not enforced",)
    return numbers, verdicts, notes, max(1.0, np.abs(h).max(), np.abs(dz).max(initial=0.0))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), p=st.integers(1, 3),
       atiyah=st.booleans(), z0=st.sampled_from([0.0, -1.0]), active=st.booleans(),
       block=st.sampled_from([7, 128]), blocks=st.integers(0, 2), rest=st.integers(2, 6),
       mode=st.sampled_from(["free-time", "fixed-time"]), constant=st.booleans())
def test_block_audit_matches_a_per_node_reference(seed, n, p, atiyah, z0, active, block,
                                                  blocks, rest, mode, constant):
    """On random control-affine systems, with x-dependent F and G or with
    constant ones, over TR^n or an Atiyah chart TR^n x so(3), the audit in
    node blocks gives the numbers of a per-node loop to 1e-13 of their
    scale, and the same verdicts and notes; so does the node-by-node audit of
    the same system without its declared tables.  Node counts are not
    multiples of the block size; the box is active or not at the random
    controls and the maximizer.  The block's dual field is costate_rhs's,
    bit for bit."""
    rng = np.random.default_rng(seed)
    sys = random_control_affine(rng, n, p, "atiyah" if atiyah else "tangent", active)
    if constant:
        sys = control_affine(sys.alg, *((c, None) for c, _ in sys.affine),
                             sys.control_space.upper[0])
    m, u_max = sys.alg.fiber_dim, sys.control_space.upper[0]
    N = block * min(blocks, 1 if block == 128 else 2) + rest
    nodes = np.sort(rng.uniform(0.0, 1.0, N))
    breaks = (nodes[N // 2],) if blocks == 1 else ()
    grid = TimeGrid.from_nodes(nodes, breaks)
    path = EPath(grid, rng.uniform(-1.0, 1.0, (N, n)), np.zeros((N, m)))
    costate = CostatePath(grid, rng.normal(size=(N, m)), z0)
    u_nodes = rng.uniform(-u_max, u_max, (N, p))
    tol = 1e-5
    numbers, verdicts, notes, scale = per_node_audit(sys, path, costate, u_nodes, mode, tol)
    for audited in (sys, replace(sys, affine=None)):   # in blocks, then node by node
        with patch.object(pmp, "_AUDIT_BLOCK", block):
            audit = verify_extremal(audited, path, costate, u_nodes, mode=mode, tol=tol)
        for name, value in numbers.items():
            assert abs(getattr(audit, name) - value) <= 1e-13 * scale, name
        assert audit.verdicts == verdicts
        assert audit.notes == notes
    rhs = pmp._affine_block(sys, path.base, costate.z, z0, u_nodes,
                            pmp._candidate_controls(sys))[3]
    assert np.array_equal(rhs, [costate_rhs(sys, x, u, z, z0)
                                for x, u, z in zip(path.base, u_nodes, costate.z)])


def test_wong_audit_makes_no_per_node_calls(wong_fixture, monkeypatch):
    """A declared control-affine system is audited on arrays: verify_extremal
    calls neither hamiltonian, maximize_hamiltonian nor costate_rhs."""
    sys = build_wong_system(wong_fixture)
    flow = integrate_pmp_flow(sys, [0.2, -0.1], [0.8, 0.5, 0.3, -0.2, 0.4], -1.0, 0.0, 0.3,
                              step=1e-3)

    def forbidden(*args):
        raise AssertionError("per-node call in the audit")

    for name in ("hamiltonian", "maximize_hamiltonian", "costate_rhs"):
        monkeypatch.setattr(pmp, name, forbidden)
    audit = verify_extremal(sys, flow.path, flow.costate, flow.u_nodes, mode="fixed-time")
    assert audit.passed, audit.to_dict()


def box_vertices(box):
    """The vertices of a box, upper bounds listed first."""
    return tuple(itertools.product(*zip(box.upper, box.lower)))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), p=st.integers(1, 3),
       chart=st.sampled_from(["tangent", "atiyah", "point"]), z0=st.sampled_from([0.0, -1.0]),
       active=st.booleans(), constant=st.booleans())
def test_fused_affine_flow_matches_the_generic_flow(seed, n, p, chart, z0, active, constant):
    """On random control-affine systems, with or without linear parts, the
    fused stage field and the stacked node samples give the bits of the
    generic flow, which maximizes H and calls costate_rhs and f_at at every
    stage and node.  At z0 = 0 the reference is the same system over the
    finite set of its box's vertices, upper bounds first."""
    rng = np.random.default_rng(seed)
    n = 0 if chart == "point" else n
    sys = random_control_affine(rng, n, p, chart, active)
    if constant:
        sys = control_affine(sys.alg, *((c, None) for c, _ in sys.affine),
                             sys.control_space.upper[0])
    reference = replace(sys, affine=None)
    if z0 == 0.0:
        reference = replace(reference, control_space=FiniteSet(box_vertices(sys.control_space)))
    x0, z_init = rng.uniform(-0.5, 0.5, n), rng.normal(size=sys.alg.fiber_dim)
    fused, generic = (integrate_pmp_flow(s, x0, z_init, z0, 0.0, 0.05, step=1e-3)
                      for s in (sys, reference))
    for name, a, b in (("base", fused.path.base, generic.path.base),
                       ("fiber", fused.path.fiber, generic.path.fiber),
                       ("costate", fused.costate.z, generic.costate.z),
                       ("u_nodes", fused.u_nodes, generic.u_nodes),
                       ("h_nodes", fused.h_nodes, generic.h_nodes)):
        assert np.array_equal(a, b), name
    assert fused.switch_times == generic.switch_times


@pytest.mark.parametrize("past", [0.0, 5e-13, 1e-6])
@pytest.mark.parametrize("p", [1, 2])
def test_fused_in_box_test_keeps_the_generic_bits_at_the_bound(p, past):
    """The fused stage tests u = G^-1 b / c against the box three ways:
    strictly inside (no clip), within _BOX_SLACK of it (clip only) and past
    it (_box_qp, then clip).  On TR^p with constant F and G the costate is
    constant, so u lands at every stage on u_max, 5e-13 past it or 1e-6 past
    it, in its first coordinate.  Stepped by integrate (a copy of the step
    not declared constant), only the last case calls _box_qp, at each of the
    4 x 5 stages.  The flow of this constant field evaluates its stage once
    (numerics._held_steps sums it), so it calls _box_qp at most there and
    once to maximize at the nodes.  Each case gives the bits
    of the stepped field and of the generic flow."""
    u_max = 0.5
    F, G = np.eye(p), np.diag([2.0, 4.0][:p])   # powers of 2: G^-1 (G u) is u exactly
    sys = control_affine(tangent_bundle(p), (F, None), (G, None), u_max)
    u = np.array([u_max + past, -0.25][:p])
    z_init = G @ u
    assert np.array_equal(np.linalg.inv(G) @ (F.T @ z_init), u)
    with patch.object(pmp, "_box_qp", wraps=pmp._box_qp) as qp:
        stepped = integrate(_float_rk4(pmp._affine_pmp_step(sys, -1.0).stage),
                            TimeGrid(0.0, 0.05, 1e-2), np.append(np.zeros(p), z_init))
    assert qp.call_count == (4 * 5 if past > 1e-12 else 0)
    with patch.object(pmp, "_box_qp", wraps=pmp._box_qp) as qp:
        fused = integrate_pmp_flow(sys, np.zeros(p), z_init, -1.0, 0.0, 0.05, step=1e-2)
    assert qp.call_count == (2 if past > 1e-12 else 1)
    generic = integrate_pmp_flow(replace(sys, affine=None), np.zeros(p), z_init, -1.0,
                                 0.0, 0.05, step=1e-2)
    assert np.array_equal(np.hstack([fused.path.base, fused.costate.z]), stepped)
    for name, a, b in (("base", fused.path.base, generic.path.base),
                       ("costate", fused.costate.z, generic.costate.z),
                       ("u_nodes", fused.u_nodes, generic.u_nodes),
                       ("h_nodes", fused.h_nodes, generic.h_nodes)):
        assert np.array_equal(a, b), name
    assert np.all(fused.u_nodes[:, 0] == u_max)


def stepped_flow(*args, **kwargs):
    """integrate_pmp_flow with every fused step copied without its
    ``constant`` declaration, so that every box flow is stepped."""
    make = pmp._affine_pmp_step
    with patch.object(pmp, "_affine_pmp_step", lambda sys, z0: _float_rk4(make(sys, z0).stage)):
        return integrate_pmp_flow(*args, **kwargs)


def assert_same_bytes(flow, reference):
    for name in ("base", "fiber"):
        assert getattr(flow.path, name).tobytes() == getattr(reference.path, name).tobytes(), name
    for name in ("u_nodes", "h_nodes"):
        assert getattr(flow, name).tobytes() == getattr(reference, name).tobytes(), name
    assert flow.costate.z.tobytes() == reference.costate.z.tobytes(), "costate"
    assert flow.path.grid.nodes.tobytes() == reference.path.grid.nodes.tobytes(), "nodes"


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), p=st.integers(1, 3),
       point=st.booleans(), active=st.booleans(), z0=st.sampled_from([-0.5, -1.0, -2.0]),
       x_scale=st.floats(-3, 3), z_scale=st.floats(-3, 3), step=st.floats(1e-3, 0.013),
       steps=st.integers(1, 40), last=st.floats(0.05, 0.95))
def test_a_constant_field_flow_is_its_stepped_flow(seed, n, p, point, active, z0, x_scale,
                                                    z_scale, step, steps, last):
    """With constant F and SPD G on TR^n (or an abelian chart over a point)
    the fused stage reads z alone and leaves it fixed, so the flow evaluates
    it once and sums its RK4 increments, taking no step.  Base, fiber,
    costate, u_nodes and h_nodes are the stepped flow's bytes: boxes active
    and inactive, x0 and z_init from 1e-3 to 1e3, horizons with a short last
    step."""
    rng = np.random.default_rng(seed)
    chart = lie_algebra(np.zeros((n, n, n))) if point else tangent_bundle(n)
    A = rng.normal(size=(p, p))
    F, G = rng.normal(size=(n, p)), A @ A.T + 0.1 * np.eye(p)
    x0 = 10.0 ** x_scale * rng.normal(size=chart.base_dim)
    z_init = 10.0 ** z_scale * rng.normal(size=n)
    u = np.linalg.solve(G, F.T @ z_init) / -z0   # the control all along
    sys = control_affine(chart, (F, None), (G, None), (0.5 if active else 2.0) * np.abs(u).max())
    t1 = (steps + last) * step
    with patch.object(_float_rk4, "__call__", side_effect=AssertionError("stepped")):
        flow = integrate_pmp_flow(sys, x0, z_init, z0, 0.0, t1, step=step)
    assert_same_bytes(flow, stepped_flow(sys, x0, z_init, z0, 0.0, t1, step=step))
    assert np.all(np.abs(flow.u_nodes).max(axis=1) == sys.control_space.upper[0]) == active


def counted_stages(monkeypatch) -> list:
    """The stage calls of every fused step made after this, one entry each."""
    calls, make = [], pmp._affine_pmp_step

    def counted(sys, z0):
        step = make(sys, z0)
        stage = step.stage
        step.stage = lambda v: calls.append(1) or stage(v)
        return step

    monkeypatch.setattr(pmp, "_affine_pmp_step", counted)
    return calls


def test_a_signed_zero_costate_steps_the_flow(monkeypatch):
    """From z_init = -0.0 the LQ stage's zdot = +0 turns z into +0 at the
    first stage input, so the flow is stepped, 4 stage calls per step after
    the one that finds the -0.0: z, and x from x0 = -0.0, read -0 at t = 0
    and +0 after; from x0 = +0.0 too."""
    sys, calls = build_lq_system(), counted_stages(monkeypatch)
    for x0 in (-0.0, 0.0):
        calls.clear()
        flow = integrate_pmp_flow(sys, [x0], [-0.0], -1.0, 0.0, 1.0)
        assert len(calls) == 4001
        assert_same_bytes(flow, stepped_flow(sys, [x0], [-0.0], -1.0, 0.0, 1.0))
        for v, first in ((flow.path.base[:, 0], np.signbit(x0)), (flow.costate.z[:, 0], True)):
            assert np.signbit(v[0]) == first and not np.signbit(v[1:]).any() and not v.any()


def test_a_zero_costate_lq_flow_evaluates_its_stage_once(monkeypatch):
    """From z_init = +0.0 the LQ stage returns zdot = ±0, and +0.0 + (±0) is
    +0.0: the flow is one stage evaluation and a sum, with the bytes of the
    stepped flow's 4,000 stage calls."""
    calls = counted_stages(monkeypatch)
    args = (build_lq_system(), [0.0], [0.0], -1.0, 0.0, 1.0)
    flow = integrate_pmp_flow(*args)
    assert len(calls) == 1
    assert_same_bytes(flow, stepped_flow(*args))
    assert len(calls) == 4001


def test_an_lq_flow_from_a_non_finite_point_is_refused():
    with pytest.raises(ValueError, match="initial state must be finite"):
        integrate_pmp_flow(build_lq_system(), [np.inf], [0.5], -1.0, 0.0, 1.0)


@pytest.mark.parametrize("stepped", [False, True])
def test_the_default_lq_flow_evaluates_its_stage_once(stepped, monkeypatch):
    """The default LQ field is constant: one stage evaluation for the whole
    flow, where stepping makes 4 per step, 4,000 over 1,000 steps."""
    calls = counted_stages(monkeypatch)
    cfg = default_config("classical-tm-lq")
    args = (build_lq_system(), cfg["initial_point"], cfg["z_init"], -1.0, 0.0, cfg["horizon"])
    flow = (stepped_flow if stepped else integrate_pmp_flow)(*args, step=cfg["solver"]["step"])
    assert len(flow.u_nodes) == 1001 and len(calls) == (4000 if stepped else 1)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), p=st.integers(1, 3),
       chart=st.sampled_from(["tangent", "atiyah", "point"]), active=st.booleans())
def test_abnormal_affine_flow_switches_where_a_switching_function_vanishes(seed, n, p, chart,
                                                                          active):
    """At z0 = 0, H = b.u with b = F(x)^T z, so a control-affine flow takes
    the box's vertices and may switch only where some b_j vanishes.  The
    control changes exactly at the bisected switch nodes, and before each
    one some b_j changes sign within two switch tolerances (2e-9), on the
    RK4 step the flow takes under the control held before the switch.  A
    sliding mode (a singular arc, which a bang-bang flow cannot follow)
    ends in ChatteringError within one grid step; such a draw is rejected."""
    rng = np.random.default_rng(seed)
    n = 0 if chart == "point" else n
    sys = random_control_affine(rng, n, p, chart, active)
    x0, z_init = rng.uniform(-0.5, 0.5, n), rng.normal(size=sys.alg.fiber_dim)
    try:
        flow = integrate_pmp_flow(sys, x0, z_init, 0.0, 0.0, 0.05, step=1e-3)
    except ChatteringError:
        reject()
    assert flow.control is None
    vertices = np.array(box_vertices(sys.control_space))
    assert (flow.u_nodes[:, None] == vertices).all(axis=2).any(axis=1).all()
    nodes, u = flow.path.grid.nodes, flow.u_nodes
    assert set(nodes[1:][(u[1:] != u[:-1]).any(axis=1)]) == set(flow.switch_times)
    x, z = flow.path.base, flow.costate.z
    for k in np.flatnonzero(np.isin(nodes, flow.switch_times)):
        h = max(nodes[k] - 2e-9 - nodes[k - 1], 0.0)
        held = pmp._pmp_rhs(sys, u[k - 1], 0.0)
        y = rk4_step(held, nodes[k - 1], np.append(x[k - 1], z[k - 1]), h)
        b = pmp._affine_at(sys, np.array([y[:n], x[k]]), np.array([y[n:], z[k]]), 0.0)[1]
        assert (np.sign(b[0]) != np.sign(b[1])).any(), nodes[k]


def test_wong_flow_makes_no_per_stage_calls(wong_fixture, monkeypatch):
    """A declared control-affine system is flowed by the fused stage field
    and sampled at the nodes on arrays: integrate_pmp_flow calls neither
    costate_rhs, the maximizer, hamiltonian nor f_at."""
    sys = build_wong_system(wong_fixture)

    def forbidden(*args):
        raise AssertionError("per-stage call in the flow")

    for name in ("costate_rhs", "_argmax", "hamiltonian"):
        monkeypatch.setattr(pmp, name, forbidden)
    monkeypatch.setattr(ControlSystem, "f_at", forbidden)
    flow = integrate_pmp_flow(sys, [0.2, -0.1], [0.8, 0.5, 0.3, -0.2, 0.4], -1.0, 0.0, 1.0,
                              step=1e-3)
    assert flow.u_nodes.shape == (1001, 2)
    assert np.isfinite(flow.costate.z).all() and np.isfinite(flow.h_nodes).all()


def test_wong_flow_makes_no_einsum_calls(wong_fixture, monkeypatch):
    """The Wong metric has no linear part, so the system keeps none, and the
    flow's stages (df/dx, the dual transport) and node samples are plain
    products: integrate_pmp_flow calls no einsum."""
    sys = build_wong_system(wong_fixture)
    assert not wong_fixture.metric_linear.any() and sys.affine[1][1] is None

    def forbidden(*args, **kwargs):
        raise AssertionError("einsum in the flow")

    monkeypatch.setattr(np, "einsum", forbidden)
    flow = integrate_pmp_flow(sys, [0.2, -0.1], [0.8, 0.5, 0.3, -0.2, 0.4], -1.0, 0.0, 1.0,
                              step=1e-3)
    assert np.isfinite(flow.costate.z).all() and np.isfinite(flow.h_nodes).all()


@pytest.mark.parametrize("name", ["wong-so3-r2", "classical-tm-lq"])
def test_constant_metric_flow_makes_no_solve_calls(name, monkeypatch):
    """G has no linear part in the default Wong and LQ systems, so the fused
    stage forms G^-1 once per flow and the node samples take _box_qp's
    interior point G^-1 b / c: with the boxes inactive, integrate_pmp_flow
    calls no np.linalg.solve."""
    cfg = default_config(name)
    sys = SCENARIOS[name].problem(cfg)[0]
    assert sys.affine[1][1] is None

    def forbidden(*args, **kwargs):
        raise AssertionError("np.linalg.solve in the flow")

    monkeypatch.setattr(np.linalg, "solve", forbidden)
    flow = integrate_pmp_flow(sys, cfg["initial_point"], cfg["z_init"], -1.0, 0.0,
                              cfg["horizon"], step=cfg["solver"]["step"])
    assert len(flow.u_nodes) == 1001
    assert np.isfinite(flow.costate.z).all() and np.isfinite(flow.h_nodes).all()


# ---------------------------------------------------------------------------
# needle variations and the cone
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def needle_setup():
    sys = build_so3_bang_bang_system([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    flow = integrate_pmp_flow(sys, np.zeros(0), [0.0, 1.0, 0.2], -1.0,
                              0.0, 6.0, step=2e-3)
    ctx = make_needle_context(sys, flow.control, np.zeros(0), step=2e-3)
    return sys, flow, ctx


def test_needle_frame_is_the_fiber_transport_frame(needle_setup):
    _, _, ctx = needle_setup
    frame = _transport(ctx.esys, ctx.etraj, np.eye(ctx.esys.alg.fiber_dim), False)
    assert np.abs(ctx.frame_B - frame).max() <= 1e-13 * np.abs(frame).max()


def test_needle_zero_symbol(needle_setup):
    sys, flow, ctx = needle_setup
    tau = 3.0
    sym = VariationSymbol((1.0, 2.0),
                          (flow.control.value(1.0), flow.control.value(2.0)),
                          tau, (0.4, 0.7), 0.0)
    d = needle_vector(ctx, sym)
    assert np.abs(d).max() < 1e-12


def test_needle_identity_transport(needle_setup):
    sys, flow, ctx = needle_setup
    tau = 3.0
    v = np.array([-flow.control.value(tau)[0]])
    sym = VariationSymbol((tau,), (v,), tau, (1.0,), 0.0)
    d = needle_vector(ctx, sym)
    xx = ctx.base_at(tau)
    expected = ctx.esys.f_at(xx, v) - ctx.esys.f_at(xx, flow.control.value(tau))
    assert np.abs(d - expected).max() < 1e-9


def test_needle_linearity(needle_setup):
    sys, flow, ctx = needle_setup
    tau = 3.0
    taus, vs = (0.5, 1.5), (np.array([-1.0]), np.array([1.0]))
    s1 = VariationSymbol(taus, vs, tau, (0.2, 0.9), 0.3)
    s2 = VariationSymbol(taus, vs, tau, (0.8, 0.1), -0.5)
    nu, mu = 0.6, 1.7
    combo = VariationSymbol(taus, vs, tau,
                            tuple(nu * np.array(s1.dts) + mu * np.array(s2.dts)),
                            nu * s1.dt + mu * s2.dt)
    d = needle_vector(ctx, combo)
    parts = nu * needle_vector(ctx, s1) + mu * needle_vector(ctx, s2)
    assert np.abs(d - parts).max() < 1e-10


def test_needle_rejects_discontinuity_times(needle_setup):
    sys, flow, ctx = needle_setup
    assert len(flow.switch_times) >= 1
    bad = flow.switch_times[0]
    for s in (bad, bad + 5e-7):   # within pmp._SPIKE_GUARD of the switch
        with pytest.raises(ValueError):
            needle_vector(ctx, VariationSymbol((s,), ([1.0],), 3.0, (0.5,), 0.0))
    needle_vector(ctx, VariationSymbol((bad + 2e-6,), ([1.0],), 3.0, (0.5,), 0.0))


def test_needle_skips_a_zero_width_spike(needle_setup):
    _, _, ctx = needle_setup
    vs = (np.array([-1.0]), np.array([1.0]))
    with_zero = VariationSymbol((0.5, 1.5), vs, 3.0, (0.0, 0.3), 0.2)
    without = VariationSymbol((1.5,), vs[1:], 3.0, (0.3,), 0.2)
    assert needle_vector(ctx, with_zero).tobytes() == needle_vector(ctx, without).tobytes()


def reference_extended_pass(sys, signal, grid, x0):
    """Step-by-step RK4 of the cost-extended base (cost, x) and its complete
    lift Y' = M Y from the identity, from the declared tables F(x) = F0 + F1 x
    and G(x) = G0 + G1 x of a control_affine system: cost' = u.G(x) u / 2,
    x' = rho(x) F(x) u, and M has the row (0, dL/dx rho) above the block
    (0, df/dx rho + c[., f]).  Returns rows (cost, x, Y flattened)."""
    (F0, F1), (G0, G1) = sys.affine
    alg, n, m = sys.alg, sys.alg.base_dim, sys.alg.fiber_dim

    def field(u, s):
        x, Y = s[1:n + 1], s[n + 1:].reshape(m + 1, m + 1)
        f, rho = (F0 + F1 @ x) @ u, alg.anchor_at(x)
        M = np.zeros((m + 1, m + 1))
        M[0, 1:] = 0.5 * np.einsum("i,ija,j->a", u, G1, u) @ rho
        M[1:, 1:] = (np.einsum("iba,b->ia", F1, u) @ rho
                     + np.einsum("ijk,k->ij", alg.structure_at(x), f))
        return np.concatenate([[0.5 * u @ (G0 + G1 @ x) @ u], rho @ f, (M @ Y).ravel()])

    s, nodes = np.concatenate([[0.0], x0, np.eye(m + 1).ravel()]), grid.nodes
    out = [s]
    for k in range(len(nodes) - 1):
        h, u = nodes[k + 1] - nodes[k], signal.value(0.5 * (nodes[k] + nodes[k + 1]))
        k1 = field(u, s)
        k2 = field(u, s + 0.5 * h * k1)
        k3 = field(u, s + 0.5 * h * k2)
        k4 = field(u, s + h * k3)
        s = s + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        out.append(s)
    return np.array(out)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), p=st.integers(1, 3),
       atiyah=st.booleans(), n_switches=st.integers(1, 3))
def test_needle_context_with_a_base_is_the_joint_rk4_pass(seed, n, p, atiyah, n_switches):
    """On random control-affine systems over TR^n or an Atiyah chart
    TR^n x so(3), under a signal of 1-3 switches inside the box, the needle
    context's cost, base and frame are a step-by-step RK4 of the joint
    cost, base and lift field to 1e-13 of their scale; its fiber samples
    are (L, f) at each node; and the accrued cost is the integral of L: the
    trapezoid rule on the held steps, whose O(h^2) error stays within
    1e-2 h^2 of the cost's scale (6.5e-4 h^2 at most over 150 draws)."""
    rng = np.random.default_rng(seed)
    sys = random_control_affine(rng, n, p, "atiyah" if atiyah else "tangent", True)
    t1, step = float(rng.uniform(0.5, 1.5)), float(rng.uniform(5e-3, 2e-2))
    signal = box_signal(rng, sys.control_space, n_switches, t1)
    x0 = rng.uniform(-0.5, 0.5, n)
    ctx = make_needle_context(sys, signal, x0, step=step)

    nodes = ctx.grid.nodes
    assert np.array_equal(nodes, TimeGrid(0.0, t1, step, signal.switch_times).nodes)
    ref = reference_extended_pass(sys, signal, ctx.grid, x0)
    for got, want in ((ctx.etraj.path.base, ref[:, :n + 1]),
                      (ctx.frame_B, ref[:, n + 1:].reshape(ctx.frame_B.shape))):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())

    cost, x = ctx.etraj.path.base[:, 0], ctx.etraj.path.base[:, 1:]
    expected = np.array([np.concatenate(([sys.L_at(xk, u)], sys.f_at(xk, u)))
                         for xk, u in zip(x, map(signal.value, nodes))])
    assert np.abs(ctx.etraj.path.fiber - expected).max() <= 1e-13 * np.abs(expected).max()
    held = [signal.value(0.5 * (a + b)) for a, b in zip(nodes[:-1], nodes[1:])]
    trapezoid = np.concatenate([[0.0], np.cumsum(
        [0.5 * (b - a) * (sys.L_at(xa, u) + sys.L_at(xb, u))
         for a, b, xa, xb, u in zip(nodes[:-1], nodes[1:], x[:-1], x[1:], held)])])
    assert np.abs(cost - trapezoid).max() <= 1e-2 * step**2 * max(1.0, cost[-1])


def test_cone_zero_needle_always_supported():
    rep = cone_support_check([np.zeros(4)], np.array([-1.0, 0.0, 1.0, 0.2]))
    assert rep["passed"] and rep["value"] == 0.0


def test_cone_nan_pairing_fails_wherever_it_falls():
    z_ext = np.array([-1.0, 0.0, 1.0, 0.2])
    for needles in ([np.zeros(4), np.full(4, np.nan)], [np.full(4, np.nan), np.zeros(4)]):
        rep = cone_support_check(needles, z_ext)
        assert np.isnan(rep["value"]) and not rep["passed"]


def test_sample_symbols_over_a_box_draw_values_inside_it():
    box = Box([-0.3, 2.0], [0.1, 2.5])
    sys = ControlSystem(tangent_bundle(2), lambda x, u: u.copy(),
                        lambda x, u: 0.5 * float(u @ u), box)
    signal = ControlSignal(0.0, 1.0, (0.5,), (np.array([0.0, 2.2]), np.array([-0.2, 2.4])))
    ctx = make_needle_context(sys, signal, np.zeros(2), step=1e-2)
    symbols = sample_symbols(np.random.default_rng(3), ctx, 0.8, 200)
    values = np.array([v for s in symbols for v in s.vs])
    assert values.shape[1] == 2
    assert np.all((box.lower <= values) & (values <= box.upper))
    assert np.all(np.ptp(values, axis=0) > 0.5 * (box.upper - box.lower))
    assert all(np.isfinite(needle_vector(ctx, s)).all() for s in symbols[:5])


def test_cone_supported_on_extremal(needle_setup, rng):
    sys, flow, ctx = needle_setup
    tau = 3.0
    symbols = sample_symbols(rng, ctx, tau, 200)
    needles = [needle_vector(ctx, s) for s in symbols]
    k = int(np.searchsorted(flow.path.grid.nodes, tau))
    z_ext = np.concatenate([[flow.costate.z0], flow.costate.z[k]])
    rep = cone_support_check(needles, z_ext)
    assert rep["passed"], rep["value"]


def test_cone_violated_for_suboptimal_control(needle_setup, rng):
    sys, flow, ctx_good = needle_setup
    frozen = ControlSignal(0.0, 6.0, (), (np.array([1.0]),))
    ctx = make_needle_context(sys, frozen, np.zeros(0), step=2e-3)
    traj = simulate_trajectory(sys, frozen, np.zeros(0), step=2e-3)
    zs, _ = transport_Bbar(sys, traj, (np.array([0.0, 1.0, 0.2]), -1.0))
    tau = 3.0
    k = int(np.searchsorted(traj.path.grid.nodes, tau))
    z_ext = np.concatenate([[-1.0], zs[k]])
    symbols = sample_symbols(rng, ctx, tau, 500)
    needles = [needle_vector(ctx, s) for s in symbols]
    rep = cone_support_check(needles, z_ext)
    assert not rep["passed"]


# ---------------------------------------------------------------------------
# development and shooting
# ---------------------------------------------------------------------------

def test_develop_null_path(so3):
    grid = TimeGrid(0.0, 1.0, 1e-2)
    path = EPath(grid, np.zeros((grid.n_nodes, 0)), np.zeros((grid.n_nodes, 3)))
    g = develop_to_group(so3, path, skew_hat)
    assert np.array_equal(g, np.eye(3))


def test_develop_full_rotation(so3):
    grid = TimeGrid(0.0, 2.0 * np.pi, 1e-3)
    path = EPath(grid, np.zeros((grid.n_nodes, 0)),
                 np.tile([0.0, 0.0, 1.0], (grid.n_nodes, 1)))
    g = develop_to_group(so3, path, skew_hat)
    assert np.abs(g - np.eye(3)).max() < 1e-6


@pytest.mark.parametrize("tau", [1.2399999, 1.2400001, 1.2350001])
def test_develop_piecewise_constant_path_across_a_breakpoint(so3, tau):
    """The sample at a breakpoint node is the right-hand limit; the step that
    ends there must not blend it in.  Exact: a product of two exponentials,
    whether the jump sits just below, just above or between grid nodes."""
    a1, a2 = np.array([1.0, 1.0, 0.2]), np.array([1.0, -1.0, 0.2])
    grid = TimeGrid(0.0, 2.0, 1e-2, breakpoints=(tau,))
    fiber = np.where((grid.nodes < tau)[:, None], a1, a2)
    path = EPath(grid, np.zeros((grid.n_nodes, 0)), fiber)
    exact = expm(tau * skew_hat(a1)) @ expm((2.0 - tau) * skew_hat(a2))
    assert np.abs(develop_to_group(so3, path, skew_hat) - exact).max() < 1e-9


def test_develop_requires_point_base():
    tb = tangent_bundle(1)
    grid = TimeGrid(0.0, 1.0, 0.1)
    path = EPath(grid, np.zeros((grid.n_nodes, 1)), np.zeros((grid.n_nodes, 1)))
    with pytest.raises(ValueError):
        develop_to_group(tb, path, lambda v: np.array([[v[0]]]))


def test_develop_rejects_incompatible_rep(so3):
    grid = TimeGrid(0.0, 1.0, 0.1)
    path = EPath(grid, np.zeros((grid.n_nodes, 0)), np.zeros((grid.n_nodes, 3)))
    bad_rep = lambda v: np.diag([v[0], v[1], v[2]])   # commutators vanish
    with pytest.raises(ValueError):
        develop_to_group(so3, path, bad_rep)


def test_develop_invariant_under_reparameterization(so3):
    rng = np.random.default_rng(2)
    grid = TimeGrid(0.0, 2.0, 1e-3)
    ts = grid.nodes
    fiber = np.column_stack([np.sin(ts), np.cos(2 * ts), 0.3 * np.ones_like(ts)])
    path = EPath(grid, np.zeros((grid.n_nodes, 0)), fiber)
    g = develop_to_group(so3, path, skew_hat)
    g2 = develop_to_group(so3, reparameterize_unit(path), skew_hat)
    assert np.abs(g - g2).max() < 1e-6


def test_develop_endpoint_equal_for_equivalent_constructions(so3):
    """Developments of a path and of its final-slice reconstructions agree:
    the endpoint is a class invariant for the constructions we provide."""
    grid = TimeGrid(0.0, 1.0, 1e-3)
    ts = grid.nodes
    fiber = np.column_stack([0.4 * np.ones_like(ts), np.sin(ts), ts])
    path = EPath(grid, np.zeros((grid.n_nodes, 0)), fiber)
    direct = develop_to_group(so3, path, skew_hat)
    again = develop_to_group(so3, reparameterize_unit(path), skew_hat)
    assert np.abs(direct - again).max() < 1e-6


def test_shoot_round_trip(bang_bang_system, so3):
    z_star = np.array([0.0, 1.0, 0.2])
    flow = integrate_pmp_flow(bang_bang_system, np.zeros(0), z_star, -1.0,
                              0.0, 2.0, step=2e-3)
    target = develop_to_group(so3, flow.path, skew_hat)
    res = shoot_endpoint(bang_bang_system, skew_hat, target,
                         z_guess=z_star + np.array([0.05, -0.04, 0.03]),
                         z0=-1.0, t0=0.0, t1=2.0, step=2e-3)
    assert res.converged
    assert res.residual < 1e-4


def test_import_leaves_scipy_optimize_to_shooting():
    code = "import sys, algopt; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


def test_shoot_zero_time_identity(bang_bang_system):
    res = shoot_endpoint(bang_bang_system, skew_hat, np.eye(3),
                         z_guess=np.array([0.1, 0.5, 0.1]), z0=-1.0,
                         t0=0.0, t1=None, duration_guess=0.05, step=2e-3)
    assert res.converged
    assert res.t1 < 1e-6


def test_shoot_unreachable_flagged():
    degenerate = build_so3_bang_bang_system([0.0, 0.0, 1.0], [0.0, 0.0, 0.0])
    target = expm(skew_hat(np.array([1.2, 0.0, 0.0])))
    with patch.object(pmp, "_MAX_EVALS", 300):
        res = shoot_endpoint(degenerate, skew_hat, target,
                             z_guess=np.array([0.3, 0.2, 0.5]), z0=-1.0,
                             t0=0.0, t1=1.5, step=2e-3)
    assert not res.converged


def test_shoot_unreachable_stops_by_stall():
    """The degenerate system's endpoint does not depend on z: the Jacobian
    vanishes and the solver stops long before the budget."""
    degenerate = build_so3_bang_bang_system([0.0, 0.0, 1.0], [0.0, 0.0, 0.0])
    target = expm(skew_hat(np.array([1.2, 0.0, 0.0])))
    with patch.object(pmp, "_MAX_EVALS", 300):
        res = shoot_endpoint(degenerate, skew_hat, target,
                             z_guess=np.array([0.3, 0.2, 0.5]), z0=-1.0,
                             t0=0.0, t1=1.5, step=2e-3)
    assert not res.converged
    assert res.n_evaluations <= 20


@pytest.fixture
def flow_counter(monkeypatch):
    """Counts the flows run through ``algopt.pmp.integrate_pmp_flow``."""
    import algopt.pmp

    calls = []
    real = algopt.pmp.integrate_pmp_flow

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(algopt.pmp, "integrate_pmp_flow", counted)
    return calls


def switching_case(z_star, t1=2.0, step=1e-2):
    system = build_so3_bang_bang_system([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    flow = integrate_pmp_flow(system, np.zeros(0), z_star, -1.0, 0.0, t1, step=step)
    return system, flow, develop_to_group(system.alg, flow.path, skew_hat)


@pytest.mark.parametrize("target, z_guess, duration_guess, rep", [
    (np.zeros(3), [0.1, 0.5, 0.1], 1.0, skew_hat),
    (np.eye(2), [0.1, 0.5, 0.1], 1.0, skew_hat),
    (np.eye(3), [np.nan, 0.5, 0.1], 1.0, skew_hat),
    (np.full((3, 3), np.inf), [0.1, 0.5, 0.1], 1.0, skew_hat),
    (np.eye(3), [0.1, 0.5, 0.1], np.nan, skew_hat),
    (np.eye(3), [0.1, 0.5], 1.0, skew_hat),
    (np.eye(3), [0.1, 0.5, 0.1], 1.0, np.diag),   # commutators vanish
], ids=["target-vector", "target-2x2", "nan-guess", "inf-target", "nan-duration",
        "short-guess", "diag-rep"])
def test_shoot_rejects_bad_input_before_any_flow(bang_bang_system, flow_counter,
                                                 target, z_guess, duration_guess, rep):
    with pytest.raises(ValueError):
        shoot_endpoint(bang_bang_system, rep, target, z_guess=np.array(z_guess),
                       z0=-1.0, t0=0.0, t1=None, duration_guess=duration_guess,
                       step=1e-2)
    assert flow_counter == []


def test_shoot_counts_every_flow(flow_counter):
    system, _, target = switching_case(np.array([-0.3, 1.3, -0.4]))
    del flow_counter[:]
    guess = np.array([-0.27, 1.27, -0.43])
    res = shoot_endpoint(system, skew_hat, target, z_guess=guess, z0=-1.0,
                         t0=0.0, t1=2.0, step=1e-2)
    assert res.converged
    assert res.n_evaluations == len(flow_counter) >= 2
    del flow_counter[:]
    with patch.object(pmp, "_MAX_EVALS", 8):
        capped = shoot_endpoint(system, skew_hat, target, z_guess=guess, z0=-1.0,
                                t0=0.0, t1=2.0, step=1e-2)
    assert capped.n_evaluations == len(flow_counter) <= 8


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(z_a=st.floats(-0.5, -0.1), z_3=st.floats(0.2, 0.6),
       sign=st.sampled_from([-1.0, 1.0]),
       direction=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
           lambda v: np.linalg.norm(v) > 0.1))
@example(z_a=-0.24869051613468535, z_3=0.521157587530396, sign=-1.0,
         direction=(0.014557353487533786, -0.0021709271441208156, -0.047784626552625775))
def test_shoot_converges_on_switching_targets(z_a, z_3, sign, direction):
    """z* on H = 0 (z_a + |z_b| = 1) with z_3 of the sign opposite to z_b
    switches before t = 2; a guess 0.05 away must be shot back.  The explicit
    example switches at t = 1.2416, just past the grid node 1.24: a
    development that blends across the switch made the endpoint jump as the
    switch crossed that node, and the shot stalled there."""
    z_star = np.array([z_a, sign * (1.0 - z_a), -sign * z_3])
    system, flow, target = switching_case(z_star)
    assert flow.switch_times
    guess = z_star + 0.05 * np.asarray(direction) / np.linalg.norm(direction)
    res = shoot_endpoint(system, skew_hat, target, z_guess=guess, z0=-1.0,
                         t0=0.0, t1=2.0, step=1e-2)
    assert res.converged
    assert res.residual < 1e-4
    assert res.n_evaluations <= 40


# The band of test_shoot_converges_on_switching_targets: z* on H = 0 whose
# flow switches before t = 2, and a direction for a guess 0.05 away.
switching_band = dict(
    z_a=st.floats(-0.5, -0.1), z_3=st.floats(0.2, 0.6), sign=st.sampled_from([-1.0, 1.0]),
    direction=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 0.1))


def band_case(z_a, z_3, sign, direction):
    z_star = np.array([z_a, sign * (1.0 - z_a), -sign * z_3])
    system, flow, target = switching_case(z_star)
    assert flow.switch_times
    return system, z_star, target, z_star + 0.05 * np.asarray(direction) / np.linalg.norm(direction)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(horizon=st.sampled_from([2.0, 6.0]), **switching_band)
def test_switch_time_jacobian_matches_central_differences(horizon, z_a, z_3, sign, direction):
    """The Jacobian of the endpoint from the flow's switch times matches
    central differences, and annihilates z: over a point the endpoint does not
    depend on |z| when L takes one value.  At t1 = 6 the flows switch twice,
    so the first switch also moves the second."""
    system, z_star, _, _ = band_case(z_a, z_3, sign, direction)
    table = _point_table(system, system.control_space.values)
    mats = np.array([skew_hat(e) for e in np.eye(3)])

    def endpoint(z):
        flow = integrate_pmp_flow(system, np.zeros(0), z, -1.0, 0.0, horizon, step=1e-2)
        return develop_to_group(system.alg, flow.path, skew_hat), flow

    J = pmp._switch_jacobian(table, mats, endpoint(z_star)[1], -1.0).reshape(9, 3)
    h = 1e-5
    C = np.column_stack([(endpoint(z_star + h * e)[0] - endpoint(z_star - h * e)[0]).ravel()
                         / (2.0 * h) for e in np.eye(3)])
    assert np.abs(J - C).max() <= 1e-3 * np.abs(C).max()
    assert np.linalg.norm(J @ z_star) <= 1e-8 * np.linalg.norm(J) * np.linalg.norm(z_star)


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(**switching_band)
def test_fixed_time_shot_stays_on_the_guess_level(z_a, z_3, sign, direction):
    """The row |z|^2 = |z_guess|^2 removes the flat direction of the scale of
    z, and the switch-time Jacobian makes a shot a few flows long."""
    system, _, target, guess = band_case(z_a, z_3, sign, direction)
    res = shoot_endpoint(system, skew_hat, target, z_guess=guess, z0=-1.0,
                         t0=0.0, t1=2.0, step=1e-2)
    assert res.converged
    assert res.n_evaluations <= 6
    assert abs(np.linalg.norm(res.z_init) / np.linalg.norm(guess) - 1.0) <= 1e-9


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(**switching_band)
def test_free_time_shot_lands_on_the_zero_level(z_a, z_3, sign, direction):
    """In free time the transversality row H(z_init) = 0 is met with the endpoint."""
    system, _, target, guess = band_case(z_a, z_3, sign, direction)
    res = shoot_endpoint(system, skew_hat, target, z_guess=guess, z0=-1.0, t0=0.0,
                         t1=None, duration_guess=2.05, step=1e-2)
    assert res.converged
    assert abs(maximize_hamiltonian(system, res.z_init, -1.0, np.zeros(0))[1]) <= 1e-9


def test_shoot_differences_a_grazing_switch_within_the_budget(flow_counter, monkeypatch):
    """An evaluation with a grazing switch takes its Jacobian by forward
    differences, one flow per column, and pmp._MAX_EVALS still bounds the flows."""
    monkeypatch.setattr(pmp, "_GRAZE", np.inf)   # every switch grazes
    system, _, target = switching_case(np.array([-0.3, 1.3, -0.4]))
    guess = np.array([-0.27, 1.27, -0.43])
    del flow_counter[:]
    res = shoot_endpoint(system, skew_hat, target, z_guess=guess, z0=-1.0,
                         t0=0.0, t1=2.0, step=1e-2)
    assert res.converged
    assert res.n_evaluations == len(flow_counter) > 4
    del flow_counter[:]
    with patch.object(pmp, "_MAX_EVALS", 8):
        capped = shoot_endpoint(system, skew_hat, target, z_guess=guess, z0=-1.0,
                                t0=0.0, t1=2.0, step=1e-2)
    assert capped.n_evaluations == len(flow_counter) <= 8


def test_shoot_counts_a_chattering_flow_as_a_residual_of_1e6(monkeypatch):
    """With no switch allowed every flow towards a switching target raises
    ChatteringError: each counts as the residual 1e6, its difference columns
    vanish, and the shot stops there, not converged."""
    system, _, target = switching_case(np.array([-0.3, 1.3, -0.4]))
    monkeypatch.setattr(pmp, "_MAX_SWITCHES", 0)
    res = shoot_endpoint(system, skew_hat, target, z_guess=np.array([-0.27, 1.27, -0.43]),
                         z0=-1.0, t0=0.0, t1=2.0, step=1e-2)
    assert not res.converged
    assert res.residual == 1e6


def test_shoot_over_a_box_stops_where_differences_would_pass_the_budget(monkeypatch):
    """Over a box the Jacobian takes one flow per difference column; where
    those would pass pmp._MAX_EVALS it is zero, and the solver stops at the
    guess after its one flow."""
    system = random_control_affine(np.random.default_rng(5), 0, 2, "point", True)
    flow = integrate_pmp_flow(system, np.zeros(0), [0.3, -0.2, 0.5], -1.0, 0.0, 1.0, step=1e-2)
    target = develop_to_group(system.alg, flow.path, skew_hat)
    guess = np.array([0.35, -0.25, 0.45])
    monkeypatch.setattr(pmp, "_MAX_EVALS", 2)
    res = shoot_endpoint(system, skew_hat, target, z_guess=guess, z0=-1.0, t0=0.0, t1=1.0,
                         step=1e-2)
    assert res.n_evaluations == 1
    assert np.array_equal(res.z_init, guess) and not res.converged


# ---------------------------------------------------------------------------
# time-dependent problems


def test_fixed_time_shot_with_a_varying_cost_has_no_level_row(flow_counter):
    """At z0 = -1 over a finite set on which L takes two values, the
    maximizing control changes under z -> s z, so the shot keeps |z| free:
    its rows are the endpoint residual's alone."""
    bang_bang = build_so3_bang_bang_system([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    system = replace(bang_bang, L=lambda x, u: 1.0 + 0.5 * u[0])
    z_star = np.array([-0.3, 1.3, -0.4])
    flow = integrate_pmp_flow(system, np.zeros(0), z_star, -1.0, 0.0, 2.0, step=1e-2)
    assert flow.switch_times
    target = develop_to_group(system.alg, flow.path, skew_hat)
    del flow_counter[:]
    res = shoot_endpoint(system, skew_hat, target, z_guess=z_star + np.array([0.03, -0.03, 0.03]),
                         z0=-1.0, t0=0.0, t1=2.0, step=1e-2)
    assert res.converged and res.residual < 1e-4
    assert res.n_evaluations == len(flow_counter) <= 40
    shot = integrate_pmp_flow(system, np.zeros(0), res.z_init, -1.0, 0.0, 2.0, step=1e-2)
    assert np.linalg.norm(develop_to_group(system.alg, shot.path, skew_hat) - target) < 1e-4
# ---------------------------------------------------------------------------

def ramp_gain_system():
    def maximizer(xe, z, z0):
        t = xe[1]
        if z0 < 0:
            return np.atleast_1d(np.clip(z[0] * t / (-z0), -10.0, 10.0))
        return np.atleast_1d(10.0 if z[0] * t >= 0 else -10.0)

    return TimeDependentControlSystem(
        alg=tangent_bundle(1),
        f=lambda x, t, u: t * u,
        L=lambda x, t, u: 0.5 * float(u @ u),
        control_space=Box([-10.0], [10.0], maximizer=maximizer),
    )


def test_autonomize_clock_is_exact():
    ramp = ramp_gain_system()
    flow = integrate_pmp_flow(autonomize(ramp), [0.0, 0.0],
                              [1.0, 0.0], -1.0, 0.0, 2.0, step=1e-3)
    audit = time_dependence_audit(ramp, flow)
    assert audit["clock_error"] == 0.0


def test_autonomize_dhdt_matches_partials():
    ramp = ramp_gain_system()
    flow = integrate_pmp_flow(autonomize(ramp), [0.0, 0.0],
                              [1.0, 0.0], -1.0, 0.0, 2.0, step=1e-3)
    audit = time_dependence_audit(ramp, flow)
    # here dH/dt = z * u with z = 1, u = t
    assert audit["dhdt_residual"] < 1e-5
    assert audit["h_plus_xi_drift"] < 1e-8
    assert np.abs(flow.u_nodes[:, 0] - flow.path.grid.nodes).max() < 1e-10


def test_autonomize_audit_fails_a_nan_rate():
    """A control map that is NaN at one inner node makes dH/dt NaN there,
    which fails the audit however small the other residuals."""
    ramp = ramp_gain_system()
    flow = integrate_pmp_flow(autonomize(ramp), [0.0, 0.0],
                              [1.0, 0.0], -1.0, 0.0, 2.0, step=1e-2)
    t_bad = flow.path.grid.nodes[150]
    f = ramp.f
    sick = replace(ramp, f=lambda x, t, u: np.full(1, np.nan) if t == t_bad else f(x, t, u))
    audit = time_dependence_audit(sick, flow)
    assert np.isnan(audit["dhdt_residual"]) and not audit["passed"]


def test_autonomize_names_a_missing_clock():
    """A clock-extended flow needs the clock in its initial point, and the
    audit needs a flow of the clock extension of the system it is given."""
    ramp = ramp_gain_system()
    with pytest.raises(ValueError, match=r"initial point has shape \(1,\), expected \(2,\)"):
        integrate_pmp_flow(autonomize(ramp), [0.0], [1.0, 0.0], -1.0, 0.0, 1.0, step=1e-2)
    flow = integrate_pmp_flow(build_lq_system(), [0.0], [0.5], -1.0, 0.0, 1.0, step=1e-2)
    with pytest.raises(ValueError, match=r"dimensions \(1, 1\), expected \(2, 2\)"):
        time_dependence_audit(ramp, flow)


def test_autonomize_time_independent_reproduces_constancy():
    td = TimeDependentControlSystem(
        alg=tangent_bundle(1),
        f=lambda x, t, u: u.copy(),
        L=lambda x, t, u: 0.5 * float(u @ u),
        control_space=Box([-10.0], [10.0],
                          maximizer=lambda xe, z, z0: np.atleast_1d(z[0]) if z0 < 0
                          else np.atleast_1d(10.0)),
    )
    flow = integrate_pmp_flow(autonomize(td), [0.0, 0.0],
                              [0.7, 0.0], -1.0, 0.0, 1.0, step=1e-3)
    audit = time_dependence_audit(td, flow)
    assert audit["xi_drift"] < 1e-12
    assert audit["h_drift"] < 1e-8
    assert audit["clock_error"] == 0.0
