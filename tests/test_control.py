import itertools
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from algopt import control
from algopt.control import (Box, ControlSignal, ControlSystem, FiniteSet, _box_qp,
                            control_affine, costate_rhs, extend_system, pairing_drift,
                            simulate_trajectory, transport_B, transport_Bbar)
from algopt.core import (Section, atiyah_trivial, lie_algebra, tangent_bundle,
                         tangent_lift_section, validate_skew)
from algopt.numerics import integrate
from algopt.pmp import integrate_pmp_flow
from algopt.scenarios import run_scenario
from conftest import non_skew_chart, skew_hat


def constant_section_system(alg, v):
    v = np.asarray(v, dtype=float)
    return ControlSystem(alg, lambda x, u: v.copy(), lambda x, u: 0.0,
                         FiniteSet(([0.0],)),
                         f_jacobian=lambda x, u: np.zeros((alg.fiber_dim, alg.base_dim)),
                         L_gradient=lambda x, u: np.zeros(alg.base_dim))


def so3_two_axis(a, b):
    from algopt.scenarios import build_so3_bang_bang_system
    return build_so3_bang_bang_system(a, b)


# ---------------------------------------------------------------------------
# control spaces and signals
# ---------------------------------------------------------------------------

def test_finite_set_requires_values():
    with pytest.raises(ValueError):
        FiniteSet(())


def test_box_orders_bounds():
    with pytest.raises(ValueError):
        Box([1.0], [0.0])
    box = Box([-1.0, 0.0], [1.0, 2.0])
    assert box.contains([0.5, 1.0])
    assert not box.contains([0.5, 3.0])


def test_signal_is_right_continuous():
    sig = ControlSignal(0.0, 1.0, (0.5,), ([1.0], [-1.0]))
    assert sig.value(0.25)[0] == 1.0
    assert sig.value(0.5)[0] == -1.0
    assert sig.value(0.75)[0] == -1.0


def test_signal_rejects_outside_switch_times():
    with pytest.raises(ValueError):
        ControlSignal(0.0, 1.0, (1.5,), ([1.0], [2.0]))
    with pytest.raises(ValueError):
        ControlSignal(0.0, 1.0, (0.5,), ([1.0],))


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def test_simulate_zero_anchor_keeps_base(so3):
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.0])
    sys = so3_two_axis(a, b)
    sig = ControlSignal(0.0, 1.0, (0.5,), ([1.0], [-1.0]))
    traj = simulate_trajectory(sys, sig, np.zeros(0), step=1e-2)
    nodes = traj.path.grid.nodes
    assert traj.path.base.shape == (len(nodes), 0)
    assert np.array_equal(traj.path.fiber, [sys.f_at(np.zeros(0), sig.value(t)) for t in nodes])
    k = np.searchsorted(traj.path.grid.nodes, 0.5)
    assert traj.path.grid.nodes[k] == 0.5
    assert np.allclose(traj.path.fiber[k - 1], a + b)   # left side of the jump
    assert np.allclose(traj.path.fiber[k], a - b)       # right value stored at the node
    assert np.allclose(traj.path.fiber[:k], a + b)
    assert np.allclose(traj.path.fiber[k:], a - b)


def test_simulate_unit_speed():
    tb = tangent_bundle(1)
    sys = ControlSystem(tb, lambda x, u: u.copy(), lambda x, u: 0.0,
                        Box([-2.0], [2.0]))
    traj = simulate_trajectory(sys, ControlSignal.constant([1.0], 0.0, 1.0),
                               np.array([0.0]), step=1e-3)
    assert abs(traj.path.base[-1, 0] - 1.0) < 1e-12


def test_simulate_rejects_control_outside_space():
    tb = tangent_bundle(1)
    sys = ControlSystem(tb, lambda x, u: u.copy(), lambda x, u: 0.0,
                        Box([-1.0], [1.0]))
    with pytest.raises(ValueError):
        simulate_trajectory(sys, ControlSignal.constant([5.0], 0.0, 1.0),
                            np.array([0.0]))


# ---------------------------------------------------------------------------
# cost extension
# ---------------------------------------------------------------------------

def test_extension_accumulates_unit_cost(so3):
    sys = so3_two_axis([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])  # L == 1
    esys = extend_system(sys)
    traj = simulate_trajectory(esys, ControlSignal.constant([1.0], 0.0, 2.5),
                               np.append(0.0, np.zeros(0)), step=1e-3)
    assert abs(traj.path.base[-1, 0] - 2.5) < 1e-10
    assert esys.L_at(traj.path.base[-1], [1.0]) == 0.0


def test_extension_zero_cost():
    tb = tangent_bundle(1)
    sys = ControlSystem(tb, lambda x, u: u.copy(), lambda x, u: 0.0,
                        Box([-2.0], [2.0]))
    esys = extend_system(sys)
    traj = simulate_trajectory(esys, ControlSignal.constant([1.0], 0.0, 1.0),
                               np.append(0.0, [0.0]), step=1e-2)
    assert np.abs(traj.path.base[:, 0]).max() == 0.0


def test_extension_matches_trapezoid_quadrature():
    tb = tangent_bundle(1)
    sys = ControlSystem(tb, lambda x, u: u.copy(),
                        lambda x, u: float(x[0] ** 2 + u[0]),
                        Box([-2.0], [2.0]))
    esys = extend_system(sys)
    step = 1e-3
    sig = ControlSignal(0.0, 1.0, (0.3,), ([1.0], [-0.5]))
    traj = simulate_trajectory(esys, sig, np.append(0.0, [0.2]), step=step)
    ts = traj.path.grid.nodes
    quad = 0.0
    for seg, (i0, i1) in enumerate(traj.path.grid.segment_bounds):
        u_seg = sig.values[seg]
        L_vals = np.array([sys.L_at(traj.path.base[k, 1:], u_seg)
                           for k in range(i0, i1 + 1)])
        quad += np.trapezoid(L_vals, ts[i0:i1 + 1])
    assert abs(traj.path.base[-1, 0] - quad) < 10 * step ** 2


# ---------------------------------------------------------------------------
# parallel transport
# ---------------------------------------------------------------------------

def test_transport_zero_vector(so3):
    sys = constant_section_system(so3, [0.4, -0.2, 0.9])
    traj = simulate_trajectory(sys, ControlSignal.constant([0.0], 0.0, 1.0),
                               np.zeros(0), step=1e-2)
    ys = transport_B(sys, traj, np.zeros(3))
    assert np.abs(ys).max() == 0.0


def test_transport_trivial_when_flat():
    tb = tangent_bundle(2)
    sys = constant_section_system(tb, [1.0, -1.0])
    traj = simulate_trajectory(sys, ControlSignal.constant([0.0], 0.0, 1.0),
                               np.zeros(2), step=1e-2)
    y0 = np.array([0.3, 0.7])
    ys = transport_B(sys, traj, y0)
    assert np.abs(ys - y0).max() < 1e-14


def test_transport_so3_rotation_oracle(so3):
    v = np.array([0.4, -0.2, 0.9])
    sys = constant_section_system(so3, v)
    traj = simulate_trajectory(sys, ControlSignal.constant([0.0], 0.0, 1.0),
                               np.zeros(0), step=1e-3)
    y0 = np.array([1.0, 0.5, -0.2])
    ys = transport_B(sys, traj, y0)
    assert np.abs(ys[-1] - expm(-skew_hat(v)) @ y0).max() < 1e-12
    norms = np.linalg.norm(ys, axis=1)
    assert np.abs(norms - norms[0]).max() < 1e-12


def test_dual_transport_trivial_zero(so3):
    sys = constant_section_system(so3, [1.0, 1.0, 0.0])
    traj = simulate_trajectory(sys, ControlSignal.constant([0.0], 0.0, 1.0),
                               np.zeros(0), step=1e-2)
    zs, z0 = transport_Bbar(sys, traj, (np.zeros(3), 0.0))
    assert np.abs(zs).max() == 0.0 and z0 == 0.0


def test_dual_transport_so3_initial_rate(so3):
    omega = np.array([1.0, 1.0, 0.0])
    sys = constant_section_system(so3, omega)
    z = np.array([0.0, 0.0, 1.0])
    rate = costate_rhs(sys, np.zeros(0), np.array([0.0]), z, 0.0)
    assert np.allclose(rate, [-1.0, 1.0, 0.0])


def test_dual_transport_classical_reduction():
    tb = tangent_bundle(2)

    def f(x, u):
        return np.array([x[1] ** 2, np.sin(x[0])])

    sys = ControlSystem(tb, f, lambda x, u: float(x[0] * x[1]),
                        FiniteSet(([0.0],)))
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.normal(size=2)
        z = rng.normal(size=2)
        z0 = -float(rng.random())
        general = costate_rhs(sys, x, np.array([0.0]), z, z0)
        textbook = -(sys.f_jac_at(x, [0.0]).T @ z + z0 * sys.L_grad_at(x, [0.0]))
        assert np.abs(general - textbook).max() < 1e-12


def test_multiplier_never_integrated(so3):
    sys = so3_two_axis([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    traj = simulate_trajectory(sys, ControlSignal.constant([1.0], 0.0, 1.0),
                               np.zeros(0), step=1e-2)
    _, z0 = transport_Bbar(sys, traj, (np.array([0.1, 0.2, 0.3]), -2.5))
    assert z0 == -2.5


# ---------------------------------------------------------------------------
# pairing preservation
# ---------------------------------------------------------------------------

def test_pairing_exact_at_start(so3):
    sys = constant_section_system(so3, [0.3, 0.1, -0.2])
    traj = simulate_trajectory(sys, ControlSignal.constant([0.0], 0.0, 1e-2),
                               np.zeros(0), step=1e-2)
    drift = pairing_drift(sys, traj, np.array([1.0, 0.0, 0.0]),
                          np.array([0.0, 1.0, 0.0]))
    assert drift < 1e-15


def test_pairing_preserved_on_so3(so3):
    sys = so3_two_axis([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    sig = ControlSignal(0.0, 1.0, (0.4,), ([1.0], [-1.0]))
    traj = simulate_trajectory(sys, sig, np.zeros(0), step=1e-3)
    drift = pairing_drift(sys, traj, np.array([0.3, -0.2, 0.7]),
                          np.array([1.0, 0.5, -0.1]))
    assert drift < 1e-8


def test_pairing_broken_by_symmetric_bracket():
    bad = non_skew_chart()
    sys = constant_section_system(bad, [1.0, 0.0, 0.0])
    traj = simulate_trajectory(sys, ControlSignal.constant([0.0], 0.0, 1.0),
                               np.zeros(0), step=1e-3)
    drift = pairing_drift(sys, traj, np.array([1.0, 0.0, 0.0]),
                          np.array([1.0, 0.0, 0.0]))
    assert drift > 1e-3


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 4), base=st.integers(0, 2))
def test_skew_bracket_preserves_the_pairing(seed, k, base):
    """On a random skew table, over a point (lie_algebra) or over R^base
    (atiyah_trivial), validate_skew passes and the transports keep the
    pairing to 1e-8 (acceptance criterion 2's bound).  A symmetric part of
    norm 0.5 added to the table, along xi0 (y0 f + f y0) on the algebra
    block (each of unit length there) so that it moves the pairing at t0,
    fails validate_skew and breaks the pairing by more than 1e-3."""
    rng = np.random.default_rng(seed)
    T = rng.normal(size=(k, k, k))
    table = 0.5 * (T - np.swapaxes(T, 1, 2))
    chart = lie_algebra(table) if base == 0 else atiyah_trivial(base, table)
    g = slice(base, None)   # the algebra block of the fiber
    f, y0, xi0 = (v / np.linalg.norm(v[g]) for v in rng.normal(size=(3, chart.fiber_dim)))
    x0, pts = rng.uniform(-1.0, 1.0, base), rng.uniform(-1.0, 1.0, (10, base))
    W = np.einsum("i,j,k->ijk", xi0[g], y0[g], f[g])
    S = np.zeros((chart.fiber_dim,) * 3)
    S[g, g, g] = 0.5 * (W + np.swapaxes(W, 1, 2)) / np.linalg.norm(W + np.swapaxes(W, 1, 2))
    c = chart.structure_at(x0)
    broken = replace(chart, structure=lambda x: c + S)
    drifts = []
    for alg in (chart, broken):
        sys = constant_section_system(alg, f)
        traj = simulate_trajectory(sys, ControlSignal.constant([0.0], 0.0, 1.0), x0, step=1e-2)
        drifts.append(pairing_drift(sys, traj, y0, xi0))
    assert validate_skew(chart, pts, 1e-12)["passed"] and drifts[0] <= 1e-8
    assert not validate_skew(broken, pts, 1e-6)["passed"] and drifts[1] > 1e-3


# ---------------------------------------------------------------------------
# transport structure
# ---------------------------------------------------------------------------

def test_transport_linearity(so3):
    sys = so3_two_axis([0.5, 0.2, -0.1], [0.0, 1.0, 0.0])
    traj = simulate_trajectory(sys, ControlSignal.constant([1.0], 0.0, 1.0),
                               np.zeros(0), step=1e-2)
    y1 = np.array([1.0, 0.0, 0.5])
    y2 = np.array([-0.3, 0.8, 0.1])
    combo = transport_B(sys, traj, 2.0 * y1 - 0.5 * y2)
    parts = 2.0 * transport_B(sys, traj, y1) - 0.5 * transport_B(sys, traj, y2)
    assert np.abs(combo - parts).max() < 1e-10


def test_transport_restart_invariance(so3):
    v = np.array([0.4, -0.2, 0.9])
    sys = constant_section_system(so3, v)
    y0 = np.array([1.0, 0.5, -0.2])
    full = transport_B(sys, simulate_trajectory(
        sys, ControlSignal.constant([0.0], 0.0, 1.0), np.zeros(0), step=1e-3), y0)
    first = transport_B(sys, simulate_trajectory(
        sys, ControlSignal.constant([0.0], 0.0, 0.5), np.zeros(0), step=1e-3), y0)
    second = transport_B(sys, simulate_trajectory(
        sys, ControlSignal.constant([0.0], 0.5, 1.0), np.zeros(0), step=1e-3), first[-1])
    assert np.abs(second[-1] - full[-1]).max() < 1e-9


def test_transport_is_flow_of_tangent_lift(so3):
    """Transport solves the same ODE as the complete lift of the frozen-control
    section, checked by integrating the lift directly."""
    v = np.array([0.7, -0.3, 0.2])
    sys = constant_section_system(so3, v)
    traj = simulate_trajectory(sys, ControlSignal.constant([0.0], 0.0, 1.0),
                               np.zeros(0), step=1e-3)
    section = Section.constant(v)

    def lift_rhs(t, y):
        _, ydot = tangent_lift_section(so3, section, np.zeros(0), y)
        return ydot

    y0 = np.array([0.1, 0.9, -0.5])
    direct = integrate(lift_rhs, traj.path.grid, y0)
    via_transport = transport_B(sys, traj, y0)
    assert np.abs(direct - via_transport).max() < 1e-12


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 3), k=st.integers(1, 20),
       log_cond=st.floats(0.0, 3.0))
def test_box_qp_interior_point_is_the_solution_of_g(seed, p, k, log_cond):
    """On rows whose maximizer is inside the box, _box_qp's G^-1 b / c is
    the solution of G u = b / c to 1e-12 relative, for random symmetric
    positive definite G (p <= 3) of condition number up to 1e3."""
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.normal(size=(k, p, p)))[0]
    scale = np.exp(rng.uniform(-3.0, 3.0, size=(k, 1)))
    eig = scale * 10.0 ** (log_cond * np.linspace(0.0, 1.0, p))
    G = Q @ (eig[..., None] * np.swapaxes(Q, 1, 2))
    G = 0.5 * (G + np.swapaxes(G, 1, 2))
    b, c = rng.normal(size=(k, p)), rng.uniform(0.1, 10.0)
    reference = np.linalg.solve(G, b[..., None])[..., 0] / c
    bound = 2.0 * np.abs(reference).max()
    u = _box_qp(b, G, c, Box(-bound * np.ones(p), bound * np.ones(p)))
    error = np.linalg.norm(u - reference, axis=1)
    assert (error <= 1e-12 * np.linalg.norm(reference, axis=1)).all(), error.max()


def reference_box_qp(b, G, c, box):
    """_box_qp as first written: the same face search, but with H formed on
    every face point, inside the box or not."""
    u = (np.linalg.inv(G) @ b[..., None])[..., 0] / c
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
        h = (b[:, None] @ v[..., None] - 0.5 * c * (v[:, None] @ G @ v[..., None]))[:, 0, 0]
        better = box.contains(v) & (h > best_h)
        best[better], best_h[better] = v[better], h[better]
    u[out] = best
    return u


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 3), k=st.integers(1, 20),
       shrink=st.floats(0.05, 0.95))
def test_box_qp_scoring_only_feasible_faces_moves_no_choice(seed, p, k, shrink):
    """_box_qp forms H only on face points inside the box; on finite rows
    with symmetric positive definite G (non-diagonal for p >= 2), c > 0 and
    a box that the interior point leaves on at least one row, it picks the
    bits of the search that scores every face."""
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.normal(size=(k, p, p)))[0]
    G = Q @ (rng.uniform(0.1, 10.0, size=(k, p, 1)) * np.swapaxes(Q, 1, 2))
    G = 0.5 * (G + np.swapaxes(G, 1, 2))
    b, c = rng.normal(size=(k, p)), rng.uniform(0.1, 10.0)
    interior = np.linalg.solve(G, b[..., None])[..., 0] / c
    reach = shrink * np.abs(interior).max()
    box = Box(-reach * rng.uniform(0.2, 1.0, p), reach * rng.uniform(0.2, 1.0, p))
    assert not box.contains(interior).all()
    assert np.array_equal(_box_qp(b, G, c, box), reference_box_qp(b, G, c, box))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 400), c=st.floats(0.1, 10.0))
def test_box_qp_with_one_control_is_the_clip_of_the_face_search(seed, k, c):
    """For one control the best face is the bound nearest the interior point,
    so _box_qp clips it and searches no face: on random rows (G > 0, boxes
    below, above and across 0, interior points inside the box, within and
    just past its slack, and far outside it), _box_qp clipped has the bits of
    the face search clipped."""
    rng = np.random.default_rng(seed)
    lower = rng.uniform(-2.0, 1.0)
    box = Box([lower], [lower + rng.uniform(0.05, 3.0)])
    G = rng.uniform(0.1, 10.0, size=(k, 1, 1))
    u = rng.uniform(-1.0, 1.0, size=(k, 1)) * 10.0 ** rng.uniform(-2.0, 3.0, size=(k, 1))
    edge = rng.choice([box.lower[0], box.upper[0]], size=(k, 1)) + rng.choice(
        [0.0, -2e-12, -5e-13, 5e-13, 2e-12], size=(k, 1))
    u = np.where(rng.random((k, 1)) < 0.3, edge, u)
    b = c * (G @ u[..., None])[..., 0]
    got, want = _box_qp(b, G, c, box), reference_box_qp(b, G, c, box)
    assert box.clip(got).tobytes() == box.clip(want).tobytes()


def test_a_one_control_box_runs_without_a_face_search(tmp_path, monkeypatch):
    """classical-tm-lq with u_max 0.1 holds u on the bound all the way, and
    every _box_qp caller (the fused stage, the node samples and the audit)
    runs with the face enumeration made to raise."""
    def no_faces(*args, **kwargs):
        raise AssertionError("the face search ran")

    monkeypatch.setattr(control, "itertools", SimpleNamespace(product=no_faces))
    report = run_scenario({"scenario": "classical-tm-lq", "params": {"u_max": 0.1}}, tmp_path)
    u = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1)[:, -1]
    assert report["passed"] and (u == 0.1).all()


def test_box_flow_from_a_huge_state_forms_no_infeasible_h():
    """f = (1 + x) u on TR with L = u^2/2 over |u| <= 1, from x = 1e303: b is
    about 1e303, so the free face's point b / c lies far outside the box, and
    H there would overflow.  With H formed only inside the box the flow stays
    on the bound u = 1 with finite states, under an errstate that raises."""
    sys = control_affine(tangent_bundle(1), ([[1.0]], [[[1.0]]]), ([[1.0]], None), 1.0)
    with np.errstate(all="raise"):
        flow = integrate_pmp_flow(sys, [1e303], [1.0], -1.0, 0.0, 10.0, step=1.0)
    assert np.isfinite(flow.path.base).all() and np.isfinite(flow.costate.z).all()
    assert (flow.u_nodes == 1.0).all()


@pytest.mark.parametrize("F, G, message", [
    ((np.ones((3, 1)), None), (np.eye(1), None), r"^F has shape \(3, 1\), expected \(2, 1\)$"),
    ((np.ones((2, 1)), None), (np.eye(2), None), r"^G has shape \(2, 2\), expected \(1, 1\)$"),
    ((np.ones((2, 1)), None), (np.eye(1), np.ones((1, 1, 1))),
     r"^G's linear part has shape \(1, 1, 1\), expected \(1, 1, 2\)$"),
    ((np.ones((2, 1)), np.ones((2, 1, 3))), (np.eye(1), None),
     r"^F's linear part has shape \(2, 1, 3\), expected \(2, 1, 2\)$"),
], ids=["F-rows", "G-square", "G-linear", "F-linear"])
def test_control_affine_names_a_misshapen_table(F, G, message):
    """On TR^2 (m = n = 2) with p = 1 control, F's constant part must be
    (m, p), G's (p, p), and each linear part that shape plus (n,); a table
    that does not fit is named at construction, not in a later flow."""
    with pytest.raises(ValueError, match=message):
        control_affine(tangent_bundle(2), F, G, 1.0)
