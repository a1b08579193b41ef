"""Property tests of the per-segment linear kernels over a point: the held
control's constant matrix, the fixed Hamiltonian table of a finite set,
development by composed step propagators, the cost-extended needle frame
with its interpolation, the stacked needle directions and the cone check's
cut context, the extremal audit against a per-node loop, and the
blocks of held steps against node-by-node stepping."""

import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algopt import pmp
from algopt.control import (_BOX_SLACK, Box, ControlSignal, ControlSystem, FiniteSet, _box_qp,
                            _flow_rhs, _point_table, _transport, control_affine, costate_rhs,
                            simulate_trajectory)
from algopt.core import (ChartAlgebroid, _dual_field, lie_algebra, so3_algebra, so3_structure,
                         tangent_bundle, validate_anchor_morphism, validate_skew)
from algopt.errors import ChatteringError, IntegrationDivergedError
from algopt.numerics import TimeGrid, _linear_rk4, integrate_segmented, rk4_step
from algopt.paths import EPath
from algopt.pmp import (VariationSymbol, cone_support_check, develop_to_group,
                        integrate_pmp_flow, make_needle_context, needle_vector, needle_vectors,
                        sample_symbols, verify_extremal)
from algopt.scenarios import (SCENARIOS, _cone_check, _observation_time,
                              build_so3_bang_bang_system, validate_config)
from conftest import box_signal, random_control_affine, skew_hat

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
SEEDS = st.integers(0, 2**32 - 1)


def random_point_system(rng, m):
    """A skew table over a point and a two-element finite control set with
    f(u) = a + u b and a constant running cost."""
    c = rng.normal(size=(m, m, m))
    c = c - np.swapaxes(c, 1, 2)
    a, b = rng.normal(size=m), rng.normal(size=m)
    cost = float(rng.uniform(0.5, 2.0))
    values = tuple(rng.uniform(-2.0, 2.0, size=(2, 1)))
    return ControlSystem(lie_algebra(c), lambda x, u: a + u[0] * b, lambda x, u: cost,
                         FiniteSet(values)), c


@PROPERTY
@given(seed=SEEDS, m=st.integers(2, 4), z0=st.sampled_from([0.0, -1.0]))
def test_segment_matrix_matches_costate_rhs(seed, m, z0):
    rng = np.random.default_rng(seed)
    sys, c = random_point_system(rng, m)
    x = np.zeros(0)
    for u in sys.control_space.values:
        rhs = _flow_rhs(sys, u, lambda x, v, z: costate_rhs(sys, x, v, z, z0))
        f = sys.f_at(x, u)
        for _ in range(5):
            z = rng.normal(size=m) * rng.uniform(0.1, 10.0)
            scale = np.einsum("ijk,j,i->k", np.abs(c), np.abs(f), np.abs(z)).max()
            expected = costate_rhs(sys, x, u, z, z0)
            assert np.abs(rhs(0.0, z) - expected).max() <= 1e-13 * scale


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(seed=SEEDS, m=st.integers(1, 6), n=st.integers(0, 3), k=st.integers(1, 40))
def test_stacked_dual_transport_rows_keep_the_bits_of_one_point(seed, m, n, k):
    """_dual_field on rows stacked on a leading axis gives, row by row, the
    bits of its call at one point (the block audit relies on it)."""
    rng = np.random.default_rng(seed)
    c, rho = rng.normal(size=(k, m, m, m)), rng.normal(size=(k, n, m))
    v, z, dh_dx = rng.normal(size=(k, m)), rng.normal(size=(k, m)), rng.normal(size=(k, n))
    rows = [_dual_field(c[i], rho[i], v[i], z[i], dh_dx[i]) for i in range(k)]
    assert np.array_equal(_dual_field(c, rho, v, z, dh_dx), np.array(rows))


def same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(seed=SEEDS, m=st.integers(1, 6), n=st.integers(0, 3), with_dh=st.booleans())
def test_dual_field_at_one_point_keeps_the_matmul_bits(seed, m, n, with_dh):
    """_dual_field at one point, whose products are ndarray.dot calls, gives
    the bytes of the same products taken by matmul."""
    rng = np.random.default_rng(seed)
    c, rho = rng.normal(size=(m, m, m)), rng.normal(size=(n, m))
    v, z = rng.normal(size=m), rng.normal(size=m)
    dh_dx = rng.normal(size=n) if with_dh else None
    expected = v @ (z @ c.reshape(m, m * m)).reshape(m, m)
    if n and dh_dx is not None:
        expected = expected - rho.T @ dh_dx
    assert same_bytes(_dual_field(c, rho, v, z, dh_dx), expected)


def reference_affine_stage(sys, z0):
    """The stage of pmp._affine_pmp_step as a field (t, y) -> dy on arrays,
    with every product taken by matmul, as first written, and _dual_field's
    one-point branch inlined the same way."""
    alg, U, n = sys.alg, sys.control_space, sys.alg.base_dim
    (F0, F1), (G0, G1) = ((np.asarray(c, dtype=float), d) for c, d in sys.affine)
    G_inv = np.linalg.inv(G0) if G1 is None else None
    zero = None if F1 is None and G1 is None else np.zeros(n)

    def rhs(t, state):
        x, z = state[:n], state[n:]
        Fx = F0 if F1 is None else F0 + F1 @ x
        Gx, b = G0 if G1 is None else G0 + G1 @ x, Fx.T @ z
        u = (np.linalg.inv(Gx) if G_inv is None else G_inv) @ b / -z0
        if not ((U.lower < u) & (u < U.upper)).all():
            if not ((U.lower - _BOX_SLACK <= u) & (u <= U.upper + _BOX_SLACK)).all():
                u = _box_qp(b[None], Gx[None], -z0, U)[0]
            u = u.clip(U.lower, U.upper)
        f, rho = Fx @ u, alg.anchor_at(x)
        dh_dx = zero if F1 is None else sys.f_jacobian(x, u).T @ z
        if G1 is not None:
            dh_dx = dh_dx + z0 * sys.L_gradient(x, u)
        m = len(z)
        zdot = f @ (z @ alg.structure_at(x).reshape(m, m * m)).reshape(m, m)
        if n and dh_dx is not None:
            zdot = zdot - rho.T @ dh_dx
        return np.concatenate([rho @ f, zdot])

    return rhs


def affine_stage_draws(seed, n, p, chart, linear_F, linear_G, z0=None):
    """(scale, system, z0, y): a control-affine system with or without linear
    parts of F and G, z0 < 0 and a state y, with the box's bound at twice,
    once and half the largest |u_j| of u = G^-1 b / -z0 at y, so that u lies
    inside the box, on its bound (the clip within the slack) or outside it
    (_box_qp).  z0 is drawn from -U(0.1, 3) unless given; the other draws do
    not depend on it."""
    rng = np.random.default_rng(seed)
    n = 0 if chart == "point" else n
    drawn = random_control_affine(rng, n, p, chart, False)
    (F0, F1), (G0, G1) = drawn.affine
    F1, G1 = (F1 if linear_F else None), (G1 if linear_G else None)
    x, z = rng.uniform(-0.5, 0.5, n), rng.normal(size=drawn.alg.fiber_dim)
    drawn_z0 = -float(rng.uniform(0.1, 3.0))
    z0 = drawn_z0 if z0 is None else z0
    Fx = F0 if F1 is None else F0 + F1 @ x
    Gx = G0 if G1 is None else G0 + G1 @ x
    reach, y = np.abs(np.linalg.inv(Gx) @ (Fx.T @ z) / -z0).max(), np.concatenate([x, z])
    return [(scale, control_affine(drawn.alg, (F0, F1), (G0, G1), scale * reach), z0, y)
            for scale in (2.0, 1.0, 0.5)]


AFFINE_DRAWS = dict(seed=SEEDS, n=st.integers(1, 3), p=st.integers(1, 3),
                    chart=st.sampled_from(["tangent", "atiyah", "point"]),
                    linear_F=st.booleans(), linear_G=st.booleans())


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(**AFFINE_DRAWS)
def test_fused_affine_stage_keeps_the_matmul_bits(seed, n, p, chart, linear_F, linear_G):
    """The fused stage, whose one-point products are ndarray.dot calls, gives
    the bytes of the same stage with every product taken by matmul, on the
    draws of :func:`affine_stage_draws`."""
    for scale, sys, z0, y in affine_stage_draws(seed, n, p, chart, linear_F, linear_G):
        assert same_bytes(np.array(pmp._affine_pmp_step(sys, z0).stage(y.tolist())),
                          reference_affine_stage(sys, z0)(0.0, y)), scale


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(**AFFINE_DRAWS)
def test_fused_affine_step_keeps_the_bits_of_rk4_step(seed, n, p, chart, linear_F, linear_G):
    """The fused step, whose stage inputs and RK4 sums run on Python floats,
    gives the bytes of numerics.rk4_step on the matmul reference stage, on the
    draws of :func:`affine_stage_draws`, at a step of 1e-3 and at one of 0.25,
    over which u moves further against the box."""
    for scale, sys, z0, y in affine_stage_draws(seed, n, p, chart, linear_F, linear_G):
        step, reference = pmp._affine_pmp_step(sys, z0), reference_affine_stage(sys, z0)
        for h in (1e-3, 0.25):
            assert same_bytes(step(0.0, y, h), rk4_step(reference, 0.0, y, h)), (scale, h)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(**AFFINE_DRAWS)
def test_fused_affine_stage_and_step_at_unit_multiplier(seed, n, p, chart, linear_F, linear_G):
    """At z0 = -1, where the fused stage leaves out its division by -z0, the
    stage and the step at 1e-3 and at 0.25 give the bytes of the matmul
    reference and of numerics.rk4_step on it, over the chart, linear-part and
    box-scale draws of :func:`affine_stage_draws`."""
    for scale, sys, z0, y in affine_stage_draws(seed, n, p, chart, linear_F, linear_G, z0=-1.0):
        step, reference = pmp._affine_pmp_step(sys, z0), reference_affine_stage(sys, z0)
        assert same_bytes(np.array(step.stage(y.tolist())), reference(0.0, y)), scale
        for h in (1e-3, 0.25):
            assert same_bytes(step(0.0, y, h), rk4_step(reference, 0.0, y, h)), (scale, h)


def zero_chart(n, m):
    """A chart with base R^n, fiber R^m, zero anchor and zero bracket."""
    return ChartAlgebroid(n, m, lambda x: np.zeros((n, m)), lambda x: np.zeros((m, m, m)))


@pytest.mark.parametrize("m, n, p", [(m, n, p) for m in (1, 2, 3, 5)
                                     for n in (1, 2, 3) for p in (1, 2, 3)])
def test_one_control_jacobian_is_a_row_of_the_stacked_call(m, n, p):
    """control_affine's f_jacobian on one control, a gemv, gives the bytes of
    each row of its call on a stack of controls, a matmul."""
    rng = np.random.default_rng([m, n, p])
    sys = control_affine(zero_chart(n, m), (rng.normal(size=(m, p)), rng.normal(size=(m, p, n))),
                         (np.eye(p), None), 1.0)
    x, u = rng.normal(size=n), rng.normal(size=(200, p))
    stacked = sys.f_jacobian(x, u)
    for k in range(len(u)):
        assert same_bytes(sys.f_jacobian(x, u[k]), stacked[k]), k


@pytest.mark.parametrize("k", [1, 127, 128, 129])
@pytest.mark.parametrize("linear_F", [False, True])
def test_shared_candidates_keep_the_bits_of_the_stacked_table(k, linear_F):
    """_affine_at's h on controls shared by the rows (one gemv of the tall F
    table per control where m > 1) gives the bytes of the stacked
    Fx[:, None] @ w[..., None] product and its H, for a constant F (a stride-0
    broadcast) and a linear one."""
    rng = np.random.default_rng([k, linear_F])
    for m, p in ((m, p) for m in range(1, 6) for p in range(1, 4)):
        R = rng.normal(size=(p, p))
        F = (rng.normal(size=(m, p)), rng.normal(size=(m, p, 2)) if linear_F else None)
        sys = control_affine(zero_chart(2, m), F, (R @ R.T + np.eye(p), None), 1.0)
        x, z = rng.uniform(-1.0, 1.0, (k, 2)), rng.normal(size=(k, m))
        w = rng.uniform(-1.0, 1.0, (1, 27, p))
        z0 = -0.7
        H, f = pmp._affine_at(sys, x, z, z0)[2](w)
        (F0, F1), G0 = sys.affine[0], sys.affine[1][0]
        Fx = (np.broadcast_to(F0, (k, m, p)) if F1 is None
              else F0 + (F1 @ x[:, None, :, None])[..., 0])
        f_ref = Fx[:, None] @ w[..., None]
        H_ref = z[:, None, None] @ f_ref + z0 * (0.5 * (w[..., None, :] @ G0 @ w[..., None]))
        assert same_bytes(f, f_ref[..., 0]), (m, p)
        assert same_bytes(H, H_ref[..., 0, 0]), (m, p)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=SEEDS, rows=st.integers(1, 16), p=st.integers(1, 3))
def test_unique_rows_is_np_unique_on_small_tables(seed, rows, p):
    """pmp._unique_rows gives the bytes of np.unique(axis=0,
    return_inverse=True) on rows drawn with repeats from values with +-0.0 and
    NaN.  Up to 16 rows np.unique's quicksort is an insertion sort, stable, so
    the row it keeps for -0.0 and 0.0 is the first listed, as here."""
    rng = np.random.default_rng(seed)
    pool = np.array([0.0, -0.0, np.nan, 1.0, -1.0, 0.5])[rng.integers(0, 6, (4, p))]
    a = pool[rng.integers(0, len(pool), rows)]
    used, which = pmp._unique_rows(a)
    ref_used, ref_which = np.unique(a, axis=0, return_inverse=True)
    assert same_bytes(used, ref_used)
    assert np.array_equal(which, ref_which)


@PROPERTY
@given(seed=SEEDS, p=st.integers(1, 3), signed_zeros=st.booleans())
def test_unique_rows_is_np_unique_on_long_tables(seed, p, signed_zeros):
    """On 3,000 rows, as many as a bang-bang flow's u_nodes, pmp._unique_rows
    groups and orders the rows as np.unique(axis=0) does.  Where rows equal as
    floats differ in bytes (-0.0 and 0.0), np.unique's unstable quicksort may
    keep either, so only the values are compared then, and the inverse of rows
    with a NaN, each its own row, only up to the order of such equal rows."""
    rng = np.random.default_rng(seed)
    values = [0.0, -0.0, np.nan, 1.0, -1.0] if signed_zeros else [0.0, 1.0, -1.0, 0.25]
    pool = np.array(values)[rng.integers(0, len(values), (6, p))]
    a = pool[rng.integers(0, len(pool), 3000)]
    used, which = pmp._unique_rows(a)
    ref_used, ref_which = np.unique(a, axis=0, return_inverse=True)
    if signed_zeros:
        assert np.array_equal(used, ref_used, equal_nan=True)
        plain = ~np.isnan(a).any(axis=1)
        assert np.array_equal(which[plain], ref_which[plain])
        assert np.array_equal(np.sort(which[~plain]), np.sort(ref_which[~plain]))
    else:
        assert same_bytes(used, ref_used)
        assert np.array_equal(which, ref_which)


def test_fused_affine_step_takes_G1_x_by_matmul():
    """G(x) = G0 + G1 @ x is a matmul of the (p, p, n) table, and G1.dot(x)
    gives other bits on some draws.  On this one (Atiyah chart, n = p = 2)
    the two products differ at the step's start and the difference reaches
    the step's bytes, so only a step that takes the matmul matches the
    reference."""
    rng = np.random.default_rng(285)
    sys = random_control_affine(rng, 2, 2, "atiyah", False)
    x, z = rng.uniform(-0.5, 0.5, 2), rng.normal(size=sys.alg.fiber_dim)
    G1, y = sys.affine[1][1], np.concatenate([x, z])
    assert (G1 @ x).tobytes() != G1.dot(x).tobytes()
    assert same_bytes(pmp._affine_pmp_step(sys, -1.0)(0.0, y, 1e-3),
                      rk4_step(reference_affine_stage(sys, -1.0), 0.0, y, 1e-3))


def affine_line_algebra():
    """[e1, e2] = e2 with the non-skew representation e1 -> diag(1, 0),
    e2 -> E_12, so development never re-projects."""
    c = np.zeros((2, 2, 2))
    c[1, 0, 1], c[1, 1, 0] = 1.0, -1.0
    mats = np.array([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]]])
    return lie_algebra(c), lambda v: np.tensordot(v, mats, axes=(0, 0))


def reference_development(path, rep, every, skew):
    """Step-by-step RK4 of gdot = g rep(a), with the midpoint coefficient the
    mean of the two node samples, re-projected as develop_to_group does."""
    nodes, a = path.grid.nodes, path.fiber
    g = np.eye(rep(a[0]).shape[0])
    for k in range(len(nodes) - 1):
        h = nodes[k + 1] - nodes[k]
        A0, A1 = rep(a[k]), rep(a[k + 1])
        Am = 0.5 * (A0 + A1)
        k1 = g @ A0
        k2 = (g + 0.5 * h * k1) @ Am
        k3 = (g + 0.5 * h * k2) @ Am
        k4 = (g + h * k3) @ A1
        g = g + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        if skew and (k + 1) % every == 0:
            uu, _, vv = np.linalg.svd(g)
            g = uu @ vv
    if skew:
        uu, _, vv = np.linalg.svd(g)
        g = uu @ vv
    return g


@PROPERTY
@given(seed=SEEDS, n_nodes=st.integers(2, 400), every=st.integers(1, 150),
       skew=st.booleans())
def test_develop_to_group_matches_stepwise_rk4(seed, n_nodes, every, skew):
    rng = np.random.default_rng(seed)
    alg, rep = (so3_algebra(), skew_hat) if skew else affine_line_algebra()
    nodes = np.cumsum(np.concatenate([[0.0], rng.uniform(1e-3, 2e-2, size=n_nodes - 1)]))
    fiber = rng.uniform(-2.0, 2.0, size=(n_nodes, alg.fiber_dim))
    path = EPath(TimeGrid.from_nodes(nodes), np.zeros((n_nodes, 0)), fiber)
    with mock.patch.object(pmp, "_REORTHONORMALIZE_EVERY", every):
        g = develop_to_group(alg, path, rep)
    assert np.abs(g - reference_development(path, rep, every, skew)).max() <= 1e-12


def reference_so3_switch_times(a, b, z, horizon, step, switch_tol=1e-9):
    """Switch times of the so(3) bang-bang extremal by step-by-step RK4 whose
    stages are einsums of the dual flow zdot_k = c^i_jk (a + u b)^j z_i, with
    u = sgn(z.b) held on each step (-1 on a tie, the first listed value) and
    each sign change bisected to ``switch_tol`` as integrate_pmp_flow does."""
    c = so3_structure()

    def rk4(u, z, h):
        K = np.einsum("ijk,j->ki", c, a + u * b)
        k1 = np.einsum("ki,i->k", K, z)
        k2 = np.einsum("ki,i->k", K, z + (h / 2.0) * k1)
        k3 = np.einsum("ki,i->k", K, z + (h / 2.0) * k2)
        k4 = np.einsum("ki,i->k", K, z + h * k3)
        return z + h * ((k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0)

    t, u, switches = 0.0, 1.0 if z @ b > 0 else -1.0, []
    while horizon - t > 1e-15:
        remaining = horizon - t
        t_next = t + step if remaining > step * (1.0 + 1e-9) else horizon
        z_next = rk4(u, z, t_next - t)
        if u * (z_next @ b) < 0:
            lo, hi = t, t_next
            while hi - lo > switch_tol:
                mid = 0.5 * (lo + hi)
                lo, hi = (lo, mid) if u * (rk4(u, z, mid - t) @ b) < 0 else (mid, hi)
            if horizon - hi > 1e-12:
                t_next, z_next, u = hi, rk4(u, z, hi - t), -u
                switches.append(hi)
        t, z = t_next, z_next
    return switches


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(seed=SEEDS, horizon=st.floats(0.5, 5.0))
def test_so3_flow_keeps_casimir_and_zero_hamiltonian(seed, horizon):
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=3), rng.normal(size=3)
    while True:   # a covector on the level z.a + |z.b| = 1, that is H = 0 at z0 = -1
        z = rng.normal(size=3)
        level = z @ a + abs(z @ b)
        if level > 0.3 * np.linalg.norm(z):
            break
    z = z / level
    sys = build_so3_bang_bang_system(a, b)
    flow = integrate_pmp_flow(sys, np.zeros(0), z, -1.0, 0.0, horizon, step=2e-3)
    norms = np.linalg.norm(flow.costate.z, axis=1)
    assert np.abs(norms - norms[0]).max() <= 1e-10
    assert np.abs(flow.h_nodes).max() <= 1e-6
    reference = reference_so3_switch_times(a, b, z, horizon, 2e-3)
    assert len(flow.switch_times) == len(reference)
    assert np.abs(np.subtract(flow.switch_times, reference)).max(initial=0.0) <= 1e-10


def random_signal(rng, values, n_switches, t1):
    """A ControlSignal on [0, t1] alternating between the two values, with
    switches at least 0.05 apart and away from the ends."""
    while True:
        switches = np.sort(rng.uniform(0.05, t1 - 0.05, size=n_switches))
        if np.all(np.diff(switches) > 0.05):
            break
    first = int(rng.integers(0, 2))
    seq = tuple(values[(first + j) % 2] for j in range(n_switches + 1))
    return ControlSignal(0.0, t1, tuple(switches), seq)


def reference_needle_frame(c, a, b, signal, grid):
    """Step-by-step RK4 of the fiber flow Y' = M(u) Y of the cost extension,
    M(u) = c[., a + u b] on the inner block and zero on the cost row and
    column, from the identity over the given grid."""
    m = c.shape[0]
    Y = np.eye(m + 1)
    out = [Y]
    nodes = grid.nodes
    for k in range(len(nodes) - 1):
        h = nodes[k + 1] - nodes[k]
        u = signal.value(0.5 * (nodes[k] + nodes[k + 1]))[0]
        M = np.zeros((m + 1, m + 1))
        M[1:, 1:] = np.einsum("ijk,k->ij", c, a + u * b)
        k1 = M @ Y
        k2 = M @ (Y + 0.5 * h * k1)
        k3 = M @ (Y + 0.5 * h * k2)
        k4 = M @ (Y + h * k3)
        Y = Y + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        out.append(Y)
    return np.array(out)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=SEEDS, m=st.integers(2, 4), n_switches=st.integers(1, 3))
def test_needle_frame_and_accrued_cost_over_a_point(seed, m, n_switches):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(m, m, m))
    c = c - np.swapaxes(c, 1, 2)
    a, b = rng.normal(size=m), rng.normal(size=m)
    cost = rng.uniform(0.5, 2.0, size=2)
    values = tuple(rng.uniform(-2.0, 2.0, size=(2, 1)))
    sys = ControlSystem(lie_algebra(c), lambda x, u: a + u[0] * b,
                        lambda x, u: float(cost[0] + cost[1] * u[0]), FiniteSet(values))
    t1, step = float(rng.uniform(0.5, 1.5)), float(rng.uniform(5e-3, 2e-2))
    signal = random_signal(rng, values, n_switches, t1)
    ctx = make_needle_context(sys, signal, np.zeros(0), step=step)

    grid = ctx.grid
    assert grid.breakpoints == signal.switch_times
    assert np.array_equal(grid.nodes, TimeGrid(0.0, t1, step, signal.switch_times).nodes)
    ref = reference_needle_frame(c, a, b, signal, grid)
    assert ctx.frame_B.shape == ref.shape
    assert np.abs(ctx.frame_B - ref).max() <= 1e-13 * np.abs(ref).max()

    # the accrued cost is the integral of L along the held control
    bounds = (0.0, *signal.switch_times, t1)
    running = [cost[0] + cost[1] * v[0] for v in signal.values]
    nodes = grid.nodes
    seg = np.searchsorted(signal.switch_times, nodes, side="right")
    integral = np.array([sum(running[j] * (bounds[j + 1] - bounds[j]) for j in range(s))
                         + running[s] * (t - bounds[s]) for s, t in zip(seg, nodes)])
    assert ctx.etraj.path.base.shape == (len(nodes), 1)
    assert np.abs(ctx.etraj.path.base[:, 0] - integral).max() <= 1e-12 * max(1.0, integral[-1])
    expected_fiber = np.array([np.concatenate(([running[s]], a + signal.values[s][0] * b))
                               for s in seg])
    assert np.abs(ctx.etraj.path.fiber - expected_fiber).max() <= 1e-15 * np.abs(
        expected_fiber).max()

    # and the one pass reproduces the trajectory of the generic passes bit for
    # bit, and their frame (generic stages on the cost extension) to rounding
    etraj = simulate_trajectory(ctx.esys, signal, np.zeros(1), step=step)
    assert np.array_equal(ctx.etraj.path.base, etraj.path.base)
    assert np.array_equal(ctx.etraj.path.fiber, etraj.path.fiber)
    frame = _transport(ctx.esys, etraj, np.eye(ctx.esys.alg.fiber_dim), False)
    assert np.abs(ctx.frame_B - frame).max() <= 1e-13 * np.abs(frame).max()


@PROPERTY
@given(seed=SEEDS)
def test_frame_at_is_np_interp_entry_by_entry(seed):
    rng = np.random.default_rng(seed)
    sys, _ = random_point_system(rng, int(rng.integers(2, 5)))
    signal = random_signal(rng, sys.control_space.values, int(rng.integers(1, 4)), 1.0)
    ctx = make_needle_context(sys, signal, np.zeros(0), step=float(rng.uniform(5e-3, 5e-2)))
    nodes = ctx.grid.nodes
    me = ctx.frame_B.shape[1]
    flat = ctx.frame_B.reshape(len(nodes), me * me)
    times = np.concatenate([rng.uniform(-0.1, 1.1, size=20), rng.choice(nodes, size=5),
                            [0.0, 1.0], signal.switch_times])
    for t in times:
        expected = np.array([np.interp(t, nodes, flat[:, j]) for j in range(me * me)])
        got = ctx.frame_at(t)
        assert got.shape == (me, me)
        assert got.ravel().tobytes() == expected.tobytes()


def reference_needle_vector(ctx, symbol):
    """One needle direction as first written, symbol by symbol: the base and
    the control read at one time each, the frame entry by entry by np.interp,
    and d = d + w (F_tau @ solve(F_s, delta)) over the spikes of nonzero
    width, in order."""
    control, nodes, me = ctx.etraj.control, ctx.grid.nodes, ctx.frame_B.shape[1]
    flat = ctx.frame_B.reshape(len(nodes), me * me)

    def frame(t):
        return np.array([np.interp(t, nodes, flat[:, j]) for j in range(me * me)]).reshape(me, me)

    d = symbol.dt * ctx.esys.f_at(ctx.base_at(symbol.tau), control.value(symbol.tau))
    F_tau = frame(symbol.tau)
    for s, v, w in zip(symbol.taus, symbol.vs, symbol.dts):
        if w == 0.0:
            continue
        xx = ctx.base_at(s)
        delta = ctx.esys.f_at(xx, v) - ctx.esys.f_at(xx, control.value(s))
        d = d + w * (F_tau @ np.linalg.solve(frame(s), delta))
    return d


def draw_symbols(rng, ctx, draw_value, count):
    """``count`` symbols, each with its own observation time and 1-3 spikes
    (a width of 0 about a third of the time), every time off the switches:
    half of them grid nodes, half drawn between."""
    nodes, switches = ctx.grid.nodes, ctx.etraj.control.switch_times

    def time_in(lo, hi):
        while True:
            inner = nodes[(nodes > lo) & (nodes < hi)]
            t = float(rng.choice(inner) if inner.size and rng.random() < 0.5
                      else rng.uniform(lo, hi))
            if lo < t < hi and pmp._off_switches(t, switches):
                return t

    out = []
    for _ in range(count):
        tau = time_in(0.1 * ctx.grid.t1, 0.95 * ctx.grid.t1)
        s = int(rng.integers(1, 4))
        taus = sorted(time_in(0.0, tau) for _ in range(s))
        dts = np.where(rng.random(s) < 0.3, 0.0, rng.random(s))
        out.append(VariationSymbol(tuple(taus), tuple(draw_value() for _ in range(s)), tau,
                                   tuple(dts), float(rng.uniform(-1.0, 1.0))))
    return out


@PROPERTY
@given(seed=SEEDS, base=st.booleans())
def test_stacked_needles_keep_the_bits_of_one_at_a_time(seed, base):
    """needle_vectors takes all symbols in one pass; each row has the bytes of
    the symbol-by-symbol loop, and needle_vector is its row.  Over a point the
    systems are random_point_system draws; with a base, the box system on TR^2
    of test_sample_symbols_over_a_box_draw_values_inside_it under a random
    signal."""
    rng = np.random.default_rng(seed)
    step = float(rng.uniform(5e-3, 5e-2))
    if base:
        box = Box([-0.3, 2.0], [0.1, 2.5])
        sys = ControlSystem(tangent_bundle(2), lambda x, u: u.copy(),
                            lambda x, u: 0.5 * float(u @ u), box)
        signal = box_signal(rng, box, int(rng.integers(1, 4)), 1.0)
        ctx = make_needle_context(sys, signal, rng.uniform(-0.5, 0.5, 2), step=step)

        def values():
            return box.lower + (box.upper - box.lower) * rng.random(2)
    else:
        sys, _ = random_point_system(rng, int(rng.integers(2, 5)))
        U = sys.control_space.values
        signal = random_signal(rng, U, int(rng.integers(1, 4)), 1.0)
        ctx = make_needle_context(sys, signal, np.zeros(0), step=step)

        def values():
            return U[int(rng.integers(0, 2))]
    symbols = draw_symbols(rng, ctx, values, int(rng.integers(1, 30)))
    got = needle_vectors(ctx, symbols)
    assert got.shape == (len(symbols), ctx.esys.alg.fiber_dim)
    for row, symbol in zip(got, symbols):
        assert row.tobytes() == reference_needle_vector(ctx, symbol).tobytes()
        assert needle_vector(ctx, symbol).tobytes() == row.tobytes()


def test_the_cone_check_cut_on_a_switch_drops_it():
    """At horizon 4.44 the default so3 flow's middle node, the cone check's
    observation time, is the last node before the first switch (2.22144147),
    which is where the needle context's control is cut.  The cut signal drops
    that switch rather than raising, and cone_support has the bits of a
    whole-horizon context, stacked and symbol by symbol."""
    cfg = validate_config({"scenario": "so3-bang-bang", "horizon": 4.44,
                           "solver": {"symbol_samples": 50}})
    sys, x0, z_init, _ = SCENARIOS["so3-bang-bang"].problem(cfg)
    flow = integrate_pmp_flow(sys, x0, z_init, -1.0, 0.0, 4.44, step=1e-3)
    nodes = flow.path.grid.nodes
    k = len(nodes) // 2
    assert _observation_time(nodes, flow.switch_times) == nodes[k]
    assert nodes[k + 1] == flow.switch_times[0]
    value = _cone_check(cfg, sys, flow, 50, 1e-3)["value"]

    whole = make_needle_context(sys, flow.control, x0, step=1e-3)
    symbols = sample_symbols(np.random.default_rng(cfg["solver"]["seed"]), whole, nodes[k], 50)
    z_ext = np.concatenate([[-1.0], flow.costate.z[k]])
    for needles in (needle_vectors(whole, symbols),
                    [reference_needle_vector(whole, s) for s in symbols]):
        assert cone_support_check(needles, z_ext)["value"].hex() == value.hex()


def reference_audit(sys, c, flow, u_nodes, mode):
    """verify_extremal's four numbers and notes over a point, by a loop over
    the nodes: H(z, v) = <z, f(v)> + z0 L(v) over the two-valued set, the
    dual flow zdot_k = c^i_jk f^j z_i against central differences inside
    each segment, and ties within 1e-10 max(1, |z|) of the best value."""
    nodes, z, z0 = flow.path.grid.nodes, flow.costate.z, flow.costate.z0
    x = np.zeros(0)
    breakpoints = set(flow.path.grid.breakpoints)

    def H(k, v):
        return float(z[k] @ sys.f_at(x, v) + z0 * sys.L_at(x, v))

    violation, ties, kept = 0.0, 0, []
    for k, t in enumerate(nodes):
        if t in breakpoints:
            continue
        values = sorted(H(k, v) for v in sys.control_space.values)
        h = H(k, u_nodes[k])
        violation = max(violation, values[-1] - h)
        ties += values[-1] - values[-2] <= 1e-10 * max(1.0, np.linalg.norm(z[k]))
        kept.append(h)
    residual = 0.0
    for i0, i1 in flow.path.grid.segment_bounds:
        dz = np.gradient(z[i0:i1 + 1], nodes[i0:i1 + 1], axis=0,
                         edge_order=2 if i1 - i0 >= 2 else 1)
        for k in range(i0 + 1, i1):
            rhs = np.einsum("ijk,j,i->k", c, sys.f_at(x, u_nodes[k]), z[k])
            residual = max(residual, float(np.abs(dz[k - i0] - rhs).max()))
    kept = np.array(kept)
    drift = np.abs(kept if mode == "free-time" else kept - kept.mean()).max()
    notes = []
    if ties:
        notes.append(f"maximizer tie at {ties} node(s); singular arcs are flagged, "
                     "not resolved")
    if z0 == 0.0:
        notes.append("abnormal multiplier (z0 = 0) accepted; the strict-negativity "
                     "variant of the transversality statement is not enforced")
    numbers = (violation, residual, drift, np.linalg.norm(z, axis=1).min())
    return numbers, tuple(notes)


@PROPERTY
@given(seed=SEEDS, m=st.integers(2, 4), z0=st.sampled_from([0.0, -1.0]),
       mode=st.sampled_from(["free-time", "fixed-time"]), degenerate=st.booleans())
def test_verify_extremal_matches_a_per_node_loop(seed, m, z0, mode, degenerate):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(m, m, m))
    c = c - np.swapaxes(c, 1, 2)
    a = rng.normal(size=m)
    b = np.zeros(m) if degenerate else rng.normal(size=m)   # degenerate: every node ties
    cost = rng.uniform(0.5, 2.0, size=2) * [1.0, 0.0 if degenerate else 1.0]
    values = tuple(rng.uniform(-2.0, 2.0, size=(2, 1)))
    sys = ControlSystem(lie_algebra(c), lambda x, u: a + u[0] * b,
                        lambda x, u: float(cost[0] + cost[1] * u[0]), FiniteSet(values))
    flow = integrate_pmp_flow(sys, np.zeros(0), rng.normal(size=m), z0, 0.0,
                              float(rng.uniform(0.5, 1.5)), step=float(rng.uniform(5e-3, 2e-2)))
    u_nodes = np.array(values)[rng.integers(0, 2, size=flow.path.grid.n_nodes)]
    audit = verify_extremal(sys, flow.path, flow.costate, u_nodes, mode=mode)
    expected, notes = reference_audit(sys, c, flow, u_nodes, mode)
    got = (audit.max_condition_violation, audit.costate_residual, audit.h_drift,
           audit.covector_min_norm)
    scale = max(1.0, np.abs(flow.costate.z).max() * (np.abs(c).sum() + 1.0) * (
        np.abs(a).max() + 2.0 * np.abs(b).max() + 1.0) + 2.0 * cost.sum())
    assert np.abs(np.subtract(got, expected)).max() <= 1e-13 * scale
    assert audit.notes == notes


def planar_point_system(rng, m, k):
    """A skew table over a point and k control values in the plane, with
    f(u) = a + u_1 b + u_2 d and L(u) = cost + |u|^2 / 2, so that any of the
    values can lead."""
    c = rng.normal(size=(m, m, m))
    c = c - np.swapaxes(c, 1, 2)
    a, b, d = rng.normal(size=(3, m))
    cost = float(rng.uniform(0.5, 2.0))
    values = tuple(rng.uniform(-2.0, 2.0, size=(k, 2)))
    return ControlSystem(lie_algebra(c), lambda x, u: a + u[0] * b + u[1] * d,
                         lambda x, u: cost + 0.5 * float(u @ u), FiniteSet(values))


def flow_bits(flow):
    return (flow.costate.z.tobytes(), flow.h_nodes.tobytes(), flow.u_nodes.tobytes(),
            flow.path.grid.nodes.tobytes(), flow.switch_times, flow.tie_times)


@PROPERTY
@given(seed=SEEDS, m=st.integers(2, 4), k=st.integers(2, 3), z0=st.sampled_from([0.0, -1.0]))
def test_flow_blocks_are_bit_identical_to_node_by_node_steps(seed, m, k, z0):
    rng = np.random.default_rng(seed)
    sys = planar_point_system(rng, m, k)
    z = rng.normal(size=m) * rng.uniform(0.5, 3.0)
    horizon, step = float(rng.uniform(0.5, 3.0)), float(rng.uniform(2e-3, 2e-2))

    def flow(block):
        with mock.patch.object(pmp, "_FLOW_BLOCK", block):
            return integrate_pmp_flow(sys, np.zeros(0), z, z0, 0.0, horizon, step=step)

    reference = flow(1)
    blocks = [pmp._FLOW_BLOCK]
    if reference.switch_times:   # the first switch on the last node of a block, and on the first
        first = int(np.searchsorted(reference.path.grid.nodes, reference.switch_times[0]))
        blocks += [first, max(first - 1, 1)]
    for block in blocks:
        assert flow_bits(flow(block)) == flow_bits(reference)


@PROPERTY
@given(seed=SEEDS, n=st.integers(1, 3), p=st.integers(1, 3),
       chart=st.sampled_from(["tangent", "atiyah"]), z0=st.sampled_from([0.0, -1.0]),
       active=st.booleans())
def test_constant_chart_gives_the_bits_of_its_callable_twin(seed, n, p, chart, z0, active):
    """The built-in charts declare a constant anchor, structure and anchor
    Jacobian, which the fused flow, the block audit and the validators read
    once.  The same system on a chart of plain callables returning the same
    arrays, read at every call, gives the same bytes: the flow (or the time
    of its ChatteringError), its audit and both validator reports."""
    rng = np.random.default_rng(seed)
    sys = random_control_affine(rng, n, p, chart, active)
    alg = sys.alg
    rho, c, jac = (np.array(at(np.zeros(n)))
                   for at in (alg.anchor_at, alg.structure_at, alg.anchor_jacobian_at))
    twin = replace(sys, alg=ChartAlgebroid(n, alg.fiber_dim, lambda x: rho, lambda x: c,
                                           anchor_jacobian=lambda x: jac, name=alg.name))
    x0, z_init = rng.uniform(-0.5, 0.5, n), rng.normal(size=alg.fiber_dim)
    points = rng.uniform(-1.0, 1.0, size=(20, n))

    def bits(s):
        charts = (repr(validate_skew(s.alg, points, 1e-6)),
                  repr(validate_anchor_morphism(s.alg, points, 1e-6)))
        try:
            flow = integrate_pmp_flow(s, x0, z_init, z0, 0.0, 0.05, step=2.5e-3)
        except ChatteringError as exc:
            return charts + (exc.t,)
        audit = verify_extremal(s, flow.path, flow.costate, flow.u_nodes, mode="fixed-time")
        return charts + flow_bits(flow) + (flow.path.base.tobytes(), repr(audit.to_dict()))

    assert bits(sys) == bits(twin)


@PROPERTY
@given(seed=SEEDS, m=st.integers(2, 4), n_breaks=st.integers(0, 3), frame=st.booleans())
def test_matrix_segments_are_bit_identical_to_node_by_node_steps(seed, m, n_breaks, frame):
    rng = np.random.default_rng(seed)
    mats = rng.normal(size=(n_breaks + 1, m, m)) * rng.uniform(0.5, 3.0)
    t1 = float(rng.uniform(0.5, 3.0))
    grid = TimeGrid(0.0, t1, float(rng.uniform(2e-3, 5e-2)),
                    tuple(np.linspace(0.0, t1, n_breaks + 2)[1:-1] + rng.uniform(-0.01, 0.01)))
    y0 = np.eye(m).ravel() if frame else rng.normal(size=m)
    nodes, y, expected = grid.nodes, y0, [y0]
    for seg, (i0, i1) in enumerate(grid.segment_bounds):
        advance = _linear_rk4(mats[seg])
        for i in range(i0, i1):
            y = advance(nodes[i], y, nodes[i + 1] - nodes[i])
            expected.append(y)
    got = integrate_segmented(lambda seg, lo, hi: mats[seg], grid, y0)
    assert got.tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("mode, error, messages", [
    ("warn", IntegrationDivergedError, {"overflow encountered in matmul"}),
    ("ignore", IntegrationDivergedError, set()),
    ("raise", FloatingPointError, set())])
@pytest.mark.parametrize("run", ["flow", "vector", "frame"])
def test_divergence_stops_at_the_first_non_finite_node(run, mode, error, messages):
    """A held so(3) rotation stepped far past RK4's stability bound grows by a
    fixed factor per step and overflows at t = 1400.  Blocks stop there, with
    the warnings of a node-by-node loop under the caller's errstate: a block
    stepping on from an overflowed state would add "invalid value" ones."""
    sys = build_so3_bang_bang_system((1, 0, 0), (0, 0, 0))
    z = np.array([0.2, 0.9, 1.1])
    K = _point_table(sys, sys.control_space.values).K[0]
    grid = TimeGrid(0.0, 2000.0, 4.0, (1000.0,))
    call = {"flow": lambda: integrate_pmp_flow(sys, np.zeros(0), z, -1.0, 0.0, 2000.0, step=4.0),
            "vector": lambda: integrate_segmented(lambda seg, lo, hi: K, grid, z),
            "frame": lambda: integrate_segmented(lambda seg, lo, hi: K, grid, np.eye(3).ravel())}
    with warnings.catch_warnings(record=True) as caught, np.errstate(all=mode):
        warnings.simplefilter("always")
        with pytest.raises(error) as raised:
            call[run]()
    if error is IntegrationDivergedError:
        assert raised.value.t == 1400.0
    assert {str(w.message) for w in caught} == messages


@pytest.mark.parametrize("mode, error, messages", [
    ("warn", IntegrationDivergedError, {"overflow encountered in add"}),
    ("ignore", IntegrationDivergedError, set()),
    ("raise", FloatingPointError, set())])
def test_box_flow_divergence_stops_at_the_first_non_finite_node(mode, error, messages):
    """f = (1 + x) u on TR with L = u^2/2 over |u| <= 1: from x = 1e303 the
    maximizer sits on the bound u = 1, so x grows by RK4's factor 2.708 per
    unit step and overflows at t = 11, inside the one callable segment of the
    box flow.  The time and the warnings are those of a node-by-node loop."""
    sys = control_affine(tangent_bundle(1), ([[1.0]], [[[1.0]]]), ([[1.0]], None), 1.0)
    with warnings.catch_warnings(record=True) as caught, np.errstate(all=mode):
        warnings.simplefilter("always")
        with pytest.raises(error) as raised:
            integrate_pmp_flow(sys, [1e303], [1.0], -1.0, 0.0, 20.0, step=1.0)
    if error is IntegrationDivergedError:
        assert raised.value.t == 11.0
    assert {str(w.message) for w in caught} == messages


@pytest.mark.parametrize("mode, error, detail, messages", [
    ("warn", IntegrationDivergedError, 25.0,
     {"overflow encountered in multiply", "invalid value encountered in dot"}),
    ("ignore", IntegrationDivergedError, 25.0, set()),
    ("raise", FloatingPointError, "overflow encountered in multiply", set())])
def test_box_flow_divergence_inside_a_step_keeps_the_array_steps(mode, error, detail,
                                                                  messages):
    """The system above from x = 1e303 and z = 1e-10 at step 5: at t = 20,
    x = 4.5e307, and the step to t = 25 first overflows in (h / 2) k2, the
    input of k3, before its final sum.  The fused step runs on Python
    floats, which do not warn, so it takes that step again on arrays: the
    error, its time (or message) and the warnings are those of array steps."""
    sys = control_affine(tangent_bundle(1), ([[1.0]], [[[1.0]]]), ([[1.0]], None), 1.0)
    with warnings.catch_warnings(record=True) as caught, np.errstate(all=mode):
        warnings.simplefilter("always")
        with pytest.raises(error) as raised:
            integrate_pmp_flow(sys, [1e303], [1e-10], -1.0, 0.0, 50.0, step=5.0)
    assert (raised.value.t if error is IntegrationDivergedError else str(raised.value)) == detail
    assert {str(w.message) for w in caught} == messages


def test_blocks_warn_only_where_node_by_node_steps_do():
    """[e1, e2] = eps e2 with f(u) = (u B, A) over {+1, -1}: the covector's
    second entry grows under u = +1 and shrinks under u = -1.  Started near
    the overflow of H = u B z1 + A z2, the flow switches to -1 just before H
    would overflow under +1, so a block that kept the H table of the nodes
    it steps past the switch would warn of an overflow never met."""
    eps, A, B, step = 1e-3, 1e6, 10.0, 0.5
    c = np.zeros((2, 2, 2))
    c[1, 0, 1], c[1, 1, 0] = eps, -eps
    a, b = np.array([0.0, A]), np.array([B, 0.0])
    sys = ControlSystem(lie_algebra(c), lambda x, u: a + u[0] * b, lambda x, u: 0.0,
                        FiniteSet(([1.0], [-1.0])))
    s = 0.9 * np.finfo(float).max / A
    z = np.array([eps * A * s * 10 * step, s])   # z1 reaches 0 near the tenth node

    def run(block):
        with mock.patch.object(pmp, "_FLOW_BLOCK", block), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            flow = integrate_pmp_flow(sys, np.zeros(0), z, 0.0, 0.0, 40 * step, step=step)
        return flow, {str(w.message) for w in caught}

    (flow, messages), (reference, reference_messages) = run(pmp._FLOW_BLOCK), run(1)
    assert len(reference.switch_times) == 1
    assert flow_bits(flow) == flow_bits(reference)
    assert messages == reference_messages
