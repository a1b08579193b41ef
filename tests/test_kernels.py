"""Property tests of the per-segment linear kernels over a point: the held
control's constant matrix, the fixed Hamiltonian table of a finite set, and
development by composed step propagators."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from algopt.control import ControlSystem, FiniteSet, _flow_rhs, costate_rhs
from algopt.core import lie_algebra, so3_algebra
from algopt.numerics import TimeGrid
from algopt.paths import EPath
from algopt.pmp import develop_to_group, integrate_pmp_flow
from algopt.scenarios import build_so3_bang_bang_system
from conftest import skew_hat

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
    g = develop_to_group(alg, path, rep, reorthonormalize_every=every)
    assert np.abs(g - reference_development(path, rep, every, skew)).max() <= 1e-12


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(seed=SEEDS)
def test_so3_flow_keeps_casimir_and_zero_hamiltonian(seed):
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=3), rng.normal(size=3)
    while True:   # a covector on the level z.a + |z.b| = 1, that is H = 0 at z0 = -1
        z = rng.normal(size=3)
        level = z @ a + abs(z @ b)
        if level > 0.3 * np.linalg.norm(z):
            break
    z = z / level
    sys = build_so3_bang_bang_system(a, b)
    flow = integrate_pmp_flow(sys, np.zeros(0), z, -1.0, 0.0, 2.0, step=2e-3)
    norms = np.linalg.norm(flow.costate.z, axis=1)
    assert np.abs(norms - norms[0]).max() <= 1e-8
    assert np.abs(flow.h_nodes).max() <= 1e-6
