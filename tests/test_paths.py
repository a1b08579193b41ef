import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from algopt.core import (ChartAlgebroid, affine_matrix_field, atiyah_trivial, so3_structure,
                         tangent_bundle, validate_anchor_morphism)
from algopt.errors import AdmissibilityWarning, CompositionError, IntegrationDivergedError
from algopt.numerics import TimeGrid, _rk4_sampled
from algopt.paths import (EPath, HomotopyField, HomotopyReport, _sampler,
                          admissibility_residual, compose_paths,
                          generate_infinitesimal_homotopy, homotopy_residual,
                          null_path, reparameterize_unit, shrink_homotopy)
from conftest import scaled_anchor_pair, skew_hat


def line_path(t0=0.0, t1=1.0, step=1e-2, speed=1.0, x_start=0.0):
    grid = TimeGrid(t0, t1, step)
    ts = grid.nodes
    base = (x_start + (ts - t0))[:, None]
    fiber = np.full((len(ts), 1), speed)
    return EPath(grid, base, fiber)


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

def test_admissibility_zero_anchor(so3, rng):
    grid = TimeGrid(0.0, 1.0, 0.05)
    fiber = rng.normal(size=(grid.n_nodes, 3))
    p = EPath(grid, np.zeros((grid.n_nodes, 0)), fiber)
    assert admissibility_residual(so3, p) == 0.0


def test_admissibility_unit_speed():
    tb = tangent_bundle(1)
    assert admissibility_residual(tb, line_path(step=1e-3)) < 1e-8


def test_admissibility_wrong_fiber():
    tb = tangent_bundle(1)
    p = line_path(step=1e-2)
    wrong = EPath(p.grid, p.base, 2.0 * p.fiber)
    assert abs(admissibility_residual(tb, wrong) - 1.0) < 1e-9


def test_admissibility_needs_three_nodes():
    tb = tangent_bundle(1)
    grid = TimeGrid.from_nodes([0.0, 1.0])
    p = EPath(grid, np.zeros((2, 1)), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        admissibility_residual(tb, p)


# ---------------------------------------------------------------------------
# composition and reparameterization
# ---------------------------------------------------------------------------

def test_compose_with_null_path():
    tb = tangent_bundle(1)
    p = line_path(0.0, 1.0, 0.1)
    q = null_path(tb, p.base[-1], 0.0, 0.5, 0.1)
    out = compose_paths(p, q)
    assert out.grid.t1 == 1.5
    assert 1.0 in out.grid.breakpoints
    n_p = p.grid.n_nodes
    assert np.array_equal(out.fiber[:n_p - 1], p.fiber[:-1])
    assert np.all(out.fiber[n_p - 1:] == 0.0)
    assert np.all(out.base[n_p - 1:] == p.base[-1])


def test_compose_unit_segments():
    tb = tangent_bundle(1)
    p = line_path(0.0, 1.0, 0.1, 1.0, 0.0)
    q = line_path(0.0, 1.0, 0.1, 1.0, 1.0)
    out = compose_paths(p, q)
    assert out.grid.t0 == 0.0 and out.grid.t1 == 2.0
    assert abs(out.base[-1, 0] - 2.0) < 1e-12
    assert admissibility_residual(tb, out) < 1e-8


def test_compose_endpoint_mismatch():
    p = line_path(0.0, 1.0, 0.1, 1.0, 0.0)
    q = line_path(0.0, 1.0, 0.1, 1.0, 1.5)
    with pytest.raises(CompositionError) as err:
        compose_paths(p, q)
    assert abs(err.value.gap - 0.5) < 1e-12


def test_reparameterize_unit_interval_is_identity():
    p = line_path(0.0, 1.0, 0.1)
    out = reparameterize_unit(p)
    assert np.array_equal(out.base, p.base)
    assert np.array_equal(out.fiber, p.fiber)
    assert np.array_equal(out.grid.nodes, p.grid.nodes)


def test_reparameterize_scales_fiber():
    grid = TimeGrid(0.0, 2.0, 0.1)
    v = np.array([0.5, -1.0, 2.0])
    p = EPath(grid, np.zeros((grid.n_nodes, 0)), np.tile(v, (grid.n_nodes, 1)))
    out = reparameterize_unit(p)
    assert out.grid.t0 == 0.0 and out.grid.t1 == 1.0
    assert np.allclose(out.fiber, 2.0 * v)


def test_reparameterize_preserves_admissibility():
    tb = tangent_bundle(1)
    grid = TimeGrid(0.0, 2.0, 1e-3)
    ts = grid.nodes
    p = EPath(grid, (ts ** 2)[:, None], (2 * ts)[:, None])
    before = admissibility_residual(tb, p)
    q = compose_paths(null_path(tb, np.zeros(1), 0.0, 0.5, 1e-3), p)
    after = admissibility_residual(tb, reparameterize_unit(q))
    assert after <= before + 5 * grid.step


# ---------------------------------------------------------------------------
# homotopy residual and generation
# ---------------------------------------------------------------------------

def constant_field(alg, a_vec, T=41, E=17, base_point=None):
    grid = TimeGrid(0.0, 1.0, 1.0 / (T - 1))
    eps = np.linspace(0.0, 1.0, E)
    n = alg.base_dim
    base = np.tile(np.zeros(n) if base_point is None else base_point, (T, E, 1))
    a = np.tile(np.asarray(a_vec, dtype=float), (T, E, 1))
    return HomotopyField(grid, eps, base, a)


def test_residual_zero_for_eps_independent_pair(so3):
    field = constant_field(so3, [0.4, -0.2, 0.1])
    filled = HomotopyField(field.t_grid, field.eps_nodes, field.base, field.a,
                           np.zeros_like(field.a))
    rep = homotopy_residual(so3, filled)
    assert rep.equation_residual == 0.0
    assert rep.max_residual == 0.0


@pytest.mark.parametrize("position", [0, 1, 2])
def test_max_residual_keeps_a_nan(position):
    values = [0.0, 1e-3, 2.0]
    values[position] = np.nan
    assert np.isnan(HomotopyReport(*values).max_residual)


@pytest.mark.parametrize("field", ["anchor", "structure"])
def test_sampler_broadcasts_a_constant_field_read_only(field):
    """On the Atiyah chart TR^2 x so(3) a constant field is read once and
    broadcast; it equals the per-point stack of the chart's values."""
    alg = atiyah_trivial(2, so3_structure())
    points = np.random.default_rng(3).normal(size=(4, 5, 2))
    at = alg.anchor_at if field == "anchor" else alg.structure_at
    values = _sampler(alg, field)(points)
    expected = np.array([at(x) for x in points.reshape(-1, 2)])
    assert values.shape == points.shape[:-1] + at(points[0, 0]).shape
    assert values.tobytes() == expected.tobytes()
    assert not values.flags.writeable


def test_residual_detects_perturbation(so3):
    v = np.array([0.4, -0.2, 0.1])
    field = constant_field(so3, v)
    gen, _ = generate_infinitesimal_homotopy(so3, field, np.zeros((17, 3)))
    base_res = homotopy_residual(so3, gen).equation_residual
    bumped = HomotopyField(gen.t_grid, gen.eps_nodes, gen.base, gen.a,
                           gen.b + np.array([1.0, 0.0, 0.0]))
    col = so3.bracket(np.zeros(0), np.array([1.0, 0.0, 0.0]), v)
    lower_bound = np.abs(col).max() - base_res - 1e-9
    assert homotopy_residual(so3, bumped).equation_residual >= lower_bound


def test_generate_zero_source(so3):
    field = constant_field(so3, [0.0, 0.0, 0.0])
    out, chi = generate_infinitesimal_homotopy(so3, field, np.zeros((17, 3)))
    assert np.all(out.b == 0.0)
    assert chi == 0.0


def test_generate_stops_at_the_first_non_finite_node(so3):
    """A source of 1e300 overflows b on the first step (t = 0.025), which
    raises there instead of carrying infinities to the end."""
    field = constant_field(so3, [1e300, 1e300, 0.0])
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(IntegrationDivergedError) as err:
        generate_infinitesimal_homotopy(so3, field, np.full((17, 3), 1e10))
    assert err.value.t == 0.025


def test_generate_so3_rotation_against_expm(so3):
    from scipy.linalg import expm

    v = np.array([0.3, -0.5, 0.8])
    w = np.array([1.0, 0.2, -0.4])
    field = constant_field(so3, v, T=201, E=9)
    out, chi = generate_infinitesimal_homotopy(so3, field, np.tile(w, (9, 1)))
    expected = expm(-skew_hat(v)) @ w
    assert np.abs(out.b[-1, 0] - expected).max() < 1e-10
    norms = np.linalg.norm(out.b[:, 0, :], axis=1)
    assert np.abs(norms - norms[0]).max() < 1e-10
    assert chi == 0.0


def test_generate_classical_case_matches_eps_derivative():
    tb = tangent_bundle(1)
    T, E = 101, 21
    grid = TimeGrid(0.0, 1.0, 1.0 / (T - 1))
    eps = np.linspace(0.0, 1.0, E)
    ts = grid.nodes
    # x(t, eps) = sin(t) (1 + eps^2): quadratic in eps, so eps-differences are exact
    base = (np.sin(ts)[:, None] * (1.0 + eps[None, :] ** 2))[:, :, None]
    a = (np.cos(ts)[:, None] * (1.0 + eps[None, :] ** 2))[:, :, None]
    field = HomotopyField(grid, eps, base, a)
    b0 = (np.sin(0.0) * 2.0 * eps)[:, None]
    out, chi = generate_infinitesimal_homotopy(tb, field, b0)
    b_exact = (np.sin(ts)[:, None] * 2.0 * eps[None, :])[:, :, None]
    step = grid.step
    assert np.abs(out.b - b_exact).max() < 10 * step ** 2
    assert chi < 10 * step ** 2


def test_generate_is_deterministic(so3):
    field = constant_field(so3, [0.2, 0.7, -0.1])
    b0 = np.tile([0.5, 0.0, 0.3], (17, 1))
    out1, chi1 = generate_infinitesimal_homotopy(so3, field, b0)
    out2, chi2 = generate_infinitesimal_homotopy(so3, field, b0)
    assert np.array_equal(out1.b, out2.b)
    assert chi1 == chi2


def test_generate_gronwall_bound(so3):
    v = np.array([0.3, -0.5, 0.8])
    field = constant_field(so3, v, T=101, E=9)
    b0 = np.tile([0.5, 0.1, -0.2], (9, 1))
    delta = 1e-3
    out1, _ = generate_infinitesimal_homotopy(so3, field, b0)
    out2, _ = generate_infinitesimal_homotopy(so3, field, b0 + delta)
    diff = np.abs(out2.b - out1.b).max()
    c = so3.structure_at(np.zeros(0))
    c_norm = np.sqrt((c ** 2).sum())   # |[u, v]| <= c_norm |u| |v|
    a_max = float(np.linalg.norm(v))
    bound = delta * np.sqrt(3) * np.exp(c_norm * a_max * 1.0)
    assert diff <= bound


def test_chi_monitor_flags_non_al_chart():
    broken, fixed = scaled_anchor_pair()
    T, E = 201, 17
    grid = TimeGrid(0.0, 1.0, 1.0 / (T - 1))
    eps = np.linspace(0.0, 1.0, E)
    ts = grid.nodes
    base = ((1.0 + eps)[None, :] * np.exp(ts)[:, None])[:, :, None]
    a = np.zeros((T, E, 2))
    a[:, :, 1] = 1.0
    b0 = np.zeros((E, 2))
    b0[:, 0] = 1.0
    field = HomotopyField(grid, eps, base, a)
    _, chi_good = generate_infinitesimal_homotopy(fixed, field, b0)
    with pytest.warns(AdmissibilityWarning):
        _, chi_bad = generate_infinitesimal_homotopy(broken, field, b0)
    assert chi_good < 1e-6
    assert chi_bad > 1e-2


def generate_per_eps(alg, field, b0):
    """Reference generator: one structure evaluation and one einsum per (RK4
    stage, eps sample), and chi point by point."""
    T, E, m = field.a.shape
    edge = 2 if E >= 3 else 1
    da_de = np.gradient(field.a, field.eps_nodes, axis=1, edge_order=edge)

    def rhs(x_lv, a_lv, da_lv, B):
        out = np.empty_like(B)
        for e in range(E):
            c = alg.structure_at(x_lv[e])
            out[e] = da_lv[e] + np.einsum("ijk,j,k->i", c, B[e], a_lv[e])
        return out

    nodes = field.t_grid.nodes
    b = np.empty((T, E, m))
    b[0] = b0
    for k in range(T - 1):
        b[k + 1] = _rk4_sampled(rhs, (field.base[k], field.a[k], da_de[k]),
                                (field.base[k + 1], field.a[k + 1], da_de[k + 1]),
                                b[k], nodes[k + 1] - nodes[k])
    dx_de = np.gradient(field.base, field.eps_nodes, axis=1, edge_order=edge)
    chi = max(float(np.linalg.norm(dx_de[t, e] - alg.anchor_at(field.base[t, e]) @ b[t, e]))
              for t in range(T) for e in range(E))
    return b, chi


@pytest.mark.parametrize("n, m, E, T", [(0, 3, 4, 9), (1, 2, 2, 11), (2, 3, 5, 3),
                                        (3, 4, 11, 21), (2, 1, 7, 9)])
def test_generator_matches_a_per_eps_loop(n, m, E, T):
    """Stepping all eps at once keeps the arithmetic of one einsum per (stage,
    eps): b is bit for bit the same on x-dependent anchor and structure; chi
    sums its norms in another order."""
    rng = np.random.default_rng(n + 10 * m + 100 * E)
    anchor, anchor_jac = affine_matrix_field(rng.normal(size=(n, m)),
                                             0.3 * rng.normal(size=(n, m, n)))
    c0, c1 = rng.normal(size=(m, m, m)), 0.3 * rng.normal(size=(m, m, m, n))
    c0, c1 = c0 - c0.swapaxes(1, 2), c1 - c1.swapaxes(1, 2)
    alg = ChartAlgebroid(n, m, anchor, lambda x: c0 + c1 @ x, anchor_jacobian=anchor_jac)
    grid = TimeGrid.from_nodes(np.sort(np.r_[0.0, 1.0, rng.uniform(0.01, 0.99, T - 2)]))
    eps = np.sort(np.r_[0.0, rng.uniform(0.05, 1.0, E - 1)])
    base = 0.1 * rng.normal(size=(T, E, n)) + np.linspace(0.0, 1.0, T)[:, None, None]
    field = HomotopyField(grid, eps, base, rng.normal(size=(T, E, m)))
    b0 = rng.normal(size=(E, m))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdmissibilityWarning)   # the family is not admissible
        out, chi = generate_infinitesimal_homotopy(alg, field, b0)
    b_ref, chi_ref = generate_per_eps(alg, field, b0)
    assert out.b.tobytes() == b_ref.tobytes()
    assert chi == pytest.approx(chi_ref, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("eps", [[0.0], [0.0, 0.5, 0.5, 1.0]])
def test_homotopy_field_rejects_bad_eps_nodes(eps):
    """One eps node, or a repeated one, is refused at construction; it used
    to reach np.gradient (IndexError) or the first RK4 step (divergence)."""
    T, E = 11, len(eps)
    with pytest.raises(ValueError, match="eps_nodes"):
        HomotopyField(TimeGrid(0.0, 1.0, 0.1), eps, np.zeros((T, E, 1)), np.ones((T, E, 1)))


UPPER_TRIANGULAR = np.array([[[1.0, 0.0], [0.0, 0.0]],
                             [[0.0, 1.0], [0.0, 0.0]],
                             [[0.0, 0.0], [0.0, 1.0]]])


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_anchor_morphism_gives_admissible_homotopies(seed):
    """The upper-triangular 2x2 matrices act linearly on R^2, conjugated by a
    random P and mixed by a random basis change Q: rho(x) e_j = A_j x and
    [A_j, A_k] = -c^i_jk A_i.  Along x(t, eps) = expm(t K)(x0 + eps v) with
    K = a0^i A_i the generated b keeps d_eps x = rho(x) b; with the bracket
    set to zero the morphism check fails and so does the monitor."""
    rng = np.random.default_rng(seed)
    P, Q = rng.normal(size=(2, 2)), rng.normal(size=(3, 3))
    assume(np.linalg.cond(P) < 10 and np.linalg.cond(Q) < 10)
    A = np.einsum("ij,iab->jab", Q, P @ UPPER_TRIANGULAR @ np.linalg.inv(P))
    commutators = A[:, None] @ A[None, :] - A[None, :] @ A[:, None]
    c = np.linalg.lstsq(A.reshape(3, 4).T, -commutators.reshape(9, 4).T,
                        rcond=None)[0].reshape(3, 3, 3)
    anchor, anchor_jac = affine_matrix_field(np.zeros((2, 3)), A.transpose(1, 0, 2))

    T, E = 201, 9
    grid = TimeGrid(0.0, 1.0, 1.0 / (T - 1))
    eps = np.linspace(0.0, 1.0, E)
    a0, x0, v = rng.uniform(-1.0, 1.0, 3), rng.normal(size=2), rng.normal(size=2)
    flow = expm(grid.nodes[:, None, None] * np.einsum("i,iab->ab", a0, A))
    x = np.einsum("tab,eb->tea", flow, x0 + eps[:, None] * v)   # linear in eps
    field = HomotopyField(grid, eps, x, np.tile(a0, (T, E, 1)))
    b0 = np.stack([np.linalg.lstsq(anchor(x0 + e * v), v, rcond=None)[0] for e in eps])
    points = x.reshape(-1, 2)[::97]

    al = ChartAlgebroid(2, 3, anchor, lambda x: c, anchor_jacobian=anchor_jac)
    assert validate_anchor_morphism(al, points, 1e-9)["passed"]
    _, chi = generate_infinitesimal_homotopy(al, field, b0)
    assert chi <= 1e-6

    flat = ChartAlgebroid(2, 3, anchor, lambda x: np.zeros((3, 3, 3)), anchor_jacobian=anchor_jac)
    assert not validate_anchor_morphism(flat, points, 1e-9)["passed"]
    with pytest.warns(AdmissibilityWarning):
        _, chi_flat = generate_infinitesimal_homotopy(flat, field, b0)
    assert chi_flat >= 1e-3


# ---------------------------------------------------------------------------
# shrinking
# ---------------------------------------------------------------------------

def smooth_path(step=1e-3):
    tb = tangent_bundle(2)
    grid = TimeGrid(0.0, 1.0, step)
    ts = grid.nodes
    base = np.column_stack([np.sin(ts), ts ** 2])
    fiber = np.column_stack([np.cos(ts), 2 * ts])
    return tb, EPath(grid, base, fiber)


def test_shrink_slices():
    tb, p = smooth_path()
    field = shrink_homotopy(tb, p, n_t=33, n_eps=33)
    assert np.abs(field.a[:, 0, :]).max() == 0.0          # eps = 0 slice vanishes
    assert np.allclose(field.a[:, -1, :],                 # eps = 1 recovers a
                       p.fiber_at(field.t_grid.nodes), atol=1e-12)
    assert np.abs(field.b[0, :, :]).max() == 0.0          # initial deformation null
    assert np.allclose(field.b[-1, :, :],
                       p.fiber_at(field.eps_nodes), atol=1e-12)


def test_shrink_requires_unit_interval():
    tb = tangent_bundle(1)
    p = EPath(TimeGrid(0.0, 2.0, 0.1), np.zeros((21, 1)), np.zeros((21, 1)))
    with pytest.raises(ValueError):
        shrink_homotopy(tb, p)


def test_shrink_residual_halves_under_refinement():
    tb, p = smooth_path()
    coarse = homotopy_residual(tb, shrink_homotopy(tb, p, 33, 33)).equation_residual
    fine = homotopy_residual(tb, shrink_homotopy(tb, p, 65, 65)).equation_residual
    assert coarse / fine >= 2.0
