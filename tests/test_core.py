import numpy as np
import pytest

from algopt.core import (ChartAlgebroid, Section, atiyah_trivial,
                         hamiltonian_vector_field, lie_algebra, morphism_residual,
                         product_with_time, so3_algebra, so3_structure,
                         tangent_bundle, tangent_lift_section,
                         validate_anchor_morphism, validate_skew)
from conftest import non_skew_chart, scaled_anchor_pair


def sample_points(rng, n, count=100):
    return rng.uniform(-1.0, 1.0, size=(count, n))


# ---------------------------------------------------------------------------
# the anchor
# ---------------------------------------------------------------------------

def test_anchor_identity():
    tb = tangent_bundle(2)
    assert np.allclose(tb.anchor_at(np.zeros(2)) @ [1.0, 2.0], [1.0, 2.0])


def test_anchor_zero_on_lie_algebra(so3):
    out = so3.anchor_at(np.zeros(0)) @ [3.0, -1.0, 2.0]
    assert out.shape == (0,)


def test_anchor_diagonal_example():
    alg = ChartAlgebroid(2, 2, lambda x: np.diag([x[0], 1.0]),
                         lambda x: np.zeros((2, 2, 2)))
    out = alg.anchor_at(np.array([2.0, 0.0])) @ np.array([3.0, 4.0])
    assert np.allclose(out, [6.0, 4.0])


def test_anchor_dimension_mismatch():
    """A fiber vector of the wrong length, and an anchor field of the wrong
    shape, raise ValueError."""
    tb = tangent_bundle(2)
    with pytest.raises(ValueError):
        tb.anchor_at(np.zeros(2)) @ np.ones(3)
    wrong = ChartAlgebroid(2, 2, lambda x: np.eye(3), lambda x: np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match="anchor returned shape"):
        wrong.anchor_at(np.zeros(2))


# ---------------------------------------------------------------------------
# axiom validation
# ---------------------------------------------------------------------------

def test_skew_so3(so3, rng):
    rep = validate_skew(so3, sample_points(rng, 0, 10), tol=1e-12)
    assert rep["passed"] and rep["value"] == 0.0


def test_skew_crafted_failure():
    rep = validate_skew(non_skew_chart(), np.zeros((1, 0)), tol=1e-6)
    assert not rep["passed"]
    assert rep["value"] == 2.0


def test_skew_tangent_bundle(rng):
    rep = validate_skew(tangent_bundle(3), sample_points(rng, 3, 20), tol=1e-12)
    assert rep["passed"] and rep["value"] == 0.0


def test_morphism_zero_anchor(so3, rng):
    rep = validate_anchor_morphism(so3, sample_points(rng, 0, 5), 1e-10)
    assert rep["passed"] and rep["value"] == 0.0


def test_morphism_tangent_bundle(rng):
    rep = validate_anchor_morphism(tangent_bundle(2), sample_points(rng, 2, 20),
                                   1e-8)
    assert rep["passed"]


def test_morphism_constant_bracket_on_tm_fails(rng):
    c = np.zeros((2, 2, 2))
    c[0, 0, 1] = 1.0
    c[0, 1, 0] = -1.0
    alg = ChartAlgebroid(2, 2, lambda x: np.eye(2), lambda x: c)
    res = morphism_residual(alg, np.zeros(2))
    assert abs(np.abs(res).max() - 1.0) < 1e-9
    rep = validate_anchor_morphism(alg, sample_points(rng, 2, 10), 1e-6)
    assert not rep["passed"]


def test_morphism_distinguishes_scaled_anchor_pair(rng):
    broken, fixed = scaled_anchor_pair()
    pts = sample_points(rng, 1, 50)
    assert not validate_anchor_morphism(broken, pts, 1e-6)["passed"]
    assert validate_anchor_morphism(fixed, pts, 1e-6)["passed"]


def test_builtin_charts_pass_axioms(rng):
    charts = [tangent_bundle(2), so3_algebra(), atiyah_trivial(2, so3_structure()),
              product_with_time(so3_algebra())]
    for alg in charts:
        pts = sample_points(rng, alg.base_dim, 100)
        assert validate_skew(alg, pts, 1e-6)["passed"], alg.name
        assert validate_anchor_morphism(alg, pts, 1e-6)["passed"], alg.name


def test_fd_matches_analytic_anchor_jacobian(rng):
    _, fixed = scaled_anchor_pair()
    no_jac = ChartAlgebroid(fixed.base_dim, fixed.fiber_dim, fixed.anchor,
                            fixed.structure)
    for x in sample_points(rng, 1, 20):
        diff = fixed.anchor_jacobian_at(x) - no_jac.anchor_jacobian_at(x)
        assert np.abs(diff).max() < 1e-6


# ---------------------------------------------------------------------------
# tangent lift
# ---------------------------------------------------------------------------

def test_lift_constant_section_zero_bracket():
    tb = tangent_bundle(2)
    f = Section.constant([1.0, -1.0])
    xdot, ydot = tangent_lift_section(tb, f, np.zeros(2), np.array([0.3, 0.4]))
    assert np.allclose(xdot, [1.0, -1.0])
    assert np.allclose(ydot, 0.0)


def test_lift_so3_bracket_term(so3):
    f = Section.constant([1.0, 0.0, 0.0])
    xdot, ydot = tangent_lift_section(so3, f, np.zeros(0), np.array([0.0, 1.0, 0.0]))
    assert xdot.shape == (0,)
    assert np.allclose(ydot, [0.0, 0.0, -1.0])


def test_lift_scalar_tangent_bundle():
    tb = tangent_bundle(1)
    f = Section(eval=lambda x: np.array([x[0]]), jacobian=lambda x: np.eye(1))
    xdot, ydot = tangent_lift_section(tb, f, np.array([1.0]), np.array([2.0]))
    assert abs(xdot[0] - 1.0) < 1e-12
    assert abs(ydot[0] - 2.0) < 1e-12


def test_lift_base_component_is_the_anchor_image(rng):
    alg = atiyah_trivial(2, so3_structure())
    f = Section.constant(rng.normal(size=5))
    for _ in range(5):
        x = rng.normal(size=2)
        y = rng.normal(size=5)
        xdot, _ = tangent_lift_section(alg, f, x, y)
        assert np.array_equal(xdot, alg.anchor_at(x) @ f.value(x))


def test_lift_of_a_section_without_a_jacobian_takes_differences(rng):
    """Section.jacobian_at falls back to central differences: the lift then
    matches the lift with the analytic Jacobian."""
    alg = atiyah_trivial(2, so3_structure())
    A, b = rng.normal(size=(5, 2)), rng.normal(size=5)
    exact = Section(eval=lambda x: b + A @ np.sin(x), jacobian=lambda x: A * np.cos(x))
    for _ in range(5):
        x, y = rng.normal(size=2), rng.normal(size=5)
        approx = tangent_lift_section(alg, Section(eval=exact.eval), x, y)
        for got, want in zip(approx, tangent_lift_section(alg, exact, x, y)):
            assert np.abs(got - want).max() < 1e-9


# ---------------------------------------------------------------------------
# Hamiltonian vector fields
# ---------------------------------------------------------------------------

def test_hvf_constant_hamiltonian(so3):
    xdot, xidot = hamiltonian_vector_field(so3, lambda x, xi: 4.2,
                                           np.zeros(0), np.array([0.1, 0.2, 0.3]))
    assert xdot.shape == (0,)
    assert np.allclose(xidot, 0.0, atol=1e-9)


def test_hvf_so3_linear(so3):
    f = np.array([1.0, 0.0, 0.0])
    h = lambda x, xi: float(f @ xi)
    _, xidot = hamiltonian_vector_field(so3, h, np.zeros(0), np.array([0.0, 0.0, 1.0]))
    assert np.allclose(xidot, [0.0, 1.0, 0.0], atol=1e-9)


def test_hvf_classical_constant_field():
    tb = tangent_bundle(2)
    v = np.array([2.0, -1.0])
    h = lambda x, xi: float(v @ xi)
    xdot, xidot = hamiltonian_vector_field(tb, h, np.zeros(2), np.array([0.5, 0.5]))
    assert np.allclose(xdot, v, atol=1e-9)
    assert np.allclose(xidot, 0.0, atol=1e-9)


def test_hvf_matches_dual_transport_rhs(rng):
    """Linear Hamiltonian h = <f(x), xi> generates the z0 = 0 dual flow."""
    from algopt.control import ControlSystem, FiniteSet, costate_rhs

    _, fixed = scaled_anchor_pair()
    coeff = rng.normal(size=(2, 2))

    def fx(x):
        return coeff @ np.array([1.0, x[0] ** 2])

    sys = ControlSystem(fixed, lambda x, u: fx(x), lambda x, u: 0.0,
                        FiniteSet(([0.0],)))
    h = lambda x, xi: float(fx(x) @ xi)
    for _ in range(10):
        x = rng.uniform(-1, 1, size=1)
        xi = rng.normal(size=2)
        _, xidot = hamiltonian_vector_field(fixed, h, x, xi)
        ref = costate_rhs(sys, x, np.array([0.0]), xi, 0.0)
        assert np.abs(xidot - ref).max() < 1e-10


# ---------------------------------------------------------------------------
# product with the time line
# ---------------------------------------------------------------------------

def test_product_dimensions(so3):
    ext = product_with_time(so3)
    assert ext.base_dim == 1 and ext.fiber_dim == 4
    ext2 = product_with_time(tangent_bundle(2))
    assert ext2.base_dim == 3 and ext2.fiber_dim == 3
    assert np.allclose(ext2.anchor_at(np.zeros(3)), np.eye(3))


def test_product_preserves_skew_verdict(rng):
    good = product_with_time(so3_algebra())
    pts = rng.uniform(-1, 1, size=(20, 1))
    assert validate_skew(good, pts, 1e-12)["passed"]
    bad = product_with_time(non_skew_chart())
    rep = validate_skew(bad, pts, 1e-6)
    assert not rep["passed"] and rep["value"] == 2.0


def test_lie_algebra_rejects_non_skew_table():
    c = np.zeros((2, 2, 2))
    c[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        lie_algebra(c)
