"""Shared fixtures: reference charts and control systems used across modules."""

import numpy as np
import pytest

from algopt.control import ControlSignal, control_affine
from algopt.core import (ChartAlgebroid, atiyah_trivial, lie_algebra, so3_algebra,
                         so3_structure, tangent_bundle)
from algopt.scenarios import WongFixture, build_so3_bang_bang_system, default_config


def skew_hat(u):
    """so(3) matrix representation: hat(u) v = u x v."""
    return np.array([[0.0, -u[2], u[1]],
                     [u[2], 0.0, -u[0]],
                     [-u[1], u[0], 0.0]])


def scaled_anchor_pair():
    """Charts sharing the anchor rho(x) = [1, x] on R^1 with fiber R^2.

    With the zero bracket the anchor-morphism axiom fails (residual 1); adding
    the constant bracket c^1_12 = 1 repairs it.  The pair turns the
    algebroid-morphism condition into an observable difference.
    """
    def anchor(x):
        return np.array([[1.0, float(x[0])]])

    def anchor_jac(x):
        return np.array([[[0.0], [1.0]]])

    c_fix = np.zeros((2, 2, 2))
    c_fix[0, 0, 1] = 1.0
    c_fix[0, 1, 0] = -1.0
    broken = ChartAlgebroid(1, 2, anchor, lambda x: np.zeros((2, 2, 2)),
                            anchor_jacobian=anchor_jac, name="scaled-anchor-no-bracket")
    fixed = ChartAlgebroid(1, 2, anchor, lambda x: c_fix,
                           anchor_jacobian=anchor_jac, name="scaled-anchor-bracketed")
    return broken, fixed


def non_skew_chart():
    """Zero-anchor chart with a symmetric bracket entry c^1_11 = 1."""
    c = np.zeros((3, 3, 3))
    c[0, 0, 0] = 1.0
    return ChartAlgebroid(0, 3, lambda x: np.zeros((0, 3)), lambda x: c, name="non-skew")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def so3():
    return so3_algebra()


@pytest.fixture
def bang_bang_system():
    return build_so3_bang_bang_system([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])


@pytest.fixture
def wong_fixture():
    params = default_config("wong-so3-r2")["params"]
    return WongFixture(so3_structure(),
                       np.asarray(params["connection_const"], dtype=float),
                       np.asarray(params["connection_linear"], dtype=float))


def random_control_affine(rng, n, p, chart, active):
    """A random control_affine system with x-dependent F and G (constant over
    a point) on TR^n (``chart`` "tangent"), the Atiyah chart TR^n x so(3)
    ("atiyah") or so(3) ("point", n = 0); G is positive definite near x = 0.
    The box |u_j| <= 0.3 is active at typical controls, |u_j| <= 100 not."""
    chart = {"tangent": tangent_bundle, "atiyah": lambda n: atiyah_trivial(n, so3_structure()),
             "point": lambda n: lie_algebra(so3_structure())}[chart](n)
    m = chart.fiber_dim
    R = rng.normal(size=(p, p))
    G1 = 0.1 * rng.normal(size=(p, p, n))
    return control_affine(chart, (rng.normal(size=(m, p)), rng.normal(size=(m, p, n))),
                          (R @ R.T + np.eye(p), G1 + np.swapaxes(G1, 0, 1)),
                          0.3 if active else 100.0)


def box_signal(rng, box, n_switches, t1):
    """A ControlSignal on [0, t1] with values drawn inside the box and
    switches at least 0.05 apart, away from the ends."""
    while True:
        switches = np.sort(rng.uniform(0.05, t1 - 0.05, size=n_switches))
        if np.all(np.diff(switches) > 0.05):
            break
    values = box.lower + (box.upper - box.lower) * rng.random((n_switches + 1, box.dim))
    return ControlSignal(0.0, t1, tuple(switches), tuple(values))
