"""Each input check of the public API that no other test reaches: one row per
check, with the exception it raises and the start of its message."""

import numpy as np
import pytest

from algopt.control import ControlSignal, FiniteSet
from algopt.core import (ChartAlgebroid, Section, affine_matrix_field, lie_algebra,
                         so3_structure, tangent_bundle, tangent_lift_section,
                         validate_anchor_morphism, validate_skew)
from algopt.errors import ConfigError
from algopt.numerics import TimeGrid, grid_derivative, integrate_segmented
from algopt.paths import EPath, HomotopyField, generate_infinitesimal_homotopy, homotopy_residual
from algopt.pmp import (CostatePath, VariationSymbol, cone_support_check, develop_to_group,
                        make_needle_context, needle_vectors, sample_symbols, shoot_endpoint,
                        verify_extremal)
from algopt.scenarios import WongFixture, build_lq_system, default_config

from conftest import skew_hat

GRID = TimeGrid(0.0, 1.0, 0.5)   # three nodes
TR1 = tangent_bundle(1)
ZEROS = np.zeros((3, 1))


def field(b=None):
    """A HomotopyField on TR over GRID and two eps nodes, all zero."""
    return HomotopyField(GRID, [0.0, 1.0], np.zeros((3, 2, 1)), np.zeros((3, 2, 1)), b)


def lq_audit(mode="free-time", u_nodes=ZEROS):
    return verify_extremal(build_lq_system(), EPath(GRID, ZEROS, ZEROS),
                           CostatePath(GRID, ZEROS, -1.0), u_nodes, mode)


def lq_needle_context():
    return make_needle_context(build_lq_system(), ControlSignal.constant([0.0], 0.0, 1.0),
                               [0.0], step=0.25)


def symbol(taus, dts, tau=0.5):
    return VariationSymbol(taus, tuple([0.0] for _ in taus), tau, dts, 1.0)


CHECKS = {
    # core
    "ChartAlgebroid dimensions": (
        lambda: ChartAlgebroid(1, 0, None, None), ValueError, "need base_dim >= 0"),
    "validate_skew tol": (
        lambda: validate_skew(TR1, [[0.0]], 0.0), ValueError, "tol must be positive"),
    "validate_anchor_morphism tol": (
        lambda: validate_anchor_morphism(TR1, [[0.0]], 0.0), ValueError, "tol must be positive"),
    "tangent_lift_section fiber": (
        lambda: tangent_lift_section(TR1, Section.constant([1.0, 2.0]), [0.0], [0.0]),
        ValueError, "fiber dimension mismatch"),
    "lie_algebra table shape": (
        lambda: lie_algebra(np.zeros((2, 2, 3))), ValueError, "structure table must have shape"),
    "affine_matrix_field linear shape": (
        lambda: affine_matrix_field(np.eye(2), np.zeros((3, 2, 1))), ValueError,
        "linear coefficient shape must extend"),
    # control
    "FiniteSet dimensions": (
        lambda: FiniteSet(([0.0], [0.0, 1.0])), ValueError,
        "control values must share one dimension"),
    "ControlSignal order": (
        lambda: ControlSignal(0.0, 1.0, (0.6, 0.3), ([0.0], [1.0], [0.0])), ValueError,
        "switch times must be strictly increasing"),
    # numerics
    "TimeGrid.from_nodes order": (
        lambda: TimeGrid.from_nodes([0.0, 0.5, 0.5]), ValueError,
        "nodes must be strictly increasing"),
    "grid_derivative rows": (
        lambda: grid_derivative(GRID, np.zeros((2, 1))), ValueError,
        "sample count does not match grid nodes"),
    "integrate_segmented initial state": (
        lambda: integrate_segmented(lambda *_: np.zeros((1, 1)), GRID, [np.nan]), ValueError,
        "initial state must be finite"),
    # paths
    "EPath rows": (
        lambda: EPath(GRID, np.zeros((2, 1)), ZEROS), ValueError, "sample rows"),
    "HomotopyField leading shape": (
        lambda: HomotopyField(GRID, [0.0, 1.0], np.zeros((3, 3, 1)), np.zeros((3, 2, 1))),
        ValueError, "base has leading shape"),
    "HomotopyField b shape": (
        lambda: field(b=np.zeros((3, 2, 2))), ValueError, "b must match the shape of a"),
    "homotopy_residual without b": (
        lambda: homotopy_residual(TR1, field()), ValueError, "field has no b component"),
    "generate_infinitesimal_homotopy b0": (
        lambda: generate_infinitesimal_homotopy(TR1, field(), np.zeros(3)), ValueError,
        "b0 has shape"),
    # pmp
    "CostatePath rows": (
        lambda: CostatePath(GRID, np.zeros((2, 1)), -1.0), ValueError,
        "costate sample rows do not match grid nodes"),
    "verify_extremal mode": (
        lambda: lq_audit(mode="free"), ValueError, "unknown mode 'free'"),
    "verify_extremal u_nodes rows": (
        lambda: lq_audit(u_nodes=np.zeros((2, 1))), ValueError,
        "u_nodes rows do not match grid nodes"),
    "VariationSymbol lengths": (
        lambda: symbol((0.1,), ()), ValueError, "taus, vs and dts must have equal length"),
    "VariationSymbol spike order": (
        lambda: symbol((0.3, 0.1), (0.1, 0.1)), ValueError, "spike times must be nondecreasing"),
    "VariationSymbol observation time": (
        lambda: symbol((0.6,), (0.1,)), ValueError,
        "spike times must not exceed the observation time"),
    "VariationSymbol widths": (
        lambda: symbol((0.1,), (-0.1,)), ValueError, "spike widths must be nonnegative"),
    "needle_vectors observation time": (
        lambda: needle_vectors(lq_needle_context(), [symbol((), (), tau=1.0)]), ValueError,
        "observation time must lie strictly inside the interval"),
    "sample_symbols empty pool": (
        lambda: sample_symbols(np.random.default_rng(0), lq_needle_context(), 0.25, 1),
        ValueError, "no admissible spike times below the observation time"),
    "cone_support_check without needles": (
        lambda: cone_support_check([], np.zeros(2)), ValueError,
        "need at least one needle direction"),
    "rep not square": (
        lambda: develop_to_group(lie_algebra(so3_structure()),
                                 EPath(GRID, np.zeros((3, 0)), np.zeros((3, 3))),
                                 lambda e: np.zeros((2, 3))),
        ValueError, "rep must produce square matrices"),
    "shoot_endpoint on a chart with a base": (
        lambda: shoot_endpoint(build_lq_system(), skew_hat, np.eye(3), [1.0]), ValueError,
        "endpoint shooting requires a chart over a point"),
    # scenarios
    "WongFixture shapes": (
        lambda: WongFixture(np.zeros((2, 2, 2)), np.zeros((3, 2))), ValueError,
        "algebra has shape"),
    "default_config unknown name": (
        lambda: default_config("nope"), ConfigError, "unknown scenario 'nope'"),
}


@pytest.mark.parametrize("call, error, message", CHECKS.values(), ids=CHECKS.keys())
def test_an_invalid_input_is_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()
