"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines; every check pins the tolerance stated in its assertion.
"""

import time

import numpy as np
import pytest

from algopt.control import (ControlSignal, ControlSystem, FiniteSet,
                            pairing_drift, simulate_trajectory, transport_Bbar)
from algopt.core import (atiyah_trivial, so3_algebra, so3_structure,
                         tangent_bundle, validate_anchor_morphism, validate_skew)
from algopt.numerics import TimeGrid
from algopt.paths import (EPath, HomotopyField, generate_infinitesimal_homotopy,
                          homotopy_residual, reparameterize_unit, shrink_homotopy)
from algopt.pmp import (VariationSymbol, autonomize, cone_support_check,
                        develop_to_group, integrate_pmp_flow, make_needle_context,
                        needle_vector, sample_symbols, shoot_endpoint,
                        time_dependence_audit, TimeDependentControlSystem)
from algopt.scenarios import (WongFixture, build_so3_bang_bang_system,
                              classical_reduction_residual, default_config,
                              scenario_classical, scenario_so3_bang_bang,
                              scenario_wong)
from conftest import non_skew_chart, scaled_anchor_pair, skew_hat


def report(index, name, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {index} {name}: {verdict}  ({detail})")
    assert passed, f"criterion {index} ({name}): {detail}"


def test_criterion_1_al_axiom_validation():
    rng = np.random.default_rng(0)
    builtins = [tangent_bundle(3), so3_algebra(), atiyah_trivial(2, so3_structure()),
                scaled_anchor_pair()[1]]
    worst_time = 0.0
    all_pass = True
    details = []
    for alg in builtins:
        pts = rng.uniform(-1.0, 1.0, size=(100, alg.base_dim))
        t0 = time.perf_counter()
        skew = validate_skew(alg, pts, 1e-6)
        morph = validate_anchor_morphism(alg, pts, 1e-6)
        dt = time.perf_counter() - t0
        worst_time = max(worst_time, dt)
        all_pass &= skew["passed"] and morph["passed"]
        details.append(f"{alg.name}: skew {skew['value']:.2g} "
                       f"morph {morph['value']:.2g}")
    bad_skew = validate_skew(non_skew_chart(), np.zeros((100, 0)), 1e-6)
    broken, _ = scaled_anchor_pair()
    pts1 = rng.uniform(-1.0, 1.0, size=(100, 1))
    bad_morph = validate_anchor_morphism(broken, pts1, 1e-6)
    crafted_fail = (not bad_skew["passed"] and bad_skew["value"] > 1e-3
                    and not bad_morph["passed"] and bad_morph["value"] > 1e-3)
    ok = all_pass and crafted_fail and worst_time < 1.0
    report(1, "AL-axiom validation", ok,
           f"{'; '.join(details)}; crafted violations "
           f"{bad_skew['value']:.2g}/{bad_morph['value']:.2g}, "
           f"slowest chart {worst_time:.2f}s")


def test_criterion_2_pairing_preservation():
    t0 = time.perf_counter()
    so3_sys = build_so3_bang_bang_system([1, 0, 0], [0, 1, 0])
    sig = ControlSignal(0.0, 1.0, (0.4,), ([1.0], [-1.0]))
    traj = simulate_trajectory(so3_sys, sig, np.zeros(0), step=1e-3)
    drift_so3 = pairing_drift(so3_sys, traj, np.array([0.3, -0.2, 0.7]),
                              np.array([1.0, 0.5, -0.1]))

    from algopt.scenarios import build_wong_system
    params = default_config("wong-so3-r2")["params"]
    fixture = WongFixture(so3_structure(), np.asarray(params["connection_const"]),
                          np.asarray(params["connection_linear"]))
    wsys = build_wong_system(fixture)
    wtraj = simulate_trajectory(wsys, ControlSignal.constant([0.5, -0.3], 0.0, 1.0),
                                np.array([0.2, -0.1]), step=1e-3)
    drift_wong = pairing_drift(wsys, wtraj, np.array([0.1, 0.2, -0.3, 0.4, 0.5]),
                               np.array([1.0, -0.5, 0.2, 0.3, -0.7]))

    bad = non_skew_chart()
    bsys = ControlSystem(bad, lambda x, u: np.array([1.0, 0.0, 0.0]),
                         lambda x, u: 0.0, FiniteSet(([0.0],)),
                         f_jacobian=lambda x, u: np.zeros((3, 0)),
                         L_gradient=lambda x, u: np.zeros(0))
    btraj = simulate_trajectory(bsys, ControlSignal.constant([0.0], 0.0, 1.0),
                                np.zeros(0), step=1e-3)
    drift_bad = pairing_drift(bsys, btraj, np.array([1.0, 0, 0]),
                              np.array([1.0, 0, 0]))
    dt = time.perf_counter() - t0
    ok = drift_so3 < 1e-8 and drift_wong < 1e-8 and drift_bad > 1e-3 and dt < 5.0
    report(2, "pairing preservation", ok,
           f"so3 {drift_so3:.2g}, atiyah {drift_wong:.2g}, "
           f"broken-skew {drift_bad:.2g}, {dt:.1f}s")


def test_criterion_3_homotopy_machinery():
    t0 = time.perf_counter()
    broken, fixed = scaled_anchor_pair()
    T, E = 1001, 33
    grid = TimeGrid(0.0, 1.0, 1e-3)
    eps = np.linspace(0.0, 1.0, E)
    ts = grid.nodes
    base = ((1.0 + eps)[None, :] * np.exp(ts)[:, None])[:, :, None]
    a = np.zeros((T, E, 2))
    a[:, :, 1] = 1.0
    b0 = np.zeros((E, 2))
    b0[:, 0] = 1.0
    field = HomotopyField(grid, eps, base, a)
    _, chi_al = generate_infinitesimal_homotopy(fixed, field, b0)
    with pytest.warns(Warning):
        _, chi_bad = generate_infinitesimal_homotopy(broken, field, b0)

    # zero-anchor chart: chi vanishes identically
    so3 = so3_algebra()
    v = np.array([0.3, -0.5, 0.8])
    f_so3 = HomotopyField(grid, eps, np.zeros((T, E, 0)), np.tile(v, (T, E, 1)))
    _, chi_so3 = generate_infinitesimal_homotopy(so3, f_so3, np.tile([0.5, 0.1, -0.2], (E, 1)))

    # classical chart with quadratic eps-dependence
    tb = tangent_bundle(1)
    base_tb = (np.sin(ts)[:, None] * (1.0 + eps[None, :] ** 2))[:, :, None]
    a_tb = (np.cos(ts)[:, None] * (1.0 + eps[None, :] ** 2))[:, :, None]
    f_tb = HomotopyField(grid, eps, base_tb, a_tb)
    _, chi_tb = generate_infinitesimal_homotopy(tb, f_tb, np.zeros((E, 1)))

    chi_good = max(chi_al, chi_so3, chi_tb)

    # shrink refinement on a smooth path
    grid_p = TimeGrid(0.0, 1.0, 1e-3)
    tp = grid_p.nodes
    p = EPath(grid_p, np.column_stack([np.sin(tp), tp ** 2]),
              np.column_stack([np.cos(tp), 2 * tp]))
    tb2 = tangent_bundle(2)
    coarse = homotopy_residual(tb2, shrink_homotopy(tb2, p, 33, 33)).equation_residual
    fine = homotopy_residual(tb2, shrink_homotopy(tb2, p, 65, 65)).equation_residual

    out1, c1 = generate_infinitesimal_homotopy(so3, f_so3, np.tile([0.5, 0.1, -0.2], (E, 1)))
    out2, c2 = generate_infinitesimal_homotopy(so3, f_so3, np.tile([0.5, 0.1, -0.2], (E, 1)))
    deterministic = (out1.b.tobytes() == out2.b.tobytes()) and c1 == c2

    dt = time.perf_counter() - t0
    ok = (chi_good < 1e-4 and chi_bad > 1e-2 and coarse / fine >= 2.0
          and deterministic and dt < 30.0)
    report(3, "homotopy machinery", ok,
           f"chi AL {chi_good:.2g}, chi non-AL {chi_bad:.2g}, "
           f"shrink ratio {coarse / fine:.2f}, bit-exact {deterministic}, {dt:.1f}s")


def test_criterion_4_so3_bang_bang():
    t0 = time.perf_counter()
    r = scenario_so3_bang_bang([1, 0, 0], [0, 1, 0], [0.0, 1.0, 0.2],
                               z0=-1.0, horizon=10.0, step=1e-3)
    dt = time.perf_counter() - t0
    v = r.value
    ok = (v("switching_law_violations") == 0 and r.audit.h_drift < 1e-6
          and v("casimir_drift") < 1e-8 and v("costate_equation") < 1e-6 and dt < 10.0)
    report(4, "so(3) bang-bang", ok,
           f"switch violations {v('switching_law_violations')}, |H| {r.audit.h_drift:.2g}, "
           f"|z| drift {v('casimir_drift'):.2g}, costate residual "
           f"{v('costate_equation'):.2g}, {len(r.flow.switch_times)} switches, {dt:.1f}s")


def test_criterion_5_wong_equations():
    t0 = time.perf_counter()
    params = default_config("wong-so3-r2")["params"]
    fixture = WongFixture(so3_structure(), np.asarray(params["connection_const"]),
                          np.asarray(params["connection_linear"]))
    r = scenario_wong(fixture, [0.2, -0.1], [0.8, 0.5], [0.3, -0.2, 0.4],
                      horizon=1.0, step=1e-3)

    flat = WongFixture(so3_structure(), connection_const=np.zeros((3, 2)))
    x0 = np.array([0.1, 0.2])
    p0 = np.array([0.6, -0.4])
    rf = scenario_wong(flat, x0, p0, [0.3, -0.2, 0.4], horizon=1.0, step=1e-3)
    ts = rf.flow.path.grid.nodes
    line_err = float(np.abs(rf.flow.path.base
                            - (x0[None, :] + ts[:, None] * p0[None, :])).max())
    dt = time.perf_counter() - t0
    v = r.value
    ok = (v("momentum_equation") < 1e-5 and v("internal_momentum_equation") < 1e-5
          and v("speed_drift") < 1e-6 and line_err < 1e-8 and dt < 10.0)
    report(5, "reduced (Wong) equations", ok,
           f"momentum {v('momentum_equation'):.2g}, "
           f"internal {v('internal_momentum_equation'):.2g}, "
           f"speed drift {v('speed_drift'):.2g}, flat-line error {line_err:.2g}, {dt:.1f}s")


def test_criterion_6_classical_reduction():
    t0 = time.perf_counter()
    tb = tangent_bundle(2)

    def f(x, u):
        return np.array([np.sin(x[1]) + u[0], x[0] ** 2 - 0.5 * u[0]])

    sys = ControlSystem(tb, f, lambda x, u: float(np.cos(x[0]) * x[1]),
                        FiniteSet(([0.0], [1.0])))
    rng = np.random.default_rng(7)
    samples = [(rng.normal(size=2), np.array([float(rng.integers(0, 2))]),
                rng.normal(size=2), -float(rng.random())) for _ in range(40)]
    reduction = classical_reduction_residual(sys, samples)

    r = scenario_classical(z_init=0.5, horizon=1.0, step=1e-3)
    dt = time.perf_counter() - t0
    ok = (reduction < 1e-12 and r.value("closed_form_error") < 1e-6
          and r.value("reduction_residual") < 1e-12 and dt < 5.0)
    report(6, "classical reduction", ok,
           f"adjoint identity {reduction:.2g}, LQ closed-form {r.value('closed_form_error'):.2g}, "
           f"{dt:.1f}s")


def test_criterion_7_needle_cone():
    t0 = time.perf_counter()
    sys = build_so3_bang_bang_system([1, 0, 0], [0, 1, 0])
    flow = integrate_pmp_flow(sys, np.zeros(0), [0.0, 1.0, 0.2], -1.0,
                              0.0, 6.0, step=2e-3)
    ctx = make_needle_context(sys, flow.control, np.zeros(0), step=2e-3)
    tau = 3.0

    taus, vs = (0.5, 1.5), (np.array([-1.0]), np.array([1.0]))
    s1 = VariationSymbol(taus, vs, tau, (0.2, 0.9), 0.3)
    s2 = VariationSymbol(taus, vs, tau, (0.8, 0.1), -0.5)
    nu, mu = 0.6, 1.7
    combo = VariationSymbol(taus, vs, tau,
                            tuple(nu * np.array(s1.dts) + mu * np.array(s2.dts)),
                            nu * s1.dt + mu * s2.dt)
    lin_err = float(np.abs(needle_vector(ctx, combo)
                           - nu * needle_vector(ctx, s1)
                           - mu * needle_vector(ctx, s2)).max())

    rng = np.random.default_rng(0)
    symbols = sample_symbols(rng, ctx, tau, 500)
    needles = [needle_vector(ctx, s) for s in symbols]
    k = int(np.searchsorted(flow.path.grid.nodes, tau))
    z_ext = np.concatenate([[flow.costate.z0], flow.costate.z[k]])
    good = cone_support_check(needles, z_ext)

    frozen = ControlSignal(0.0, 6.0, (), (np.array([1.0]),))
    ctx_bad = make_needle_context(sys, frozen, np.zeros(0), step=2e-3)
    traj_bad = simulate_trajectory(sys, frozen, np.zeros(0), step=2e-3)
    zs_bad, _ = transport_Bbar(sys, traj_bad, (np.array([0.0, 1.0, 0.2]), -1.0))
    kb = int(np.searchsorted(traj_bad.path.grid.nodes, tau))
    zb_ext = np.concatenate([[-1.0], zs_bad[kb]])
    symbols_bad = sample_symbols(np.random.default_rng(1), ctx_bad, tau, 500)
    needles_bad = [needle_vector(ctx_bad, s) for s in symbols_bad]
    bad = cone_support_check(needles_bad, zb_ext)

    dt = time.perf_counter() - t0
    ok = (lin_err < 1e-10 and good["passed"] and not bad["passed"] and dt < 60.0)
    report(7, "needle/cone machinery", ok,
           f"linearity {lin_err:.2g}, extremal support {good['value']:.2g} over "
           f"{len(needles)}, suboptimal violation {bad['value']:.2g}, {dt:.1f}s")


def test_criterion_8_group_development():
    t0 = time.perf_counter()
    so3 = so3_algebra()
    grid = TimeGrid(0.0, 2.0 * np.pi, 1e-3)
    path = EPath(grid, np.zeros((grid.n_nodes, 0)),
                 np.tile([0.0, 0.0, 1.0], (grid.n_nodes, 1)))
    dev_err = float(np.abs(develop_to_group(so3, path, skew_hat) - np.eye(3)).max())

    sys = build_so3_bang_bang_system([1, 0, 0], [0, 1, 0])
    z_star = np.array([0.0, 1.0, 0.2])
    flow = integrate_pmp_flow(sys, np.zeros(0), z_star, -1.0, 0.0, 2.0, step=2e-3)
    target = develop_to_group(so3, flow.path, skew_hat)
    shot = shoot_endpoint(sys, skew_hat, target,
                          z_guess=z_star + np.array([0.05, -0.04, 0.03]),
                          z0=-1.0, t0=0.0, t1=2.0, step=2e-3)

    ts = grid.nodes
    wiggly = EPath(grid, np.zeros((grid.n_nodes, 0)),
                   np.column_stack([np.sin(ts), np.cos(2 * ts),
                                    0.3 * np.ones_like(ts)]))
    reparam_err = float(np.abs(develop_to_group(so3, wiggly, skew_hat)
                               - develop_to_group(so3, reparameterize_unit(wiggly),
                                                  skew_hat)).max())
    dt = time.perf_counter() - t0
    ok = (dev_err < 1e-6 and shot.converged and shot.residual < 1e-4
          and reparam_err < 1e-6 and dt < 60.0)
    report(8, "group development round-trip", ok,
           f"full-turn error {dev_err:.2g}, shooting residual {shot.residual:.2g} "
           f"({shot.n_evaluations} evals), reparam invariance {reparam_err:.2g}, {dt:.1f}s")


def test_criterion_9_time_dependent_reduction():
    t0 = time.perf_counter()
    from algopt.control import Box

    def maximizer(xe, z, z0):
        t = xe[1]
        if z0 < 0:
            return np.atleast_1d(np.clip(z[0] * t / (-z0), -10.0, 10.0))
        return np.atleast_1d(10.0 if z[0] * t >= 0 else -10.0)

    ramp = TimeDependentControlSystem(
        alg=tangent_bundle(1),
        f=lambda x, t, u: t * u,
        L=lambda x, t, u: 0.5 * float(u @ u),
        control_space=Box([-10.0], [10.0], maximizer=maximizer),
    )
    flow = integrate_pmp_flow(autonomize(ramp), [0.0, 0.0],
                              [1.0, 0.0], -1.0, 0.0, 2.0, step=1e-3)
    audit = time_dependence_audit(ramp, flow)

    steady = TimeDependentControlSystem(
        alg=tangent_bundle(1),
        f=lambda x, t, u: u.copy(),
        L=lambda x, t, u: 0.5 * float(u @ u),
        control_space=Box([-10.0], [10.0],
                          maximizer=lambda xe, z, z0: np.atleast_1d(z[0]) if z0 < 0
                          else np.atleast_1d(10.0)),
    )
    flow2 = integrate_pmp_flow(autonomize(steady), [0.0, 0.0],
                               [0.7, 0.0], -1.0, 0.0, 1.0, step=1e-3)
    audit2 = time_dependence_audit(steady, flow2)
    dt = time.perf_counter() - t0
    ok = (audit["clock_error"] == 0.0 and audit["dhdt_residual"] < 1e-5
          and audit2["clock_error"] == 0.0 and audit2["h_drift"] < 1e-8
          and dt < 5.0)
    report(9, "time-dependent reduction", ok,
           f"clock error {audit['clock_error']:.2g}, dH/dt residual "
           f"{audit['dhdt_residual']:.2g}, steady H drift {audit2['h_drift']:.2g}, {dt:.1f}s")
