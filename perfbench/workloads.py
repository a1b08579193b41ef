"""Seeded inputs and single operations of the three benchmark workloads.

Every input of op ``i`` is drawn from ``numpy.random.default_rng([seed, i])``
with the fixed ranges below, so a seed always yields the same inputs and an
op's inputs do not depend on how many ops ran before it.  A failing op is
counted by the caller; it is never redrawn or skipped.

Workloads, and why each exists:

``bang-bang-cone``
    ``algopt run`` on so3-bang-bang configs (horizon 3, step 1e-3, so 3k
    nodes, with a sampled cone-support check).  The only workload that runs
    ``control.transport_frame`` and ``pmp.needle_vector``; it also has the
    finite-set flow with switch bisection and the largest CSV writes.  The
    horizon is 3 rather than 10 so that a run holds about ten ops: with
    three 10 s ops per run the per-run median moved with every slow period
    of the shared machine.  Flows from these draws
    switch every ~3.2 s with the first switch before t = 2.6, so each op
    still has at least one switch.
``box-energy``
    ``algopt run`` on a wong-so3-r2 config followed by a classical-tm-lq
    config; one op is the pair.  It uses the flow and audit layers the other
    way round: the box maximizer runs at every RK4 stage and the audit scores
    81 candidates per node, with no bisection, no transport and ~1k-row
    artifacts.  A gain on the finite-set path that costs the box path shows
    up here.
``shoot``
    ``pmp.shoot_endpoint`` in fixed time (t1 = 2, as in the test suite's
    shooting case) on the so3 system, towards the group element reached from
    a drawn covector whose flow switches once.  Many short flows plus
    development, with no audit, I/O or transport; it stands in for the
    shooting tests that dominate the test suite's time.  The step is 1e-2
    (200 nodes per flow) rather than the suite's 2e-3 (1000 nodes), so that
    an op takes seconds rather than half a minute; the fixed part of a flow
    and its development is then about a quarter of their time rather than
    about a sixteenth (see README.md).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import algopt.cli
import algopt.pmp
from algopt.scenarios import build_so3_bang_bang_system

SO3_A = (1.0, 0.0, 0.0)
SO3_B = (0.0, 1.0, 0.0)

BANG_BANG_HORIZON = 3.0
BANG_BANG_STEP = 1e-3
BANG_BANG_SYMBOLS = 50

SHOOT_HORIZON = 2.0
SHOOT_STEP = 1e-2
SHOOT_PERTURBATION = 0.05
SHOOT_RESIDUAL_TOL = 1e-4

# Artifacts that must be byte-identical when a config is run twice.
REPRODUCIBLE_FILES = ("trajectory.csv", "costate.csv")


def op_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def on_free_time_level(z: np.ndarray) -> np.ndarray:
    """Rescale z onto H = 0 for the so3 system with z0 = -1, where the
    maximized Hamiltonian is z.a + |z.b| - 1.  Draws off this level fail the
    scenario's ``hamiltonian_zero`` check by construction."""
    level = z @ np.asarray(SO3_A) + abs(z @ np.asarray(SO3_B))
    return z / level


def _signed(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi))


def draw_switching_covector(rng: np.random.Generator) -> np.ndarray:
    """A covector on H = 0 with 1.07 < |z| < 1.63.

    On an arc z precesses about a + u b with z.(a + u b) = 1 held fixed, and
    z.b can change sign only when |z| >= 1, so these flows switch.  The raw
    level z.a + |z.b| lies in [0.9, 1.3] and |z_3| in [1.0, 1.2], which keeps
    the rescaled |z| in that band.  The upper end matters: the scenario's
    finite-difference ``costate_equation`` residual grows with |z| and passes
    its absolute 1e-6 tolerance only up to |z| of about 2.2.
    """
    z = np.array([rng.uniform(0.1, 0.3), _signed(rng, 0.8, 1.0), _signed(rng, 1.0, 1.2)])
    return on_free_time_level(z)


def draw_shoot_covector(rng: np.random.Generator) -> np.ndarray:
    """A covector on H = 0 whose flow switches once, at t in (1.1, 1.7).

    With u = sign(z_b) on an arc, z precesses about a + u b at rate sqrt(2)
    with z.(a + u b) = 1 held fixed; z_b reaches 0 only when |z| >= 1, and
    sooner when z_3 has the sign opposite to z_b.  The test suite's shooting
    case z* = (0, 1, 0.2) is at the edge of this band and does not switch
    before t = 2.  A target without a switch is degenerate: the control is
    constant, so the endpoint does not depend on z and the guess already has
    residual 0.
    """
    sign = float(rng.choice((-1.0, 1.0)))
    z_a = rng.uniform(-0.5, -0.1)
    z = np.array([z_a, sign * (1.0 - z_a), -sign * rng.uniform(0.2, 0.6)])
    return on_free_time_level(z)


def skew_hat(v) -> np.ndarray:
    """so(3) matrix representation: hat(v) w = v x w."""
    return np.array([[0.0, -v[2], v[1]],
                     [v[2], 0.0, -v[0]],
                     [-v[1], v[0], 0.0]])


def _write_json(path: Path, obj) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")
    return path


def _around(rng: np.random.Generator, value, spread: float) -> list:
    arr = np.asarray(value, dtype=float)
    return (arr + rng.uniform(-spread, spread, size=arr.shape)).tolist()


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def bang_bang_config(seed: int, index: int) -> dict:
    rng = op_rng(seed, index)
    return {
        "scenario": "so3-bang-bang",
        "horizon": BANG_BANG_HORIZON,
        "z_init": draw_switching_covector(rng).tolist(),
        "params": {"a": list(SO3_A), "b": list(SO3_B)},
        "solver": {"step": BANG_BANG_STEP, "tol": 1e-5,
                   "seed": int(rng.integers(0, 2**31)),
                   "symbol_samples": BANG_BANG_SYMBOLS},
    }


def wong_config(seed: int, index: int) -> dict:
    rng = op_rng(seed, index)
    return {
        "scenario": "wong-so3-r2",
        "horizon": 1.0,
        "z_init": _around(rng, [0.8, 0.5, 0.3, -0.2, 0.4], 0.1),
        "initial_point": _around(rng, [0.2, -0.1], 0.1),
        "params": {
            "connection_const": _around(rng, [[0.0, 0.1], [0.1, 0.0], [0.0, 0.0]], 0.05),
            "connection_linear": _around(rng, [[[0.3, 0.0], [0.0, -0.2]],
                                               [[0.0, 0.4], [0.1, 0.0]],
                                               [[-0.2, 0.1], [0.3, 0.0]]], 0.05),
        },
        "solver": {"step": 1e-3, "tol": 1e-5, "seed": 0},
    }


def classical_config(seed: int, index: int) -> dict:
    # Its own stream, so the pair's two configs do not share draws.
    rng = np.random.default_rng([seed, index, 1])
    return {
        "scenario": "classical-tm-lq",
        "horizon": 1.0,
        "z_init": [rng.uniform(-2.0, 2.0)],
        "initial_point": [rng.uniform(-1.0, 1.0)],
        "solver": {"step": 1e-3, "tol": 1e-5, "seed": 0},
    }


def shoot_case(seed: int, index: int) -> dict:
    """Target reached from a drawn covector, and a guess about 0.05 away."""
    rng = op_rng(seed, index)
    z_star = draw_shoot_covector(rng)
    direction = rng.normal(size=3)
    guess = z_star + SHOOT_PERTURBATION * direction / np.linalg.norm(direction)
    system = build_so3_bang_bang_system(SO3_A, SO3_B)
    flow = algopt.pmp.integrate_pmp_flow(system, np.zeros(0), z_star, -1.0, 0.0,
                                         SHOOT_HORIZON, step=SHOOT_STEP)
    target = algopt.pmp.develop_to_group(system.alg, flow.path, skew_hat)
    return {"z_star": z_star.tolist(), "z_guess": guess.tolist(),
            "target": target.tolist(), "t1": SHOOT_HORIZON, "step": SHOOT_STEP,
            "residual_tol": SHOOT_RESIDUAL_TOL}


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------

@dataclass
class OpResult:
    seconds: float
    ok: bool
    detail: list[str] = field(default_factory=list)
    digest: str = ""   # fingerprint of the outputs, compared when an op is repeated
    output: object = None  # what the op returned, for verify


def run_config(config: Path, out: Path) -> tuple[float, bool, str]:
    """One in-process ``algopt run``; passes on exit 0 with every invariant
    passed.  Any exception is the program's failure and is reported."""
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = algopt.cli.main(["run", str(config), "--out", str(out)])
    except Exception as exc:  # noqa: BLE001 - a traceback is a failed op
        return time.perf_counter() - start, False, f"{config.name}: {exc!r}"
    seconds = time.perf_counter() - start
    if code != 0:
        return seconds, False, f"{config.name}: exit {code}: {sink.getvalue().strip()[-300:]}"
    try:
        report = json.loads((out / "invariants.json").read_text())
    except (OSError, ValueError) as exc:
        return seconds, False, f"{config.name}: no readable invariants.json: {exc}"
    if report.get("passed") is not True:
        failing = [c["name"] for c in report.get("checks", []) if not c["passed"]]
        return seconds, False, f"{config.name}: checks failed: {failing}"
    return seconds, True, ""


@dataclass(frozen=True)
class RunWorkload:
    """A workload whose op is one or more ``algopt run`` calls."""

    name: str
    makers: tuple  # config makers, run in order within one op
    # Op 0 is run once more per run, and its artifacts must be byte-identical.
    repeats_first_op = True

    def prepare(self, seed: int, index: int, inputs: Path) -> list[Path]:
        return [_write_json(inputs / f"op{index:04d}-{k}.json", make(seed, index))
                for k, make in enumerate(self.makers)]

    @staticmethod
    def load(files: list[Path]) -> list[Path]:
        """Parses each config; the op passes the files themselves to the CLI."""
        for f in files:
            json.loads(f.read_text())
        return files

    def run(self, files: list[Path], out: Path) -> OpResult:
        """Runs each config; the digest covers the artifacts that must be
        bit-reproducible for a fixed config."""
        result = OpResult(0.0, True)
        digest = hashlib.sha256()
        for k, config in enumerate(files):
            seconds, ok, detail = run_config(config, out / str(k))
            result.seconds += seconds
            result.ok &= ok
            if detail:
                result.detail.append(detail)
            for name in REPRODUCIBLE_FILES:
                artifact = out / str(k) / name
                if artifact.is_file():
                    digest.update(artifact.read_bytes())
        result.digest = digest.hexdigest()
        return result

    @staticmethod
    def verify(files: list[Path], result: OpResult) -> None:
        """Nothing more to check: run has read every artifact it checks."""


@dataclass(frozen=True)
class ShootWorkload:
    name: str
    # Each op re-evaluates the covector it found instead (see verify).
    repeats_first_op = False

    def prepare(self, seed: int, index: int, inputs: Path) -> list[Path]:
        return [_write_json(inputs / f"op{index:04d}.json", shoot_case(seed, index))]

    @staticmethod
    def load(files: list[Path]) -> tuple:
        case = json.loads(files[0].read_text())
        system = build_so3_bang_bang_system(SO3_A, SO3_B)
        return (files[0].name, system, case, np.asarray(case["target"]),
                np.asarray(case["z_guess"]))

    def run(self, loaded: tuple, out: Path) -> OpResult:
        """Passes when the shot converged with residual below the case's
        tolerance; the digest covers the covector found and its residual."""
        name, system, case, target, guess = loaded
        start = time.perf_counter()
        try:
            shot = algopt.pmp.shoot_endpoint(
                system, skew_hat, target, guess, z0=-1.0, t0=0.0, t1=case["t1"],
                step=case["step"], residual_tol=case["residual_tol"])
        except Exception as exc:  # noqa: BLE001 - a traceback is a failed op
            return OpResult(time.perf_counter() - start, False, [f"{name}: {exc!r}"])
        seconds = time.perf_counter() - start
        ok = bool(shot.converged) and shot.residual < case["residual_tol"]
        detail = [] if ok else [f"{name}: residual {shot.residual:.3g} "
                                f"after {shot.n_evaluations} evaluations"]
        digest = hashlib.sha256(np.asarray(shot.z_init, dtype=float).tobytes()
                                + float(shot.residual).hex().encode())
        return OpResult(seconds, ok, detail, digest.hexdigest(), shot)

    @staticmethod
    def verify(loaded: tuple, result: OpResult) -> None:
        """A fresh flow from the covector found must reproduce the shot's
        residual bit for bit.  Kept apart from run so that it is neither
        timed nor traced."""
        name, system, case, target, _ = loaded
        shot = result.output
        if shot is None:
            return
        flow = algopt.pmp.integrate_pmp_flow(system, np.zeros(0), shot.z_init, -1.0, 0.0,
                                             case["t1"], step=case["step"])
        endpoint = algopt.pmp.develop_to_group(system.alg, flow.path, skew_hat)
        again = float(np.linalg.norm(endpoint - target, ord="fro"))
        if again != shot.residual:
            result.ok = False
            result.detail.append(f"{name}: residual {shot.residual!r} re-evaluates to {again!r}")


WORKLOADS = {
    "bang-bang-cone": RunWorkload("bang-bang-cone", (bang_bang_config,)),
    "box-energy": RunWorkload("box-energy", (wong_config, classical_config)),
    "shoot": ShootWorkload("shoot"),
}
