"""Single-chart almost Lie algebroids: structure functions, axiom checks, lifts.

A chart is the coordinate data of an anchored vector bundle over an open
subset of R^n with fiber R^m: an anchor field rho(x) of shape (n, m) with
entries rho^a_i, and a structure field c(x) of shape (m, m, m) with entries
c^i_jk giving the bracket [e_j, e_k] = c^i_jk e_i.  The chart is *almost Lie*
when c is skew in its lower pair and the anchor intertwines brackets,

    (d_b rho^a_k) rho^b_j - (d_b rho^a_j) rho^b_k = rho^a_i c^i_jk ,

which :func:`validate_anchor_morphism` certifies on sample points.  The
Jacobi identity is never assumed or checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import finite_difference_jacobian

__all__ = [
    "ChartAlgebroid",
    "Section",
    "validate_skew",
    "as_sample_points",
    "validate_anchor_morphism",
    "morphism_residual",
    "tangent_lift_section",
    "hamiltonian_vector_field",
    "product_with_time",
    "tangent_bundle",
    "lie_algebra",
    "so3_structure",
    "so3_algebra",
    "atiyah_trivial",
    "affine_matrix_field",
]

def _shaped(value, shape: tuple, what: str) -> np.ndarray:
    """``value`` as a float array; raises unless it has ``shape``.  ``what``
    opens the message, e.g. "anchor returned shape"."""
    arr = np.asarray(value, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{what} {arr.shape}, expected {shape}")
    return arr


class _Constant:
    """A chart field that does not read the base point: one read-only array,
    returned for every x.  The built-in charts declare their constant data
    with it, so that flows and checks can read it once (:func:`_constant_field`)."""

    def __init__(self, value):
        self.value = np.array(value, dtype=float)
        self.value.flags.writeable = False

    def __call__(self, x):
        return self.value


@dataclass(frozen=True)
class ChartAlgebroid:
    """Anchored bundle chart with callable structure data.

    anchor(x) -> (base_dim, fiber_dim) array rho^a_i
    structure(x) -> (fiber_dim,) * 3 array c^i_jk
    anchor_jacobian(x) -> (base_dim, fiber_dim, base_dim) array d rho^a_i / d x^b
    """

    base_dim: int
    fiber_dim: int
    anchor: Callable[[np.ndarray], np.ndarray]
    structure: Callable[[np.ndarray], np.ndarray]
    anchor_jacobian: Callable[[np.ndarray], np.ndarray] | None = None
    name: str = ""

    def __post_init__(self):
        if self.base_dim < 0 or self.fiber_dim <= 0:
            raise ValueError("need base_dim >= 0 and fiber_dim >= 1")

    def anchor_at(self, x: np.ndarray) -> np.ndarray:
        rho = self.anchor(np.asarray(x, dtype=float))
        return _shaped(rho, (self.base_dim, self.fiber_dim), "anchor returned shape")

    def structure_at(self, x: np.ndarray) -> np.ndarray:
        m = self.fiber_dim
        c = self.structure(np.asarray(x, dtype=float))
        return _shaped(c, (m, m, m), "structure returned shape")

    def bracket(self, x: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """[u, v]^i = c^i_jk u^j v^k at the point x."""
        return np.einsum("ijk,j,k->i", self.structure_at(x), u, v)

    def anchor_jacobian_at(self, x: np.ndarray) -> np.ndarray:
        if self.anchor_jacobian is not None:
            jac = self.anchor_jacobian(np.asarray(x, dtype=float))
            return _shaped(jac, (self.base_dim, self.fiber_dim, self.base_dim),
                           "anchor jacobian returned shape")
        flat = finite_difference_jacobian(lambda p: self.anchor_at(p).ravel(), x)
        return flat.reshape(self.base_dim, self.fiber_dim, self.base_dim)


def _constant_field(alg: ChartAlgebroid, field: str) -> np.ndarray | None:
    """The shape-checked value of the chart field "anchor" or "structure" when
    it is one for every x: declared by :class:`_Constant`, or any field over a
    point base; None otherwise."""
    if alg.base_dim and not isinstance(getattr(alg, field), _Constant):
        return None
    return getattr(alg, f"{field}_at")(np.zeros(alg.base_dim))


def _is_constant(alg: ChartAlgebroid) -> bool:
    """Whether no field of the chart reads the base point: each is declared
    by :class:`_Constant` (a missing anchor Jacobian is then zero), or the
    base is a point."""
    fields = (alg.anchor, alg.structure, alg.anchor_jacobian)
    return not alg.base_dim or all(f is None or isinstance(f, _Constant) for f in fields)


@dataclass(frozen=True)
class Section:
    """A section of the bundle: x -> fiber vector, with an optional Jacobian."""

    eval: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None

    def value(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.eval(np.asarray(x, dtype=float)), dtype=float)

    def jacobian_at(self, x: np.ndarray) -> np.ndarray:
        if self.jacobian is not None:
            return np.asarray(self.jacobian(np.asarray(x, dtype=float)), dtype=float)
        return finite_difference_jacobian(lambda p: self.value(p), x)

    @classmethod
    def constant(cls, v: np.ndarray) -> "Section":
        v = np.asarray(v, dtype=float)
        return cls(eval=lambda x: v, jacobian=lambda x: np.zeros((v.size, np.asarray(x).size)))


def _check(name: str, value: float, tolerance: float, **detail) -> dict:
    """One check as the reports write it: passes iff value <= tolerance, so a
    NaN value fails; ``detail`` adds keys after the four."""
    value = float(value)
    return {"name": name, "value": value, "tolerance": float(tolerance),
            "passed": bool(value <= tolerance), **detail}


def as_sample_points(points, base_dim: int) -> np.ndarray:
    """Normalize sample points to shape (count, base_dim); over a point base
    any input collapses to a single empty sample per row."""
    arr = np.asarray(points, dtype=float)
    if base_dim == 0:
        count = arr.shape[0] if arr.ndim >= 1 and arr.shape[0] else 1
        return np.zeros((count, 0))
    return np.atleast_2d(arr.reshape(-1, base_dim))


def _sampled_report(check: str, alg: ChartAlgebroid, sample_points, tol: float,
                    residual) -> dict:
    """The check of the largest |residual(x)| entry over the sample points,
    NaN if any entry is NaN; passes iff <= tol.  A chart that reads no base
    point (:func:`_is_constant`) has one residual, taken at the first point."""
    pts = as_sample_points(sample_points, alg.base_dim)
    read = pts[:1] if _is_constant(alg) else pts
    worst = np.max([np.max(np.abs(residual(x)), initial=0.0) for x in read], initial=0.0)
    box = [pts.min(axis=0).tolist(), pts.max(axis=0).tolist()] if pts.size else [[], []]
    return _check(check, worst, tol, n_points=len(pts), sample_box=box)


def validate_skew(alg: ChartAlgebroid, sample_points, tol: float) -> dict:
    """Max of |c^i_jk + c^i_kj| over the samples; passes iff <= tol."""
    if not (tol > 0):
        raise ValueError("tol must be positive")

    def residual(x):
        c = alg.structure_at(x)
        return c + np.swapaxes(c, 1, 2)

    return _sampled_report("skew_symmetry", alg, sample_points, tol, residual)


def morphism_residual(alg: ChartAlgebroid, x: np.ndarray) -> np.ndarray:
    """Pointwise residual (d_b rho^a_k) rho^b_j - (d_b rho^a_j) rho^b_k - rho^a_i c^i_jk."""
    rho = alg.anchor_at(x)
    drho = alg.anchor_jacobian_at(x)
    c = alg.structure_at(x)
    res = np.einsum("akb,bj->ajk", drho, rho)
    res -= np.einsum("ajb,bk->ajk", drho, rho)
    res -= np.einsum("ai,ijk->ajk", rho, c)
    return res


def validate_anchor_morphism(alg: ChartAlgebroid, sample_points, tol: float) -> dict:
    """Check that the anchor is a bracket morphism on the sample points."""
    if not (tol > 0):
        raise ValueError("tol must be positive")
    return _sampled_report("anchor_morphism", alg, sample_points, tol,
                           lambda x: morphism_residual(alg, x))


def tangent_lift_section(alg: ChartAlgebroid, f: Section, x: np.ndarray,
                         y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complete lift of the section f, evaluated at the fiber point (x, y).

    Returns the (xdot, ydot) components of the linear vector field

        xdot^a = rho^a_i f^i ,
        ydot^k = rho^a_i y^i df^k/dx^a + c^k_ij y^i f^j .
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    fx = f.value(x)
    if fx.shape != (alg.fiber_dim,) or y.shape != (alg.fiber_dim,):
        raise ValueError("fiber dimension mismatch")
    xdot = alg.anchor_at(x) @ fx
    return xdot, _lift_matrix(alg, x, fx, f.jacobian_at(x)) @ y


def _lift_matrix(alg: ChartAlgebroid, x: np.ndarray, f: np.ndarray,
                 jac: np.ndarray) -> np.ndarray:
    """M with ydot = M y along the complete lift of a section with value f and
    Jacobian jac at x: M = df/dx rho + c[., f]."""
    return jac @ alg.anchor_at(x) + np.einsum("ijk,k->ij", alg.structure_at(x), f)


def _dual_field(c: np.ndarray, rho: np.ndarray, v: np.ndarray, z: np.ndarray,
                dh_dx: np.ndarray | None) -> np.ndarray:
    """Dual transport zdot_k = c^i_jk v^j z_i - rho^a_k dh/dx^a from chart
    values c and rho at a point, or stacked on a leading axis, where v is the
    fiber velocity dh/dz; ``dh_dx`` is read only when the base is not a point,
    and None means dh/dx = 0 (for a finite rho, zdot - rho^T 0 is zdot).
    Terms are vector-matrix products (z c, then v (z c)): ``dot`` at one point
    (2-D matmul's BLAS bits) and matmul on stacked rows, which keep its bits.
    At one point c may come laid out as that product reads it, (m, m * m)."""
    if z.ndim == 1:
        m = len(z)
        zdot = v.dot(z.dot(c if c.ndim == 2 else c.reshape(m, m * m)).reshape(m, m))
        return zdot - dh_dx.dot(rho) if len(rho) and dh_dx is not None else zdot
    m, n = rho.shape[-1], rho.shape[-2]
    zdot = (v[:, None] @ (z[:, None] @ c.reshape(-1, m, m * m)).reshape(-1, m, m))[:, 0]
    if not n or dh_dx is None:
        return zdot
    return zdot - (np.swapaxes(rho, 1, 2) @ dh_dx[:, :, None])[:, :, 0]


def hamiltonian_vector_field(alg: ChartAlgebroid, h, x: np.ndarray,
                             xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hamiltonian vector field of h(x, xi) on the dual bundle chart.

        xdot^b  = rho^b_i dh/dxi_i ,
        xidot_j = c^k_ij xi_k dh/dxi_i - rho^a_j dh/dx^a .

    The partials come from :func:`numerics.finite_difference_jacobian` at its
    step.
    """
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    dh_dxi = finite_difference_jacobian(lambda p: h(x, p), xi)[0]
    dh_dx = (finite_difference_jacobian(lambda p: h(p, xi), x)[0]
             if alg.base_dim else None)   # not read over a point base
    rho = alg.anchor_at(x)
    return rho @ dh_dxi, _dual_field(alg.structure_at(x), rho, dh_dxi, xi, dh_dx)


def _with_unit_direction(alg: ChartAlgebroid, first: bool, name: str) -> ChartAlgebroid:
    """The product of ``alg`` with the trivial line algebroid: one more base
    and fiber coordinate, at index 0 when ``first`` and last otherwise.  The
    new fiber direction moves the new base coordinate at unit rate and
    brackets to zero with everything."""
    n, m = alg.base_dim, alg.fiber_dim
    bs, fs = (slice(1, None), slice(1, None)) if first else (slice(0, n), slice(0, m))
    b0, f0 = (0, 0) if first else (n, m)

    def anchor(xx):
        out = np.zeros((n + 1, m + 1))
        out[b0, f0] = 1.0
        out[bs, fs] = alg.anchor_at(xx[bs])
        return out

    def structure(xx):
        out = np.zeros((m + 1, m + 1, m + 1))
        out[fs, fs, fs] = alg.structure_at(xx[bs])
        return out

    jac = None
    if alg.anchor_jacobian is not None:
        def jac(xx):
            out = np.zeros((n + 1, m + 1, n + 1))
            out[bs, fs, bs] = alg.anchor_jacobian_at(xx[bs])
            return out

    return ChartAlgebroid(n + 1, m + 1, anchor, structure, anchor_jacobian=jac,
                          name=f"{name}({alg.name})" if alg.name else name)


def product_with_time(alg: ChartAlgebroid) -> ChartAlgebroid:
    """The product of the trivial line algebroid with ``alg``: base coordinate 0
    is the extra real coordinate, fiber coordinate 0 the extra rate direction,
    whose anchor block is the 1x1 identity; structure slices touching index 0
    vanish.  The point x of ``alg`` at extra coordinate s is ``np.append(s, x)``."""
    return _with_unit_direction(alg, True, "time-extended")


# ---------------------------------------------------------------------------
# Built-in charts
# ---------------------------------------------------------------------------

def tangent_bundle(n: int) -> ChartAlgebroid:
    """The tangent bundle of R^n: identity anchor, zero bracket."""
    zero = _Constant(np.zeros((n, n, n)))
    return ChartAlgebroid(n, n, _Constant(np.eye(n)), zero, anchor_jacobian=zero,
                          name=f"TR^{n}")


def lie_algebra(table: np.ndarray, name: str = "lie-algebra") -> ChartAlgebroid:
    """Bundle over a point with zero anchor and constant structure table.

    The table must be skew in its lower index pair; any skew table is
    accepted (the Jacobi identity is not required).
    """
    table = np.asarray(table, dtype=float)
    if table.ndim != 3 or len(set(table.shape)) != 1:
        raise ValueError("structure table must have shape (m, m, m)")
    if np.abs(table + np.swapaxes(table, 1, 2)).max() > 1e-12:
        raise ValueError("structure table is not skew in its lower indices")
    m = table.shape[0]
    return ChartAlgebroid(0, m, _Constant(np.zeros((0, m))), _Constant(table),
                          anchor_jacobian=_Constant(np.zeros((0, m, 0))), name=name)


def so3_structure() -> np.ndarray:
    """Structure constants of so(3): c^i_jk = eps_ijk."""
    eps = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k] = 1.0
        eps[i, k, j] = -1.0
    return eps


def so3_algebra() -> ChartAlgebroid:
    return lie_algebra(so3_structure(), name="so3")


def atiyah_trivial(base_dim: int, table: np.ndarray, name: str = "atiyah") -> ChartAlgebroid:
    """Trivialized Atiyah chart TM x g over R^base_dim.

    Fiber coordinates are (base-velocity part, algebra part); the anchor is
    [I | 0] and the bracket acts on the algebra block only.
    """
    table = np.asarray(table, dtype=float)
    k = table.shape[0]
    n = base_dim
    m = n + k
    rho = np.zeros((n, m))
    rho[:, :n] = np.eye(n)
    c = np.zeros((m, m, m))
    c[n:, n:, n:] = table
    return ChartAlgebroid(n, m, _Constant(rho), _Constant(c),
                          anchor_jacobian=_Constant(np.zeros((n, m, n))), name=name)


def affine_matrix_field(const: np.ndarray, linear: np.ndarray | None = None):
    """Matrix field x -> const + linear @ x from polynomial coefficients.

    ``const`` has the matrix shape, ``linear`` one trailing axis for x.
    Returns (field, jacobian_field).
    """
    const = np.asarray(const, dtype=float)
    if linear is None:
        def field(x):
            return const

        def jac(x):
            return np.zeros(const.shape + (np.asarray(x).size,))

        return field, jac
    linear = np.asarray(linear, dtype=float)
    if linear.shape[:-1] != const.shape:
        raise ValueError("linear coefficient shape must extend the constant shape")

    def field(x):
        return const + linear @ np.asarray(x, dtype=float)

    def jac(x):
        return linear

    return field, jac
