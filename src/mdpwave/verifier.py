"""Residual operators for the third-order evolution equation

    u_t - u_xxt + (b+1) u^2 u_x - b u_x u_xx - u u_xxx = 0

and for its traveling-wave reduction in xi = x + lam*t, plus grid-based
verification with singularity guards.

The scaled residual divides |R| by max(1, sum_i |term_i|) over the five
residual terms, so near-pole points with huge cancelling terms and far-field
points with uniformly tiny terms are both judged fairly; the raw maximum is
always reported alongside.

The kept points are walked in fixed blocks of `BLOCK` points: one tape is
compiled per verification and run on each block, and each block's maxima
are combined.  Every point's value is computed by the same elementwise
operations whatever block it falls in, and a maximum is exact in any
grouping, so the report bytes do not depend on the block size.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import expr as ex
from .errors import AllPointsSkipped

__all__ = [
    "GridSpec", "ResidualReport", "mdp_residual", "mdp_residual_terms",
    "ode_residual", "ode_residual_terms", "verify_on_grid",
    "DEFAULT_TOL_SYMBOLIC", "DEFAULT_TOL_FINITE_DIFF",
]

X = ex.var("x")
T = ex.var("t")
XI = ex.var("xi")

DEFAULT_TOL_SYMBOLIC = 1e-7
DEFAULT_TOL_FINITE_DIFF = 1e-4
FD_STEP = 1e-3
# points per evaluation block: a float64 slot is 128 KiB, so a tape's live
# slots stay resident in a 2 MB per-core L2 cache
BLOCK = 16384

# 4th-order central stencils (offset -> weight numerators)
_W1 = {-2: 1.0, -1: -8.0, 1: 8.0, 2: -1.0}            # / 12h
_W2 = {-2: -1.0, -1: 16.0, 0: -30.0, 1: 16.0, 2: -1.0}  # / 12h^2
_W3 = {-3: 1.0, -2: -8.0, -1: 13.0, 1: -13.0, 2: 8.0, 3: -1.0}  # / 8h^3


@dataclass(frozen=True)
class GridSpec:
    """Rectangular (x, t) grid with a singularity-guard threshold."""

    x_min: float = -10.0
    x_max: float = 10.0
    nx: int = 101
    t_min: float = 0.0
    t_max: float = 2.0
    nt: int = 11
    eps_den: float = 1e-3

    def __post_init__(self):
        if self.nx < 2 or self.nt < 2:
            raise ValueError("nx and nt must both be >= 2")
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be < x_max")
        if not self.t_min <= self.t_max:
            raise ValueError("t_min must be <= t_max")
        if not self.eps_den > 0:
            raise ValueError("eps_den must be positive")

    def points(self):
        xs = np.linspace(self.x_min, self.x_max, self.nx)
        ts = np.linspace(self.t_min, self.t_max, self.nt)
        xx, tt = np.meshgrid(xs, ts, indexing="ij")
        return xx.ravel(), tt.ravel()

    def to_dict(self):
        return {
            "x_min": self.x_min, "x_max": self.x_max, "nx": self.nx,
            "t_min": self.t_min, "t_max": self.t_max, "nt": self.nt,
            "eps_den": self.eps_den,
        }


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of a grid verification run."""

    max_abs: float
    max_scaled: float
    points_evaluated: int
    points_skipped: int
    tolerance: float
    passed: bool
    method: str
    grid: GridSpec = field(default_factory=GridSpec)

    def to_dict(self):
        return {
            "max_abs": self.max_abs,
            "max_scaled": self.max_scaled,
            "points_evaluated": self.points_evaluated,
            "points_skipped": self.points_skipped,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "method": self.method,
            "grid": self.grid.to_dict(),
        }


def mdp_residual_terms(u, b):
    """The five residual terms of the evolution equation, as expressions.

    Order: u_t, -u_xxt, (b+1) u^2 u_x, -b u_x u_xx, -u u_xxx.
    """
    b = Fraction(b)
    dx, dt = {}, {}  # one derivative memo per variable, for this build only
    u_x = ex.differentiate(u, X, dx)
    u_xx = ex.differentiate(u_x, X, dx)
    u_xxx = ex.differentiate(u_xx, X, dx)
    u_t = ex.differentiate(u, T, dt)
    u_xxt = ex.differentiate(u_xx, T, dt)
    return (
        u_t,
        ex.mul(-1, u_xxt),
        ex.mul(b + 1, ex.pow_(u, 2), u_x),
        ex.mul(-b, u_x, u_xx),
        ex.mul(-1, u, u_xxx),
    )


def mdp_residual(u, b):
    """Full symbolic residual in (x, t)."""
    return ex.add(*mdp_residual_terms(u, b))


def ode_residual_terms(U, b, lam):
    """The five terms of the traveling-wave form, as expressions in xi.

    Order: (b+1) U' U^2, -U''' U, -lam U''', lam U', -b U' U''.
    """
    b = Fraction(b)
    lam = Fraction(lam)
    dxi = {}  # one derivative memo across the three orders
    u1 = ex.differentiate(U, XI, dxi)
    u2 = ex.differentiate(u1, XI, dxi)
    u3 = ex.differentiate(u2, XI, dxi)
    return (
        ex.mul(b + 1, u1, ex.pow_(U, 2)),
        ex.mul(-1, u3, U),
        ex.mul(-lam, u3),
        ex.mul(lam, u1),
        ex.mul(-b, u1, u2),
    )


def ode_residual(U, b, lam):
    """Full symbolic traveling-wave residual in xi."""
    return ex.add(*ode_residual_terms(U, b, lam))


def _fd_terms(tape, b, xs, ts, h=FD_STEP):
    """Residual terms with every derivative replaced by 4th-order central
    differences of u itself (the one root of `tape`): an evaluation path
    fully independent of the symbolic differentiator."""
    b = float(b)
    cache = {}

    def u_at(i, j):
        key = (i, j)
        if key not in cache:
            [cache[key]] = ex.evaluate_many(tape, {}, {"x": xs + i * h, "t": ts + j * h})
        return cache[key]

    def d_x(weights, scale, j=0):
        (i0, w0), *rest = weights.items()
        out = 0.0 + w0 * u_at(i0, j)  # 0.0 + turns a -0.0 start into 0.0
        for i, w in rest:
            out += w * u_at(i, j)
        out /= scale
        return out

    u0 = u_at(0, 0)
    ux = d_x(_W1, 12 * h)
    uxx = d_x(_W2, 12 * h * h)
    uxxx = d_x(_W3, 8 * h ** 3)
    ut = sum(w * u_at(0, j) for j, w in _W1.items()) / (12 * h)
    uxxt = sum(w * d_x(_W2, 12 * h * h, j=j) for j, w in _W1.items()) / (12 * h)
    return (
        ut,
        -uxxt,
        (b + 1) * u0 * u0 * ux,
        -b * ux * uxx,
        -u0 * uxxx,
    )


def verify_on_grid(u, b, grid=None, tol=None, guard=None, method="symbolic"):
    """Evaluate the residual of `u(x, t)` at every unguarded grid point.

    `guard` is the family's singular denominator in (x, t) (constant 1 for
    pole-free families); points with |guard| below `grid.eps_den`, or where
    the guard is not finite, are skipped and counted.  `method` selects the
    symbolic-derivative path or the finite-difference cross-check path.
    """
    if method not in ("symbolic", "finite-difference"):
        raise ValueError(f"unknown method {method!r}")
    grid = grid or GridSpec()
    if tol is None:
        tol = DEFAULT_TOL_SYMBOLIC if method == "symbolic" else DEFAULT_TOL_FINITE_DIFF
    guard = ex.ONE if guard is None else ex.as_expr(guard)

    xs, ts = grid.points()
    gv = ex.evaluate_many(guard, {}, {"x": xs, "t": ts})
    keep = np.abs(gv) >= grid.eps_den  # NaN guards compare false -> skipped
    n_total = xs.size
    n_keep = int(np.count_nonzero(keep))
    if n_keep == 0:
        raise AllPointsSkipped(
            "the singularity guard swallowed the whole grid; "
            "widen the grid or revisit the parameters"
        )

    xk, tk = xs[keep], ts[keep]
    symbolic = method == "symbolic"
    tape = ex.Tape(mdp_residual_terms(u, b) if symbolic else (u,))
    max_abs = max_scaled = -np.inf
    for lo in range(0, n_keep, BLOCK):
        xb, tb = xk[lo:lo + BLOCK], tk[lo:lo + BLOCK]
        with np.errstate(all="ignore"):  # non-finite points are screened below
            if symbolic:
                terms = ex.evaluate_many(tape, {}, {"x": xb, "t": tb})
            else:
                terms = _fd_terms(tape, b, xb, tb)
            residual = sum(terms)
            scale = sum(np.abs(t) for t in terms)
            scaled = np.abs(residual) / np.maximum(1.0, scale)
        scaled = np.where(np.isfinite(residual) & np.isfinite(scale), scaled, np.inf)
        abs_res = np.abs(residual)
        max_abs = max(max_abs, float(np.max(np.where(np.isfinite(abs_res), abs_res, np.inf))))
        max_scaled = max(max_scaled, float(np.max(scaled)))
    return ResidualReport(
        max_abs=max_abs,
        max_scaled=max_scaled,
        points_evaluated=n_keep,
        points_skipped=n_total - n_keep,
        tolerance=tol,
        passed=bool(max_scaled < tol),
        method=method,
        grid=grid,
    )
