"""Residual operators for the third-order evolution equation

    u_t - u_xxt + (b+1) u^2 u_x - b u_x u_xx - u u_xxx = 0

and for its traveling-wave reduction in xi = x + lam*t, plus grid-based
verification with singularity guards.

The scaled residual divides |R| by max(1, sum_i |term_i|) over the five
residual terms, so near-pole points with huge cancelling terms and far-field
points with uniformly tiny terms are both judged fairly; the raw maximum is
always reported alongside.

The grid is walked in blocks of `BLOCK` points by one tape whose last root
is the guard, and the blocks' maxima, 0 at skipped points, are combined; a
point's value takes the same elementwise operations in any block, and a
maximum is exact in any grouping, so the report bytes do not depend on the
block size.  Each walk allocates one workspace that every block reuses: the
tape writes each value into a row as wide as a tape run (`expr.Tape`: a row
is reused once its value's last consumer has run, never for an operand of
the same instruction), the rows after the tape's hold packed points, and
rows a block wide hold the sums, the guard and the 7 x and 5 t shifts.
A tape run holds at most `BLOCK` values: the finite-difference path packs
as many of its 27 shifted copies of a block into one run as fit (two runs
on the default grid), or reads one offset's shifted rows as they are once
a block holds more than BLOCK / 2.
"""
from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass, field

from . import expr as ex
from .errors import AllPointsSkipped
from .riccati import exact

__all__ = [
    "GridSpec", "ResidualReport", "mdp_residual_terms", "ode_residual_terms",
    "verify_on_grid",
    "DEFAULT_TOL_SYMBOLIC", "DEFAULT_TOL_FINITE_DIFF",
]

X = ex.var("x")
T = ex.var("t")
XI = ex.var("xi")

DEFAULT_TOL_SYMBOLIC = 1e-7
DEFAULT_TOL_FINITE_DIFF = 1e-4
FD_STEP = 1e-3
# points per evaluation block: each ufunc call has a fixed cost, which longer
# rows spread thinner.  perfbench's 7 verify-grid verdicts took 42-45 ms a
# cycle at 16,384 points, 49 ms at 8,192, 62 ms at 4,096 and 46 ms at 32,768
# (in process, median of 25 cycles, 2-vCPU x86-64)
BLOCK = 16384

# 4th-order central stencils (offset -> weight numerators)
_W1 = {-2: 1.0, -1: -8.0, 1: 8.0, 2: -1.0}            # / 12h
_W2 = {-2: -1.0, -1: 16.0, 0: -30.0, 1: 16.0, 2: -1.0}  # / 12h^2
_W3 = {-3: 1.0, -2: -8.0, -1: 13.0, 1: -13.0, 2: 8.0, 3: -1.0}  # / 8h^3
# the (x, t) offsets, in steps, at which the stencils read u: every x
# offset at t, and _W2's x offsets at each t offset of _W1; ordered by t
# offset, then x offset, the order in which _fd_terms adds them up
_FD_OFFSETS = tuple(sorted({(i, 0) for i in (*_W1, *_W2, *_W3)}
                           | {(i, j) for j in _W1 for i in _W2}, key=lambda o: (o[1], o[0])))
_FD_XS, _FD_TS = (tuple(sorted(set(c))) for c in zip(*_FD_OFFSETS))  # the distinct ones
_POINTS = {}  # `GridSpec.points` of up to 16 small grids, by their bounds' bits


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
        bounds = (self.x_min, self.x_max, self.t_min, self.t_max)
        if not all(math.isfinite(v) for v in bounds):
            raise ValueError("x_min, x_max, t_min and t_max must be finite")
        if not (math.isfinite(self.x_max - self.x_min) and math.isfinite(self.t_max - self.t_min)):
            raise ValueError("x_max - x_min and t_max - t_min must be finite")
        try:
            operator.index(self.nx), operator.index(self.nt)
        except TypeError:
            raise ValueError("nx and nt must be integers") from None
        if self.nx < 2 or self.nt < 2:
            raise ValueError("nx and nt must both be >= 2")
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be < x_max")
        if not self.t_min <= self.t_max:
            raise ValueError("t_min must be <= t_max")
        if not self.eps_den > 0:
            raise ValueError("eps_den must be positive")
        if self.eps_den == math.inf:  # every |guard| would fall below it
            raise ValueError("eps_den must be finite")

    def points(self):
        """(x, t) at every grid point, x-major, as read-only arrays, shared
        between grids of at most `BLOCK` points whose bounds have the same
        bits (-0.0 is not 0.0 there, though the grids are equal)."""
        bounds = [float(v) for v in (self.x_min, self.x_max, self.t_min, self.t_max)]
        key = (*map(float.hex, bounds), self.nx, self.nt)
        pts = _POINTS.get(key)
        if pts is None:
            import numpy as np
            xx, tt = np.meshgrid(np.linspace(*bounds[:2], self.nx),
                                 np.linspace(*bounds[2:], self.nt), indexing="ij")
            xx.flags.writeable = tt.flags.writeable = False  # and so their raveled views
            pts = xx.ravel(), tt.ravel()
            if xx.size <= BLOCK:
                if len(_POINTS) >= 16:
                    _POINTS.clear()
                _POINTS[key] = pts
        return pts

    def to_dict(self):
        return asdict(self)


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
        return asdict(self)


def mdp_residual_terms(u, b):
    """The five residual terms of the evolution equation, as expressions.

    Order: u_t, -u_xxt, (b+1) u^2 u_x, -b u_x u_xx, -u u_xxx.
    """
    b = exact(b)
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


def ode_residual_terms(U, b, lam):
    """The five terms of the traveling-wave form, as expressions in xi.

    Order: (b+1) U' U^2, -U''' U, -lam U''', lam U', -b U' U''.
    """
    b, lam = exact(b), exact(lam)
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


def _workspace(tape, n, symbolic):
    """(rows as wide as a tape run, rows as wide as a block) for blocks of
    up to `n` points: the tape's rows, and for the finite-difference path
    the packed points after them; then 3 rows for the residual and scale
    sums, or the 8 stencil sums (whose first 3 are free again for them),
    the guard and the shifted points."""
    import numpy as np
    m = min(BLOCK, n)
    if symbolic:
        return np.empty((tape.rows, m)), np.empty((3, m))
    return (np.empty((tape.rows + 2, min(BLOCK // m, len(_FD_OFFSETS)) * m)),
            np.empty((9 + len(_FD_XS) + len(_FD_TS), m)))


def _fd_terms(tape, b, xs, ts, work, sums):
    """Residual terms with every derivative replaced by 4th-order central
    differences of u (the first of `tape`'s two roots), then the guard:
    an evaluation path fully independent of the symbolic differentiator.

    The block's x shifted by each of `_FD_XS` and t by each of `_FD_TS`
    are made once, into rows of `sums`.  u is read at `_FD_OFFSETS`, as
    many per tape run as fit in a row of `work` (a packed run gathers its
    copies there; one offset's run reads its shifted rows as they are),
    and added into the stencil sums that read it, rows of `sums` (both
    from `_workspace`): zeroed rows plus w*u in each `_W*` dict's order,
    the operations of `0.0 + w0*u0 + w1*u1 + ...`, so no bit moves.  The
    terms and the guard, copied from its (0, 0) run, are rows of `sums`.
    """
    import numpy as np
    b, h, n = float(b), FD_STEP, len(xs)
    xw, tw = work[tape.rows:]
    sums, shifted = sums[:9, :n], sums[9:, :n]
    # u0, d2 and tmp first: they are free again once the terms are made
    u0, d2, tmp, ux, uxx, uxxx, ut, uxxt, guard = sums
    sums[1] = sums[3:8] = 0.0
    x_at, t_at = shifted[:len(_FD_XS)], shifted[len(_FD_XS):]
    for row, i in zip(x_at, _FD_XS):
        np.add(xs, i * h, row)
    for row, j in zip(t_at, _FD_TS):
        np.add(ts, j * h, row)

    def acc(row, w, v):
        np.add(row, np.multiply(w, v, tmp), row)

    per_run = max(1, BLOCK // n)
    for lo in range(0, len(_FD_OFFSETS), per_run):
        group = _FD_OFFSETS[lo:lo + per_run]
        width = len(group) * n
        if per_run == 1:
            point = {"x": x_at[_FD_XS.index(group[0][0])], "t": t_at[_FD_TS.index(group[0][1])]}
        else:  # each offset's copy, gathered into one run
            np.take(x_at, [_FD_XS.index(i) for i, _ in group], 0, xw[:width].reshape(-1, n), "clip")
            np.take(t_at, [_FD_TS.index(j) for _, j in group], 0, tw[:width].reshape(-1, n), "clip")
            point = {"x": xw[:width], "t": tw[:width]}
        u, g = tape.run(point, work[:tape.rows, :width])
        for k, (i, j) in enumerate(group):
            v = u if np.ndim(u) == 0 else u[k * n:(k + 1) * n]
            if j == 0:
                if i == 0:
                    np.copyto(u0, v)
                    np.copyto(guard, g if np.ndim(g) == 0 else g[k * n:(k + 1) * n])
                for row, weights in ((ux, _W1), (uxx, _W2), (uxxx, _W3)):
                    if i in weights:
                        acc(row, weights[i], v)
                continue
            if i == 0:
                acc(ut, _W1[j], v)
            acc(d2, _W2[i], v)
            if i == 2:  # u_xx at this t offset is complete
                acc(uxxt, _W1[j], np.divide(d2, 12 * h * h, d2))
                d2[:] = 0.0
    for row, scale in ((ux, 12 * h), (uxx, 12 * h * h), (uxxx, 8 * h ** 3),
                       (ut, 12 * h), (uxxt, 12 * h)):
        np.divide(row, scale, row)
    # (b+1)*u0*u0*ux, -b*ux*uxx and -u0*uxxx, left to right, into the
    # rows of ux, uxx and uxxx (uxx's first: it reads ux)
    np.multiply(np.multiply(-b, ux, tmp), uxx, uxx)
    np.multiply(np.multiply(np.multiply(b + 1, u0, tmp), u0, tmp), ux, ux)
    np.multiply(np.negative(u0, u0), uxxx, uxxx)
    return ut, np.negative(uxxt, uxxt), ux, uxx, uxxx, guard


def _block_maxima(terms, guard, eps_den, sums, skip):
    """One block's (points kept, max |R|, max scaled |R|): R and the scale
    summed left to right in place into rows of `sums`, then zeroed at the
    points skipped, where |guard| < eps_den or the guard is NaN (marked in
    the bool row `skip`); a NaN or inf counts as inf, as in the report."""
    import numpy as np
    res, scale, tmp = sums
    kept = int(np.count_nonzero(np.greater_equal(np.abs(guard, tmp), eps_den, skip)))
    np.add(terms[0], terms[1], res)
    np.add(np.abs(terms[0], scale), np.abs(terms[1], tmp), scale)
    for t in terms[2:]:
        np.add(res, t, res)
        np.add(scale, np.abs(t, tmp), scale)
    if kept < skip.size:
        np.copyto(sums[:2], 0.0, where=np.logical_not(skip, skip))
    top = float(np.max(np.abs(res, res)))  # NaN when any R is NaN
    if not (math.isfinite(top) and math.isfinite(float(np.max(scale)))):
        return kept, (math.inf if math.isnan(top) else top), math.inf
    np.maximum(1.0, scale, out=scale)
    return kept, top, float(np.max(np.divide(res, scale, scale)))


def verify_on_grid(u, b, grid=None, tol=None, guard=None, method="symbolic"):
    """Evaluate the residual of `u(x, t)` at every unguarded grid point.

    `guard` is the family's singular denominator in (x, t) (constant 1 for
    pole-free families); points with |guard| below `grid.eps_den`, or where
    the guard is not finite, are skipped and counted; one tape computes the
    guard after the residual's terms (or u).  `method` selects the
    symbolic-derivative path or the finite-difference cross-check path.
    `tol` (by default the method's) must be finite and > 0.
    """
    import numpy as np
    if method not in ("symbolic", "finite-difference"):
        raise ValueError(f"unknown method {method!r}")
    grid = grid or GridSpec()
    if tol is None:
        tol = DEFAULT_TOL_SYMBOLIC if method == "symbolic" else DEFAULT_TOL_FINITE_DIFF
    elif not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    guard = ex.ONE if guard is None else ex.as_expr(guard)
    symbolic = method == "symbolic"

    xs, ts = grid.points()
    n_total, n_keep = xs.size, 0
    with np.errstate(all="ignore"):  # non-finite values are screened by the reductions
        # the guard last (`expr.Tape`): it may be built apart from u
        tape = ex.Tape((*mdp_residual_terms(u, b), guard) if symbolic else (u, guard))
        work, sums = _workspace(tape, n_total, symbolic)
        skip = np.empty(min(BLOCK, n_total), dtype=bool)
        max_abs = max_scaled = -math.inf
        for lo in range(0, n_total, BLOCK):
            xb, tb = xs[lo:lo + BLOCK], ts[lo:lo + BLOCK]
            m = xb.size
            *terms, g = (tape.run({"x": xb, "t": tb}, work[:, :m]) if symbolic
                         else _fd_terms(tape, b, xb, tb, work, sums))
            kept, top, top_scaled = _block_maxima(terms, g, grid.eps_den, sums[:3, :m], skip[:m])
            n_keep += kept
            max_abs, max_scaled = max(max_abs, top), max(max_scaled, top_scaled)
    if n_keep == 0:
        raise AllPointsSkipped("the singularity guard swallowed the whole grid; "
                               "widen the grid or revisit the parameters")
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
