"""Re-derivation machinery for the phi-power ansatz route.

Builds u = a0 + sum_i (a_i phi^i + c_i phi^-i) as exact Laurent algebra in
phi, forms the traveling-wave residual

    (b+1) u' u^2 - u''' u - lam u''' + lam u' - b u' u''

through the rewrite phi' = alpha + beta*phi + gamma*phi^2, clears the most
negative phi power, and collects one exact polynomial equation per
surviving power.  The solved coefficient tuples for families u11..u23 can
be checked against that system with exact rational arithmetic, and the
specialized system can be solved numerically by a damped multistart
Gauss-Newton iteration.

`ansatz_tuple` admits a triple by its case's rows in `_CASE_CHECKS`,
conditions on the Riccati triple kept apart from the catalog's family rows
on purpose, and reads its tuple off one table.  With root = sign*sqrt(S),
the sign and S from `riccati.radical`, and K = beta^2 + 8*alpha*gamma
(which the case conditions make 3*beta^2, beta^2, 8*alpha*gamma or
12*alpha*gamma + Delta), a0 = ((b+2)K - (b+1) + root)/(2(b+1)) and lam =
`riccati.speed(b, root)` = (root - (b+1))/2; `_TAILS` names the tails among
a1, a2, c1, c2, each 6(b+2)/(b+1) times the product `_TAIL_FACTORS` names,
and the others are 0.
"""
from __future__ import annotations

import math
import os
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import expr as ex
from .errors import ConstraintViolation
from .polyalg import (VARS, MultiPoly, bind, laurent, laurent_coeff, laurent_derivative,
                      laurent_support)
from .riccati import (BASE_CHECKS, BETA_CHECK, S_LABEL, delta_of, exact, is_degenerate,
                      radical, speed, violations)

np = _gelsd = None  # numpy and its lstsq gufunc, bound by _load_numpy


def _load_numpy():
    """Bind numpy and the gufunc behind np.linalg.lstsq (see _lstsq_stack)
    on first Newton use, so the exact half of this module runs without
    numpy.  The gufunc is private numpy API, and older numpy split it into
    lstsq_m and lstsq_n, so a numpy without it fails at first Newton use
    rather than mid-solve."""
    global np, _gelsd
    if _gelsd is not None:
        return
    import numpy as np
    try:
        from numpy.linalg._umath_linalg import lstsq
        if "ddd->ddid" not in lstsq.types:
            raise ImportError("no 'ddd->ddid' loop")
    except ImportError as err:
        raise ImportError(
            "mdpwave.pipeline needs numpy.linalg._umath_linalg.lstsq with a "
            f"'ddd->ddid' loop (numpy >= 2.4); numpy {np.__version__} lacks it"
        ) from err
    _gelsd = lstsq

__all__ = [
    "UNKNOWNS", "PARAMETERS", "CASE_FAMILIES", "balance", "ansatz_laurent",
    "generate_system", "AlgebraicSystem",
    "check_assignment", "ansatz_tuple", "newton_solve",
]

UNKNOWNS = ("a0", "a1", "a2", "c1", "c2", "lam")
PARAMETERS = ("alpha", "beta", "gamma", "b")

CASE_FAMILIES = {
    "first": ("u11",),
    "second": ("u12", "u13"),
    "third": ("u14", "u15", "u16", "u17", "u18", "u19"),
    "fourth": ("u20", "u21", "u22", "u23"),
}

# leading phi-powers balanced against each other, as linear forms a*m + b
_BALANCE_PAIRS = (((3, 1), (2, 1)), ((3, 1), (1, 1)), ((2, 1), (1, 3)))

_CLEARING_POWER = 7  # most negative exponent of the m=2 residual is -7


def balance():
    """Admissible ansatz orders from equating competing leading powers.

    Each pair of leading exponents is linear in m; integer nonnegative
    roots are kept.  Returns exactly {0, 2}; the pipeline fixes m = 2
    downstream because m = 0 only yields constants.
    """
    out = set()
    for (s1, o1), (s2, o2) in _BALANCE_PAIRS:
        if s1 == s2:
            continue
        m = Fraction(o2 - o1, s1 - s2)
        if m.denominator == 1 and m >= 0:
            out.add(int(m))
    return out


def ansatz_laurent():
    """The order-2 trial Laurent object: support -2..2 with symbolic
    coefficients c2, c1, a0, a1, a2."""
    coeffs = {0: MultiPoly.variable("a0")}
    for i in (1, 2):
        coeffs[i] = MultiPoly.variable(f"a{i}")
        coeffs[-i] = MultiPoly.variable(f"c{i}")
    return laurent(coeffs)


@dataclass(frozen=True)
class AlgebraicSystem:
    """Cleared coefficient equations, one MultiPoly per surviving phi-power."""

    equations: tuple          # tuple[MultiPoly, ...]
    powers: tuple             # original phi-power of each equation (post-clearing)

    def to_json_dict(self):
        return {
            "variables": list(VARS),
            "unknowns": list(UNKNOWNS),
            "parameters": list(PARAMETERS),
            "powers": list(self.powers),
            "equations": [
                [[list(e), c.numerator, c.denominator] for e, c in eq.sorted_terms()]
                for eq in self.equations
            ],
        }

    @classmethod
    def from_json_dict(cls, d):
        for key, layout in (("variables", VARS), ("unknowns", UNKNOWNS),
                            ("parameters", PARAMETERS)):
            if tuple(d[key]) != layout:
                raise ValueError(f"{key} layout mismatch")
        eqs = tuple(
            MultiPoly({tuple(e): Fraction(num, den) for e, num, den in eq})
            for eq in d["equations"]
        )
        return cls(equations=eqs, powers=tuple(d["powers"]))


def generate_system():
    """Form the residual of the order-2 ansatz, clear phi^-7, and collect.

    The generator checks that the most negative residual exponent really
    is -7 and fails loudly otherwise.
    """
    u = ansatz_laurent()
    u1 = laurent_derivative(u)
    u2 = laurent_derivative(u1)
    u3 = laurent_derivative(u2)
    b = MultiPoly.variable("b")
    lam = laurent({0: MultiPoly.variable("lam")})
    residual = (u1 * u * u * laurent({0: b + 1})
                - u3 * u
                - u3 * lam
                + u1 * lam
                - u1 * u2 * laurent({0: b}))
    low = min(laurent_support(residual))
    if low != -_CLEARING_POWER:
        raise RuntimeError(
            f"clearing-power bookkeeping broke: lowest exponent {low} != -7"
        )
    cleared = residual * laurent({_CLEARING_POWER: MultiPoly.const(1)})
    powers = tuple(laurent_support(cleared))
    equations = tuple(laurent_coeff(cleared, k) for k in powers)
    if len(equations) > 15 or max(powers) > 14 or min(powers) < 0:
        raise RuntimeError("collected equation range is out of bounds")
    return AlgebraicSystem(equations=equations, powers=powers)


def check_assignment(system, values):
    """Residual of every equation at a full binding of unknowns and
    parameters, evaluated exactly (`polyalg.bind`).  Exact rationals give
    Fractions; if any value is a float, every value is taken at its exact
    binary value and each residual is the exact one rounded once to a
    float.  Raises KeyError on a missing variable and ValueError on a
    non-finite value."""
    missing = [v for v in VARS if v not in values]
    if missing:
        raise KeyError(f"unbound variable(s): {', '.join(missing)}")
    den, groups = bind(system.equations, values)
    nums = [g.get((), 0) for g in groups]
    if any(isinstance(v, float) for v in values.values()):
        return [n / den for n in nums]
    return [Fraction(n, den) for n in nums]


def _sqrt_exact_or_float(value):
    """sqrt of a nonnegative rational: exact when a perfect square."""
    if value < 0:
        raise ConstraintViolation([S_LABEL])
    root = ex.sym_sqrt(value)
    return root.value if isinstance(root, ex.Rational) else math.sqrt(value)


# Each case's conditions on the Riccati triple, as (label, fails) rows.
# They are kept apart from the catalog's family rows on purpose: the third
# case accepts alpha*gamma < 0, which u14 rejects.
_CASE_CHECKS = {
    "first": BASE_CHECKS + (BETA_CHECK, (
        "beta^2 = 4*alpha*gamma",
        lambda p: not is_degenerate(p["alpha"], p["beta"], p["gamma"]))),
    "second": BASE_CHECKS + (("alpha = 0", lambda p: p["alpha"] != 0), BETA_CHECK),
    "third": BASE_CHECKS + (("beta = 0", lambda p: p["beta"] != 0),
                            ("alpha*gamma != 0", lambda p: p["alpha"] * p["gamma"] == 0)),
    "fourth": BASE_CHECKS + (("Delta != 0", lambda p: delta_of(p) == 0),),
}


_TAILS = {"u11": "c1 c2", "u12": "a1 a2", "u13": "a1 a2", "u14": "a2 c2", "u15": "a2 c2",
          "u16": "c2", "u17": "a2", "u18": "c2", "u19": "a2", "u20": "a1 a2",
          "u21": "a1 a2", "u22": "c1 c2", "u23": "c1 c2"}
_TAIL_FACTORS = {"a1": ("beta", "gamma"), "a2": ("gamma", "gamma"),
                 "c1": ("alpha", "beta"), "c2": ("alpha", "alpha")}
_ZERO = Fraction(0)


def ansatz_tuple(fid, alpha, beta, gamma, b):
    """The solved (a0, a1, a2, c1, c2, lam) tuple for one phi-power family
    (see the module docstring): exact rationals whenever S is a rational
    square, as all arithmetic is exact up to the one `+ root`, and floats
    otherwise.  Raises ConstraintViolation when the case condition or a
    radicand fails."""
    case = next((c for c, fams in CASE_FAMILIES.items() if fid in fams), None)
    if case is None:
        raise ValueError(f"{fid!r} is not a phi-power family")
    alpha, beta, gamma, b = map(exact, (alpha, beta, gamma, b))
    p = {"alpha": alpha, "beta": beta, "gamma": gamma, "b": b}
    bad = violations(_CASE_CHECKS[case], p)
    if bad:
        raise ConstraintViolation(bad)
    p1, p2 = b + 1, b + 2
    sign, S = radical(fid, p)
    root = sign * _sqrt_exact_or_float(S)
    a0 = (p2 * (beta * beta + 8 * alpha * gamma) - p1 + root) / (2 * p1)
    weight, tails = 6 * p2 / p1, _TAILS[fid]
    return {"a0": a0, **{name: weight * p[x] * p[y] if name in tails else _ZERO
                         for name, (x, y) in _TAIL_FACTORS.items()}, "lam": speed(b, root)}


class _Stack(NamedTuple):
    """Monomials of one compiled stack: `rows[t]` are term t's exponents of
    the unknowns, `coefs[t]` its float coefficient and `owner[t]` its output
    bin; `factors[f, t]` indexes the f-th factor of term t in a flattened
    power table."""

    rows: np.ndarray
    coefs: np.ndarray
    owner: np.ndarray
    factors: np.ndarray


def _stack(rows, coefs, owner, degree):
    """A `_Stack` whose factors are the powers of the unknowns with a nonzero
    exponent, in the unknowns' order, padded with column 0 of the table
    (x^0 = 1.0).  Multiplying by 1.0 is exact for every float, so the product
    has the bits of multiplying all six powers column by column."""
    nonzero = rows > 0
    rank = np.cumsum(nonzero, axis=1) - 1  # place of each factor in its term
    factors = np.zeros((max(1, int(rank.max(initial=0)) + 1), len(rows)), dtype=np.int64)
    t, cols = np.nonzero(nonzero)
    factors[rank[t, cols], t] = cols * degree + rows[t, cols]
    return _Stack(rows, np.array(coefs, dtype=float), owner, factors)


class _CompiledSystem:
    """Float view of `system` with alpha, beta, gamma and b bound to `fixed`,
    evaluated at a batch of points at once: one monomial stack for the
    residual and one fused stack for its six partials.

    `polyalg.bind` gives each equation's integer numerators over one common
    denominator, grouped by the unknowns' exponents with zero sums dropped.
    The groups are sorted by exponents and each is converted by one
    correctly rounded int / int division, so every coefficient is
    float(Fraction) of the exact specialized coefficient.  The partial in
    unknown k comes from the residual rows: exponent k lowered by one and the
    integer numerator multiplied by it, the exact derivative; lowering one
    coordinate keeps the rows sorted.  Partial k of equation j lands in bin
    j * 6 + k.

    Each point's row is bitwise what evaluating that point alone gives: the
    powers come from one table, each monomial is multiplied factor by factor
    in the unknowns' order, and np.bincount adds each bin's terms in their
    stored order, one segment per point."""

    def __init__(self, system, fixed):
        _load_numpy()
        n_unk = len(UNKNOWNS)
        # the unbound variables are UNKNOWNS, which lead VARS in the same order
        den, groups = bind(system.equations, {p: fixed[p] for p in PARAMETERS})
        rows, nums, owner = [], [], []
        for j, eq in enumerate(groups):
            for key in sorted(eq):
                rows.append(key)
                nums.append(eq[key])
                owner.append(j)

        self.n_eq = len(system.equations)
        E = np.array(rows, dtype=np.int64).reshape(-1, n_unk)
        self.degree = 1 + int(E.max(initial=0))
        owner = np.array(owner, dtype=np.int64)
        self.res = _stack(E, [n / den for n in nums], owner, self.degree)
        jac_rows, jac_coefs, jac_owner = [], [], []
        for k in range(n_unk):
            hit = np.flatnonzero(E[:, k])
            lowered = E[hit]
            lowered[:, k] -= 1
            jac_rows.append(lowered)
            jac_coefs += [nums[i] * rows[i][k] / den for i in hit]
            jac_owner.append(owner[hit] * n_unk + k)
        self.jac = _stack(np.concatenate(jac_rows), jac_coefs,
                          np.concatenate(jac_owner), self.degree)

    def powers(self, X):
        """Table of X[s, j] ** k for k < degree, shared by every stack.

        Columns 0 and 1 are 1.0 and X, the bits np.power gives there.  The
        np.power call takes at least two exponents: given the one exponent 2,
        numpy squares by x * x, which can differ from pow by an ulp."""
        table = np.empty(X.shape + (self.degree,))
        table[:, :, 0] = 1.0
        if self.degree > 1:
            table[:, :, 1] = X
        lo = 1 if self.degree == 3 else 2
        table[:, :, lo:] = np.power(X[:, :, None], np.arange(lo, self.degree))
        return table

    @staticmethod
    def _terms(stack, table):
        n, n_unk, degree = table.shape
        flat = table.reshape(n, n_unk * degree)
        terms = flat[:, stack.factors[0]]
        for f in stack.factors[1:]:
            terms *= flat[:, f]
        terms *= stack.coefs
        return terms

    @staticmethod
    def _sums(owner, width, *weights):
        """Per point, the sum of each weight stack's terms in `width` bins."""
        n = len(weights[0])
        bins = (np.arange(n)[:, None] * width + owner).ravel()
        return [np.bincount(bins, weights=w.ravel(), minlength=n * width).reshape(n, width)
                for w in weights]

    def residual_scaled(self, table):
        """(residual, |residual| / max(1, sum of term magnitudes)) per point."""
        terms = self._terms(self.res, table)
        vals, scale = self._sums(self.res.owner, self.n_eq, terms, np.abs(terms))
        return vals, np.abs(vals) / np.maximum(1.0, scale)

    def jacobian(self, table):
        """(points, equations, unknowns) stack of partials, in one pass."""
        n_unk = len(UNKNOWNS)
        terms = self._terms(self.jac, table)
        out, = self._sums(self.jac.owner, self.n_eq * n_unk, terms)
        return out.reshape(len(table), self.n_eq, n_unk)


# Least-squares stacks of at least 2 * _SPLIT_ROWS matrices are solved in
# chunks of at least _SPLIT_ROWS matrices, one chunk per CPU.  Best of 15 on a
# 2-CPU Xeon host, 15x6 matrices at about 10 us each: a two-way split of 220
# matrices takes 1.31-1.34 ms against 2.13-2.14 ms for one call, and of 64
# matrices 0.43 ms against 0.62 ms; at 32 matrices the handoff to the worker
# thread takes all of the gain (0.34-0.41 ms against 0.31 ms).
_SPLIT_ROWS = 32


def _cpu_count():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _solve_chunk(out, A, B, rcond):
    """Solve the stack (A, B) into `out`, silencing the 'invalid value'
    warning of a failed dgelsd's NaN row.  numpy's errstate is context-local
    and a pool thread does not inherit its caller's, so each chunk sets its
    own."""
    with np.errstate(all="ignore"):
        x, *_ = _gelsd(A, B[:, :, None], rcond, signature="ddd->ddid")
    out[:] = x[:, :, 0]


def _lstsq_stack(A, B, pool=None, cpus=1):
    """Row i is np.linalg.lstsq(A[i], B[i], rcond=None)[0], bit for bit, for
    a (k, m, n) stack A and (k, m) stack B.

    np.linalg.lstsq is a 2-D front end to the same gufunc, which runs LAPACK
    dgelsd on each matrix of a stack in turn, with a workspace that depends
    only on (m, n, nrhs) and the same rcond.  Given a thread pool, the stack
    is cut into min(cpus, k // _SPLIT_ROWS) contiguous chunks; the calling
    thread solves the first and the pool the others, each by the same
    gufunc call, so every row keeps its bits.  A matrix on which dgelsd
    fails gives a NaN row here instead of LinAlgError, with no warning.
    """
    _load_numpy()
    rcond = np.finfo(float).eps * max(A.shape[1:])
    out = np.empty((len(A), A.shape[2]))
    parts = 1 if pool is None else max(1, min(cpus, len(A) // _SPLIT_ROWS))
    edges = [len(A) * i // parts for i in range(parts + 1)]
    futures = [pool.submit(_solve_chunk, out[lo:hi], A[lo:hi], B[lo:hi], rcond)
               for lo, hi in zip(edges[1:-1], edges[2:])]
    _solve_chunk(out[:edges[1]], A[:edges[1]], B[:edges[1]], rcond)
    for future in futures:
        future.result()
    return out


# step-halving levels m tried together, one residual call per group
_HALVING_GROUPS = ((0, 1), (1, 2), (2, 4), (4, 8), (8, 16), (16, 31))


def _line_search(compiled, X, step, norm):
    """Damped steps for a stack of points: for each point i, the first m in
    0..30 at which X[i] + step[i] halved m times is finite with a residual
    infinity-norm <= norm[i].

    The levels are evaluated in `_HALVING_GROUPS`, every level of a group in
    one residual call, so a point costs at most six calls and at most twice
    the levels it needs.  The step is halved by repeated division by two, so
    each candidate has exactly the bits of halving one level at a time.
    Returns the accepted mask and, in the rows of the accepted points, the
    new points with their power table, residual and scaled residual.
    """
    n, n_unk = X.shape
    new_X = np.empty_like(X)
    table = np.empty((n, n_unk, compiled.degree))
    r = np.empty((n, compiled.n_eq))
    scaled = np.empty_like(r)
    accepted = np.zeros(n, dtype=bool)
    trying = np.arange(n)
    for lo, hi in _HALVING_GROUPS:
        if not trying.size:
            break
        levels = []
        for _ in range(lo, hi):
            levels.append(step)
            step = step / 2
        cand = (X + np.stack(levels)).reshape(-1, n_unk)
        ctable = compiled.powers(cand)
        cr, cscaled = compiled.residual_scaled(ctable)
        nn = np.max(np.abs(cr), axis=1).reshape(hi - lo, trying.size)
        good = np.isfinite(nn) & (nn <= norm)
        hit = good.any(axis=0)
        src = good[:, hit].argmax(axis=0) * trying.size + np.flatnonzero(hit)
        rows = trying[hit]
        new_X[rows], table[rows], r[rows], scaled[rows] = (
            cand[src], ctable[src], cr[src], cscaled[src])
        accepted[rows] = True
        miss = ~hit
        trying, X, step, norm = trying[miss], X[miss], step[miss], norm[miss]
    return accepted, new_X, table, r, scaled


def _dedup(roots, tol):
    """Greedy: keep each root (in the given order) that differs from every
    kept root by more than `tol` in some coordinate."""
    R = np.array(roots).reshape(-1, len(UNKNOWNS))
    keep = np.zeros(len(R), dtype=bool)
    for i in range(len(R)):
        keep[i] = np.all(np.max(np.abs(R[:i][keep[:i]] - R[i]), axis=1) > tol)
    return [root for root, k in zip(roots, keep) if k]


def newton_solve(system, fixed, seeds, rng_seed=0, box=(-20.0, 20.0),
                 max_iter=80, converge_tol=1e-12, dedup_tol=1e-6):
    """Multistart damped Gauss-Newton over the six unknowns.

    `fixed` binds exactly alpha, beta, gamma, b (rationals); the system is
    specialized once, exactly, by `polyalg.bind`, and its partials are read
    off the specialized rows (see `_CompiledSystem`).  All `seeds` starts
    are drawn at once, uniformly from box^6 with a fixed generator (the same
    stream as one draw per seed), and advance in lockstep, one iteration at
    a time, over the seeds still live.  Each iteration evaluates the
    Jacobian of every live seed in one fused pass and solves every
    least-squares step by the gufunc behind np.linalg.lstsq (LAPACK
    dgelsd), the stack cut into chunks solved on up to one thread per CPU
    (see `_lstsq_stack`; a call of at least 2 * _SPLIT_ROWS seeds opens a
    pool of CPUs - 1 threads and shuts it down on return).  The gufunc
    factors each matrix on its own, with the same workspace and rcond, so
    every step has the bits of a per-seed np.linalg.lstsq call on any
    number of CPUs.  Steps are then halved
    (up to 30 halvings on residual increase), several halvings per residual
    call (see `_line_search`); the residual found at an accepted point starts
    the next iteration.  A start whose Jacobian or step is non-finite (a
    failed dgelsd returns NaN) or that stops improving is abandoned, never
    perturbed.  A seed does exactly the float operations, in the same order,
    that it would do iterated alone, so the roots are byte-identical to a
    per-seed loop.  Convergence requires the scaled residual infinity-norm
    below `converge_tol`, where each equation is scaled by max(1, sum of
    its term magnitudes) -- the absolute criterion is unattainable in double
    precision for roots of size O(10).  Roots are deduplicated at
    `dedup_tol` and returned lexicographically sorted; an empty list is a
    valid outcome.  Raises KeyError on a missing parameter, ValueError on a
    name outside PARAMETERS or a negative seed count, and ImportError,
    before any Newton work, on a numpy without the lstsq gufunc.
    """
    missing = [p for p in PARAMETERS if p not in fixed]
    if missing:
        raise KeyError(f"missing fixed parameter(s): {', '.join(missing)}")
    extra = [k for k in fixed if k not in PARAMETERS]
    if extra:
        raise ValueError(f"unknown fixed parameter(s): {', '.join(map(str, extra))} "
                         f"(fixed binds exactly {', '.join(PARAMETERS)})")
    if seeds < 0:
        raise ValueError("seeds must be >= 0")
    compiled = _CompiledSystem(system, fixed)
    rng = np.random.default_rng(rng_seed)
    lo, hi = box
    X = rng.uniform(lo, hi, size=(seeds, len(UNKNOWNS)))
    converged = np.zeros(seeds, dtype=bool)
    live = np.arange(seeds)
    cpus, pool = _cpu_count(), None
    if cpus > 1 and seeds >= 2 * _SPLIT_ROWS:
        from concurrent.futures import ThreadPoolExecutor  # loads logging: ~6 ms
        pool = ThreadPoolExecutor(cpus - 1)

    with pool or nullcontext(), np.errstate(all="ignore"):
        table = compiled.powers(X)
        r, scaled = compiled.residual_scaled(table)
        for _ in range(max_iter):
            norm = np.max(np.abs(r), axis=1)
            # drops starts with a non-finite residual; accepted steps are finite
            finite = np.isfinite(norm)
            done = finite & (np.max(scaled, axis=1) < converge_tol)
            converged[live[done]] = True
            keep = finite & ~done
            live, table, r, norm = live[keep], table[keep], r[keep], norm[keep]
            if not live.size:
                break
            J = compiled.jacobian(table)
            step = np.zeros((live.size, len(UNKNOWNS)))
            trying = np.flatnonzero(np.all(np.isfinite(J), axis=(1, 2)))
            step[trying] = _lstsq_stack(J[trying], -r[trying], pool, cpus)
            trying = trying[np.all(np.isfinite(step[trying]), axis=1)]
            accepted, new_X, table, r, scaled = _line_search(
                compiled, X[live[trying]], step[trying], norm[trying])
            live = live[trying[accepted]]
            X[live] = new_X[accepted]
            table, r, scaled = table[accepted], r[accepted], scaled[accepted]

    roots = sorted(tuple(float(v) for v in X[i]) for i in np.flatnonzero(converged))
    return _dedup(roots, dedup_tol)
