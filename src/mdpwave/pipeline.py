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
    """Monomials of one compiled stack in block order (see `_stack`):
    `rows[t]` are term t's exponents of the unknowns, `coefs[t]` its float
    coefficient, `owner[t]` its output bin and `mono[t]` its monomial's row;
    block k is terms `blocks[k]:blocks[k + 1]`, bin b sums in row `place[b]`."""

    rows: np.ndarray
    coefs: np.ndarray
    owner: np.ndarray
    mono: np.ndarray
    place: np.ndarray
    blocks: tuple


def _stack(rows, coefs, owner, width, mono):
    """A `_Stack` of terms given in stored order over `width` bins, with
    `mono` their monomials' rows.  Bins are placed by falling term count,
    and block k holds the k-th term of every bin with more than k terms, in
    the bins' places, so a bin sums 0.0 plus its terms in stored order, one
    block at a time: the order np.bincount adds in."""
    bins, rank, counts = owner.tolist(), [], [0] * width
    for b in bins:  # each term's rank among its bin's terms
        rank.append(counts[b])
        counts[b] += 1
    place = np.empty(width, dtype=np.int64)
    place[sorted(range(width), key=lambda b: -counts[b])] = np.arange(width)
    order = sorted(range(len(bins)), key=lambda t: (rank[t], place[bins[t]]))
    return _Stack(rows[order], np.array(coefs, dtype=float)[order], owner[order], mono[order],
                  place, tuple(np.cumsum([0, *np.bincount(rank)]).tolist()))


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

    Each point's column is bitwise what evaluating that point alone gives:
    the monomials (see `powers`) are multiplied factor by factor in the
    unknowns' order, and each bin adds its terms in stored order, one block
    at a time (see `_stack`), as np.bincount does."""

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
        jac_rows, jac_coefs, jac_owner = [], [], []
        for k in range(n_unk):
            hit = np.flatnonzero(E[:, k])
            lowered = E[hit]
            lowered[:, k] -= 1
            jac_rows.append(lowered)
            jac_coefs += [nums[i] * rows[i][k] / den for i in hit]
            jac_owner.append(owner[hit] * n_unk + k)
        jac_rows = np.concatenate(jac_rows)
        # each distinct monomial once: factors[:, m] are monomial m's powers
        # with a nonzero exponent, in the unknowns' order, padded with row 0
        # (x^0 = 1.0), as multiplying by 1.0 is exact for every float
        keys = list(map(tuple, np.concatenate([E, jac_rows]).tolist()))
        at = {e: m for m, e in enumerate(dict.fromkeys(keys))}
        mono = np.array([at[e] for e in keys], dtype=np.int64)
        facs = [[j * self.degree + k for j, k in enumerate(e) if k] for e in at]
        depth = max([1, *map(len, facs)])
        self.factors = np.array([f + [0] * (depth - len(f)) for f in facs],
                                dtype=np.int64).reshape(-1, depth).T
        # the power rows read, with exponent k >= 2
        self.pows = np.array(sorted({f for fs in facs for f in fs if f % self.degree > 1}),
                             dtype=np.int64)
        self.exps = (self.pows % self.degree)[:, None].astype(float)
        self.res = _stack(E, [n / den for n in nums], owner, self.n_eq, mono[:len(E)])
        self.jac = _stack(jac_rows, jac_coefs, np.concatenate(jac_owner),
                          self.n_eq * n_unk, mono[len(E):])

    def powers(self, X):
        """The (monomials, points) table at the points X (points, unknowns):
        row m is the product of rows `factors[:, m]` of a power table whose
        row j * degree + k, if read, is X[:, j] ** k, by one np.power call on
        a full exponent array: given a stride-0 exponent 2, numpy squares by
        x * x, which can differ from pow by an ulp."""
        n = len(X)
        table = np.empty((len(UNKNOWNS), self.degree, n))
        table[0, 0] = 1.0
        table[:, 1:2] = X.T[:, None]
        table = table.reshape(len(UNKNOWNS) * self.degree, n)
        table[self.pows] = np.power(X.T[self.pows // self.degree], np.repeat(self.exps, n, axis=1))
        monos = table[self.factors[0]]
        for f in self.factors[1:]:
            monos *= table[f]
        return monos

    @staticmethod
    def _terms(stack, table, out=None):
        terms = table[stack.mono]
        return np.multiply(terms, stack.coefs[:, None], out=terms if out is None else out)

    @staticmethod
    def _sums(stack, terms):
        """(bins, ...) sums of a (terms, ...) stack, one add per block."""
        out = np.zeros((len(stack.place),) + terms.shape[1:])
        for lo, hi in zip(stack.blocks, stack.blocks[1:]):
            out[:hi - lo] += terms[lo:hi]
        return out[stack.place]

    def residual_scaled(self, table):
        """(residual, |residual| / max(1, sum of term magnitudes)) per point."""
        both = np.empty((len(self.res.mono), 2, table.shape[1]))
        np.abs(self._terms(self.res, table, both[:, 0]), out=both[:, 1])
        sums = self._sums(self.res, both)
        vals = sums[:, 0].T
        return vals, np.abs(vals) / np.maximum(1.0, sums[:, 1].T)

    def jacobian(self, table):
        """(points, equations, unknowns) stack of partials, in one pass."""
        out = self._sums(self.jac, self._terms(self.jac, table)).T
        return out.reshape(len(out), self.n_eq, len(UNKNOWNS))


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
_LEVELS, _TAIL_POINTS = 31, 256  # one call tries all levels left at <= 256 candidates


def _line_search(compiled, X, step, norm):
    """Damped steps for a stack of points: for each point i, the first m in
    0..30 at which X[i] + step[i] halved m times is finite with a residual
    infinity-norm <= norm[i].

    The levels are evaluated in `_HALVING_GROUPS`, every level of a group in
    one residual call, so a point costs at most six calls and at most twice
    the levels it needs, or in one call once (points trying) * (levels left)
    is at most _TAIL_POINTS.  Each halving is an exact multiplication by
    0.5, with the bits of halving one level at a time.  Returns the accepted
    points' indices, in the order accepted, and their new points, monomial
    table columns, residual and scaled residual.
    """
    n_unk = X.shape[1]
    trying = np.arange(len(X))
    found = []
    for lo, hi in _HALVING_GROUPS:
        if trying.size * (_LEVELS - lo) <= _TAIL_POINTS:
            hi = _LEVELS
        levels = np.empty((hi - lo,) + step.shape)
        levels[0], levels[1:] = step, 0.5
        levels = np.multiply.accumulate(levels)
        cand = (X + levels).reshape(-1, n_unk)
        table = compiled.powers(cand)
        r, scaled = compiled.residual_scaled(table)
        nn = np.max(np.abs(r), axis=1).reshape(hi - lo, trying.size)
        good = np.isfinite(nn) & (nn <= norm)
        hit = good.any(axis=0)
        src = good[:, hit].argmax(axis=0) * trying.size + np.flatnonzero(hit)
        found.append((trying[hit], cand[src], table[:, src], r[src], scaled[src]))
        if hi == _LEVELS or hit.all():
            break
        miss = ~hit
        trying, X, step, norm = trying[miss], X[miss], levels[-1, miss] * 0.5, norm[miss]
    idx, new_X, table, r, scaled = zip(*found)
    return (np.concatenate(idx), np.concatenate(new_X), np.concatenate(table, axis=1),
            np.concatenate(r), np.concatenate(scaled))


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
    call and every level left in one call for the last few seeds (see
    `_line_search`); the monomial table columns and residuals found at
    accepted points start the next iteration.  A start whose Jacobian or
    step is non-finite (a failed dgelsd returns NaN) or that stops
    improving is abandoned, never
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
            live, table, r, norm = live[keep], table[:, keep], r[keep], norm[keep]
            if not live.size:
                break
            J = compiled.jacobian(table)
            trying = np.flatnonzero(np.isfinite(J).all(axis=(1, 2)))
            step = _lstsq_stack(J[trying], -r[trying], pool, cpus)
            finite = np.isfinite(step).all(axis=1)
            trying, step = trying[finite], step[finite]
            idx, new_X, table, r, scaled = _line_search(
                compiled, X[live[trying]], step, norm[trying])
            live = live[trying[idx]]
            X[live] = new_X

    roots = sorted(tuple(float(v) for v in X[i]) for i in np.flatnonzero(converged))
    return _dedup(roots, dedup_tol)
