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
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConstraintViolation, UnsupportedOrder
from .polyalg import VARS, MultiPoly, PhiLaurent, evaluate_all
from .riccati import S_LABEL, base_violations, discriminant, is_degenerate

# The gufunc behind np.linalg.lstsq (see _lstsq_stack).  It is private numpy
# API, and older numpy split it into lstsq_m and lstsq_n, so a numpy without
# it fails at import rather than mid-solve.
try:
    from numpy.linalg._umath_linalg import lstsq as _gelsd
    if "ddd->ddid" not in _gelsd.types:
        raise ImportError("no 'ddd->ddid' loop")
except ImportError as err:
    raise ImportError(
        "mdpwave.pipeline needs numpy.linalg._umath_linalg.lstsq with a "
        f"'ddd->ddid' loop (numpy >= 2.4); numpy {np.__version__} lacks it"
    ) from err

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


def ansatz_laurent(m):
    """The trial Laurent object for order m: support -m..m with symbolic
    coefficients c_m..c_1, a0, a1..a_m."""
    if m < 1:
        raise UnsupportedOrder("ansatz order must be >= 1")
    if m > 2:
        raise UnsupportedOrder("no symbolic coefficients beyond order 2")
    coeffs = {0: MultiPoly.variable("a0")}
    for i in range(1, m + 1):
        coeffs[i] = MultiPoly.variable(f"a{i}")
        coeffs[-i] = MultiPoly.variable(f"c{i}")
    return PhiLaurent(coeffs)


@dataclass(frozen=True)
class AlgebraicSystem:
    """Cleared coefficient equations, one MultiPoly per surviving phi-power."""

    equations: tuple          # tuple[MultiPoly, ...]
    powers: tuple             # original phi-power of each equation (post-clearing)
    unknowns: tuple = UNKNOWNS
    parameters: tuple = PARAMETERS

    def to_json_dict(self):
        return {
            "variables": list(VARS),
            "unknowns": list(self.unknowns),
            "parameters": list(self.parameters),
            "powers": list(self.powers),
            "equations": [
                [[list(e), c.numerator, c.denominator] for e, c in eq.sorted_terms()]
                for eq in self.equations
            ],
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    @classmethod
    def from_json_dict(cls, d):
        if tuple(d["variables"]) != VARS:
            raise ValueError("variable layout mismatch")
        eqs = tuple(
            MultiPoly({tuple(e): Fraction(num, den) for e, num, den in eq})
            for eq in d["equations"]
        )
        return cls(equations=eqs, powers=tuple(d["powers"]),
                   unknowns=tuple(d["unknowns"]), parameters=tuple(d["parameters"]))

    @classmethod
    def from_json(cls, text):
        return cls.from_json_dict(json.loads(text))


def generate_system(m=2):
    """Form the residual of the order-m ansatz, clear phi^-7, and collect.

    Only m = 2 is supported.  The generator checks that the most negative
    residual exponent really is -7 and fails loudly otherwise.
    """
    if m != 2:
        raise UnsupportedOrder("only the order-2 ansatz is generated")
    u = ansatz_laurent(m)
    u1 = u.derivative()
    u2 = u1.derivative()
    u3 = u2.derivative()
    b = MultiPoly.variable("b")
    lam = MultiPoly.variable("lam")
    residual = (u1 * u * u * (b + 1)
                - u3 * u
                - u3 * lam
                + u1 * lam
                - u1 * u2 * b)
    low = min(residual.support)
    if low != -_CLEARING_POWER:
        raise RuntimeError(
            f"clearing-power bookkeeping broke: lowest exponent {low} != -7"
        )
    cleared = residual.shift(_CLEARING_POWER)
    powers = tuple(k for k in cleared.support)
    equations = tuple(cleared.coeff(k) for k in powers)
    if len(equations) > 15 or max(powers) > 14 or min(powers) < 0:
        raise RuntimeError("collected equation range is out of bounds")
    return AlgebraicSystem(equations=equations, powers=powers)


def check_assignment(system, values):
    """Residual of every equation at a full binding of unknowns and
    parameters.  Exact rationals in, exact rationals out."""
    missing = [v for v in VARS if v not in values]
    if missing:
        raise KeyError(f"unbound variable(s): {', '.join(missing)}")
    return evaluate_all(system.equations, values)


def _sqrt_exact_or_float(value):
    """sqrt of a nonnegative rational: exact when a perfect square."""
    q = Fraction(value)
    if q < 0:
        raise ConstraintViolation([S_LABEL])
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return math.sqrt(q)


def _case_violations(case, alpha, beta, gamma, b):
    out = base_violations(b)
    if case == "first":
        if beta == 0:
            out.append("beta != 0")
        if not is_degenerate(alpha, beta, gamma):
            out.append("beta^2 = 4*alpha*gamma")
    elif case == "second":
        if alpha != 0:
            out.append("alpha = 0")
        if beta == 0:
            out.append("beta != 0")
    elif case == "third":
        if beta != 0:
            out.append("beta = 0")
        if alpha * gamma == 0:
            out.append("alpha*gamma != 0")
    elif case == "fourth":
        if beta * beta - 4 * alpha * gamma == 0:
            out.append("Delta != 0")
    else:
        raise ValueError(f"unknown case {case!r}")
    return out


def ansatz_tuple(fid, alpha, beta, gamma, b):
    """The solved (a0, a1, a2, c1, c2, lam) tuple for one phi-power family.

    Values are exact rationals whenever the case's radical is a rational
    square (floats otherwise).  Raises ConstraintViolation when the case
    condition or a radicand fails.
    """
    case = next((c for c, fams in CASE_FAMILIES.items() if fid in fams), None)
    if case is None:
        raise ValueError(f"{fid!r} is not a phi-power family")
    alpha, beta, gamma, b = (Fraction(v) for v in (alpha, beta, gamma, b))
    bad = _case_violations(case, alpha, beta, gamma, b)
    if bad:
        raise ConstraintViolation(bad)
    p1, p2 = b + 1, b + 2
    zero = Fraction(0)

    def radical(k, sign):
        """(sign*sqrt(S), lam) for S = discriminant(b, k)."""
        root = sign * _sqrt_exact_or_float(discriminant(b, k))
        return root, (-b - 1 + root) / 2

    if fid == "u11":
        return {
            "a0": Fraction(3, 2) * p2 * beta * beta / p1 - 1,
            "a1": zero, "a2": zero,
            "c1": 6 * p2 * alpha * beta / p1,
            "c2": 6 * p2 * alpha * alpha / p1,
            "lam": -b - 1,
        }
    if fid in ("u12", "u13"):
        root, lam = radical(beta ** 4, -1 if fid == "u12" else 1)
        return {
            "a0": (p2 * beta * beta - b - 1 + root) / (2 * p1),
            "a1": 6 * p2 * beta * gamma / p1,
            "a2": 6 * p2 * gamma * gamma / p1,
            "c1": zero, "c2": zero,
            "lam": lam,
        }
    if fid in ("u14", "u15"):
        ag = alpha * gamma
        root, lam = radical(256 * ag * ag, -1 if fid == "u14" else 1)
        return {
            "a0": (8 * ag * b + 16 * ag - b - 1 + root) / (2 * p1),
            "a1": zero,
            "a2": 6 * p2 * gamma * gamma / p1,
            "c1": zero,
            "c2": 6 * p2 * alpha * alpha / p1,
            "lam": lam,
        }
    if fid in ("u16", "u17", "u18", "u19"):
        ag = alpha * gamma
        root, lam = radical(16 * ag * ag, -1 if fid in ("u16", "u17") else 1)
        a2 = 6 * p2 * gamma * gamma / p1 if fid in ("u17", "u19") else zero
        c2 = 6 * p2 * alpha * alpha / p1 if fid in ("u16", "u18") else zero
        return {
            "a0": (8 * ag * b + 16 * ag - b - 1 + root) / (2 * p1),
            "a1": zero, "a2": a2, "c1": zero, "c2": c2,
            "lam": lam,
        }
    # fourth case
    delta = beta * beta - 4 * alpha * gamma
    ag = alpha * gamma
    root, lam = radical(delta * delta, -1 if fid in ("u20", "u23") else 1)
    a0 = (24 * ag + 2 * delta + b * (12 * ag + delta - 1) - 1 + root) / (2 * p1)
    if fid in ("u20", "u21"):
        return {
            "a0": a0,
            "a1": 6 * p2 * beta * gamma / p1,
            "a2": 6 * p2 * gamma * gamma / p1,
            "c1": zero, "c2": zero,
            "lam": lam,
        }
    return {
        "a0": a0, "a1": zero, "a2": zero,
        "c1": 6 * p2 * alpha * beta / p1,
        "c2": 6 * p2 * alpha * alpha / p1,
        "lam": lam,
    }


class _CompiledSystem:
    """Float-compiled view of a specialized system, evaluated at a batch of
    points at once: one stacked monomial matrix for the residual and one
    per partial.

    Each point's row is bitwise what evaluating that point alone gives: the
    powers come from one table, each monomial is multiplied column by column
    in the unknowns' order, and np.bincount adds each equation's terms in
    their stored order, one segment per point."""

    def __init__(self, polys):
        self.n_eq = len(polys)
        var_slots = [VARS.index(u) for u in UNKNOWNS]

        def compile_stack(poly_list):
            rows, coefs, owner = [], [], []
            for j, poly in enumerate(poly_list):
                for e, c in poly.sorted_terms():
                    rows.append([e[s] for s in var_slots])
                    coefs.append(float(c))
                    owner.append(j)
            if not rows:
                rows = [[0] * len(UNKNOWNS)]
                coefs = [0.0]
                owner = [0]
            return (np.array(rows, dtype=np.int64), np.array(coefs), np.array(owner))

        self.res = compile_stack(polys)
        self.jac = [compile_stack([p.diff(u) for p in polys]) for u in UNKNOWNS]
        self.degree = 1 + max(int(E.max()) for E, _, _ in (self.res, *self.jac))

    def powers(self, X):
        """Table of X[s, j] ** k for k < degree, shared by every stack."""
        return np.power(X[:, :, None], np.arange(self.degree))

    def _eval_stack(self, stack, table, want_scale=False):
        E, c, owner = stack
        n = len(table)
        terms = table[:, 0, E[:, 0]]
        for j in range(1, E.shape[1]):
            terms *= table[:, j, E[:, j]]
        terms *= c
        bins = (np.arange(n)[:, None] * self.n_eq + owner).ravel()
        size = n * self.n_eq
        vals = np.bincount(bins, weights=terms.ravel(), minlength=size)
        vals = vals.reshape(n, self.n_eq)
        if not want_scale:
            return vals
        np.abs(terms, out=terms)
        scale = np.bincount(bins, weights=terms.ravel(), minlength=size)
        return vals, scale.reshape(n, self.n_eq)

    def residual(self, table):
        return self._eval_stack(self.res, table)

    def residual_scaled(self, table):
        vals, scale = self._eval_stack(self.res, table, want_scale=True)
        return vals, np.abs(vals) / np.maximum(1.0, scale)

    def jacobian(self, table):
        cols = [self._eval_stack(stack, table) for stack in self.jac]
        return np.stack(cols, axis=2)


def _lstsq_stack(A, B):
    """Row i is np.linalg.lstsq(A[i], B[i], rcond=None)[0], bit for bit, for
    a (k, m, n) stack A and (k, m) stack B.

    np.linalg.lstsq is a 2-D front end to the same gufunc, which runs LAPACK
    dgelsd on each matrix of a stack in turn, with the same workspace size
    and rcond.  A matrix on which dgelsd fails gives a NaN row here instead
    of LinAlgError; call this under np.errstate(invalid="ignore") or wider.
    """
    rcond = np.finfo(float).eps * max(A.shape[1:])
    x, *_ = _gelsd(A, B[:, :, None], rcond, signature="ddd->ddid")
    return x[:, :, 0]


def newton_solve(system, fixed, seeds, rng_seed=0, box=(-20.0, 20.0),
                 max_iter=80, converge_tol=1e-12, dedup_tol=1e-6):
    """Multistart damped Gauss-Newton over the six unknowns.

    `fixed` binds alpha, beta, gamma, b (rationals).  All `seeds` starts are
    drawn at once, uniformly from box^6 with a fixed generator (the same
    stream as one draw per seed), and advance in lockstep, one iteration at
    a time, over the seeds still live.  Each iteration solves every live
    seed's least-squares step in one stacked LAPACK dgelsd call: the gufunc
    behind np.linalg.lstsq factors each matrix on its own, with the same
    workspace and rcond, so every step has the bits of a per-seed
    np.linalg.lstsq call.  Steps are then halved (up to 30 halvings on
    residual increase).  A start whose Jacobian or step is non-finite (a
    failed dgelsd returns NaN) or that stops improving is abandoned, never
    perturbed.  A seed does exactly the float operations, in the same order,
    that it would do iterated alone, so the roots are byte-identical to a
    per-seed loop.  Convergence requires the scaled residual infinity-norm
    below `converge_tol`, where each equation is scaled by max(1, sum of
    its term magnitudes) -- the absolute criterion is unattainable in double
    precision for roots of size O(10).  Roots are deduplicated at
    `dedup_tol` and returned lexicographically sorted; an empty list is a
    valid outcome.  Raises ValueError on a negative seed count.
    """
    missing = [p for p in PARAMETERS if p not in fixed]
    if missing:
        raise KeyError(f"missing fixed parameter(s): {', '.join(missing)}")
    if seeds < 0:
        raise ValueError("seeds must be >= 0")
    specialized = [eq.subs({k: Fraction(v) for k, v in fixed.items()})
                   for eq in system.equations]
    compiled = _CompiledSystem(specialized)
    rng = np.random.default_rng(rng_seed)
    lo, hi = box
    X = rng.uniform(lo, hi, size=(seeds, len(UNKNOWNS)))
    converged = np.zeros(seeds, dtype=bool)
    live = np.arange(seeds)

    with np.errstate(all="ignore"):
        for _ in range(max_iter):
            table = compiled.powers(X[live])
            r, scaled = compiled.residual_scaled(table)
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
            step[trying] = _lstsq_stack(J[trying], -r[trying])
            trying = trying[np.all(np.isfinite(step[trying]), axis=1)]
            accepted = np.zeros(live.size, dtype=bool)
            for _ in range(31):
                if not trying.size:
                    break
                xn = X[live[trying]] + step[trying]
                rn = compiled.residual(compiled.powers(xn))
                nn = np.max(np.abs(rn), axis=1)
                good = np.isfinite(nn) & (nn <= norm[trying])
                X[live[trying[good]]] = xn[good]
                accepted[trying[good]] = True
                trying = trying[~good]
                step[trying] = step[trying] / 2
            live = live[accepted]

    roots = [tuple(float(v) for v in X[i]) for i in np.flatnonzero(converged)]
    roots.sort()
    distinct = []
    for root in roots:
        if all(max(abs(a - b) for a, b in zip(root, kept)) > dedup_tol
               for kept in distinct):
            distinct.append(root)
    return distinct
