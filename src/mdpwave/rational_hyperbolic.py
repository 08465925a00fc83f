"""Rational-hyperbolic trial form

    u(xi) = (a0 + a1*sinh(xi) + a2*cosh(xi)) / (1 + c1*sinh(xi) + c2*cosh(xi))

with the eight solved parameter families u3..u10, certified by a
collocation identity test.  Each family's wave speed is its
`riccati.RADICALS` row, k = 1 and so S = 1: sign +1 gives lam = -b/2
(u3, u4, u7, u8) and sign -1 gives lam = -b/2 - 1.  The admissibility
of the eight families is the catalog's u3..u10 rows: `family_violations`
checks through `catalog.validate`.  FREE_PARAMETER names the coefficient
u7..u10 keep free, and FREE_RADICANDS its radicand.

The certificate exploits the exponential substitution zeta = exp(xi):
the traveling-wave residual times the 5th power of the ansatz denominator
is a polynomial in zeta of degree at most DEGREE_BOUND (see
docs/collocation_degree_bound.md for the counting argument), so vanishing
at DEGREE_BOUND + 1 distinct sample points proves it vanishes identically.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import expr as ex
from .errors import ConstraintViolation, SampleAtPole
from .riccati import RADICALS, exact, plain
from .verifier import ode_residual_terms

__all__ = [
    "RHAnsatzParams", "FAMILY_IDS", "rh_ansatz", "rh_denominator",
    "FREE_PARAMETER", "FREE_RADICANDS", "family_violations", "family_params", "coefficients",
    "CollocationReport", "collocation_identity_check", "DEGREE_BOUND",
]

XI = ex.var("xi")

FAMILY_IDS = ("u3", "u4", "u5", "u6", "u7", "u8", "u9", "u10")

DEGREE_BOUND = 16
COLLOCATION_RTOL = 1e-8
POLE_EPS = 1e-6
RESAMPLE_STEP = 0.0831  # deterministic jitter, irrational-ish vs the grid
MAX_RESAMPLES = 5


@dataclass(frozen=True)
class RHAnsatzParams:
    lam: float
    a0: float
    a1: float
    a2: float
    c1: float
    c2: float


def rh_ansatz(p, xi=XI):
    """The trial form at `xi` (the variable by default), constants exact."""
    num = ex.add(ex.as_expr(exact(p.a0)),
                 ex.mul(exact(p.a1), ex.sinh(xi)),
                 ex.mul(exact(p.a2), ex.cosh(xi)))
    return ex.div(num, rh_denominator(p, xi))


def rh_denominator(p, xi=XI):
    return ex.add(ex.ONE,
                  ex.mul(exact(p.c1), ex.sinh(xi)),
                  ex.mul(exact(p.c2), ex.cosh(xi)))


FREE_PARAMETER = {"u7": "a2", "u8": "a2", "u9": "c2", "u10": "c2"}
# by free parameter: (radicand(params) under c1's sqrt, label of its >= 0 row)
FREE_RADICANDS = {"a2": (lambda p: (p["b"] + 1) ** 2 * p["a2"] ** 2 - 1, "(b+1)^2*a2^2 >= 1"),
                  "c2": (lambda p: p["c2"] ** 2 - 1, "c2^2 >= 1")}


def family_violations(fid, b, a2=None, c2=None):
    """The catalog's violated predicates for one family, decided exactly
    for float inputs too; empty list when admissible.  Raises ValueError
    on an unknown family, a missing free parameter or a non-finite value.
    """
    from . import catalog  # the catalog imports this module at load
    if fid not in FAMILY_IDS:
        raise ValueError(f"unknown family {fid!r}")
    params = {"b": b}
    name = FREE_PARAMETER.get(fid)
    if name:
        params[name] = a2 if name == "a2" else c2
        if params[name] is None:
            raise ValueError(f"family {fid} requires the free parameter {name}")
    return catalog.validate(fid, params)


def family_params(fid, b, a2=None, c2=None):
    """The solved coefficient tuple for one of the eight families.

    u7/u8 keep a2 free, u9/u10 keep c2 free; only the radicand conditions
    are imposed on the free parameter.
    """
    bad = family_violations(fid, b, a2=a2, c2=c2)
    if bad:
        raise ConstraintViolation(bad)
    return coefficients(fid, b, a2=a2, c2=c2)


def coefficients(fid, b, a2=None, c2=None):
    """`family_params` for parameters already found admissible; an integer
    b of any type gives the exact tuple that the Fraction b gives."""
    b, a2, c2 = plain(b), plain(a2), plain(c2)
    b = Fraction(b) if isinstance(b, int) else b
    lam = -b / 2 if RADICALS[fid][1] == 1 else -b / 2 - 1
    if fid in ("u3", "u4"):
        sign = 1 if fid == "u3" else -1
        return RHAnsatzParams(lam=lam, a0=-(3 * b + 5) / (b + 1), a1=0,
                              a2=sign / (b + 1), c1=0, c2=sign)
    if fid in ("u5", "u6"):
        sign = -1 if fid == "u5" else 1
        return RHAnsatzParams(lam=lam, a0=-3 * (b + 2) / (b + 1), a1=0,
                              a2=0, c1=0, c2=sign)
    # the radicand >= 0 held exactly, so a float one below 0 is rounding
    radicand = FREE_RADICANDS[FREE_PARAMETER[fid]][0]
    root = math.sqrt(max(radicand({"b": b, "a2": a2, "c2": c2}), 0))
    if fid in ("u7", "u8"):
        sign = -1 if fid == "u7" else 1
        return RHAnsatzParams(lam=lam, a0=-(3 * b + 5) / (b + 1),
                              a1=sign * root / (b + 1), a2=a2,
                              c1=sign * root, c2=a2 * (b + 1))
    sign = 1 if fid == "u9" else -1
    return RHAnsatzParams(lam=lam, a0=-3 * (b + 2) / (b + 1), a1=0,
                          a2=0, c1=sign * root, c2=c2)


@dataclass(frozen=True)
class CollocationReport:
    passed: bool
    points: tuple
    residuals: tuple  # cleared residual values at the points
    scale: float
    threshold: float


def collocation_identity_check(u, b, lam, denominator=None):
    """Certify that `u(xi)` solves the traveling-wave equation.

    `u` must be rational in {sinh(xi), cosh(xi)} with numerator and
    denominator degree <= 1 in each (the ansatz shape); `denominator` is
    its denominator (defaults to the constant 1 for polynomial input).
    Evaluates the residual times denominator^5 at DEGREE_BOUND + 1 sample
    points; since that product is a polynomial of degree <= DEGREE_BOUND
    in exp(xi), vanishing at all samples proves the identity.  Sample
    points landing on poles are jittered deterministically, at most
    MAX_RESAMPLES times each.
    """
    import numpy as np
    den = ex.ONE if denominator is None else ex.as_expr(denominator)
    den5 = ex.pow_(den, 5)
    tape = ex.Tape([den] + [ex.mul(t, den5) for t in ode_residual_terms(u, b, lam)])

    points = np.linspace(-2.0, 2.0, DEGREE_BOUND + 1)
    term_vals = None
    for attempt in range(MAX_RESAMPLES + 1):
        den_vals, *term_vals = ex.evaluate_many(tape, {}, {"xi": points})
        term_vals = np.stack(term_vals)
        bad = (~np.isfinite(den_vals)) | (np.abs(den_vals) < POLE_EPS)
        bad |= ~np.isfinite(term_vals).all(axis=0)
        if not bad.any():
            break
        if attempt == MAX_RESAMPLES:
            raise SampleAtPole(
                f"{int(bad.sum())} collocation sample(s) stuck at a pole"
            )
        points = points + bad * RESAMPLE_STEP

    residual = term_vals.sum(axis=0)
    scale = max(1.0, float(np.max(np.abs(term_vals))))
    passed = bool(np.all(np.abs(residual) < COLLOCATION_RTOL * scale))
    return CollocationReport(
        passed=passed,
        points=tuple(float(p) for p in points),
        residuals=tuple(float(r) for r in residual),
        scale=scale,
        threshold=COLLOCATION_RTOL * scale,
    )
