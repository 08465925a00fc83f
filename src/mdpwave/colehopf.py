"""Kink-profile waveforms built from a second logarithmic derivative of
1 + exp(mu*x + lam*t + delta), plus the six-equation coefficient system
those waveforms must satisfy and its two solved parameter branches.

Substituting the waveform into the evolution equation and clearing the
(1 + zeta)^7 denominator, zeta = exp(mu*x + lam*t + delta), leaves a
degree-6 polynomial whose coefficients pair up with opposite signs
(zeta^6/zeta^1, zeta^5/zeta^2, zeta^4/zeta^3).  `system_residuals`
evaluates all six in that paired layout.  `branch_params` decides
admissibility by the catalog's `cole_hopf` row, the one table of the rules,
and takes the sign and S of sqrt(S) from `riccati.radical` and the wave
speed from `riccati.speed`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import catalog
from . import expr as ex
from .errors import ConstraintViolation
from .riccati import MU_CHECK, exact, plain, plain_fields, radical, speed, violations

__all__ = ["ColeHopfParams", "cole_hopf_u", "system_residuals", "branch_params"]

X = ex.var("x")
T = ex.var("t")


@dataclass(frozen=True)
class ColeHopfParams:
    """Amplitude, background, wavenumber, frequency, and phase shift."""

    A: float
    B: float
    mu: float
    lam: float
    delta: float = 0.0

    def __post_init__(self):
        plain_fields(self, ("A", "B", "mu", "lam", "delta"))


# (label, fails) rows on the fields of a ColeHopfParams
_PARAM_CHECKS = (("A != 0", lambda p: p["A"] == 0),
                 ("lambda != 0", lambda p: p["lam"] == 0), MU_CHECK)


def cole_hopf_u(p):
    """B + A*mu^2 / (2*(1 + cosh(mu*x + lam*t + delta))) as an expression."""
    bad = violations(_PARAM_CHECKS, vars(p))
    if bad:
        raise ConstraintViolation(bad)
    A, B, mu, lam, delta = map(exact, (p.A, p.B, p.mu, p.lam, p.delta))
    phase = ex.add(ex.mul(mu, X), ex.mul(lam, T), ex.as_expr(delta))
    return ex.add(ex.as_expr(B),
                  ex.div(ex.mul(A, mu * mu), ex.mul(2, ex.add(1, ex.cosh(phase)))))


def system_residuals(p, b):
    """The six cleared-coefficient left-hand sides at (p, b).

    Exact (Fraction) when all inputs are rational; floats otherwise.  No
    preconditions: degenerate parameters are allowed and simply evaluated.
    """
    A, B, mu, lam = p.A, p.B, p.mu, p.lam
    eq1 = B * mu**3 + lam * mu**2 - (b * B**2 + B**2) * mu - lam
    eq3 = ((b * A + A) * mu**5 - (2 * A * B + 2 * A * b * B + 9 * B) * mu**3
           - 9 * lam * mu**2 - (3 * b * B**2 + 3 * B**2) * mu - 3 * lam)
    eq5 = ((b * A**2 + A**2 + 5 * b * A + 11 * A) * mu**5
           + (2 * A * B + 2 * A * b * B + 10 * B) * mu**3
           + 10 * lam * mu**2 + (2 * b * B**2 + 2 * B**2) * mu + 2 * lam)
    return (eq1, -eq1, eq3, -eq3, eq5, eq5)


def branch_params(branch, b, mu):
    """The closed-form (A, B, lambda) for the plus or minus branch.

    With root = +sqrt(S) for plus and -sqrt(S) for minus, S =
    discriminant(b, mu^4): B = (2mu^2 - 1 + b(mu^2 - 1) + root)/(2(b+1))
    and lam = mu*speed(b, root) = -mu(b + 1 - root)/2.  Raises
    ConstraintViolation with the catalog's `cole_hopf` labels, and
    ValueError on a non-finite b or mu.
    """
    if branch not in ("plus", "minus"):
        raise ValueError(f"branch must be 'plus' or 'minus', not {branch!r}")
    b, mu = plain(b), plain(mu)
    p = {"b": b, "mu": mu, "branch": 1 if branch == "plus" else -1}
    bad = catalog.validate("cole_hopf", p)
    if bad:
        raise ConstraintViolation(bad)
    sign, S = radical("cole_hopf", p)
    # S >= 0 held exactly, so a float S below 0 is rounding
    root = sign * math.sqrt(max(S, 0))
    A = -6 * (b + 2) / (b + 1)
    B = (2 * mu**2 - 1 + b * (mu**2 - 1) + root) / (2 * (b + 1))
    lam = mu * speed(b, root)
    return A, B, lam
