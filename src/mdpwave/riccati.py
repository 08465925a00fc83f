"""Closed-form solutions of the quadratic first-order equation
phi'(xi) = alpha + beta*phi + gamma*phi^2.

Seven coefficient regimes are recognised, each with a closed-form phi.
The ground truth for every stored form is the residual identity
phi' - (alpha + beta*phi + gamma*phi^2) == 0, checked numerically; where
common printed tables are typographically inconsistent the sign
conventions here are the ones that satisfy that identity (see
docs/riccati_cases.md for the per-case forms).

The module also holds the admissibility rows every family shares (the
excluded values of b, a nonzero mu, a nonzero beta) and the wave-speed
discriminant, beside the degeneracy test that the catalog and the
pipeline use for the same purpose.  A check is a (label, fails(params))
row on a dict of parameters, and `violations` is the one walker that
turns a table of rows into the labels that fail.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import expr as ex
from .errors import UnclassifiableCoefficients

__all__ = [
    "RiccatiCoefficients", "RiccatiCase", "classify", "phi_expr",
    "riccati_case", "riccati_residual", "pole_guard", "is_degenerate",
    "BASE_CHECKS", "MU_CHECK", "BETA_CHECK", "S_LABEL", "violations",
    "discriminant",
]

XI = ex.var("xi")

DEGENERACY_RTOL = 1e-12


@dataclass(frozen=True)
class RiccatiCoefficients:
    """The (alpha, beta, gamma) triple, exact rationals or floats, with its
    discriminant."""

    alpha: float
    beta: float
    gamma: float

    @property
    def delta(self):
        return self.beta * self.beta - 4 * self.alpha * self.gamma

    def __post_init__(self):
        if self.alpha == 0 and self.beta == 0 and self.gamma == 0:
            raise ValueError("coefficient triple must not be identically zero")


@dataclass(frozen=True)
class RiccatiCase:
    """A classified triple together with its closed-form phi(xi)."""

    case_id: int
    coefficients: RiccatiCoefficients
    phi: ex.Expr


def is_degenerate(alpha, beta, gamma):
    """beta^2 == 4*alpha*gamma: exactly when all three are exact rationals
    (int or Fraction), otherwise up to a relative guard for round-trip
    noise."""
    b2 = beta * beta
    fourac = 4 * alpha * gamma
    if all(isinstance(v, (int, Fraction)) for v in (alpha, beta, gamma)):
        return b2 == fourac
    return abs(b2 - fourac) <= DEGENERACY_RTOL * max(1.0, abs(b2), abs(fourac))


# Admissibility facts shared by every family of the equation: b is never -1
# or -2, and the wave speed lam = -(b + 1 -/+ sqrt(S))/2 needs S >= 0, with
# S = discriminant(b, k) and k = mu^4 (kinks), beta^4 (u12, u13),
# 256*(alpha*gamma)^2 (u14, u15), 16*(alpha*gamma)^2 (u16..u19) or
# Delta^2 (u20..u23).
BASE_CHECKS = (("b != -1", lambda p: p["b"] == -1),
               ("b != -2", lambda p: p["b"] == -2))
MU_CHECK = ("mu != 0", lambda p: p["mu"] == 0)
BETA_CHECK = ("beta != 0", lambda p: p["beta"] == 0)
S_LABEL = "discriminant S >= 0"


def violations(checks, p):
    """The labels of the (label, fails) rows that `p` fails, in table order."""
    return [label for label, fails in checks if fails(p)]


def discriminant(b, k):
    """S = 1 - b*(b+2)*(k - 1), the radicand of every family's wave speed."""
    return 1 - b * (b + 2) * (k - 1)


def classify(c):
    """Map a coefficient triple to its case id (1..7).

    The checks run in a fixed precedence order so overlapping conditions
    resolve deterministically; raises UnclassifiableCoefficients for the
    one omitted regime (alpha != 0, beta == gamma == 0).
    """
    a, b, g = c.alpha, c.beta, c.gamma
    if b == 0 and a == 0 and g != 0:
        return 2
    if a == 0 and b != 0:
        return 1
    if g == 0 and b != 0:
        return 3
    if b != 0 and is_degenerate(a, b, g):
        return 5
    if b == 0 and a * g != 0:
        return 4
    if b * b < 4 * a * g:
        return 6
    if b * b > 4 * a * g and g != 0:
        return 7
    raise UnclassifiableCoefficients(
        f"no closed form stored for (alpha, beta, gamma) = ({a}, {b}, {g})"
    )


def phi_expr(c):
    """The closed-form phi(xi) for the classified case of `c`.

    Coefficient values are embedded exactly; radicals stay symbolic.  The
    returned expression satisfies the defining residual identity at every
    regular point.
    """
    case = classify(c)
    a, b, g = Fraction(c.alpha), Fraction(c.beta), Fraction(c.gamma)
    if case == 1:
        # beta / (-gamma + beta*exp(-beta*xi))
        return ex.div(b, ex.add(-g, ex.mul(b, ex.exp(ex.mul(-b, XI)))))
    if case == 2:
        return ex.div(-1, ex.mul(g, XI))
    if case == 3:
        return ex.div(ex.add(-a, ex.mul(b, ex.exp(ex.mul(b, XI)))), b)
    if case == 4:
        sign = 1 if c.alpha > 0 else -1
        if a * g > 0:
            root = ex.sqrt(a * g)
            return ex.mul(sign, ex.sqrt(ex.div(a, g)), ex.tan(ex.mul(root, XI)))
        root = ex.sqrt(-(a * g))
        return ex.mul(sign, ex.sqrt(ex.div(-a, g)), ex.tanh(ex.mul(root, XI)))
    if case == 5:
        # -2*alpha*(beta*xi + 2) / (beta^2 * xi)
        return ex.div(ex.mul(-2, a, ex.add(ex.mul(b, XI), 2)),
                      ex.mul(b * b, XI))
    if case == 6:
        d = 4 * a * g - b * b
        half_root = ex.mul(Fraction(1, 2), ex.sqrt(d))
        return ex.div(ex.sub(ex.mul(ex.sqrt(d), ex.tan(ex.mul(half_root, XI))), b),
                      ex.mul(2, g))
    # case 7: -(sqrt(delta)*tanh(sqrt(delta)/2 * xi) + beta) / (2*gamma)
    d = b * b - 4 * a * g
    half_root = ex.mul(Fraction(1, 2), ex.sqrt(d))
    return ex.div(ex.mul(-1, ex.add(ex.mul(ex.sqrt(d), ex.tanh(ex.mul(half_root, XI))), b)),
                  ex.mul(2, g))


def riccati_case(c):
    """Classify and bundle the closed form in one step."""
    return RiccatiCase(classify(c), c, phi_expr(c))


def riccati_residual(phi, c):
    """phi' - (alpha + beta*phi + gamma*phi^2) as an expression in xi."""
    rhs = ex.add(ex.as_expr(Fraction(c.alpha)),
                 ex.mul(Fraction(c.beta), phi),
                 ex.mul(Fraction(c.gamma), ex.pow_(phi, 2)))
    return ex.sub(ex.differentiate(phi, XI), rhs)


def pole_guard(c):
    """An expression in xi that vanishes exactly on phi's pole set.

    Pole-free cases return the constant 1.  Used by samplers to stay away
    from singular points.
    """
    case = classify(c)
    a, b, g = Fraction(c.alpha), Fraction(c.beta), Fraction(c.gamma)
    if case == 1:
        return ex.add(-g, ex.mul(b, ex.exp(ex.mul(-b, XI))))
    if case == 2:
        return ex.mul(g, XI)
    if case == 3:
        return ex.ONE
    if case == 4:
        if a * g > 0:
            return ex.cot(ex.mul(ex.sqrt(a * g), XI))
        return ex.ONE
    if case == 5:
        return XI
    if case == 6:
        d = 4 * a * g - b * b
        return ex.cot(ex.mul(Fraction(1, 2), ex.sqrt(d), XI))
    return ex.ONE
