"""Closed-form solutions of the quadratic first-order equation
phi'(xi) = alpha + beta*phi + gamma*phi^2.

Seven coefficient regimes are recognised, each written once as a row of
`_CASES`: (case id, condition on the raw triple, form).  The rows are in
precedence order and the first whose condition holds decides; its form
maps the exact triple to phi and phi's pole guard.  `classify`,
`phi_expr` and `pole_guard` each read the same matched row.  The ground
truth for every stored form is the residual identity
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

from dataclasses import dataclass
from fractions import Fraction

from . import expr as ex
from .errors import UnclassifiableCoefficients

__all__ = [
    "RiccatiCoefficients", "classify", "phi_expr",
    "riccati_residual", "pole_guard", "is_degenerate",
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


def _form1(a, b, g):
    # beta / (-gamma + beta*exp(-beta*xi))
    den = ex.add(-g, ex.mul(b, ex.exp(ex.mul(-b, XI))))
    return ex.div(b, den), den


def _form2(a, b, g):
    den = ex.mul(g, XI)
    return ex.div(-1, den), den


def _form3(a, b, g):
    return ex.div(ex.add(-a, ex.mul(b, ex.exp(ex.mul(b, XI)))), b), ex.ONE


def _form4(a, b, g):
    sign = 1 if a > 0 else -1
    if a * g > 0:
        arg = ex.mul(ex.sqrt(a * g), XI)
        return ex.mul(sign, ex.sqrt(ex.div(a, g)), ex.tan(arg)), ex.cot(arg)
    arg = ex.mul(ex.sqrt(-(a * g)), XI)
    return ex.mul(sign, ex.sqrt(ex.div(-a, g)), ex.tanh(arg)), ex.ONE


def _form5(a, b, g):
    # -2*alpha*(beta*xi + 2) / (beta^2 * xi)
    return ex.div(ex.mul(-2, a, ex.add(ex.mul(b, XI), 2)), ex.mul(b * b, XI)), XI


def _form6(a, b, g):
    root = ex.sqrt(4 * a * g - b * b)
    arg = ex.mul(Fraction(1, 2), root, XI)
    phi = ex.div(ex.sub(ex.mul(root, ex.tan(arg)), b), ex.mul(2, g))
    return phi, ex.cot(arg)


def _form7(a, b, g):
    # -(sqrt(delta)*tanh(sqrt(delta)/2 * xi) + beta) / (2*gamma)
    root = ex.sqrt(b * b - 4 * a * g)
    arg = ex.mul(Fraction(1, 2), root, XI)
    phi = ex.div(ex.mul(-1, ex.add(ex.mul(root, ex.tanh(arg)), b)), ex.mul(2, g))
    return phi, ex.ONE


# (case id, condition on the raw alpha, beta, gamma, form), in precedence
# order so that overlapping conditions resolve deterministically.  A form
# maps the exact triple to (phi, an expression in xi that vanishes exactly
# on phi's pole set, or the constant 1 when phi has none).  No row holds
# for the one omitted regime, alpha != 0 and beta == gamma == 0.
_CASES = (
    (2, lambda a, b, g: b == 0 and a == 0 and g != 0, _form2),
    (1, lambda a, b, g: a == 0 and b != 0, _form1),
    (3, lambda a, b, g: g == 0 and b != 0, _form3),
    (5, lambda a, b, g: b != 0 and is_degenerate(a, b, g), _form5),
    (4, lambda a, b, g: b == 0 and a * g != 0, _form4),
    (6, lambda a, b, g: b * b < 4 * a * g, _form6),
    (7, lambda a, b, g: b * b > 4 * a * g and g != 0, _form7),
)


def _row(c):
    a, b, g = c.alpha, c.beta, c.gamma
    for row in _CASES:
        if row[1](a, b, g):
            return row
    raise UnclassifiableCoefficients(
        f"no closed form stored for (alpha, beta, gamma) = ({a}, {b}, {g})"
    )


def _forms(c):
    return _row(c)[2](Fraction(c.alpha), Fraction(c.beta), Fraction(c.gamma))


def classify(c):
    """Map a coefficient triple to its case id (1..7): the first row of
    `_CASES` whose condition holds.  Raises UnclassifiableCoefficients when
    none does."""
    return _row(c)[0]


def phi_expr(c):
    """The closed-form phi(xi) for the classified case of `c`.

    Coefficient values are embedded exactly; radicals stay symbolic.  The
    returned expression satisfies the defining residual identity at every
    regular point.
    """
    return _forms(c)[0]


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
    return _forms(c)[1]
