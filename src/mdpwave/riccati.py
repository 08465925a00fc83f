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
excluded values of b, a nonzero mu, a nonzero beta), the degeneracy test
the catalog and the pipeline use, and the one wave-speed law of all 24
families: lam solves lam^2 + (b+1)lam + b(b+2)k/4 = 0, so lam = -(b + 1 -
sign*sqrt(S))/2 with S = `discriminant(b, k)`, and `RADICALS` gives each
family's radicand k and sign (k = 1 for u3..u10, k = 0 for u11).  A check
is a (label, fails(params)) row on a dict of parameters, and `violations`
is the one walker that turns a table of rows into the labels that fail.
`plain` is how every entry point takes a caller's number, and `exact` how
it takes one as an exact rational: a numpy integer's arithmetic wraps at
64 bits.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

from . import expr as ex
from .errors import UnclassifiableCoefficients

__all__ = [
    "RiccatiCoefficients", "classify", "phi_expr",
    "riccati_residual", "pole_guard", "is_degenerate",
    "BASE_CHECKS", "MU_CHECK", "BETA_CHECK", "S_LABEL", "violations",
    "discriminant", "delta_of", "RADICALS", "radical", "speed", "plain", "plain_fields", "exact",
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
        plain_fields(self, ("alpha", "beta", "gamma"))
        if self.alpha == 0 and self.beta == 0 and self.gamma == 0:
            raise ValueError("coefficient triple must not be identically zero")


def is_degenerate(alpha, beta, gamma):
    """beta^2 == 4*alpha*gamma: exactly when all three are ints or
    Fractions, otherwise on their exact values up to a relative guard for
    round-trip noise.  Raises ValueError on a non-finite value."""
    vals = [plain(v) for v in (alpha, beta, gamma)]
    try:
        a, b, g = (Fraction(v if isinstance(v, (int, Fraction)) else float(v)) for v in vals)
    except (OverflowError, ValueError):
        raise ValueError(f"(alpha, beta, gamma) = {tuple(vals)} is not finite") from None
    b2, fourac = b * b, 4 * a * g
    if all(isinstance(v, (int, Fraction)) for v in vals):
        return b2 == fourac
    return abs(b2 - fourac) <= Fraction(DEGENERACY_RTOL) * max(1, abs(b2), abs(fourac))


# Admissibility facts shared by every family of the equation: b is never -1
# or -2, and a radical wave speed needs S >= 0 (see `RADICALS`).
BASE_CHECKS = (("b != -1", lambda p: p["b"] == -1),
               ("b != -2", lambda p: p["b"] == -2))
MU_CHECK = ("mu != 0", lambda p: p["mu"] == 0)
BETA_CHECK = ("beta != 0", lambda p: p["beta"] == 0)
S_LABEL = "discriminant S >= 0"


def violations(checks, p):
    """The labels of the (label, fails) rows that `p` fails, in table order."""
    return [label for label, fails in checks if fails(p)]


def plain(v):
    """`v` with an integer of any type as a Python int, anything else as is."""
    return int(v) if isinstance(v, numbers.Integral) else v


def plain_fields(obj, names):
    """Apply `plain` to each named field of `obj`; ValueError names a non-finite one."""
    for name in names:
        v = plain(getattr(obj, name))
        if not isinstance(v, (int, Fraction)) and not math.isfinite(v):
            raise ValueError(f"{name} = {v!r} is not a finite number")
        object.__setattr__(obj, name, v)


def exact(v):
    """`v` as a Fraction of Python ints, where `Fraction` keeps a numpy int."""
    return Fraction(plain(v))


def discriminant(b, k):
    """S = 1 - b*(b+2)*(k - 1), the radicand of every family's wave speed."""
    return 1 - b * (b + 2) * (k - 1)


def delta_of(p):
    """Delta = beta^2 - 4*alpha*gamma of a dict of parameters."""
    return p["beta"] ** 2 - 4 * p["alpha"] * p["gamma"]


# Every family's wave speed solves lam^2 + (b+1)lam + b(b+2)k/4 = 0, that is
# lam = -(b + 1 - sign*sqrt(S))/2 with S = discriminant(b, k) (see `speed`):
# each radicand k once, as a (k(params), "S = ..." text) pair, then each
# family's (radicand, sign), a sign being +-1 or a function of the params
MU4 = (lambda p: p["mu"] ** 4, "S = 1 - b(b+2)(mu^4 - 1)")
BETA4 = (lambda p: p["beta"] ** 4, "S = 1 - b(b+2)(beta^4 - 1)")
AG256 = (lambda p: 256 * (p["alpha"] * p["gamma"]) ** 2,
         "S = b(b+2)(1 - 256(alpha*gamma)^2) + 1")
AG16 = (lambda p: 16 * (p["alpha"] * p["gamma"]) ** 2,
        "S = b(b+2)(1 - 16(alpha*gamma)^2) + 1")
DELTA2 = (lambda p: delta_of(p) ** 2, "S = 1 - b(b+2)(Delta^2 - 1)")
K1 = (lambda p: 1, "S = 1")
K0 = (lambda p: 0, "S = (b+1)^2")
RADICALS = {"u1": (MU4, 1), "u2": (MU4, -1),
            "cole_hopf": (MU4, lambda p: int(p["branch"])),
            "u3": (K1, 1), "u4": (K1, 1), "u5": (K1, -1), "u6": (K1, -1),
            "u7": (K1, 1), "u8": (K1, 1), "u9": (K1, -1), "u10": (K1, -1),
            # root = -(b+1) on both sides of b = -1, so lam = -(b+1)
            "u11": (K0, lambda p: 1 if p["b"] < -1 else -1),
            "u12": (BETA4, -1), "u13": (BETA4, 1), "u14": (AG256, -1), "u15": (AG256, 1),
            "u16": (AG16, -1), "u17": (AG16, -1), "u18": (AG16, 1), "u19": (AG16, 1),
            "u20": (DELTA2, -1), "u21": (DELTA2, 1), "u22": (DELTA2, 1), "u23": (DELTA2, -1)}


def radical(fid, p):
    """(sign, S) of a family at `p`, an unchecked dict of values."""
    (k, _), sign = RADICALS[fid]
    return sign if type(sign) is int else sign(p), discriminant(p["b"], k(p))


def speed(b, root):
    """lam = (root - (b + 1))/2 of root = sign*sqrt(S), for numbers."""
    return (root - (b + 1)) / 2


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
    return _row(c)[2](exact(c.alpha), exact(c.beta), exact(c.gamma))


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
    rhs = ex.add(ex.as_expr(exact(c.alpha)),
                 ex.mul(exact(c.beta), phi),
                 ex.mul(exact(c.gamma), ex.pow_(phi, 2)))
    return ex.sub(ex.differentiate(phi, XI), rhs)


def pole_guard(c):
    """An expression in xi that vanishes exactly on phi's pole set.

    Pole-free cases return the constant 1.  Used by samplers to stay away
    from singular points.
    """
    return _forms(c)[1]
