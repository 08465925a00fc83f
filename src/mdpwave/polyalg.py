"""Exact multivariate polynomial and phi-power Laurent algebra.

MultiPoly is a sparse polynomial over the fixed variable tuple VARS with
arbitrary-precision rational coefficients; no rounding ever happens and no
zero coefficients are stored.  A Laurent object sum_k p_k * phi^k is a
MultiPoly too: its exponent tuples lead with phi's exponent k (which may
be negative), followed by the VARS exponents, so its ring arithmetic is
MultiPoly's own.  `laurent` builds one, `laurent_support` and
`laurent_coeff` read one, a shift is a product with the monomial phi^n,
and `laurent_derivative` is d/dxi = (d/dphi) * phi' with
phi' = alpha + beta*phi + gamma*phi^2, a derivation (the product rule
holds exactly).  `bind` is the one exact evaluation: it binds variables
at rationals over one common integer denominator, for the exact checks
and for Newton's float compile alike.
"""
from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["VARS", "MultiPoly", "bind", "laurent", "laurent_support",
           "laurent_coeff", "laurent_derivative"]

VARS = ("a0", "a1", "a2", "c1", "c2", "lam", "alpha", "beta", "gamma", "b")
_INDEX = {name: i for i, name in enumerate(VARS)}
_NVARS = len(VARS)
_ZERO_EXP = (0,) * _NVARS


class MultiPoly:
    """Sparse exact polynomial: {exponent tuple -> Fraction coefficient}."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = terms or {}

    @classmethod
    def const(cls, value):
        value = Fraction(value)
        return cls({} if value == 0 else {_ZERO_EXP: value})

    @classmethod
    def variable(cls, name):
        exps = [0] * _NVARS
        exps[_INDEX[name]] = 1
        return cls({tuple(exps): Fraction(1)})

    @property
    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self.terms == other.terms
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other)
        if self.terms and other.terms and (
                len(next(iter(self.terms))) != len(next(iter(other.terms)))):
            raise ValueError("cannot add polynomials whose exponent tuples differ in length")
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return MultiPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            if other == 0:
                return MultiPoly()
            return MultiPoly({e: c * other for e, c in self.terms.items()})
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2, strict=True))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        return MultiPoly(out)

    __rmul__ = __mul__

    def sorted_terms(self):
        """Deterministic term order for serialization."""
        return sorted(self.terms.items())


def bind(polys, values):
    """Bind names in VARS at exact values, over one common denominator.

    `values` holds ints, Fractions or finite floats (a float counts at its
    exact binary value).  Returns `(den, groups)`: `den` is a positive int
    shared by all `polys`, and `groups[j]` maps the exponents of the unbound
    variables (in VARS order) to the integer numerator of that monomial's
    coefficient in `polys[j]`, zero sums dropped.  A value p/q enters as
    p^k q^(top-k) over q^top (top its highest exponent), so no gcd is taken
    (Knuth, TAOCP vol. 2, 4.6.1).  Raises ValueError on a name outside VARS
    or a non-finite value.
    """
    bound = []
    for name, v in values.items():
        if name not in _INDEX:
            raise ValueError(f"unknown variable {name!r} (variables: {', '.join(VARS)})")
        try:
            bound.append((_INDEX[name], Fraction(v)))
        except (OverflowError, ValueError):
            raise ValueError(f"{name} = {v!r} is not a finite number") from None
    free = [i for i, name in enumerate(VARS) if name not in values]
    top = [max((e[i] for poly in polys for e in poly.terms), default=0) for i, _ in bound]
    scaled = [(i, [v.numerator ** k * v.denominator ** (t - k) for k in range(t + 1)])
              for (i, v), t in zip(bound, top)]
    coef_den = math.lcm(*(c.denominator for poly in polys for c in poly.terms.values()))
    den = coef_den * math.prod(v.denominator ** t for (_, v), t in zip(bound, top))
    out = []
    for poly in polys:
        groups = {}
        for e, c in poly.terms.items():
            num = c.numerator * (coef_den // c.denominator)
            for i, powers in scaled:
                num *= powers[e[i]]
            key = tuple(e[i] for i in free)
            groups[key] = groups.get(key, 0) + num
        out.append({key: num for key, num in groups.items() if num})
    return den, out


def laurent(coeffs):
    """sum_k coeffs[k] * phi^k for MultiPoly coefficients, as one MultiPoly
    whose exponent tuples lead with k."""
    return MultiPoly({(k,) + e: c for k, p in coeffs.items() for e, c in p.terms.items()})


def laurent_support(L):
    """The phi exponents of a Laurent object, ascending."""
    return sorted({e[0] for e in L.terms})


def laurent_coeff(L, k):
    """The MultiPoly coefficient of phi^k."""
    return MultiPoly({e[1:]: c for e, c in L.terms.items() if e[0] == k})


def laurent_derivative(L):
    """d/dxi = (d/dphi L) * phi', with phi' = alpha + beta*phi + gamma*phi^2."""
    d_phi = MultiPoly({(e[0] - 1,) + e[1:]: c * e[0] for e, c in L.terms.items() if e[0]})
    return d_phi * laurent({0: MultiPoly.variable("alpha"), 1: MultiPoly.variable("beta"),
                            2: MultiPoly.variable("gamma")})
