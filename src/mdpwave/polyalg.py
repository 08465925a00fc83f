"""Exact multivariate polynomial and phi-power Laurent algebra.

MultiPoly is a sparse polynomial over the fixed variable tuple VARS with
arbitrary-precision rational coefficients; no rounding ever happens and no
zero coefficients are stored.  PhiLaurent is a finite Laurent object
sum_k p_k * phi^k with MultiPoly coefficients; its derivative operator
rewrites d(phi^k) through phi' = alpha + beta*phi + gamma*phi^2 and is a
derivation (the product rule holds exactly).
"""
from __future__ import annotations

from fractions import Fraction

__all__ = ["VARS", "MultiPoly", "PhiLaurent", "evaluate_all"]

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
        if isinstance(other, (int, Fraction)):
            return self == MultiPoly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other)
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

    def __rsub__(self, other):
        return MultiPoly.const(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            if other == 0:
                return MultiPoly()
            return MultiPoly({e: c * other for e, c in self.terms.items()})
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        return MultiPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = MultiPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def diff(self, name):
        """Exact partial derivative."""
        i = _INDEX[name]
        out = {}
        for e, c in self.terms.items():
            k = e[i]
            if k == 0:
                continue
            e2 = e[:i] + (k - 1,) + e[i + 1:]
            s = out.get(e2, Fraction(0)) + c * k
            if s == 0:
                out.pop(e2, None)
            else:
                out[e2] = s
        return MultiPoly(out)

    def subs(self, bindings):
        """Partially evaluate some variables at exact rationals."""
        vals = {_INDEX[k]: Fraction(v) for k, v in bindings.items()}
        out = {}
        for e, c in self.terms.items():
            coef = c
            e2 = list(e)
            for i, v in vals.items():
                coef *= v ** e[i]
                e2[i] = 0
            e2 = tuple(e2)
            s = out.get(e2, Fraction(0)) + coef
            if s == 0:
                out.pop(e2, None)
            else:
                out[e2] = s
        return MultiPoly(out)

    def evaluate(self, bindings):
        """Full evaluation.  Exact when every binding is rational; float
        arithmetic as soon as any binding is a float."""
        return evaluate_all((self,), bindings)[0]

    def sorted_terms(self):
        """Deterministic term order for serialization and display."""
        return sorted(self.terms.items())

    def __repr__(self):
        if self.is_zero:
            return "0"
        bits = []
        for e, c in self.sorted_terms():
            mono = "*".join(f"{VARS[i]}^{k}" if k > 1 else VARS[i]
                            for i, k in enumerate(e) if k)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


def evaluate_all(polys, bindings):
    """`MultiPoly.evaluate` of several polynomials at one binding, with
    one table of powers shared by all of them."""
    vals = [None] * _NVARS
    for k, v in bindings.items():
        if k in _INDEX:
            vals[_INDEX[k]] = v
    powers = {}  # (i, k) -> vals[i] ** k, each computed once
    out = []
    for poly in polys:
        total = Fraction(0)
        for e, c in poly.terms.items():
            term = c
            for i, k in enumerate(e):
                if k:
                    p = powers.get((i, k))
                    if p is None:
                        if vals[i] is None:
                            raise KeyError(f"unbound variable {VARS[i]!r}")
                        p = powers[i, k] = vals[i] ** k
                    term = term * p
            total = total + term
        out.append(total)
    return out


class PhiLaurent:
    """Finite sum over integer k of MultiPoly coefficients times phi^k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {k: p for k, p in (coeffs or {}).items() if not p.is_zero}

    @property
    def support(self):
        return sorted(self.coeffs)

    def coeff(self, k):
        return self.coeffs.get(k, MultiPoly())

    def __eq__(self, other):
        return isinstance(other, PhiLaurent) and self.coeffs == other.coeffs

    __hash__ = None

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, p in other.coeffs.items():
            s = out.get(k, MultiPoly()) + p
            if s.is_zero:
                out.pop(k, None)
            else:
                out[k] = s
        return PhiLaurent(out)

    def __neg__(self):
        return PhiLaurent({k: -p for k, p in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly)):
            if isinstance(other, (int, Fraction)):
                other = MultiPoly.const(other)
            return PhiLaurent({k: p * other for k, p in self.coeffs.items()})
        out = {}
        for k1, p1 in self.coeffs.items():
            for k2, p2 in other.coeffs.items():
                k = k1 + k2
                s = out.get(k, MultiPoly()) + p1 * p2
                if s.is_zero:
                    out.pop(k, None)
                else:
                    out[k] = s
        return PhiLaurent(out)

    __rmul__ = __mul__

    def shift(self, n):
        """Multiply by phi^n."""
        return PhiLaurent({k + n: p for k, p in self.coeffs.items()})

    def derivative(self):
        """d/dxi through the rewrite d(phi^k) = k phi^(k-1) (alpha + beta*phi
        + gamma*phi^2); exact, and a derivation over the product."""
        alpha = MultiPoly.variable("alpha")
        beta = MultiPoly.variable("beta")
        gamma = MultiPoly.variable("gamma")
        out = PhiLaurent()
        for k, p in self.coeffs.items():
            if k == 0:
                continue
            kp = p * k
            out = out + PhiLaurent({k - 1: kp * alpha, k: kp * beta, k + 1: kp * gamma})
        return out

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"({self.coeffs[k]!r})*phi^{k}" for k in self.support)
