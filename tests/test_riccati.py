"""Coefficient-triple classification and closed-form phi.

Covers:
  - the classification table, precedence order, and the unclassifiable gap
  - example phi values and residual identities in every case
  - randomized residual property (a reduced-size version of the full
    acceptance sweep)
  - discriminant caching consistency
"""
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from mdpwave import expr as ex
from mdpwave.errors import UnclassifiableCoefficients
from mdpwave.riccati import (RiccatiCoefficients, classify, is_degenerate,
                             phi_expr, pole_guard, riccati_residual)


def test_classification_examples():
    assert classify(RiccatiCoefficients(0, 1, -1)) == 1
    assert classify(RiccatiCoefficients(1, 2, 1)) == 5
    assert classify(RiccatiCoefficients(1, 0, -1)) == 4
    assert classify(RiccatiCoefficients(0, 0, 2)) == 2
    assert classify(RiccatiCoefficients(0.9, -1.1, 0)) == 3
    assert classify(RiccatiCoefficients(1, 1, 1)) == 6
    assert classify(RiccatiCoefficients(1, 3, 1)) == 7


def test_unclassifiable_case():
    with pytest.raises(UnclassifiableCoefficients):
        classify(RiccatiCoefficients(1, 0, 0))
    with pytest.raises(ValueError):
        RiccatiCoefficients(0, 0, 0)


def test_delta_matches_recomputation():
    c = RiccatiCoefficients(1.25, -0.5, 2.0)
    assert c.delta == (-0.5) ** 2 - 4 * 1.25 * 2.0


def test_degeneracy_guard_accepts_roundoff():
    assert is_degenerate(1, 2, 1)
    assert is_degenerate(1, 2, 1 + 1e-14)
    assert not is_degenerate(1, 2, 1.001)
    # exact inputs get no tolerance
    assert not is_degenerate(1, 2, 1 + F(1, 10**14))


@pytest.mark.parametrize("triple", [(math.inf, 2, 1), (1, math.inf, 1), (0, 0, math.inf),
                                    (1, 2, math.nan), (-math.inf, 0, 1)])
def test_non_finite_coefficients_raise_value_error(triple):
    with pytest.raises(ValueError, match="is not a finite number"):
        RiccatiCoefficients(*triple)
    with pytest.raises(ValueError, match="is not finite"):
        is_degenerate(*triple)


def test_huge_degenerate_triple_is_case_5():
    # beta^2 = 4*alpha*gamma exactly, though both float products overflow
    assert is_degenerate(1e200, 2e200, 1e200)
    assert classify(RiccatiCoefficients(1e200, 2e200, 1e200)) == 5


def test_float_degenerate_triples_are_case_5_and_nearby_ones_are_not():
    rng = np.random.default_rng(37)
    alphas = rng.uniform(0.1, 10, 1000) * rng.choice([-1, 1], 1000)
    betas = rng.uniform(0.1, 10, 1000) * rng.choice([-1, 1], 1000)
    for a, b in zip(alphas.tolist(), betas.tolist()):
        g = b * b / (4 * a)
        assert classify(RiccatiCoefficients(a, b, g)) == 5
        assert classify(RiccatiCoefficients(a, b, g * (1 + 1e-9))) in (6, 7)
        assert classify(RiccatiCoefficients(a, b, g * (1 - 1e-9))) in (6, 7)


def test_phi_values():
    c = RiccatiCoefficients(0, 1, -1)
    assert abs(ex.evaluate_many(phi_expr(c), {}, {"xi": 0.0}) - 0.5) < 1e-14
    c = RiccatiCoefficients(0, 0, 2)
    assert abs(ex.evaluate_many(phi_expr(c), {}, {"xi": 1.0}) + 0.5) < 1e-14
    # alpha=1, gamma=-1 gives the plain tanh profile
    c = RiccatiCoefficients(1, 0, -1)
    phi = phi_expr(c)
    for p in (-1.0, 0.3, 2.0):
        assert abs(ex.evaluate_many(phi, {}, {"xi": p}) - np.tanh(p)) < 1e-14


def test_case5_residual_at_sample_points():
    c = RiccatiCoefficients(1, 2, 1)
    res = riccati_residual(phi_expr(c), c)
    for p in (0.1, 0.7, 2.3):
        assert abs(ex.evaluate_many(res, {}, {"xi": p})) < 1e-10


def test_constant_fixed_point_has_zero_residual():
    # phi0 = 1 solves alpha + beta*phi + gamma*phi^2 = 0 for (-1, 0, 1)
    c = RiccatiCoefficients(-1, 0, 1)
    res = riccati_residual(ex.ONE, c)
    assert res == ex.ZERO


def test_linear_phi_for_pure_alpha():
    c = RiccatiCoefficients(1, 0, 0)
    res = riccati_residual(ex.var("xi"), c)
    assert res == ex.ZERO


def _sample_triple(rng, case):
    u = lambda lo, hi: rng.uniform(lo, hi) * rng.choice((-1, 1))
    if case == 1:
        return RiccatiCoefficients(0, u(0.2, 3), rng.uniform(-3, 3))
    if case == 2:
        return RiccatiCoefficients(0, 0, u(0.2, 3))
    if case == 3:
        return RiccatiCoefficients(rng.uniform(-3, 3), u(0.2, 3), 0)
    if case == 4:
        return RiccatiCoefficients(u(0.2, 3), 0, u(0.2, 3))
    if case == 5:
        alpha, beta = u(0.2, 3), u(0.2, 3)
        return RiccatiCoefficients(alpha, beta, beta * beta / (4 * alpha))
    if case == 6:
        beta = u(0.2, 2)
        gamma = u(0.2, 2)
        alpha = (beta * beta / 4 + rng.uniform(0.1, 3)) / gamma
        return RiccatiCoefficients(alpha, beta, gamma)
    beta = u(0.5, 3)
    gamma = u(0.2, 2)
    alpha = (beta * beta / 4 - rng.uniform(0.1, 3)) / gamma
    return RiccatiCoefficients(alpha, beta, gamma)


def max_residual(c, n_points=200, guard_eps=1e-2):
    res = riccati_residual(phi_expr(c), c)
    guard = pole_guard(c)
    xs = np.linspace(-3.0, 3.0, n_points)
    gv = ex.evaluate_many(guard, {}, {"xi": xs})
    keep = np.abs(gv) > guard_eps
    rv = ex.evaluate_many(res, {}, {"xi": xs[keep]})
    rv = rv[np.isfinite(rv)]
    return float(np.max(np.abs(rv))) if rv.size else 0.0


@pytest.mark.parametrize("case", [1, 2, 3, 4, 5, 6, 7])
def test_residual_property_sampled(case):
    rng = random.Random(1000 + case)
    for _ in range(25):
        c = _sample_triple(rng, case)
        assert classify(c) == case
        assert max_residual(c, n_points=60) < 1e-9


def _matching_cases(c):
    """All raw case conditions a triple satisfies, ignoring precedence."""
    a, b, g = c.alpha, c.beta, c.gamma
    out = []
    if b == 0 and a == 0 and g != 0:
        out.append(2)
    if a == 0 and b != 0:
        out.append(1)
    if g == 0 and b != 0:
        out.append(3)
    if b != 0 and is_degenerate(a, b, g):
        out.append(5)
    if b == 0 and a * g != 0:
        out.append(4)
    if b * b < 4 * a * g:
        out.append(6)
    if b * b > 4 * a * g and g != 0:
        out.append(7)
    return out


def test_precedence_is_first_matching_condition():
    rng = random.Random(9)
    precedence = [2, 1, 3, 5, 4, 6, 7]
    for _ in range(300):
        c = _sample_triple(rng, rng.randint(1, 7))
        matches = _matching_cases(c)
        ranked = [k for k in precedence if k in matches]
        assert classify(c) == ranked[0]
