"""Rational-hyperbolic ansatz and collocation certificate.

Covers:
  - ansatz values (constant, solved-family, half-profile cases)
  - the eight solved coefficient tuples, radicand checks, sign pairing
  - collocation verdicts: solved families pass, perturbations fail,
    the zero solution passes, pole samples get resampled
  - agreement between the collocation verdict and grid verification
"""
from fractions import Fraction as F

import pytest

from mdpwave import catalog
from mdpwave import expr as ex
from mdpwave.errors import ConstraintViolation
from mdpwave.rational_hyperbolic import (FAMILY_IDS, RHAnsatzParams,
                                         collocation_identity_check,
                                         family_params, rh_ansatz,
                                         rh_denominator)
from mdpwave.verifier import verify_on_grid


def test_ansatz_constant():
    p = RHAnsatzParams(lam=0, a0=5, a1=0, a2=0, c1=0, c2=0)
    assert ex.evaluate_many(rh_ansatz(p), {}, {"xi": 0.37}) == 5.0


def test_ansatz_solved_family_value():
    p = family_params("u6", F(3))
    assert ex.evaluate_many(rh_ansatz(p), {}, {"xi": 0.0}) == -1.875


def test_ansatz_half_profile():
    p = RHAnsatzParams(lam=0, a0=0, a1=0, a2=1, c1=0, c2=1)
    assert ex.evaluate_many(rh_ansatz(p), {}, {"xi": 0.0}) == 0.5


def test_family_u3_exact_tuple():
    p = family_params("u3", F(3))
    assert (p.lam, p.a0, p.a1, p.a2, p.c1, p.c2) == (F(-3, 2), F(-7, 2), 0, F(1, 4), 0, 1)


def test_family_u7_with_free_a2():
    import math
    p = family_params("u7", 3, a2=1)
    root = math.sqrt(15)
    assert p.c2 == 4
    assert abs(p.c1 + root) < 1e-15
    assert abs(p.a1 + root / 4) < 1e-15


def test_family_radicand_violations():
    with pytest.raises(ConstraintViolation) as err:
        family_params("u9", 3, c2=0.5)
    assert err.value.violations == ["c2^2 >= 1"]
    with pytest.raises(ConstraintViolation):
        family_params("u7", 3, a2=0.1)
    with pytest.raises(ValueError):
        family_params("u7", 3)  # free parameter required
    with pytest.raises(ValueError):
        family_params("u99", 3)


def test_u3_u4_differ_by_sign_pair():
    p3 = family_params("u3", F(3))
    p4 = family_params("u4", F(3))
    assert (p4.a2, p4.c2) == (-p3.a2, -p3.c2)
    assert (p4.lam, p4.a0, p4.a1, p4.c1) == (p3.lam, p3.a0, p3.a1, p3.c1)


@pytest.mark.parametrize("fid", FAMILY_IDS)
@pytest.mark.parametrize("b", [F(-1, 2), F(1), F(3), F(5)])
def test_all_families_pass_collocation(fid, b):
    frees = [{}]
    if fid in ("u7", "u8"):
        frees = [dict(a2=3), dict(a2=-3)]
    if fid in ("u9", "u10"):
        frees = [dict(c2=F(3, 2)), dict(c2=-2)]
    for free in frees:
        p = family_params(fid, b, **free)
        rep = collocation_identity_check(rh_ansatz(p), b, p.lam,
                                         denominator=rh_denominator(p))
        assert rep.passed, (fid, b, free)


def test_perturbed_u6_fails():
    p = family_params("u6", F(3))
    q = RHAnsatzParams(lam=p.lam, a0=p.a0 + F(1, 100), a1=p.a1, a2=p.a2,
                       c1=p.c1, c2=p.c2)
    rep = collocation_identity_check(rh_ansatz(q), F(3), q.lam,
                                     denominator=rh_denominator(q))
    assert not rep.passed


def test_zero_solution_passes():
    rep = collocation_identity_check(ex.ZERO, 3, F(-5, 2))
    assert rep.passed


def test_pole_samples_get_resampled():
    # u5 has its pole at xi = 0, which is one of the base sample points
    p = family_params("u5", F(3))
    rep = collocation_identity_check(rh_ansatz(p), F(3), p.lam,
                                     denominator=rh_denominator(p))
    assert rep.passed
    assert all(abs(pt) > 1e-6 for pt in rep.points)


def test_collocation_agrees_with_grid_verification():
    # the two certification routes never disagree
    cases = [("u3", F(3), {}), ("u9", F(1), dict(c2=2)), ("u8", F(5), dict(a2=F(1, 2)))]
    for fid, b, free in cases:
        p = family_params(fid, b, **free)
        rep = collocation_identity_check(rh_ansatz(p), b, p.lam,
                                         denominator=rh_denominator(p))
        u = catalog.build(fid, dict(b=b, **free))
        guard = catalog.build_guard_xt(fid, dict(b=b, **free))
        grid_rep = verify_on_grid(u, b, guard=guard)
        assert rep.passed == grid_rep.passed is True, fid
    # and a shared failure on a perturbed candidate
    p = family_params("u6", F(3))
    q = RHAnsatzParams(lam=p.lam, a0=p.a0 + F(1, 100), a1=p.a1, a2=p.a2,
                       c1=p.c1, c2=p.c2)
    rep = collocation_identity_check(rh_ansatz(q), F(3), q.lam,
                                     denominator=rh_denominator(q))
    xi = ex.var("xi")
    u_bad = ex.substitute(rh_ansatz(q), xi, ex.add(ex.var("x"), ex.mul(q.lam, ex.var("t"))))
    grid_rep = verify_on_grid(u_bad, 3)
    assert rep.passed == grid_rep.passed is False
