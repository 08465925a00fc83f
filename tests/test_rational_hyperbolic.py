"""Rational-hyperbolic ansatz and collocation certificate.

Covers:
  - ansatz values (constant, solved-family, half-profile cases)
  - the eight solved coefficient tuples, radicand checks, sign pairing
  - admissibility through the catalog's rows: exact for float inputs near
    the radicand boundary, ValueError on non-finite inputs, and one walk
    of the rows per catalog build
  - collocation verdicts: solved families pass, perturbations fail,
    the zero solution passes, pole samples get resampled
  - agreement between the collocation verdict and grid verification
"""
import math
import random
from fractions import Fraction as F

import pytest

from mdpwave import catalog
from mdpwave import expr as ex
from mdpwave import rational_hyperbolic as rh
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


def _near_radicand_boundary(rng):
    """(fid, b, a2, c2) with the free parameter a few ulps from where its
    radicand vanishes."""
    fid = rng.choice(("u7", "u8", "u9", "u10"))
    b = rng.uniform(-5.0, 5.0)
    edge = rng.choice((1.0, -1.0))
    if fid in ("u7", "u8"):
        edge /= b + 1
    for _ in range(rng.randint(0, 4)):
        edge = math.nextafter(edge, rng.choice((0.0, 2 * edge)))
    return (fid, b, edge, None) if fid in ("u7", "u8") else (fid, b, None, edge)


@pytest.mark.parametrize("fid, b, a2, labels", [
    # exact radicand < 0, float one >= 0
    ("u7", 0.1, 0.9090909090909091, ["(b+1)^2*a2^2 >= 1"]),
    # exact radicand >= 0, float one < 0
    ("u7", -0.3, 1.4285714285714286, []),
])
def test_float_radicand_decided_exactly(fid, b, a2, labels):
    assert catalog.validate(fid, {"b": b, "a2": a2}) == labels
    assert rh.family_violations(fid, b, a2=a2) == labels
    if labels:
        with pytest.raises(ConstraintViolation):
            family_params(fid, b, a2=a2)
    else:
        p = family_params(fid, b, a2=a2)
        assert all(math.isfinite(v) for v in (p.a1, p.c1))


def test_near_boundary_floats_agree_with_catalog():
    rng = random.Random(19)
    admitted = rejected = 0
    for _ in range(3000):
        fid, b, a2, c2 = _near_radicand_boundary(rng)
        free = {"a2": a2} if c2 is None else {"c2": c2}
        labels = catalog.validate(fid, {"b": b, **free})
        assert rh.family_violations(fid, b, a2=a2, c2=c2) == labels, (fid, b, free)
        if labels:
            rejected += 1
            continue
        admitted += 1
        p = family_params(fid, b, a2=a2, c2=c2)
        assert all(math.isfinite(v) for v in (p.lam, p.a0, p.a1, p.a2, p.c1, p.c2))
    assert admitted > 500 and rejected > 500


@pytest.mark.parametrize("fid, b, free", [
    ("u5", math.nan, {}),
    ("u3", math.inf, {}),
    ("u7", 3.0, {"a2": math.inf}),
    ("u8", -math.inf, {"a2": 1.0}),
    ("u9", 3.0, {"c2": math.nan}),
    ("u10", 3.0, {"c2": -math.inf}),
])
def test_non_finite_parameters_raise_value_error(fid, b, free):
    with pytest.raises(ValueError, match="is not a finite number"):
        family_params(fid, b, **free)


@pytest.mark.parametrize("fid, free", [
    ("u3", {}), ("u6", {}), ("u7", {"a2": 2}), ("u10", {"c2": F(3, 2)})])
def test_catalog_build_walks_the_rows_once(fid, free, monkeypatch):
    walked, walk = [], catalog.violations

    def counting(checks, p):
        walked.append(checks)
        return walk(checks, p)

    monkeypatch.setattr(catalog, "violations", counting)
    catalog.build(fid, {"b": 3, **free})
    assert len(walked) == 1


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
    u_bad = rh_ansatz(q, ex.add(ex.var("x"), ex.mul(q.lam, ex.var("t"))))
    grid_rep = verify_on_grid(u_bad, 3)
    assert rep.passed == grid_rep.passed is False
