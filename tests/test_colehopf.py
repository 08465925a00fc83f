"""Kink-profile construction, the six-equation system, and solved branches.

Covers:
  - waveform values, decay to background, phase-shift translation
  - six-equation residuals: exact vanishing on both branches, the
    degenerate B=0, lambda=0 layout, and a non-solution counterexample
  - branch closed forms and their constraint failures
  - pointwise agreement of the minus branch at mu=1 with catalog u6
  - both branches against the catalog's `cole_hopf` row at every kink
    sample: the same wave, and lambda = mu * wave speed
"""
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from mdpwave import catalog
from mdpwave import expr as ex
from mdpwave.colehopf import (ColeHopfParams, branch_params, cole_hopf_u,
                              system_residuals)
from mdpwave.errors import ConstraintViolation
from mdpwave.verifier import verify_on_grid


def test_waveform_value_at_origin():
    u = cole_hopf_u(ColeHopfParams(A=2, B=0, mu=1, lam=1))
    assert ex.evaluate_many(u, {}, {"x": 0, "t": 0}) == 0.5


def test_decay_to_background():
    p = ColeHopfParams(A=2, B=0.75, mu=1, lam=1)
    u = cole_hopf_u(p)
    assert abs(ex.evaluate_many(u, {}, {"x": 60.0, "t": 0.0}) - p.B) < 1e-20


def test_phase_shift_is_translation():
    rng = random.Random(3)
    delta = 0.8
    p0 = ColeHopfParams(A=2, B=0.5, mu=1.5, lam=-1.0, delta=0.0)
    pd = ColeHopfParams(A=2, B=0.5, mu=1.5, lam=-1.0, delta=delta)
    u0, ud = cole_hopf_u(p0), cole_hopf_u(pd)
    for _ in range(20):
        x, t = rng.uniform(-3, 3), rng.uniform(0, 2)
        lhs = ex.evaluate_many(ud, {}, {"x": x, "t": t})
        rhs = ex.evaluate_many(u0, {}, {"x": x + delta / p0.mu, "t": t})
        assert abs(lhs - rhs) < 1e-12


def test_invalid_params_raise_on_build_only():
    with pytest.raises(ConstraintViolation) as err:
        cole_hopf_u(ColeHopfParams(A=0, B=0, mu=0, lam=0))
    assert err.value.violations == ["A != 0", "lambda != 0", "mu != 0"]
    # system_residuals has no precondition
    system_residuals(ColeHopfParams(A=1, B=0, mu=1, lam=0), 3)


def test_plus_branch_exact_values():
    A, B, lam = branch_params("plus", 3, 1)
    assert (A, B, lam) == (-7.5, 0.25, -1.5)
    res = system_residuals(ColeHopfParams(A, B, 1.0, lam), 3)
    assert all(abs(r) < 1e-12 for r in res)


def test_minus_branch_exact_values():
    A, B, lam = branch_params("minus", 3, 1)
    assert B == 0.0 and lam == -2.5
    res = system_residuals(ColeHopfParams(A, B, 1.0, lam), 3)
    assert all(abs(r) < 1e-12 for r in res)


def test_degenerate_background_kills_first_pair():
    res = system_residuals(ColeHopfParams(A=1, B=0, mu=2, lam=0), 3)
    assert res[0] == 0 and res[1] == 0


def test_non_solution_first_equation():
    res = system_residuals(ColeHopfParams(A=1, B=1, mu=1, lam=1), 3)
    assert res[0] == -3


def test_paired_equations_mirror_sign():
    res = system_residuals(ColeHopfParams(A=1.1, B=0.4, mu=0.9, lam=0.7), 2.5)
    assert res[1] == -res[0] and res[3] == -res[2] and res[5] == res[4]


def test_branch_rejects_negative_discriminant():
    with pytest.raises(ConstraintViolation) as err:
        branch_params("plus", 3, 2)
    assert "discriminant S >= 0" in err.value.violations


def test_branch_rejects_forbidden_b():
    with pytest.raises(ConstraintViolation):
        branch_params("minus", -1, 1)
    with pytest.raises(ValueError):
        branch_params("sideways", 3, 1)


@pytest.mark.parametrize("name", ["b", "mu"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_raise_value_error(name, value):
    params = {"b": 3.0, "mu": 1.0, name: value}
    with pytest.raises(ValueError, match=f"cole_hopf: {name} = .* is not a finite number"):
        catalog.validate("cole_hopf", dict(params, branch=1))
    for branch in ("plus", "minus"):
        with pytest.raises(ValueError, match="is not a finite number"):
            branch_params(branch, params["b"], params["mu"])


@pytest.mark.parametrize("field", ["A", "B", "mu", "lam", "delta"])
def test_params_reject_a_non_finite_field(field):
    values = {"A": 1, "B": 1, "mu": 1, "lam": 1, "delta": 0, field: math.inf}
    with pytest.raises(ValueError, match=f"{field} = inf is not a finite number"):
        ColeHopfParams(**values)


def test_branch_decides_s_exactly_for_float_inputs():
    # exact S is about +1.03e-15 here while the float S is about -8.9e-16
    for branch in ("plus", "minus"):
        A, B, lam = branch_params(branch, 3.2564808359472472, 1.0142953585961683)
        assert all(math.isfinite(v) for v in (A, B, lam))


def test_both_branches_verify_on_grid():
    for b in (-0.5, 1, 3, 5):
        for mu in (0.3, 0.7, 1.0):
            for branch in ("plus", "minus"):
                A, B, lam = branch_params(branch, b, mu)
                p = ColeHopfParams(A, B, mu, lam)
                assert max(abs(r) for r in system_residuals(p, b)) < 1e-9
                rep = verify_on_grid(cole_hopf_u(p), b)
                assert rep.passed, (b, mu, branch)


def test_minus_branch_at_unit_mu_equals_u6():
    rng = random.Random(11)
    for b in (-0.5, 1, 3, 5):
        A, B, lam = branch_params("minus", b, 1)
        u = cole_hopf_u(ColeHopfParams(A, B, 1.0, lam))
        u6 = catalog.build("u6", {"b": F(b)})
        for _ in range(25):
            pt = {"x": rng.uniform(-5, 5), "t": rng.uniform(0, 2)}
            assert abs(ex.evaluate_many(u, {}, pt) - ex.evaluate_many(u6, {}, pt)) < 1e-12


def test_branches_match_the_catalog_row(catalog_samples):
    rng = np.random.default_rng(7)
    pts = {"x": rng.uniform(-5, 5, 40), "t": rng.uniform(0, 2, 40)}
    for fid in ("u1", "u2", "cole_hopf"):
        for sample in catalog_samples[fid]:
            b, mu, delta = sample["b"], sample["mu"], sample.get("delta", F(0))
            for branch, sign in (("plus", 1), ("minus", -1)):
                A, B, lam = branch_params(branch, b, mu)
                u = cole_hopf_u(ColeHopfParams(A, B, mu, lam, delta))
                want, _, speed = catalog.build_wave(
                    "cole_hopf", {"b": b, "mu": mu, "delta": delta, "branch": sign})
                assert lam == pytest.approx(mu * speed, rel=1e-12, abs=0), (fid, sample, branch)
                np.testing.assert_allclose(ex.evaluate_many(u, {}, pts),
                                           ex.evaluate_many(want, {}, pts), rtol=1e-12)
