"""Residual operators and grid verification.

Covers:
  - structural vanishing for constants, direct values for non-solutions
  - symbolic residuals of catalogued solutions at sample points
  - frame consistency between the (x, t) and traveling-wave residuals
  - grid reports: pass/fail, skip counting, guard handling, grid halving,
    the all-skipped error, and the finite-difference cross-check path
  - no numpy warning escapes an unguarded verification
"""
import random
from fractions import Fraction as F

import numpy as np
import pytest

from mdpwave import catalog
from mdpwave import expr as ex
from mdpwave.errors import AllPointsSkipped
from mdpwave.verifier import (GridSpec, mdp_residual, ode_residual,
                              verify_on_grid)

X = ex.var("x")
T = ex.var("t")
XI = ex.var("xi")


def test_constant_solution_residual_is_structurally_zero():
    assert mdp_residual(ex.Rational(F(7, 2)), 3) == ex.ZERO
    assert ode_residual(ex.Rational(F(-2)), 3, F(-5, 2)) == ex.ZERO


def test_linear_non_solution_value():
    res = mdp_residual(X, 3)
    assert ex.evaluate(res, {}, {"x": 2.0, "t": 0.0}) == 16.0


def test_catalog_u6_residual_pointwise():
    u = catalog.build("u6", {"b": 3})
    res = mdp_residual(u, 3)
    assert abs(ex.evaluate(res, {}, {"x": 1.0, "t": 0.5})) < 1e-9


def test_catalog_u20_ode_residual():
    prof = catalog.profile("u20", {"b": 3, "alpha": 0, "beta": 1, "gamma": 1})
    lam = catalog.wave_speed("u20", {"b": 3, "alpha": 0, "beta": 1, "gamma": 1})
    assert lam == -2.5
    res = ode_residual(prof, 3, F(-5, 2))
    assert abs(ex.evaluate(res, {}, {"xi": 0.7})) < 1e-9


def test_frame_consistency_on_non_solution():
    # an arbitrary profile: the two residual routes must agree pointwise
    U = ex.div(ex.cosh(XI), ex.add(2, ex.sinh(XI)))
    lam = F(-3, 2)
    rng = random.Random(5)
    ode = ode_residual(U, 3, lam)
    u_xt = ex.substitute(U, XI, ex.add(X, ex.mul(lam, T)))
    pde = mdp_residual(u_xt, 3)
    for _ in range(50):
        x, t = rng.uniform(-3, 3), rng.uniform(0, 2)
        a = ex.evaluate(pde, {}, {"x": x, "t": t})
        b = ex.evaluate(ode, {}, {"xi": x + float(lam) * t})
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_frame_consistency_across_families(catalog_samples):
    # both residual routes agree to 1e-12 relative to the term magnitudes
    from mdpwave.verifier import ode_residual_terms

    rng = random.Random(6)
    for fid, samples in catalog_samples.items():
        params = samples[0]
        prof = catalog.profile(fid, params)
        lam = catalog.wave_speed(fid, params)
        guard = catalog.singular_denominator(fid, params)
        terms = ode_residual_terms(prof, params["b"], F(lam))
        ode = ode_residual(prof, params["b"], F(lam))
        pde = mdp_residual(catalog.build(fid, params), params["b"])
        checked = 0
        while checked < 10:
            x, t = rng.uniform(-4, 4), rng.uniform(0, 2)
            xi = x + lam * t
            gv = ex.evaluate_many(guard, {}, {"xi": np.array([xi])})[0]
            if not (np.isfinite(gv) and abs(gv) > 1e-2):
                continue
            a = ex.evaluate(pde, {}, {"x": x, "t": t})
            b = ex.evaluate(ode, {}, {"xi": xi})
            scale = sum(abs(ex.evaluate(tm, {}, {"xi": xi})) for tm in terms)
            assert abs(a - b) <= 1e-12 * max(1.0, scale), fid
            checked += 1


def test_verify_u6_default_grid():
    u = catalog.build("u6", {"b": 3})
    rep = verify_on_grid(u, 3)
    assert rep.passed and rep.points_skipped == 0
    assert rep.points_evaluated == 101 * 11
    assert rep.max_scaled < 1e-7


def test_verify_u5_skips_pole_line():
    params = {"b": 3}
    u = catalog.build("u5", params)
    guard = catalog.build_guard_xt("u5", params)
    rep = verify_on_grid(u, 3, guard=guard)
    assert rep.passed and rep.points_skipped > 0
    assert rep.points_evaluated + rep.points_skipped == 101 * 11


def test_verify_non_solution_fails():
    rep = verify_on_grid(X, 3)
    assert not rep.passed
    assert rep.max_scaled > 0.1


@pytest.mark.filterwarnings("error")
def test_unguarded_poles_fail_without_numpy_warnings(catalog_samples):
    # u14's pole lines cross the default grid; without a guard the terms
    # are non-finite there, and the reductions must not warn about it
    u = catalog.build("u14", catalog_samples["u14"][0])
    rep = verify_on_grid(u, 3)
    assert rep.passed is False
    assert rep.max_scaled == float("inf")


def test_grid_halving_never_changes_verdict():
    fine = GridSpec(nx=201, nt=21)
    for fid, params in (("u6", {"b": 3}), ("u5", {"b": 3})):
        u = catalog.build(fid, params)
        guard = catalog.build_guard_xt(fid, params)
        assert verify_on_grid(u, 3, guard=guard).passed \
            == verify_on_grid(u, 3, grid=fine, guard=guard).passed
    assert not verify_on_grid(X, 3, grid=fine).passed


def test_all_points_skipped_raises():
    params = {"b": 3}
    u = catalog.build("u5", params)
    guard = catalog.build_guard_xt("u5", params)
    tiny = GridSpec(x_min=-0.01, x_max=0.01, nx=3, t_min=0.0, t_max=0.0, nt=2)
    with pytest.raises(AllPointsSkipped):
        verify_on_grid(u, 3, grid=tiny, guard=guard)


def test_finite_difference_mode_passes_u6():
    u = catalog.build("u6", {"b": 3})
    rep = verify_on_grid(u, 3, method="finite-difference")
    assert rep.passed
    assert rep.tolerance == 1e-4


def test_finite_difference_mode_fails_non_solution():
    rep = verify_on_grid(X, 3, method="finite-difference")
    assert not rep.passed


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(nx=1)
    with pytest.raises(ValueError):
        GridSpec(x_min=2.0, x_max=-2.0)
    with pytest.raises(ValueError):
        GridSpec(t_min=1.0, t_max=0.0)
    with pytest.raises(ValueError):
        GridSpec(eps_den=0.0)
    with pytest.raises(ValueError):
        verify_on_grid(X, 3, method="spectral")
