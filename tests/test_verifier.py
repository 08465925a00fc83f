"""Residual operators and grid verification.

Covers:
  - structural vanishing for constants, direct values for non-solutions
  - symbolic residuals of catalogued solutions at sample points
  - frame consistency between the (x, t) and traveling-wave residuals
  - grid reports: pass/fail, skip counting, guard handling, grid halving,
    the all-skipped error, and the finite-difference cross-check path
  - no numpy warning escapes an unguarded verification
  - golden digests of every residual tree the builders produce
  - the block walk: golden multi-block reports (also on two shifted
    benchmark windows), agreement with one pass of the allocating
    arithmetic over every kept point at and around the block size, guard
    skips across a block edge, one tape per verification with the guard
    as its last root, and guards that are constant, a point array, NaN on
    part of the grid, or a root of the tape
  - finite-difference offset packing: bitwise agreement with one tape run
    per stencil offset, and the number and size of the packed runs
  - grid points: read-only, equal to a fresh meshgrid bit for bit, shared
    only between grids whose bounds have the same bits, the float grid from
    bounds of any number type, and a GridSpec unchanged by computing them
"""
import dataclasses
import hashlib
import math
import pickle
import random
from fractions import Fraction as F

import numpy as np
import pytest

from mdpwave import catalog, report, verifier
from mdpwave import expr as ex
from mdpwave import rational_hyperbolic as rh
from mdpwave.errors import AllPointsSkipped
from mdpwave.verifier import (BLOCK, GridSpec, mdp_residual, mdp_residual_terms,
                              ode_residual, ode_residual_terms, verify_on_grid)

X = ex.var("x")
T = ex.var("t")
XI = ex.var("xi")


def test_constant_solution_residual_is_structurally_zero():
    assert mdp_residual(ex.Rational(F(7, 2)), 3) == ex.ZERO
    assert ode_residual(ex.Rational(F(-2)), 3, F(-5, 2)) == ex.ZERO


def test_linear_non_solution_value():
    res = mdp_residual(X, 3)
    assert ex.evaluate_many(res, {}, {"x": 2.0, "t": 0.0}) == 16.0


def test_catalog_u6_residual_pointwise():
    u = catalog.build("u6", {"b": 3})
    res = mdp_residual(u, 3)
    assert abs(ex.evaluate_many(res, {}, {"x": 1.0, "t": 0.5})) < 1e-9


def test_catalog_u20_ode_residual():
    prof = catalog.profile("u20", {"b": 3, "alpha": 0, "beta": 1, "gamma": 1})
    lam = catalog.wave_speed("u20", {"b": 3, "alpha": 0, "beta": 1, "gamma": 1})
    assert lam == -2.5
    res = ode_residual(prof, 3, F(-5, 2))
    assert abs(ex.evaluate_many(res, {}, {"xi": 0.7})) < 1e-9


def test_frame_consistency_on_non_solution():
    # an arbitrary profile: the two residual routes must agree pointwise
    def U(xi):
        return ex.div(ex.cosh(xi), ex.add(2, ex.sinh(xi)))

    lam = F(-3, 2)
    rng = random.Random(5)
    ode = ode_residual(U(XI), 3, lam)
    pde = mdp_residual(U(ex.add(X, ex.mul(lam, T))), 3)
    for _ in range(50):
        x, t = rng.uniform(-3, 3), rng.uniform(0, 2)
        a = ex.evaluate_many(pde, {}, {"x": x, "t": t})
        b = ex.evaluate_many(ode, {}, {"xi": x + float(lam) * t})
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_frame_consistency_across_families(catalog_samples):
    # both residual routes agree to 1e-12 relative to the term magnitudes
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
            a = ex.evaluate_many(pde, {}, {"x": x, "t": t})
            b = ex.evaluate_many(ode, {}, {"xi": xi})
            scale = sum(abs(ex.evaluate_many(tm, {}, {"xi": xi})) for tm in terms)
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
    for method in ("symbolic", "finite-difference"):
        with pytest.raises(AllPointsSkipped):
            verify_on_grid(u, 3, grid=tiny, guard=guard, method=method)


def test_finite_difference_mode_passes_u6():
    u = catalog.build("u6", {"b": 3})
    rep = verify_on_grid(u, 3, method="finite-difference")
    assert rep.passed
    assert rep.tolerance == 1e-4


def test_finite_difference_mode_fails_non_solution():
    rep = verify_on_grid(X, 3, method="finite-difference")
    assert not rep.passed


def test_verify_on_grid_rejects_a_tol_not_finite_and_positive():
    # u6's b=3 wave is no solution at b=5: an infinite tol would pass it
    u = catalog.build("u6", {"b": 3})
    assert not verify_on_grid(u, 5).passed
    for tol in (math.inf, math.nan, 0.0, -1e-7, -math.inf):
        for method in ("symbolic", "finite-difference"):
            with pytest.raises(ValueError, match="tol"):
                verify_on_grid(u, 5, tol=tol, method=method)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(nx=1)
    with pytest.raises(ValueError):
        GridSpec(x_min=2.0, x_max=-2.0)
    with pytest.raises(ValueError):
        GridSpec(t_min=1.0, t_max=0.0)
    with pytest.raises(ValueError):
        GridSpec(eps_den=0.0)
    with pytest.raises(ValueError, match="eps_den must be finite"):
        GridSpec(eps_den=math.inf)
    span = "x_max - x_min and t_max - t_min must be finite"
    with pytest.raises(ValueError, match=span):
        GridSpec(x_min=-1e308, x_max=1e308)
    with pytest.raises(ValueError, match=span):
        GridSpec(t_min=-1e308, t_max=1e308)
    with np.errstate(all="raise"):  # a span of 1.6e308 is finite: no warning
        xs, ts = GridSpec(x_min=-8e307, x_max=8e307, t_min=-8e307, t_max=8e307).points()
    assert np.isfinite(xs).all() and np.isfinite(ts).all()
    for bad in (2.5, 3.0, "5", None):
        with pytest.raises(ValueError):
            GridSpec(nx=bad)
        with pytest.raises(ValueError):
            GridSpec(nt=bad)
    assert GridSpec(nx=np.int64(5), nt=np.int32(3)).points()[0].size == 15
    with pytest.raises(ValueError):
        verify_on_grid(X, 3, method="spectral")


# sha256 over `to_prefix` of every residual term, one line each: for
# `mdp_residual_terms` over all of a family's conftest samples, and for
# `ode_residual_terms` of each rational-hyperbolic ansatz at RH_BS.
# Recorded before the builders shared one derivative memo across orders
# and before the constant fast path in `add`/`mul`; they pin that both
# build the same trees.
MDP_TREE_DIGESTS = {
    "u1": "d50234608d753cee590e18bcd9781cf6505d70861da1cf8adca91de7e6890ffc",
    "u2": "11d8f44f3c064a727d57e1785090faacd89ffd9936915068e480170801d5ce53",
    "u3": "de27c4f01a2abd6fc25420d83a0a7ea7f27145801b993c6ad809747df19ec106",
    "u4": "9193fb77c2bf4f1d37c480086b4115c1384a18de1f7e67da296072160f2b3c46",
    "u5": "845520285fda6ab994cf56f0f78634be74af2cce9a00e863257c3e40e891558b",
    "u6": "50f071278a09b41767484e9f8ffb58e31a9d82756b2d949692e79c1384cee2c0",
    "u7": "0bfae05f5bd6bf07d8d8361cfe9a4fcbba88baf44237b8e0df516d456afe4c1b",
    "u8": "8717642f3fe70a8bc44ea7bd4ea4ca0d613b536dc571d505a3e884a2da2b1473",
    "u9": "e755c4b440fec67771484d12f327bf6c06df3c5aa5f39bedc2b9b1b9a8ee6da4",
    "u10": "393bdf4154b17432b63b7f22278340438c04a7b5b4ffb91013eb0ef95f9c9cd3",
    "u11": "4be47c99294d3a6dd7b4e30a229a4b0a857aa38083c55322cc0d0c9019f72541",
    "u12": "d753fff48b07281c2b7d8e4530832dcb699e92157f2616a583ca26d1144f99b9",
    "u13": "f2f9a7bfe5d33feb8ebf5810bfe850db5c0a40817bffb89838c19f61683f76ab",
    "u14": "a1a5072402e064d0a157447c31f17291324d2a8bf33cd72a3f65a16a807d4145",
    "u15": "08c21eaa67ae2a31530dd6d3e233fbc2b7ede8c4d26cd7b5c2d963ac09f28188",
    "u16": "67530bcb84faea98f614792b565ce4a3565e79df0d9000bbc0966f1cd0e58e20",
    "u17": "b57139a4b81d6e266a7311a63484c41922167f983da348e74cc063154d2b40c6",
    "u18": "9679b28706b5035b26ef331eda8708c766c70d6ceb7ba18f02d243c69a4a8c48",
    "u19": "52e3cb7a337533316a3b72a81da3d0aa6cc3d865b13b2ab2ba6db6f9562c8752",
    "u20": "e58eb37ba50c05b0d4bf7b199d1e54c6a41dcad453c96c694cc7d76795fceaf1",
    "u21": "f13c73e7c0f629dbacee2f8487de2259d8c704c225da42d66a2c175ea0a576b7",
    "u22": "24d77c0025fcda167a67282bbaaae948ad097ac617729b858b7d43e406401c96",
    "u23": "279dac689eef3f91aa5c79df03312002c92942adbec713bb94487503efba93df",
    "cole_hopf": "9ce2e6893b9d9b37f4222397906b116bd56bdbf44847916ed1618540d47cb5dc",
}
RH_TREE_DIGESTS = {
    "u3": "bf3bd55b85c3662f1fac494c76552a73015dcf623f1b5254c0ea0356a40f3b64",
    "u4": "916a61c850f188171b3aea8c5c74001dae068c2f048656594d62e6c4dcf0a2a0",
    "u5": "8d6904f4a069905c0abb4c4b5dc51789b171e251690dc68ecdb1ca591486b3f1",
    "u6": "3c15292a69cf6b0aa867f34699f215a0fae7cb27d09131508f22dec5ee8a80d6",
    "u7": "b51978cab20ecd11860160303e1e8ad6fe89480dd888db23df568d459fa46c6d",
    "u8": "d5c23c187d8cd1f588613d35d87ab0ef32e37601572cfb39c9cd5f6c261f32be",
    "u9": "bb4db72c653d16d5ce7af4345c9a568251c4b44fc5ed17af0184ac6109e212bf",
    "u10": "1d5e6445ab08732e28502eebbe9d37387486d1cb9d69766cf41de2d157639d89",
}
RH_BS = (3, F(-1, 2))
RH_FREE = {"u7": {"a2": 3}, "u8": {"a2": 3}, "u9": {"c2": 2}, "u10": {"c2": 2}}


def _prefix_digest(term_sets):
    h = hashlib.sha256()
    for terms in term_sets:
        for term in terms:
            h.update(ex.to_prefix(term).encode())
            h.update(b"\n")
    return h.hexdigest()


def test_mdp_residual_trees_match_golden_digests(catalog_samples):
    assert set(catalog_samples) == set(MDP_TREE_DIGESTS)
    for fid, samples in catalog_samples.items():
        got = _prefix_digest(mdp_residual_terms(catalog.build(fid, s), s["b"])
                             for s in samples)
        assert got == MDP_TREE_DIGESTS[fid], fid


def test_ode_residual_trees_match_golden_digests():
    assert set(rh.FAMILY_IDS) == set(RH_TREE_DIGESTS)
    for fid in rh.FAMILY_IDS:
        params = [rh.family_params(fid, b, **RH_FREE.get(fid, {})) for b in RH_BS]
        got = _prefix_digest(ode_residual_terms(rh.rh_ansatz(p), b, p.lam)
                             for b, p in zip(RH_BS, params))
        assert got == RH_TREE_DIGESTS[fid], fid


# sha256 of `report.dumps` of each verification report on BIG_GRID (101,101
# points, seven blocks), for (family, conftest sample index, method).
# Recorded before verification walked the grid in blocks and before sums
# and products accumulated in place; they pin that neither moves a byte.
BIG_GRID = GridSpec(nx=1001, nt=101)
REPORT_DIGESTS = {
    ("u14", 0, "symbolic"): "a30db442738d58eab08b35cabf7e5e265b3b9d65de0d004e65dc0af6ea1270e8",
    ("u14", 2, "symbolic"): "b0244038072597746b24883fd6db9a36f9cc18e9e58aa4dfd127a4bd95598ba4",
    ("u22", 0, "symbolic"): "eaf90c8f42b8f38a1e46b517124db7bb6a830cf57a5a1bc3c3e473dc20b7b77f",
    ("u22", 0, "finite-difference"): "2d39a7887d99021203a6d416dfc2194f78ffb83f15e4bc1b70aa8a2c15b1ef3f",
    ("cole_hopf", 0, "symbolic"): "15e063ac52b81bb3e7dfeb5358b8543ae5f7e24e5ff530d90e3f407081387714",
    ("cole_hopf", 0, "finite-difference"): "1ae022eba68d160fe693408b8fbee571856e326ea0588992fde052cd8537c431",
    ("u7", 0, "symbolic"): "4e619a86a01b2c7f5e155ebf387015d188dbd08bbcbc9484854d06809097c6e4",
    ("u7", 0, "finite-difference"): "9872d9075a1f5c5e3aba53801142f5b195293043f0f821e7aeb08c1a1aec0047",
}


def test_multi_block_reports_match_golden_digests(catalog_samples):
    for (fid, i, method), want in REPORT_DIGESTS.items():
        params = catalog_samples[fid][i]
        rep = verify_on_grid(catalog.build(fid, params), params["b"], grid=BIG_GRID,
                             guard=catalog.build_guard_xt(fid, params), method=method)
        assert rep.passed and rep.points_evaluated > BLOCK, (fid, method)
        assert (rep.points_skipped > 0) == (fid == "u14"), (fid, method)
        got = hashlib.sha256(report.dumps(rep.to_dict()).encode()).hexdigest()
        assert got == want, (fid, method)


def _window(dx, dt):
    """One of perfbench verify-grid's grids: BIG_GRID's shape with x
    shifted by dx and t by dt."""
    return GridSpec(x_min=float(-10 + dx), x_max=float(10 + dx), nx=1001,
                    t_min=float(dt), t_max=float(2 + dt), nt=101)


# the same digests on two shifted windows of the benchmark's verify-grid
# workload, recorded at the commit before verification wrote into a reused
# workspace
SHIFTED_REPORT_DIGESTS = {
    ((F(7, 8), F(3, 4)), "u14", 0, "symbolic"):
        "e7882208cd11bd9e0f2a8f12063f3ac2242ad594c9d18f46a661ad23a9a618ab",
    ((F(7, 8), F(3, 4)), "u22", 0, "finite-difference"):
        "6f9586a9685dd8daac2d7ac2a3be13a8e9f3ffa90f9f24c3cd358ba74efbd70a",
    ((F(-1), F(1, 4)), "u14", 0, "symbolic"):
        "4c6466681166e5d3bc2e1adcd96e7e4c74d8aea58a20802aa221994f569e650c",
    ((F(-1), F(1, 4)), "u22", 0, "finite-difference"):
        "612a51c2304c105c5bce40aef1b973abe706e1f86dcddeb3a0604c52b6ce3a49",
}


def test_shifted_window_reports_match_golden_digests(catalog_samples):
    for (shift, fid, i, method), want in SHIFTED_REPORT_DIGESTS.items():
        params = catalog_samples[fid][i]
        rep = verify_on_grid(catalog.build(fid, params), params["b"], grid=_window(*shift),
                             guard=catalog.build_guard_xt(fid, params), method=method)
        assert rep.passed and rep.points_evaluated > BLOCK, (shift, fid, method)
        assert (rep.points_skipped > 0) == (fid == "u14"), (shift, fid, method)
        got = hashlib.sha256(report.dumps(rep.to_dict()).encode()).hexdigest()
        assert got == want, (shift, fid, method)


def _single_pass(u, b, grid, guard=ex.ONE, method="symbolic"):
    """(max_abs, max_scaled, points evaluated) from one pass over every
    kept point at once, with the allocating sums and reductions that
    verification used before it wrote into a workspace."""
    xs, ts = grid.points()
    keep = np.abs(ex.evaluate_many(guard, {}, {"x": xs, "t": ts})) >= grid.eps_den
    xk, tk = xs[keep], ts[keep]
    with np.errstate(all="ignore"):
        if method == "symbolic":
            terms = ex.evaluate_many(mdp_residual_terms(u, b), {}, {"x": xk, "t": tk})
        else:
            terms = _fd_terms_per_offset(ex.Tape((u,)), b, xk, tk)
        residual = sum(terms)
        scale = sum(np.abs(t) for t in terms)
        scaled = np.abs(residual) / np.maximum(1.0, scale)
    scaled = np.where(np.isfinite(residual) & np.isfinite(scale), scaled, np.inf)
    abs_res = np.abs(residual)
    return (float(np.max(np.where(np.isfinite(abs_res), abs_res, np.inf))),
            float(np.max(scaled)), xk.size)


@pytest.mark.parametrize("nx, nt", [(127, 129), (128, 128), (145, 113)])
def test_block_edges_match_a_single_pass(nx, nt):
    assert abs(nx * nt - BLOCK) <= 1
    # not a solution: the largest |R| is at the last grid point (alone in
    # its block when there are BLOCK + 1 points), the largest scaled
    # residual in the first block
    u = ex.mul(ex.pow_(X, 3), ex.add(1, T))
    grid = GridSpec(x_min=-1.0, x_max=3.0, nx=nx, t_min=0.0, t_max=1.0, nt=nt)
    for method in ("symbolic", "finite-difference"):
        rep = verify_on_grid(u, 3, grid=grid, method=method)
        got = (rep.max_abs, rep.max_scaled, rep.points_evaluated)
        assert got == _single_pass(u, 3, grid, method=method), method


def test_guard_skips_across_a_block_edge_match_a_single_pass():
    params = {"b": 3}
    u = catalog.build("u5", params)
    guard = catalog.build_guard_xt("u5", params)
    grid = GridSpec(nx=2001, nt=11)
    xs, ts = grid.points()
    keep = np.abs(ex.evaluate_many(guard, {}, {"x": xs, "t": ts})) >= grid.eps_den
    kept_before_skips = np.cumsum(keep)[~keep]
    assert kept_before_skips.min() < BLOCK < kept_before_skips.max()
    for method in ("symbolic", "finite-difference"):
        rep = verify_on_grid(u, 3, grid=grid, guard=guard, method=method)
        assert rep.points_skipped == np.count_nonzero(~keep)
        got = (rep.max_abs, rep.max_scaled, rep.points_evaluated)
        assert got == _single_pass(u, 3, grid, guard, method), method


def _spy_tapes(monkeypatch):
    """((tape, roots) of each compile, (tape, width) of each run), as they happen."""
    compiled, runs = [], []
    init, run = ex.Tape.__init__, ex.Tape.run

    def spy_init(tape, roots):
        compiled.append((tape, tuple(roots)))
        init(tape, roots)

    def spy_run(tape, point, work):
        runs.append((tape, work.shape[1]))
        return run(tape, point, work)

    monkeypatch.setattr(ex.Tape, "__init__", spy_init)
    monkeypatch.setattr(ex.Tape, "run", spy_run)
    return compiled, runs


@pytest.mark.parametrize("method, copies", [("symbolic", 1), ("finite-difference", 27)])
def test_one_tape_per_verdict_with_the_guard_last(monkeypatch, method, copies):
    params = {"b": 3}
    u = catalog.build("u5", params)
    guard = catalog.build_guard_xt("u5", params)
    grid = GridSpec(nx=2001, nt=11)
    compiled, runs = _spy_tapes(monkeypatch)
    rep = verify_on_grid(u, 3, grid=grid, guard=guard, method=method)
    assert rep.points_skipped > 0 and type(rep.points_evaluated) is int
    [(tape, roots)] = compiled
    assert roots[-1] is guard and len(roots) == (6 if method == "symbolic" else 2)
    assert runs and all(t is tape for t, _ in runs)
    assert sum(w for _, w in runs) == copies * grid.nx * grid.nt


@pytest.mark.parametrize("method", ["symbolic", "finite-difference"])
def test_a_constant_guard_is_one_compile(monkeypatch, method):
    compiled, _ = _spy_tapes(monkeypatch)
    u = catalog.build("u6", {"b": 3})
    for c in (F(1, 2), F(-1, 1000), F(1, 1000)):  # |c| >= eps_den
        rep = verify_on_grid(u, 3, guard=ex.Rational(c), method=method)
        assert rep.points_skipped == 0
    for c in (F(1, 10000), F(-999, 1000000), 0):  # |c| < eps_den
        with pytest.raises(AllPointsSkipped):
            verify_on_grid(u, 3, guard=ex.Rational(c), method=method)
    assert len(compiled) == 6


@pytest.mark.parametrize("method", ["symbolic", "finite-difference"])
def test_guards_of_every_shape_match_a_single_pass(method):
    u = catalog.build("u6", {"b": 3})
    cases = (
        # a bare variable: its root is the point array itself
        (X, GridSpec(x_min=-1.0, x_max=1.0, nx=201, eps_den=0.05)),
        # NaN on the left half of the grid: skipped there
        (ex.sqrt(X), GridSpec()),
        # u itself, on the finite-difference path one slot with the tape's
        # other root: the far field is skipped
        (u, GridSpec(x_min=-40.0, x_max=40.0, eps_den=1e-6)),
    )
    for guard, grid in cases:
        rep = verify_on_grid(u, 3, grid=grid, guard=guard, method=method)
        assert 0 < rep.points_skipped < grid.nx * grid.nt, guard
        got = (rep.max_abs, rep.max_scaled, rep.points_evaluated)
        assert got == _single_pass(u, 3, grid, guard, method), guard


def _fd_terms_per_offset(tape, b, xs, ts):
    """The finite-difference terms as computed before the stencil offsets
    were packed and before the stencils were summed into a workspace: one
    tape run per offset, each on its own shifted copy, and a fresh array
    for every sum."""
    W1, W2, W3, h = verifier._W1, verifier._W2, verifier._W3, verifier.FD_STEP
    b = float(b)
    cache = {}

    def u_at(i, j):
        key = (i, j)
        if key not in cache:
            [cache[key]] = ex.evaluate_many(tape, {}, {"x": xs + i * h, "t": ts + j * h})
        return cache[key]

    def d_x(weights, scale, j=0):
        (i0, w0), *rest = weights.items()
        out = 0.0 + w0 * u_at(i0, j)
        for i, w in rest:
            out += w * u_at(i, j)
        out /= scale
        return out

    u0 = u_at(0, 0)
    ux = d_x(W1, 12 * h)
    uxx = d_x(W2, 12 * h * h)
    uxxx = d_x(W3, 8 * h ** 3)
    ut = sum(w * u_at(0, j) for j, w in W1.items()) / (12 * h)
    uxxt = sum(w * d_x(W2, 12 * h * h, j=j) for j, w in W1.items()) / (12 * h)
    return (ut, -uxxt, (b + 1) * u0 * u0 * ux, -b * ux * uxx, -u0 * uxxx)


def _assert_fd_terms_bitwise(u, b, xs, ts):
    tape = ex.Tape((u, ex.ONE))
    with np.errstate(all="ignore"):
        got = verifier._fd_terms(tape, b, xs, ts, *verifier._workspace(tape, xs.size, False))[:5]
        want = _fd_terms_per_offset(ex.Tape((u,)), b, xs, ts)
    assert len(got) == len(want) == 5
    for g, w in zip(got, want):
        assert g.shape == w.shape == xs.shape
        assert np.array_equal(g.view(np.int64), w.view(np.int64))


def test_fd_offsets_are_the_stencils_reads():
    reads = {(i, 0) for i in range(-3, 4)}
    reads |= {(i, j) for j in (-2, -1, 1, 2) for i in range(-2, 3)}
    assert sorted(verifier._FD_OFFSETS) == sorted(reads) and len(reads) == 27


def test_packed_fd_terms_match_per_offset_runs_on_the_default_grid(catalog_samples,
                                                                   pole_free_samples):
    xs, ts = GridSpec().points()
    for fid, indices in pole_free_samples.items():
        for i in indices:
            params = catalog_samples[fid][i]
            _assert_fd_terms_bitwise(catalog.build(fid, params), params["b"], xs, ts)


@pytest.mark.parametrize("n", [1, 2, BLOCK // 27 - 1, BLOCK // 27, BLOCK // 27 + 1,
                               BLOCK // 2 - 1, BLOCK // 2, BLOCK // 2 + 1, BLOCK])
def test_packed_fd_terms_match_per_offset_runs_across_packing_thresholds(catalog_samples, n):
    rng = np.random.default_rng(n)
    xs, ts = rng.uniform(-10.0, 10.0, n), rng.uniform(0.0, 2.0, n)
    for fid in ("u22", "u7", "cole_hopf"):
        params = catalog_samples[fid][0]
        _assert_fd_terms_bitwise(catalog.build(fid, params), params["b"], xs, ts)


@pytest.mark.parametrize("n, runs", [(101 * 11, 2), (BLOCK, 27)])
def test_fd_terms_pack_offsets_into_block_sized_runs(monkeypatch, n, runs):
    sizes, read = [], {"x": set(), "t": set()}
    run = ex.Tape.run

    def spy_run(tape, point, work):
        sizes.append(point["x"].size)
        for name, v in point.items():
            read[name].add(v.__array_interface__["data"][0])
        assert work.shape[1] == point["x"].size
        return run(tape, point, work)

    monkeypatch.setattr(ex.Tape, "run", spy_run)
    xs, ts = np.linspace(-10.0, 10.0, n), np.linspace(0.0, 2.0, n)
    tape = ex.Tape((catalog.build("u6", {"b": 3}), ex.ONE))
    work, sums = verifier._workspace(tape, n, False)
    verifier._fd_terms(tape, 3, xs, ts, work, sums)
    assert len(sizes) == runs
    assert sum(sizes) == 27 * n and max(sizes) == work.shape[1] <= BLOCK
    # packed runs read the points gathered into the workspace; runs of one
    # offset read the 7 x-shifted and 5 t-shifted rows each block makes once
    assert (len(read["x"]), len(read["t"])) == ((1, 1) if runs < 27 else (7, 5))


def test_grid_points_are_read_only_shared_and_exact():
    grid = GridSpec()
    xs, ts = grid.points()
    xx, tt = np.meshgrid(np.linspace(-10.0, 10.0, 101), np.linspace(0.0, 2.0, 11), indexing="ij")
    assert xs.tobytes() == xx.ravel().tobytes() and ts.tobytes() == tt.ravel().tobytes()
    for a in (xs, ts, *BIG_GRID.points()):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0
    again = GridSpec().points()
    assert again[0] is xs and again[1] is ts
    # -0.0 == 0.0, so each pair of grids is equal, yet they share no arrays,
    # and the sign that linspace gives a bound of -0.0 is kept
    for bounds in ({"x_min": -0.0}, {"x_min": -1.0, "x_max": -0.0}):
        neg, pos = GridSpec(**bounds), GridSpec(**{k: v + 0.0 for k, v in bounds.items()})
        assert neg == pos and neg.points()[0] is not pos.points()[0]
    assert np.signbit(GridSpec(x_min=-1.0, x_max=-0.0).points()[0][-1])
    assert not np.signbit(GridSpec(x_min=-1.0, x_max=0.0).points()[0][-1])
    assert BIG_GRID.points()[0] is not BIG_GRID.points()[0]  # over BLOCK points: not kept


def test_grid_points_from_bounds_of_any_number_type(monkeypatch):
    # before, a float32 bound made float32 points and a Fraction bound object
    # arrays, on which verification raised
    monkeypatch.setattr(verifier, "_POINTS", {})  # nothing cached: these points are built
    odd = GridSpec(x_min=np.float32(-10.0), x_max=F(10), t_max=np.int64(2))
    xs, ts = odd.points()
    u, guard, _ = catalog.build_wave("u6", {"b": 3})
    rep = verify_on_grid(u, 3, grid=odd, guard=guard)
    monkeypatch.setattr(verifier, "_POINTS", {})
    assert [a.tobytes() for a in GridSpec().points()] == [xs.tobytes(), ts.tobytes()]
    assert rep == verify_on_grid(u, 3, guard=guard)


def test_grid_spec_unchanged_by_points():
    for grid in (GridSpec(), GridSpec(x_min=-0.0, nx=7), BIG_GRID):
        before = dataclasses.asdict(grid), hash(grid), pickle.dumps(grid)
        grid.points()
        assert (dataclasses.asdict(grid), hash(grid), pickle.dumps(grid)) == before
        assert grid == pickle.loads(before[2])
