"""Solution-family registry.

Covers:
  - listing: 24 entries with the right parameter signatures
  - build values at hand-derived points, wave speeds (pinned bit for bit
    by a digest, equal to the formula `catalog list` prints, and at b < -1
    equal to `rational_hyperbolic`'s for u3..u10 and to -(b+1) for u11),
    `build_wave` against `build` and `build_guard_xt`, validation verdicts
  - u11 degeneracy decided exactly, and alike, by catalog and pipeline
  - singular denominators (structural, and every sample's guard tree
    pinned by a digest)
  - derivative/finite-difference agreement for catalogued expressions
  - numerically tracked phase velocity vs the declared wave speed
  - cross-method pointwise equivalences
"""
import hashlib
import math
import re
from fractions import Fraction as F

import numpy as np
import pytest

from mdpwave import catalog, report
from mdpwave import rational_hyperbolic as rh
from mdpwave import expr as ex
from mdpwave import pipeline as pl
from mdpwave.errors import ConstraintViolation
from mdpwave.riccati import discriminant

XI = ex.var("xi")


def _speed(fid, params):
    """The float wave speed `build_wave` gives."""
    return catalog.build_wave(fid, params)[2]


def test_listing_has_24_families():
    fams = catalog.list_families()
    assert len(fams) == 24
    by_id = {f["id"]: f for f in fams}
    assert by_id["u6"]["parameters"] == ["b"]
    assert by_id["u20"]["parameters"] == ["b", "alpha", "beta", "gamma"]
    assert by_id["u7"]["parameters"] == ["b", "a2"]
    assert by_id["u9"]["parameters"] == ["b", "c2"]
    assert "cole_hopf" in by_id


def test_build_u6_value():
    u = catalog.build("u6", {"b": 3})
    assert ex.evaluate_many(u, {}, {"x": 0, "t": 0}) == -15 / 8


def test_build_u11_value():
    u = catalog.build("u11", {"b": 3, "alpha": 1, "beta": 2, "gamma": 1})
    assert ex.evaluate_many(u, {}, {"x": 0, "t": 0}) == 6.5


def test_build_u1_value():
    u = catalog.build("u1", {"b": 3, "mu": 1})
    assert ex.evaluate_many(u, {}, {"x": 0, "t": 0}) == -13 / 8


def test_wave_speeds():
    assert _speed("u6", {"b": 3}) == -2.5
    assert _speed("u3", {"b": 3}) == -1.5
    for b in (1, 3, 5):
        assert _speed("u11", {"b": b, "alpha": 1, "beta": 2, "gamma": 1}) == -b - 1


@pytest.mark.parametrize("b", [F(-3), F(-3, 2)])
def test_wave_speeds_below_b_minus_one(b):
    # b + 1 < 0 flips u11's sign in riccati.RADICALS, so its root -(b+1) > 0
    free = {"u7": {"a2": 3}, "u8": {"a2": 3}, "u9": {"c2": 2}, "u10": {"c2": 2}}
    for fid in rh.FAMILY_IDS:
        extra = free.get(fid, {})
        want = float(rh.coefficients(fid, b, **extra).lam)
        assert _speed(fid, {"b": b, **extra}) == want, fid
    u11 = {"alpha": 1, "beta": 2, "gamma": 1}
    assert _speed("u11", {"b": b, **u11}) == -(b + 1)
    assert pl.ansatz_tuple("u11", b=b, **u11)["lam"] == -(b + 1)


# sha256 of the "<family> <report.format_float(wave speed)>" lines of every
# conftest sample, in CATALOG_SAMPLES order, recorded when the catalog's wave
# speed still used a scalar tree walker of its own; 14 of the 76 speeds carry an
# irrational radical
WAVE_SPEED_DIGEST = "5aa749a8bcbbc9762d20caf4e0f21cd101ab063db0220247c4979cbdb0c466f2"


def test_wave_speed_digest(catalog_samples):
    speeds = [(fid, _speed(fid, p))
              for fid, samples in catalog_samples.items() for p in samples]
    assert len(speeds) == 76 and all(type(lam) is float for _, lam in speeds)
    text = "\n".join(f"{fid} {report.format_float(lam)}" for fid, lam in speeds)
    assert hashlib.sha256(text.encode()).hexdigest() == WAVE_SPEED_DIGEST


# the "S = ..." text of a radical family's `catalog list` wave speed -> k,
# where S = discriminant(b, k)
PRINTED_RADICANDS = {
    "S = 1 - b(b+2)(mu^4 - 1)": lambda p: p["mu"] ** 4,
    "S = 1 - b(b+2)(beta^4 - 1)": lambda p: p["beta"] ** 4,
    "S = b(b+2)(1 - 256(alpha*gamma)^2) + 1": lambda p: 256 * (p["alpha"] * p["gamma"]) ** 2,
    "S = b(b+2)(1 - 16(alpha*gamma)^2) + 1": lambda p: 16 * (p["alpha"] * p["gamma"]) ** 2,
    "S = 1 - b(b+2)(Delta^2 - 1)": lambda p: (p["beta"] ** 2 - 4 * p["alpha"] * p["gamma"]) ** 2,
}
PRINTED_SPEED = re.compile(r"lambda = -\(b \+ 1 ([-+]) (branch\*)?sqrt\(S\)\)/2, (S = .*)")


def test_printed_wave_speed_is_the_evaluated_one(catalog_samples):
    docs = {f["id"]: f["wave_speed"] for f in catalog.list_families()}
    radical = set()
    for fid, samples in catalog_samples.items():
        m = PRINTED_SPEED.fullmatch(docs[fid])
        if m is None:
            continue
        radical.add(fid)
        op, branch, s_text = m.groups()
        for p in samples:
            sign = (1 if op == "-" else -1) * (p["branch"] if branch else 1)
            root = math.sqrt(discriminant(F(p["b"]), PRINTED_RADICANDS[s_text](p)))
            want = -(p["b"] + 1 - sign * root) / 2
            assert math.isclose(_speed(fid, p), want, rel_tol=1e-12), (fid, p)
    assert len(radical) == 15


def test_build_wave_is_build_guard_and_speed_at_once(catalog_samples):
    for fid, samples in catalog_samples.items():
        for p in samples:
            u, guard, lam = catalog.build_wave(fid, p)
            assert u == catalog.build(fid, p), fid
            assert guard == catalog.build_guard_xt(fid, p), fid
            # lam's bits are pinned by WAVE_SPEED_DIGEST
            # one maker call builds the guard from u's own x + lam*t node,
            # and these families' guards are subtrees of u
            if fid in ("u11", "u12", "u13", "u22", "u23"):
                assert id(guard) in _node_ids(u), fid


def _node_ids(root):
    """The ids of every node of `root`, read through the public node fields."""
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        seen.add(id(node))
        for field in ("terms", "factors", "num", "den", "base", "arg"):
            child = getattr(node, field, None)
            stack.extend(child if isinstance(child, tuple) else () if child is None else (child,))
    return seen


def test_validation_verdicts():
    assert catalog.validate("u1", {"b": -1, "mu": 1}) == ["b != -1"]
    assert "discriminant S >= 0" in catalog.validate("u1", {"b": 3, "mu": 2})
    assert catalog.validate("u9", {"b": 3, "c2": 2}) == []
    assert "alpha*gamma > 0" in catalog.validate("u14", {"b": 3, "alpha": 1, "gamma": -1})
    assert catalog.validate("u20", {"b": 3, "alpha": 1, "beta": 1, "gamma": 1}) == ["Delta > 0"]
    with pytest.raises(ConstraintViolation):
        catalog.build("u1", {"b": 3, "mu": 2})
    with pytest.raises(ValueError):
        catalog.build("u6", {"b": 3, "zeta": 1})
    with pytest.raises(ValueError):
        catalog.build("u7", {"b": 3})


def test_u11_degeneracy_is_exact_on_both_paths(catalog_samples):
    # catalog and pipeline must agree: exact inputs are decided exactly, so
    # a 1e-14 miss is rejected although it is within the float tolerance
    near = {"b": 3, "alpha": 1, "beta": 2, "gamma": 1 + F(1, 10**14)}
    assert catalog.validate("u11", near) == ["beta^2 = 4*alpha*gamma"]
    with pytest.raises(ConstraintViolation):
        pl.ansatz_tuple("u11", near["alpha"], near["beta"], near["gamma"], near["b"])
    for p in catalog_samples["u11"]:
        assert catalog.validate("u11", p) == []
        pl.ansatz_tuple("u11", p["alpha"], p["beta"], p["gamma"], p["b"])


def test_singular_denominators():
    assert catalog.singular_denominator("u5", {"b": 3}) \
        == ex.add(1, ex.mul(-1, ex.cosh(XI)))
    assert catalog.singular_denominator("u6", {"b": 3}) == ex.ONE
    assert catalog.singular_denominator("u11", {"b": 3, "alpha": 1, "beta": 2, "gamma": 1}) \
        == ex.pow_(ex.add(2, ex.mul(2, XI)), 2)
    zero_at = ex.evaluate_many(
        catalog.singular_denominator("u11", {"b": 3, "alpha": 1, "beta": 2, "gamma": 1}),
        {}, {"xi": -1.0})
    assert zero_at == 0.0


# sha256 of the "<family> <to_prefix(tree)>" lines of `build_guard_xt` and
# then `singular_denominator`, for every conftest sample in CATALOG_SAMPLES
# order; recorded before the radical makers shared one radicand table
GUARD_TREE_DIGEST = "ffe00ad715d3795e65ad5190fa63f65d9cdf392f04e3b85f7af3f5fcece74a30"


def test_guard_trees_match_golden_digest(catalog_samples):
    lines = []
    for fid, samples in catalog_samples.items():
        for p in samples:
            lines.append(f"{fid} {ex.to_prefix(catalog.build_guard_xt(fid, p))}")
            lines.append(f"{fid} {ex.to_prefix(catalog.singular_denominator(fid, p))}")
    assert len(lines) == 152
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == GUARD_TREE_DIGEST


def test_derivatives_match_finite_differences(catalog_samples):
    # 1st..3rd xi-derivatives of each catalogued profile vs 4th-order
    # central differences, away from singularities
    h = 1e-3
    w1 = {-2: 1, -1: -8, 1: 8, 2: -1}
    w2 = {-2: -1, -1: 16, 0: -30, 1: 16, 2: -1}
    w3 = {-3: 1, -2: -8, -1: 13, 1: -13, 2: 8, 3: -1}
    scales = {1: 12 * h, 2: 12 * h * h, 3: 8 * h ** 3}
    stencils = {1: w1, 2: w2, 3: w3}
    for fid, samples in catalog_samples.items():
        prof = catalog.profile(fid, samples[0])
        guard = catalog.singular_denominator(fid, samples[0])
        pts = [p for p in (-1.3, 0.41, 1.7)
               if abs(ex.evaluate_many(guard, {}, {"xi": np.array([p])})[0]) > 0.05]
        d = prof
        for n in (1, 2, 3):
            d = ex.differentiate(d, XI)
            for p in pts:
                fd = sum(w * ex.evaluate_many(prof, {}, {"xi": p + k * h})
                         for k, w in stencils[n].items()) / scales[n]
                sym = ex.evaluate_many(d, {}, {"xi": p})
                assert abs(sym - fd) <= 1e-5 * max(1.0, abs(fd)), (fid, n, p)


def _extremum_position(u, t, lo, hi):
    """Vertex of a parabola fit around the deepest grid sample."""
    xs = np.linspace(lo, hi, 8001)
    vals = ex.evaluate_many(u, {}, {"x": xs, "t": np.full(xs.shape, t)})
    i = int(np.argmin(vals))
    x0, h = xs[i], xs[1] - xs[0]
    a, b, c = vals[i - 1], vals[i], vals[i + 1]
    return x0 + 0.5 * h * (a - c) / (a - 2 * b + c)


def test_tracked_phase_velocity_matches_wave_speed():
    for fid, params in (("u6", {"b": 3}), ("u1", {"b": 3, "mu": 1})):
        lam = _speed(fid, params)
        u = catalog.build(fid, params)
        x0 = _extremum_position(u, 0.0, -4.0, 4.0)
        x1 = _extremum_position(u, 2.0, -4.0 - 2 * lam, 4.0 - 2 * lam)
        velocity = (x1 - x0) / 2.0
        assert abs(velocity - (-lam)) < 1e-6, (fid, velocity, lam)


def _pointwise_diff(left, right, n=100, seed=0):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-5, 5, size=n)
    ts = rng.uniform(0, 2, size=n)
    lv = ex.evaluate_many(left, {}, {"x": xs, "t": ts})
    rv = ex.evaluate_many(right, {}, {"x": xs, "t": ts})
    return float(np.max(np.abs(lv - rv)))


def test_equivalence_u3_is_u1_at_unit_mu():
    for b in (F(-1, 2), F(1), F(3), F(5)):
        d = _pointwise_diff(catalog.build("u3", {"b": b}),
                            catalog.build("u1", {"b": b, "mu": 1}))
        assert d < 1e-10, (b, d)


def test_equivalence_u6_is_u2_at_unit_mu():
    for b in (F(-1, 2), F(1), F(3), F(5)):
        d = _pointwise_diff(catalog.build("u6", {"b": b}),
                            catalog.build("u2", {"b": b, "mu": 1}))
        assert d < 1e-10, (b, d)


def test_equivalence_u20_u21_vs_kink_branches():
    # Delta in {1/4, 1}: u20 matches u2 and u21 matches u1 at mu = sqrt(Delta)
    for delta_v in (F(1, 4), F(1)):
        beta = ex.sym_sqrt(delta_v).value  # rational for these choices
        params = {"b": 3, "alpha": 0, "beta": beta, "gamma": 1}
        mu = beta
        d20 = _pointwise_diff(catalog.build("u20", params),
                              catalog.build("u2", {"b": 3, "mu": mu}))
        d21 = _pointwise_diff(catalog.build("u21", params),
                              catalog.build("u1", {"b": 3, "mu": mu}))
        assert d20 < 1e-10 and d21 < 1e-10, (delta_v, d20, d21)


def test_profile_and_build_agree_through_frame_shift(catalog_samples):
    # the (x, t) wave and guard are the xi ones at xi = x + lam*t
    # (+ 0 * x spreads a constant's scalar value over the points)
    x = np.array([0.3, -2.0, 4.0, 1.1, -0.7])
    t = np.array([0.2, 1.5, 0.9, 0.0, 2.0])
    xt = {"x": x, "t": t}
    for fid, samples in catalog_samples.items():
        for p in samples:
            xi = {"xi": x + _speed(fid, p) * t}
            g = ex.evaluate_many(catalog.singular_denominator(fid, p), {}, xi) + 0 * x
            keep = np.isfinite(g) & (np.abs(g) > 1e-2)
            for a, b in ((catalog.build(fid, p), catalog.profile(fid, p)),
                         (catalog.build_guard_xt(fid, p), catalog.singular_denominator(fid, p))):
                va = (ex.evaluate_many(a, {}, xt) + 0 * x)[keep]
                vb = (ex.evaluate_many(b, {}, xi) + 0 * x)[keep]
                assert np.all(np.abs(va - vb) <= 1e-12 * np.maximum(1.0, np.abs(vb))), fid
