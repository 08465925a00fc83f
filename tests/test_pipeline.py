"""Exact re-derivation pipeline.

Covers:
  - balancing of leading powers -> {0, 2}
  - Laurent ansatz layout and the phi-power derivative rule
  - the derivation (product-rule) law on random Laurent objects
  - a product or a sum of a Laurent object and a plain MultiPoly raises
  - system generation: clearing power, equation count, c1=c2=0 collapse,
    and the golden digest of the generated system
  - exact-zero residuals of the solved tuples, including rational
    third-case instances, and check_assignment against per-equation
    evaluation at exact and float bindings (floats evaluated exactly and
    rounded once; Fractions, never ints; non-finite values rejected)
  - the two u11-u23 formulas joined: each catalog profile against
    a0 + a1 phi + a2 phi^2 + c1/phi + c2/phi^2 from the solved tuple
  - polyalg.bind against Fraction oracles on seeded random polynomials,
    full and partial bindings, and a group that cancels
  - serialization through report.dumps: every coefficient exact in the
    text, the fixed name layouts, the same bytes from a fresh system;
    numpy scalars in report.format_value
  - multistart root recovery and root self-consistency
  - byte-identical Newton roots (golden hashes, also on the failure
    paths), the seed-count and parameter-name checks, batch independence
    of the compiled residual and Jacobian, the power table against one
    np.power call bit for bit, the stacked least-squares solve
    against per-matrix np.linalg.lstsq bit for bit (in one call and split
    across one or three worker threads), the compiled stacks
    against the subs + diff oracles (rational and scaled systems too), and
    the grouped line search against halving one level at a time
  - the split solve: golden roots at 120-220 seeds on one CPU (no pool)
    and on three, a worker chunk's NaN rows with no warning under
    `-W error`, no thread left after a solve, and a worker's exception
    raised from newton_solve
  - a numpy without the lstsq gufunc's 'ddd->ddid' loop: newton_solve
    raises ImportError before any Newton work, the exact half still runs
  - the subs oracle against term-by-term addition
  - round trip: a numeric root composed with the matching phi solves the
    traveling-wave equation on a grid
"""
import hashlib
import json
import os
import random
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from mdpwave import catalog
from mdpwave import expr as ex
from mdpwave import pipeline as pl
from mdpwave import polyalg
from mdpwave import report
from mdpwave.errors import ConstraintViolation
from mdpwave.polyalg import (VARS, MultiPoly, laurent, laurent_coeff, laurent_derivative,
                             laurent_support)
from mdpwave.riccati import RiccatiCoefficients, classify, phi_expr, pole_guard
from mdpwave.verifier import GridSpec, ode_residual_terms, verify_on_grid


@pytest.fixture(scope="module")
def system():
    return pl.generate_system()


# Reference implementations for `polyalg.bind` and the compiled stacks:
# partial evaluation, partial derivative and full evaluation, term by term
# in Fractions (in floats once a float binding is met).

def _subs(poly, bindings):
    # partial evaluation at exact rationals, dropping a key whose sum is 0
    vals = {VARS.index(k): F(v) for k, v in bindings.items()}
    out = {}
    for e, c in poly.terms.items():
        coef = c
        e2 = list(e)
        for i, v in vals.items():
            coef *= v ** e[i]
            e2[i] = 0
        e2 = tuple(e2)
        s = out.get(e2, F(0)) + coef
        if s == 0:
            out.pop(e2, None)
        else:
            out[e2] = s
    return MultiPoly(out)


def _diff(poly, name):
    # exact partial derivative
    i = VARS.index(name)
    out = {}
    for e, c in poly.terms.items():
        k = e[i]
        if k == 0:
            continue
        e2 = e[:i] + (k - 1,) + e[i + 1:]
        s = out.get(e2, F(0)) + c * k
        if s == 0:
            out.pop(e2, None)
        else:
            out[e2] = s
    return MultiPoly(out)


def _evaluate_all(polys, bindings):
    # full evaluation with one table of powers shared by every polynomial
    vals = [bindings.get(name) for name in VARS]
    powers = {}
    out = []
    for poly in polys:
        total = F(0)
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


def _evaluate(poly, bindings):
    return _evaluate_all((poly,), bindings)[0]


def test_balance_returns_zero_and_two():
    assert pl.balance() == {0, 2}


def test_ansatz_laurent_layout():
    L = pl.ansatz_laurent()
    assert laurent_support(L) == [-2, -1, 0, 1, 2]
    assert laurent_coeff(L, 0) == MultiPoly.variable("a0")
    assert laurent_coeff(L, 2) == MultiPoly.variable("a2")
    assert laurent_coeff(L, -1) == MultiPoly.variable("c1")


def test_phi_derivative_rule():
    alpha = MultiPoly.variable("alpha")
    beta = MultiPoly.variable("beta")
    gamma = MultiPoly.variable("gamma")
    one = MultiPoly.const(1)
    d = laurent_derivative(laurent({1: one}))
    assert d == laurent({0: alpha, 1: beta, 2: gamma})
    assert laurent_derivative(laurent({0: MultiPoly.variable("a0")})) == laurent({})
    d = laurent_derivative(laurent({-1: one}))
    assert d == laurent({-2: -alpha, -1: -beta, 0: -gamma})


def _random_laurent(rng):
    coeffs = {}
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(-2, 2)
        name = rng.choice(("a0", "a1", "c2", "b", "lam"))
        poly = MultiPoly.variable(name) * F(rng.randint(-3, 3))
        if rng.random() < 0.4:
            poly = poly + F(rng.randint(-2, 2))
        coeffs[k] = coeffs.get(k, MultiPoly()) + poly
    return laurent(coeffs)


def test_derivative_is_a_derivation():
    rng = random.Random(21)
    for _ in range(100):
        L, M = _random_laurent(rng), _random_laurent(rng)
        lhs = laurent_derivative(L * M)
        rhs = laurent_derivative(L) * M + L * laurent_derivative(M)
        assert lhs == rhs


def test_laurent_times_plain_poly_raises():
    # a Laurent object carries one more exponent slot than a plain
    # MultiPoly; a mixed product must fail, not truncate to 10 slots
    L = laurent({1: MultiPoly.variable("a1")})
    with pytest.raises(ValueError):
        L * MultiPoly.variable("b")
    with pytest.raises(ValueError):
        MultiPoly.variable("b") * L


def test_laurent_plus_plain_poly_raises():
    # a sum must not merge 10- and 11-slot exponent tuples either
    b = MultiPoly.variable("b")
    L = laurent({2: b})
    for mixed in (lambda: L + 1, lambda: 1 + L, lambda: L - 1, lambda: L + b,
                  lambda: b + L, lambda: b - L):
        with pytest.raises(ValueError):
            mixed()
    # a zero on either side carries no exponent tuple, so it adds
    assert L + 0 == 0 + L == L - 0 == L + MultiPoly() == MultiPoly() + L == L
    assert laurent_support(L + laurent({0: MultiPoly.const(1)})) == [0, 2]


def test_generated_system_golden_digest(system):
    text = report.dumps(system.to_json_dict())
    assert hashlib.sha256(text.encode()).hexdigest() \
        == "5ab0fd95e7b6b8bcc33d47a4337491be88f094748e763974436a221dba646e29"


def test_generated_system_shape(system):
    assert len(system.equations) <= 15
    assert min(system.powers) >= 0 and max(system.powers) <= 14
    assert all(not eq.is_zero for eq in system.equations)


def test_top_power_equation_dependencies(system):
    # the highest collected power comes from the cubic and dispersion
    # leaders only, so it involves just a2, gamma, and b
    top = system.equations[list(system.powers).index(14)]
    used = {VARS[i] for e, _ in top.sorted_terms() for i, k in enumerate(e) if k}
    assert used == {"a2", "gamma", "b"}
    vals = pl.ansatz_tuple("u11", 1, 2, 1, 3)
    bindings = dict(vals, alpha=F(1), beta=F(2), gamma=F(1), b=F(3))
    assert _evaluate(top, bindings) == 0


def test_pure_positive_power_specialization_collapses(system):
    # killing the inverse-power coefficients must kill every equation that
    # came from a cleared power below 7, and only those can vanish
    for k, eq in zip(system.powers, system.equations):
        sub = _subs(eq, {"c1": 0, "c2": 0})
        if k < 7:
            assert sub.is_zero, k


_BENCH_CASES = {
    "first": dict(alpha=F(1), beta=F(2), gamma=F(1), b=F(3)),
    "second": dict(alpha=F(0), beta=F(1), gamma=F(-1), b=F(3)),
    "third": dict(alpha=F(1, 2), beta=F(0), gamma=F(1, 2), b=F(3)),
}


def _subs_by_addition(poly, bindings):
    # reference: fold one single-term polynomial per term through __add__
    vals = {VARS.index(k): F(v) for k, v in bindings.items()}
    out = MultiPoly()
    for e, c in poly.terms.items():
        e2 = list(e)
        for i, v in vals.items():
            c *= v ** e[i]
            e2[i] = 0
        out = out + MultiPoly({tuple(e2): c} if c != 0 else {})
    return out


@pytest.mark.parametrize("case", sorted(_BENCH_CASES))
def test_subs_matches_termwise_addition(system, case):
    for eq in system.equations:
        got = _subs(eq, _BENCH_CASES[case])
        want = _subs_by_addition(eq, _BENCH_CASES[case])
        assert got == want
        assert got.sorted_terms() == want.sorted_terms()
        assert list(got.terms) == list(want.terms)


def _residuals(system, fid, alpha, beta, gamma, b):
    vals = pl.ansatz_tuple(fid, alpha, beta, gamma, b)
    bindings = dict(vals, alpha=F(alpha), beta=F(beta), gamma=F(gamma), b=F(b))
    return pl.check_assignment(system, bindings)


def test_first_case_tuple_exact_zero(system):
    vals = pl.ansatz_tuple("u11", 1, 2, 1, 3)
    assert vals == {"a0": F(13, 2), "a1": 0, "a2": 0,
                    "c1": 15, "c2": F(15, 2), "lam": -4}
    res = _residuals(system, "u11", 1, 2, 1, 3)
    assert all(isinstance(r, F) and r == 0 for r in res)


def test_second_case_tuple_exact_zero(system):
    vals = pl.ansatz_tuple("u12", 0, 1, -1, 3)
    assert vals == {"a0": 0, "a1": F(-15, 2), "a2": F(15, 2),
                    "c1": 0, "c2": 0, "lam": F(-5, 2)}
    for fid in ("u12", "u13"):
        res = _residuals(system, fid, 0, 1, -1, 3)
        assert all(isinstance(r, F) and r == 0 for r in res)


def test_third_case_rational_instances_exact_zero(system):
    # 256*(alpha*gamma)^2 = 1 and 16*(alpha*gamma)^2 = 1 make the radicals
    # rational, so the whole tuple is rational and the zero is exact
    for fid in ("u14", "u15"):
        res = _residuals(system, fid, F(1, 4), 0, F(1, 4), 3)
        assert all(isinstance(r, F) and r == 0 for r in res)
    for fid in ("u16", "u17", "u18", "u19"):
        res = _residuals(system, fid, F(1, 2), 0, F(1, 2), 3)
        assert all(isinstance(r, F) and r == 0 for r in res)


def test_fourth_case_rational_instance_exact_zero(system):
    vals = pl.ansatz_tuple("u20", 0, 1, 0, 3)
    assert vals == {"a0": 0, "a1": 0, "a2": 0, "c1": 0, "c2": 0, "lam": F(-5, 2)}
    for fid in ("u20", "u21"):
        res = _residuals(system, fid, 0, 1, 0, 3)
        assert all(isinstance(r, F) and r == 0 for r in res)
    for fid in ("u22", "u23"):
        res = _residuals(system, fid, 2, 3, 1, 3)
        assert all(isinstance(r, F) and r == 0 for r in res)


def test_trivial_assignment_exact_zero(system):
    bindings = dict(a0=0, a1=0, a2=0, c1=0, c2=0, lam=0,
                    alpha=F(1), beta=F(2), gamma=F(1), b=F(3))
    assert all(r == 0 for r in pl.check_assignment(system, bindings))


@pytest.mark.parametrize("fid", [f for fams in pl.CASE_FAMILIES.values() for f in fams])
def test_ansatz_tuple_matches_catalog_profile(catalog_samples, fid):
    """The catalog's printed u11-u23 profile and a0 + a1 phi + a2 phi^2 +
    c1/phi + c2/phi^2 from `ansatz_tuple` and `riccati.phi_expr` agree to
    1e-10 relative on every conftest sample, xi in [-3, 3] off the poles.

    At alpha = 0 the triple of u20 and u21 is Riccati case 1, whose phi is
    another solution of phi' = alpha + beta phi + gamma phi^2 than the tanh
    form these profiles are printed with, so those samples are excluded."""
    xi = np.linspace(-3.0, 3.0, 601)
    excluded = []
    for i, params in enumerate(catalog_samples[fid]):
        p = {k: F(params.get(k, 0)) for k in pl.PARAMETERS}
        c = RiccatiCoefficients(p["alpha"], p["beta"], p["gamma"])
        if fid in pl.CASE_FAMILIES["fourth"] and classify(c) == 1:
            excluded.append(i)
            continue
        vals = {k: float(v) for k, v in pl.ansatz_tuple(fid, **p).items()}
        phi, guard, den, u = ex.evaluate_many(
            [phi_expr(c), pole_guard(c), catalog.singular_denominator(fid, params),
             catalog.profile(fid, params)], {}, {"xi": xi})
        ok = (np.abs(guard) >= 1e-3) & (np.abs(den) >= 1e-3) & (np.abs(phi) >= 1e-3)
        phi, u = phi[ok], u[ok]
        ansatz = (vals["a0"] + vals["a1"] * phi + vals["a2"] * phi ** 2
                  + vals["c1"] / phi + vals["c2"] / phi ** 2)
        assert ok.sum() > 500
        assert np.all(np.abs(ansatz - u) <= 1e-10 * np.maximum(1.0, np.abs(u))), (fid, i)
    assert excluded == ([0, 1] if fid in ("u20", "u21") else [])


def test_case_condition_violations():
    with pytest.raises(ConstraintViolation):
        pl.ansatz_tuple("u11", 1, 2, 2, 3)  # beta^2 != 4*alpha*gamma
    with pytest.raises(ConstraintViolation):
        pl.ansatz_tuple("u12", 1, 1, 1, 3)  # alpha != 0
    with pytest.raises(ConstraintViolation):
        pl.ansatz_tuple("u14", F(1, 4), 0, F(1, 4), -1)  # forbidden b
    with pytest.raises(ValueError):
        pl.ansatz_tuple("u3", 0, 1, 0, 3)


def test_check_assignment_requires_full_binding(system):
    with pytest.raises(KeyError):
        pl.check_assignment(system, {"a0": 0})


def _evaluate_alone(poly, values):
    # one equation with its own power table: the per-equation evaluation
    # that check_assignment's shared table must reproduce
    total = F(0)
    for e, c in poly.terms.items():
        term = c
        for i, k in enumerate(e):
            if k:
                term = term * values[polyalg.VARS[i]] ** k
        total = total + term
    return total


def test_check_assignment_matches_per_equation_evaluation(system):
    exact = dict(a0=F(1, 3), a1=F(-2), a2=F(5, 7), c1=F(3, 2), c2=F(-1, 4), lam=F(9, 5),
                 alpha=F(1, 2), beta=F(-3), gamma=F(2, 3), b=F(5))
    got = pl.check_assignment(system, exact)
    want = [_evaluate_alone(eq, exact) for eq in system.equations]
    assert [type(r) for r in got] == [type(r) for r in want]
    assert got == want
    assert got == [_evaluate(eq, exact) for eq in system.equations]
    assert any(r != 0 for r in got)
    # floats are bound at their exact binary values and each residual is
    # the exact one rounded once
    floats = {k: float(v) + 0.1 for k, v in exact.items()}
    got = pl.check_assignment(system, floats)
    want = [float(_evaluate_alone(eq, {k: F(v) for k, v in floats.items()}))
            for eq in system.equations]
    assert [type(r) for r in got] == [float] * len(want)
    assert got == want
    assert got == pytest.approx([_evaluate_alone(eq, floats) for eq in system.equations],
                                rel=1e-12, abs=1e-9)
    with pytest.raises(KeyError, match=r"unbound variable\(s\): lam'"):
        pl.check_assignment(system, {k: v for k, v in exact.items() if k != "lam"})


def _random_poly(rng):
    terms = {}
    for _ in range(rng.randint(0, 12)):
        e = tuple(rng.choice((0, 0, 0, 1, 2, 3)) for _ in VARS)
        terms[e] = terms.get(e, F(0)) + F(rng.randint(-20, 20), rng.randint(1, 12))
    return MultiPoly({e: c for e, c in terms.items() if c})


def _random_value(rng):
    return rng.choice((0, 1, -1, rng.randint(-9, 9), F(rng.randint(-9, 9), rng.randint(1, 9))))


def test_bind_matches_fraction_oracles():
    rng = random.Random(12)
    for _ in range(200):
        polys = [_random_poly(rng) for _ in range(rng.randint(1, 4))]
        names = rng.sample(VARS, rng.randint(0, len(VARS)))
        values = {name: _random_value(rng) for name in names}
        den, groups = polyalg.bind(polys, values)
        assert isinstance(den, int) and den > 0
        assert len(groups) == len(polys)
        free = [i for i, name in enumerate(VARS) if name not in values]
        if len(names) == len(VARS):
            for g, want in zip(groups, _evaluate_all(polys, values)):
                assert set(g) <= {()} and 0 not in g.values()
                assert F(g.get((), 0), den) == want
        for poly, g in zip(polys, groups):
            want = {tuple(e[i] for i in free): c for e, c in _subs(poly, values).terms.items()}
            assert {key: F(num, den) for key, num in g.items()} == want
            assert all(type(num) is int and num for num in g.values())


def test_bind_drops_a_group_that_cancels():
    a0, b, lam = (MultiPoly.variable(v) for v in ("a0", "b", "lam"))
    poly = a0 * b - a0 * 2 + lam * F(1, 3) - F(5, 6)
    den, (g,) = polyalg.bind([poly], {"b": 2, "c1": F(-7, 4)})
    # a0*b - 2*a0 vanishes at b = 2: only lam and the constant are left,
    # keyed by the exponents of a0, a1, a2, c2, lam, alpha, beta, gamma
    assert g == {(0, 0, 0, 0, 1, 0, 0, 0): den // 3, (0,) * 8: -5 * den // 6}
    den, (g,) = polyalg.bind([poly], dict.fromkeys(VARS, 0) | {"b": 2})
    assert F(g[()], den) == F(-5, 6)
    den, (g,) = polyalg.bind([poly], dict.fromkeys(VARS, 0) | {"b": 2, "lam": F(5, 2)})
    assert g == {}
    with pytest.raises(ValueError, match="unknown variable 'zeta'"):
        polyalg.bind([poly], {"zeta": 1})


def test_check_assignment_returns_fractions_never_ints(system):
    values = dict(a0=0, a1=0, a2=0, c1=0, c2=0, lam=0, alpha=1, beta=2, gamma=1, b=3)
    for vals in (values, dict(pl.ansatz_tuple("u11", 1, 2, 1, 3), alpha=1, beta=2, gamma=1, b=3)):
        res = pl.check_assignment(system, vals)
        assert res and all(type(r) is F and r == 0 for r in res)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_check_assignment_rejects_non_finite_values(system, bad):
    values = dict(a0=0.5, a1=0.0, a2=bad, c1=0.0, c2=0.0, lam=1.0,
                  alpha=F(1), beta=F(2), gamma=F(1), b=F(3))
    with pytest.raises(ValueError, match="a2 = .* is not a finite number"):
        pl.check_assignment(system, values)


def test_serialization_round_trip_bit_exact(system):
    text = report.dumps(system.to_json_dict())
    doc = json.loads(text)
    assert (doc["variables"], doc["unknowns"], doc["parameters"]) == (
        list(VARS), list(pl.UNKNOWNS), list(pl.PARAMETERS))
    # each [[e0, ..., e9], n, d] triple is one coefficient n/d, exactly
    assert doc["powers"] == list(system.powers)
    assert ([{tuple(e): F(n, d) for e, n, d in eq} for eq in doc["equations"]]
            == [eq.terms for eq in system.equations])
    assert report.dumps(pl.generate_system().to_json_dict()) == text


def test_format_value_numpy_scalars():
    assert report.format_value(np.bool_(True)) == "true"
    assert report.format_value(np.bool_(False)) == "false"
    assert report.format_value(np.int64(3)) == "3"
    assert report.format_value(np.float64(0.1)) == "0.10000000000000001"
    assert report.format_value(np.float32(0.5)) == "0.5"
    assert report.dumps([np.bool_(True), np.int64(-7), np.float32(np.inf)]) == '[true, -7, "inf"]\n'


def test_format_value_null_and_unknown_types():
    assert report.format_value(None) == "null"
    with pytest.raises(TypeError, match="cannot serialize object"):
        report.format_value(object())


def test_newton_recovers_second_case_tuple(system):
    fixed = dict(alpha=F(0), beta=F(1), gamma=F(-1), b=F(3))
    roots = pl.newton_solve(system, fixed, seeds=400, rng_seed=0)
    assert roots
    target = (0.0, -7.5, 7.5, 0.0, 0.0, -2.5)
    best = min(max(abs(a - b) for a, b in zip(r, target)) for r in roots)
    assert best < 1e-8


def test_newton_roots_self_consistent(system):
    fixed = dict(alpha=F(1), beta=F(2), gamma=F(1), b=F(3))
    roots = pl.newton_solve(system, fixed, seeds=120, rng_seed=3)
    assert roots == sorted(roots)
    for root in roots[:20]:
        bindings = dict(zip(pl.UNKNOWNS, root))
        bindings.update({k: float(v) for k, v in fixed.items()})
        res = pl.check_assignment(system, bindings)
        assert max(abs(float(r)) for r in res) < 1e-9


def test_round_trip_root_to_waveform(system):
    # compose the recovered second-case root with the matching phi and
    # verify the waveform solves the equation on a grid
    fixed = dict(alpha=F(0), beta=F(1), gamma=F(-1), b=F(3))
    roots = pl.newton_solve(system, fixed, seeds=200, rng_seed=0)
    target = (0.0, -7.5, 7.5, 0.0, 0.0, -2.5)
    root = min(roots, key=lambda r: max(abs(a - b) for a, b in zip(r, target)))
    a0, a1, a2, c1, c2, lam = root

    def waveform(xi):  # the root composed with phi = 1/(1 + e^-xi) at xi
        phi = ex.div(1, ex.add(1, ex.exp(ex.mul(-1, xi))))
        return phi, ex.add(ex.as_expr(a0), ex.mul(a1, phi), ex.mul(a2, ex.pow_(phi, 2)),
                           ex.div(ex.as_expr(c1), phi), ex.div(ex.as_expr(c2), ex.pow_(phi, 2)))

    phi, U = waveform(ex.var("xi"))
    assert phi == phi_expr(RiccatiCoefficients(0.0, 1.0, -1.0))
    res = ex.add(*ode_residual_terms(U, 3, F(lam)))
    xs = np.linspace(-3, 3, 41)
    vals = ex.evaluate_many(res, {}, {"xi": xs})
    assert np.max(np.abs(vals)) < 1e-6
    _, u_xt = waveform(ex.add(ex.var("x"), ex.mul(lam, ex.var("t"))))
    # keep |xi| small: the root's float-noise c1/c2 entries are amplified
    # by 1/phi^2 ~ e^|xi| as xi -> -inf, which is root imprecision, not a
    # defect of the waveform
    grid = GridSpec(x_min=-3.0, x_max=3.0, nx=61, t_min=0.0, t_max=1.0, nt=6)
    rep = verify_on_grid(u_xt, 3, grid=grid)
    assert rep.passed


# sha256 of report.dumps([list(r) for r in roots]), recorded from the
# per-seed Newton loop (one rng.uniform draw and one full iteration per
# seed) before the seeds were batched; lockstep iteration must not move a
# single bit of any root.  Every root digest here was recorded with the
# np.power loop numpy picks on AVX512_SKX/SPR: there np.power(x, 2.0) with
# an array exponent differs from x * x in 5,301 of 200,000 values, so on a
# CPU where numpy picks another loop a digest can fail with no solver change
_GOLDEN_ROOTS = [
    ("first", 60, 0, 19, "0edabea9957464cfdaa2544f731756f30de976c0c702782220693298ab96fd0e"),
    ("first", 60, 7, 18, "bcec51a12f81f0453b9840856a204374df624a9b00e58e4356d010ee921744d6"),
    ("second", 60, 0, 16, "4f89665358f723520daf24adbaaf49b792aaebd5098a8205d186054e028984d8"),
    ("second", 60, 7, 18, "e567c9a7c85b31ce6736a6d9e7a928b1157c9f538407436f41228ba2fbc78bee"),
    ("third", 60, 0, 18, "4070274266a3e97d18d68c277c915649b472ffae2af85a5e7783f5ea21bbbdb6"),
    ("third", 60, 7, 18, "748b149569ac668bdb7a870fb9c14e70b1d6b0435ffe245f508d902f2b30b882"),
    ("fourth", 60, 0, 19, "4a5f7c3613cccb36b3f8c5ea7ac37d8b05286fdca96296bb4ce45be3d19bd863"),
    ("fourth", 60, 7, 22, "345b52d5091621ff9df8be9c7769741da3f2319c48b8278c5990dee650896c29"),
    ("second", 1, 0, 1, "dfe757fdb60c8cb9e7a6525d23662dec58e6f74bfeba97371926e638ec9f00af"),
    ("second", 1, 7, 1, "fd1d55dff6e07c09e606d3db9fb334513a74a83d6a8d50f656637b9516503c94"),
]
_GOLDEN_CASES = dict(_BENCH_CASES, fourth=dict(alpha=F(2), beta=F(3), gamma=F(1), b=F(3)))


@pytest.mark.parametrize("case, seeds, rng_seed, count, digest", _GOLDEN_ROOTS)
def test_newton_roots_byte_identical(system, case, seeds, rng_seed, count, digest):
    roots = pl.newton_solve(system, _GOLDEN_CASES[case], seeds=seeds, rng_seed=rng_seed)
    assert len(roots) == count
    text = report.dumps([list(r) for r in roots])
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# the same digests, recorded the same way before the per-seed lstsq calls
# were stacked, for the second case on the paths where a failed or
# overflowing least-squares step could be handled differently
_GOLDEN_FAILURE_ROOTS = [
    ("box=1e100", dict(box=(-1e100, 1e100)), 0, 0, "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"),
    ("box=1e100", dict(box=(-1e100, 1e100)), 7, 0, "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"),
    ("box=1e6", dict(box=(-1e6, 1e6)), 0, 16, "c4277013b20af316890cb3e8fb97ba2c9b6943f2a064efef6a1f031c104e8417"),
    ("box=1e6", dict(box=(-1e6, 1e6)), 7, 15, "6dbe2b3fee8faf18e37477023fff938337ddd806f551cd2d86de6db79cd3bc54"),
    ("max_iter=0", dict(max_iter=0), 0, 0, "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"),
    ("max_iter=0", dict(max_iter=0), 7, 0, "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"),
    ("max_iter=1", dict(max_iter=1), 0, 0, "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"),
    ("max_iter=1", dict(max_iter=1), 7, 0, "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"),
    ("max_iter=3", dict(max_iter=3), 0, 0, "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"),
    ("max_iter=3", dict(max_iter=3), 7, 0, "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"),
    ("box=0", dict(box=(0.0, 0.0)), 0, 1, "39410f843f1505fb668f492360b4db3488224f128a13e9a77511170caf5ad72b"),
    ("box=0", dict(box=(0.0, 0.0)), 7, 1, "39410f843f1505fb668f492360b4db3488224f128a13e9a77511170caf5ad72b"),
    ("converge_tol=1e-3", dict(converge_tol=1e-3), 0, 60, "be0ab506f0a6ddf0a771fdae3be3fa6ad9750cdf152a1b9ab1c498cd997af780"),
    ("converge_tol=1e-3", dict(converge_tol=1e-3), 7, 60, "b3bc8ad945904b55003be049f5a740ae77a12227f367b825afa64e58c771dd07"),
]


@pytest.mark.parametrize("label, kwargs, rng_seed, count, digest", _GOLDEN_FAILURE_ROOTS,
                         ids=[f"{row[0]}-{row[2]}" for row in _GOLDEN_FAILURE_ROOTS])
def test_newton_failure_paths_byte_identical(system, label, kwargs, rng_seed, count, digest):
    roots = pl.newton_solve(system, _BENCH_CASES["second"], seeds=60, rng_seed=rng_seed,
                            **kwargs)
    assert len(roots) == count
    text = report.dumps([list(r) for r in roots])
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# the same digests at newton-multistart's seed counts, recorded before the
# least-squares stack was split across threads: large enough stacks that
# every CPU solves a chunk of them.  The last two were recorded on one CPU
# and on three before the monomial stacks put the points along their last
# axis: rng_seed 1001 runs the first case through all 80 iterations, ending
# in the one-call halving tail, and rng_seed 4107076 is the third-case call
# whose roots miss u16 (newton-multistart's failed operation at --seed 4107)
_GOLDEN_SPLIT_ROOTS = [
    ("first", 120, 0, 25, "6c927a734dacd4942e82e3ebeabd106b5b026dc6ca3a89bcd5f1be30683924ff"),
    ("first", 120, 7, 26, "072a89103aa99cf879154f08bac6bec0afe7e2fca20649ac7d781d511f512c43"),
    ("second", 180, 0, 34, "4894323dcc43667a53a43e6f4a83cb944c491a88a509518f33daf699ea8d15c3"),
    ("second", 180, 7, 28, "bf546bf39c113378c0b886852387f5d1dbb3c47bb79298649f754871d30f6e41"),
    ("third", 220, 0, 26, "987d0b63359806b62490e556274039b5cc6a39ab2c22d387edcba4a86b13931f"),
    ("third", 220, 7, 30, "c28104bb6c48e1639e698b3678bd8da3f6ec45ccc3e3e2182fff53c6802f6711"),
    ("first", 120, 1001, 25, "d63f11b259be44b5525bd1ad6cb3d43fa4ad3166e556bf781c28eaac5fd2e1bf"),
    ("third", 220, 4107076, 31, "06ab1168e84851ae40998faa5340cb4f5a58311e038096602a24bcd2e0b4e86c"),
]


def _no_pool(*args, **kwargs):
    raise AssertionError("a thread pool was opened")


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("case, seeds, rng_seed, count, digest", _GOLDEN_SPLIT_ROOTS,
                         ids=[f"{row[0]}-{row[1]}-{row[2]}" for row in _GOLDEN_SPLIT_ROOTS])
def test_newton_split_roots_byte_identical(system, monkeypatch, cpus, case, seeds, rng_seed,
                                           count, digest):
    # one CPU opens no pool and solves each stack in one call; three solve
    # it in three uneven chunks, on this thread and two workers
    monkeypatch.setattr(pl, "_cpu_count", lambda: cpus)
    if cpus == 1:
        import concurrent.futures
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _no_pool)
    roots = pl.newton_solve(system, _GOLDEN_CASES[case], seeds=seeds, rng_seed=rng_seed)
    assert len(roots) == count
    text = report.dumps([list(r) for r in roots])
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_batched_lstsq_matches_numpy_bitwise():
    # pins the private dgelsd gufunc behind newton_solve to the public
    # per-matrix np.linalg.lstsq on the installed numpy
    rng = np.random.default_rng(5)
    mats = list(rng.standard_normal((180, 15, 6)))
    for k in range(6):
        A = rng.standard_normal((15, 6))
        A[:, k] = 0.0
        mats.append(A)
        A = rng.standard_normal((15, 6))
        A[:, k] = A[:, (k + 1) % 6]
        mats.append(A)
    mats += [np.zeros((15, 6))] * 3
    for scale in (1e150, 1e-150):
        mats += list(scale * rng.standard_normal((12, 15, 6)))
    A = np.array(mats)
    B = rng.standard_normal((len(A), 15))
    B[:10] *= 1e150
    B[10:20] *= 1e-150
    assert A.shape == (219, 15, 6)
    want = [np.linalg.lstsq(A[i], B[i], rcond=None)[0] for i in range(len(A))]
    # one call, then chunks of 110 and 109 rows, then of 54, 55, 55 and 55
    for workers in (0, 1, 3):
        with ThreadPoolExecutor(workers or 1) as pool:
            x = pl._lstsq_stack(A, B, pool if workers else None, workers + 1)
        for i in range(len(A)):
            assert np.array_equal(x[i], want[i]), (workers, i)
    assert pl._lstsq_stack(A[:0], B[:0]).shape == (0, 6)


def test_lstsq_worker_chunk_warns_nothing():
    # numpy's errstate does not pass to a pool thread, so the worker's
    # chunk must silence its own "invalid value" warning
    rng = np.random.default_rng(3)
    A = rng.standard_normal((2 * pl._SPLIT_ROWS, 15, 6))
    B = rng.standard_normal((len(A), 15))
    bad = [pl._SPLIT_ROWS + 3, len(A) - 1]  # both in the second chunk
    A[bad, 4, 2] = np.nan
    with ThreadPoolExecutor(1) as pool, warnings.catch_warnings(), \
            np.errstate(invalid="ignore"):
        warnings.simplefilter("error", RuntimeWarning)
        x = pl._lstsq_stack(A, B, pool, 2)
    assert np.flatnonzero(np.isnan(x).any(axis=1)).tolist() == bad
    assert np.isnan(x[bad]).all()
    for i in set(range(len(A))) - set(bad):
        assert np.array_equal(x[i], np.linalg.lstsq(A[i], B[i], rcond=None)[0]), i


def test_newton_leaves_no_thread_behind(system, monkeypatch):
    monkeypatch.setattr(pl, "_cpu_count", lambda: 3)  # a pool on any host
    before = threading.active_count()
    roots = pl.newton_solve(system, _BENCH_CASES["second"], seeds=400, rng_seed=0)
    assert len(roots) == 55
    assert threading.active_count() == before


def test_newton_raises_a_worker_chunk_error(system, monkeypatch):
    # the solve runs on a helper thread, so that a hang shows as a timeout;
    # every _gelsd call on another thread is a worker's chunk
    pl._load_numpy()
    gelsd, caught = pl._gelsd, []

    def fails_in_a_worker(*args, **kwargs):
        if threading.current_thread() is not runner:
            raise ZeroDivisionError("worker chunk")
        return gelsd(*args, **kwargs)

    def solve():
        try:
            pl.newton_solve(system, _BENCH_CASES["third"], seeds=220, rng_seed=0)
        except ZeroDivisionError as err:
            caught.append(err)

    monkeypatch.setattr(pl, "_cpu_count", lambda: 2)
    monkeypatch.setattr(pl, "_gelsd", fails_in_a_worker)
    runner = threading.Thread(target=solve, daemon=True)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive()
    assert [str(err) for err in caught] == ["worker chunk"]


def test_newton_seed_count(system):
    fixed = _BENCH_CASES["second"]
    assert pl.newton_solve(system, fixed, seeds=0) == []
    with pytest.raises(ValueError, match="seeds must be >= 0"):
        pl.newton_solve(system, fixed, seeds=-3)


def test_newton_rejects_names_outside_parameters(system):
    fixed = dict(_BENCH_CASES["second"], lam=F(-5, 2))
    with pytest.raises(ValueError, match="unknown fixed parameter.*: lam "):
        pl.newton_solve(system, fixed, seeds=20)
    fixed["zeta"] = F(1)
    with pytest.raises(ValueError, match=": lam, zeta "):
        pl.newton_solve(system, fixed, seeds=20)
    with pytest.raises(KeyError, match="missing fixed parameter"):
        pl.newton_solve(system, {"alpha": F(1)}, seeds=20)


def test_compiled_system_rows_are_batch_independent(system):
    fixed = _BENCH_CASES["first"]
    polys = [_subs(eq, fixed) for eq in system.equations]
    compiled = pl._CompiledSystem(system, fixed)
    X = np.random.default_rng(11).uniform(-3.0, 3.0, size=(7, len(pl.UNKNOWNS)))
    table = compiled.powers(X)
    r, scaled = compiled.residual_scaled(table)
    J = compiled.jacobian(table)
    assert r.shape == (7, len(polys)) and J.shape == (7, len(polys), len(pl.UNKNOWNS))
    for s, x in enumerate(X):
        one = compiled.powers(x[None, :])
        r1, scaled1 = compiled.residual_scaled(one)
        assert np.array_equal(r[s], r1[0])
        assert np.array_equal(scaled[s], scaled1[0])
        assert np.array_equal(J[s], compiled.jacobian(one)[0])
        bindings = {u: float(v) for u, v in zip(pl.UNKNOWNS, x)}
        for i, p in enumerate(polys):
            assert r[s, i] == pytest.approx(float(_evaluate(p, bindings)), rel=1e-9, abs=1e-12)
            for j, u in enumerate(pl.UNKNOWNS):
                want = float(_evaluate(_diff(p, u), bindings))
                assert J[s, i, j] == pytest.approx(want, rel=1e-9, abs=1e-12)


def _power_stub(degree):
    # a compiled system whose monomials are the whole power table: row
    # j * degree + k is x_j ** k, with x_j ** 0 read from row 0
    rows = np.arange(len(pl.UNKNOWNS) * degree)
    pows = rows[rows % degree > 1]
    return SimpleNamespace(degree=degree, factors=np.where(rows % degree > 0, rows, 0)[None],
                           pows=pows, exps=(pows % degree)[:, None].astype(float))


def test_power_table_matches_one_np_power_call_bitwise(system):
    rng = np.random.default_rng(5)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                        1e300, -1e300, 1.0, -1.0])
    compiled = pl._CompiledSystem(system, _BENCH_CASES["first"])
    n_unk = len(pl.UNKNOWNS)
    # degree 3 leaves the one exponent 2, which numpy squares by x * x when
    # it comes as a stride-0 exponent; with the points along the table's
    # rows a broadcast exponent would be stride-0 at every size
    stubs = [compiled] + [_power_stub(d) for d in (1, 2, 3, 5, 6)]
    for n in (1, 2, 7, 150, 1000, 4000):
        X = rng.uniform(-3.0, 3.0, size=(n, n_unk))
        k = min(X.size, special.size)
        X.flat[rng.choice(X.size, size=k, replace=False)] = special[:k]
        for c in stubs:
            with np.errstate(all="ignore"):  # 1e300 ** k overflows
                got = pl._CompiledSystem.powers(c, X)
                powers = np.power(X[:, :, None], np.arange(c.degree))
                # each monomial multiplies all six powers in the unknowns'
                # order, x ** 0 = 1.0 included
                exps = np.zeros((c.factors.shape[1], n_unk), dtype=np.int64)
                for f in c.factors:
                    m = np.flatnonzero(f)
                    exps[m, f[m] // c.degree] = f[m] % c.degree
                want = powers[:, 0, exps[:, 0]]
                for j in range(1, n_unk):
                    want = want * powers[:, j, exps[:, j]]
            assert got.shape == (len(exps), n)
            assert np.array_equal(got.view(np.int64), want.T.view(np.int64)), (n, c.degree)


def _reference_stacks(system, fixed):
    # the compile as it was: MultiPoly.subs, then sorted_terms, float() of
    # each coefficient, and MultiPoly.diff per unknown; partial k of
    # equation j goes to bin j * 6 + k
    polys = [_subs(eq, fixed) for eq in system.equations]
    slots = [VARS.index(u) for u in pl.UNKNOWNS]
    n_unk = len(pl.UNKNOWNS)

    def stack(poly_list, bin_of):
        rows, coefs, owner = [], [], []
        for j, poly in enumerate(poly_list):
            for e, c in poly.sorted_terms():
                rows.append([e[s] for s in slots])
                coefs.append(float(c))
                owner.append(bin_of(j))
        return rows, coefs, owner

    res = stack(polys, lambda j: j)
    jac = ([], [], [])
    for k, u in enumerate(pl.UNKNOWNS):
        for acc, part in zip(jac, stack([_diff(p, u) for p in polys],
                                        lambda j: j * n_unk + k)):
            acc += part
    return res, jac


_STACK_BINDINGS = dict(_GOLDEN_CASES, negative=dict(alpha=F(-3, 7), beta=F(5, 2),
                                                   gamma=F(1, 3), b=F(-1, 2)))


@pytest.mark.parametrize("scale", [F(1), F(1, 3)])
@pytest.mark.parametrize("binding", sorted(_STACK_BINDINGS))
def test_compiled_stacks_match_subs_and_diff(system, binding, scale):
    fixed = _STACK_BINDINGS[binding]
    system = pl.AlgebraicSystem(equations=tuple(eq * scale for eq in system.equations),
                                powers=system.powers)
    compiled = pl._CompiledSystem(system, fixed)
    for got, (rows, coefs, owner) in zip((compiled.res, compiled.jac),
                                         _reference_stacks(system, fixed)):
        # block k holds the k-th term, in stored order, of every bin with
        # more than k terms, at the bin's place; places follow falling counts
        members = [[] for _ in got.place]
        for e, c, b in zip(rows, coefs, owner):
            members[b].append((e, c))
        counts = [len(m) for m in members]
        assert sorted(got.place.tolist()) == list(range(len(counts)))
        assert [counts[b] for b in np.argsort(got.place)] == sorted(counts, reverse=True)
        sizes = [sum(c > k for c in counts) for k in range(max(counts))]
        assert got.blocks == tuple(np.cumsum([0] + sizes).tolist())
        for k, (lo, hi) in enumerate(zip(got.blocks, got.blocks[1:])):
            for i, t in enumerate(range(lo, hi)):
                b = got.owner[t]
                assert got.place[b] == i
                assert (got.rows[t].tolist(), got.coefs[t]) == members[b][k]
    # multiplying only the factors with a nonzero exponent, each distinct
    # monomial once, has the bits of the product over all six powers,
    # non-finite points included
    X = np.random.default_rng(2).uniform(-3.0, 3.0, size=(6, len(pl.UNKNOWNS)))
    X[0, 2], X[1, 5], X[2, 0] = np.inf, np.nan, -0.0
    table = compiled.powers(X)
    degree = 1 + int(compiled.res.rows.max())
    with np.errstate(all="ignore"):
        powers = np.power(X[:, :, None], np.arange(degree))
    for stack in (compiled.res, compiled.jac):
        want = powers[:, 0, stack.rows[:, 0]]
        for j in range(1, len(pl.UNKNOWNS)):
            want = want * powers[:, j, stack.rows[:, j]]
        want = want * stack.coefs
        with np.errstate(invalid="ignore"):
            got = pl._CompiledSystem._terms(stack, table)
        assert np.array_equal(got, want.T, equal_nan=True)


@pytest.mark.parametrize("binding", sorted(_STACK_BINDINGS))
def test_stack_sums_match_bincount_bitwise(system, binding):
    # np.bincount adds each bin's terms in stored order from 0.0, and so must
    # the block sums: columns of -0.0 (0.0 + -0.0 is 0.0), of +-inf (inf +
    # -inf is NaN) and of NaN, and terms spread over 2^-60..2^60, where any
    # other order rounds differently
    compiled = pl._CompiledSystem(system, _STACK_BINDINGS[binding])
    rng = np.random.default_rng(8)
    special = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324])
    for stack in (compiled.res, compiled.jac):
        n_terms, width = len(stack.owner), len(stack.place)
        for n in (0, 1, 2, 5, 64, 220):
            terms = (rng.standard_normal((n_terms, n))
                     * np.exp2(rng.integers(-60, 61, (n_terms, n))))
            terms[:, :1] = -0.0
            for col, value in ((1, np.inf), (2, np.inf), (2, -np.inf), (3, -np.inf)):
                if col < n:
                    terms[rng.random(n_terms) < 0.2, col] = value
            picks = rng.random(terms.shape) < 0.02
            terms[picks] = rng.choice(special, size=picks.sum())
            both = np.stack((terms, np.abs(terms)), axis=1)
            with np.errstate(invalid="ignore", over="ignore"):
                got = pl._CompiledSystem._sums(stack, terms)
                got_both = pl._CompiledSystem._sums(stack, both)
                want = [np.array([np.bincount(stack.owner, weights=w[:, p], minlength=width)
                                  for p in range(n)]).reshape(n, width).T
                        for w in (terms, np.abs(terms))]
            assert got.shape == (width, n) and got_both.shape == (width, 2, n)
            for g, w in ((got, want[0]), (got_both[:, 0], want[0]), (got_both[:, 1], want[1])):
                assert np.array_equal(g.view(np.int64), w.view(np.int64)), (n, binding)


def _line_search_one_level_at_a_time(compiled, X, step, norm):
    # the step-halving loop as it was: one residual call per level, each
    # seed still trying halving its step once after every miss
    X, step = X.copy(), step.copy()
    level = np.full(len(X), -1)
    trying = np.arange(len(X))
    for m in range(31):
        xn = X[trying] + step[trying]
        rn, _ = compiled.residual_scaled(compiled.powers(xn))
        nn = np.max(np.abs(rn), axis=1)
        good = np.isfinite(nn) & (nn <= norm[trying])
        X[trying[good]] = xn[good]
        level[trying[good]] = m
        trying = trying[~good]
        step[trying] = step[trying] / 2
    return level, X


def _halving_case(system):
    # seed m starts at the u12 root and steps 2^30 * d_m away, so the
    # residual norm of its level-k candidate falls as k rises; the norm bound
    # of seed m is its level-m norm, so it is accepted at exactly m.  One
    # more seed has a bound below every level, and two have an infinite
    # bound with steps that overflow at the first levels or at all of them.
    fixed = _BENCH_CASES["second"]
    compiled = pl._CompiledSystem(system, fixed)
    vals = pl.ansatz_tuple("u12", **fixed)
    root = np.array([float(vals[u]) for u in pl.UNKNOWNS])
    rng = np.random.default_rng(4)
    n = 34
    X = root + rng.uniform(-1e-3, 1e-3, size=(n, len(pl.UNKNOWNS)))
    step = rng.uniform(-1.0, 1.0, size=X.shape) * 2.0 ** 30
    # along a1 alone, the residual norm is +inf for steps above about 2^344
    # and NaN at every level of a 2^1000 step
    step[32:] = 0.0
    step[32, 1], step[33, 1] = 2.0 ** 350, 2.0 ** 1000
    with np.errstate(all="ignore"):
        levels = [compiled.residual_scaled(compiled.powers(X + step / 2.0 ** m))[0]
                  for m in range(31)]
    nn = np.max(np.abs(np.array(levels)), axis=2)
    norm = np.full(n, np.inf)
    norm[:31] = nn[np.arange(31), np.arange(31)]
    norm[31] = nn[:, 31].min() / 2
    return compiled, X, step, norm


def _assert_line_search_like_one_halving_at_a_time(compiled, X, step, norm):
    with np.errstate(all="ignore"):
        level, want_X = _line_search_one_level_at_a_time(compiled, X, step, norm)
        accepted, new_X, table, r, scaled = pl._line_search(compiled, X, step, norm)
        # each accepted point once, in the order the points were accepted
        assert sorted(accepted.tolist()) == np.flatnonzero(level >= 0).tolist()
        assert np.array_equal(new_X, want_X[accepted])
        want_table = compiled.powers(want_X[accepted])
        want_r, want_scaled = compiled.residual_scaled(want_table)
    assert np.array_equal(table, want_table)
    assert np.array_equal(r, want_r)
    assert np.array_equal(scaled, want_scaled)
    return level


def test_line_search_accepts_at_every_level_like_one_halving_at_a_time(system):
    compiled, X, step, norm = _halving_case(system)
    level = _assert_line_search_like_one_halving_at_a_time(compiled, X, step, norm)
    assert level[:32].tolist() == list(range(31)) + [-1]
    assert 0 < level[32] < 31 and level[33] == -1


def test_line_search_tail_tries_every_level_left_in_one_call(system, monkeypatch):
    # up to 8 points (the first case's last seeds) try all 31 levels in one
    # residual call, accepted at any level or at none
    compiled, X, step, norm = _halving_case(system)
    residual_scaled = compiled.residual_scaled

    def calls_of(idx):
        calls = []
        monkeypatch.setattr(compiled, "residual_scaled",
                            lambda table: calls.append(table.shape[1]) or residual_scaled(table))
        with np.errstate(all="ignore"):
            pl._line_search(compiled, X[idx], step[idx], norm[idx])
        monkeypatch.undo()
        return calls

    picks = [3, 9, 17, 25, 30, 2, 13, 31]  # 31 is never accepted
    for k in range(1, len(picks) + 1):
        idx = picks[:k]
        level = _assert_line_search_like_one_halving_at_a_time(
            compiled, X[idx], step[idx], norm[idx])
        assert level.tolist() == [m if m < 31 else -1 for m in idx]
        assert calls_of(idx) == [31 * k]
    for idx, calls in (
            ([0, 1, 31], [3 * 31]),
            # 9 points try level 0 alone; the 8 left try 1-30 in one call
            ([0] + picks, [9, 8 * 30]),
            # 10 points take levels 0-3 by groups; the 8 left take 4-30
            ([2, 3, 5, 9, 13, 17, 25, 30, 31, 7], [10, 10, 20, 8 * 27])):
        level = _assert_line_search_like_one_halving_at_a_time(
            compiled, X[idx], step[idx], norm[idx])
        assert level.tolist() == [m if m < 31 else -1 for m in idx]
        assert calls_of(idx) == calls


# Runs in a fresh interpreter: takes the lstsq gufunc away ("removed") or
# puts a stand-in without the 'ddd->ddid' loop in its place, then runs the
# exact half and newton_solve twice, printing each ImportError.
_NO_GUFUNC_PROBE = """
import sys
from fractions import Fraction as F
import numpy.linalg._umath_linalg as umath_linalg
if sys.argv[1] == "removed":
    del umath_linalg.lstsq
else:
    class StandIn:
        types = ["fff->ffif"]
    umath_linalg.lstsq = StandIn()
from mdpwave import pipeline as pl
system = pl.generate_system()
fixed = dict(alpha=F(1), beta=F(2), gamma=F(1), b=F(3))
vals = pl.ansatz_tuple("u11", *(fixed[k] for k in pl.PARAMETERS))
assert all(r == 0 for r in pl.check_assignment(system, {**vals, **fixed}))
def newton_work(*args):
    raise AssertionError("Newton work before the gufunc check")
pl.bind = newton_work
for _ in range(2):
    try:
        pl.newton_solve(system, fixed, seeds=4)
    except ImportError as err:
        print(err)
    else:
        raise AssertionError("newton_solve ran without the gufunc")
"""


@pytest.mark.parametrize("how", ["removed", "stand-in"])
def test_newton_without_lstsq_gufunc_raises_import_error(how):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", _NO_GUFUNC_PROBE, how], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    want = ("mdpwave.pipeline needs numpy.linalg._umath_linalg.lstsq with a "
            f"'ddd->ddid' loop (numpy >= 2.4); numpy {np.__version__} lacks it")
    assert proc.stdout.splitlines() == [want, want]
