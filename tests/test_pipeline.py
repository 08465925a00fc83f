"""Exact re-derivation pipeline.

Covers:
  - balancing of leading powers -> {0, 2}
  - Laurent ansatz layout and the phi-power derivative rule
  - the derivation (product-rule) law on random Laurent objects
  - system generation: clearing power, equation count, c1=c2=0 collapse
  - exact-zero residuals of the solved tuples, including rational
    third-case instances, and check_assignment against per-equation
    evaluation at exact and float bindings
  - serialization round trip, bit exact
  - multistart root recovery and root self-consistency
  - byte-identical Newton roots (golden hashes, also on the failure
    paths), the seed-count check, batch independence of the compiled
    residual and Jacobian, and the stacked least-squares solve against
    per-matrix np.linalg.lstsq bit for bit
  - partial evaluation (subs) against term-by-term addition
  - round trip: a numeric root composed with the matching phi solves the
    traveling-wave equation on a grid
"""
import hashlib
import random
from fractions import Fraction as F

import numpy as np
import pytest

from mdpwave import expr as ex
from mdpwave import pipeline as pl
from mdpwave import polyalg
from mdpwave import report
from mdpwave.errors import ConstraintViolation, UnsupportedOrder
from mdpwave.polyalg import VARS, MultiPoly, PhiLaurent
from mdpwave.riccati import RiccatiCoefficients, phi_expr
from mdpwave.verifier import GridSpec, ode_residual, verify_on_grid


@pytest.fixture(scope="module")
def system():
    return pl.generate_system()


def test_balance_returns_zero_and_two():
    assert pl.balance() == {0, 2}


def test_ansatz_laurent_layout():
    L = pl.ansatz_laurent(2)
    assert L.support == [-2, -1, 0, 1, 2]
    assert L.coeff(0) == MultiPoly.variable("a0")
    assert L.coeff(2) == MultiPoly.variable("a2")
    assert L.coeff(-1) == MultiPoly.variable("c1")
    assert pl.ansatz_laurent(1).support == [-1, 0, 1]
    with pytest.raises(UnsupportedOrder):
        pl.ansatz_laurent(0)
    with pytest.raises(UnsupportedOrder):
        pl.ansatz_laurent(3)


def test_phi_derivative_rule():
    alpha = MultiPoly.variable("alpha")
    beta = MultiPoly.variable("beta")
    gamma = MultiPoly.variable("gamma")
    one = MultiPoly.const(1)
    d = PhiLaurent({1: one}).derivative()
    assert d == PhiLaurent({0: alpha, 1: beta, 2: gamma})
    assert PhiLaurent({0: MultiPoly.variable("a0")}).derivative() == PhiLaurent({})
    d = PhiLaurent({-1: one}).derivative()
    assert d == PhiLaurent({-2: -alpha, -1: -beta, 0: -gamma})


def _random_laurent(rng):
    coeffs = {}
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(-2, 2)
        name = rng.choice(("a0", "a1", "c2", "b", "lam"))
        poly = MultiPoly.variable(name) * F(rng.randint(-3, 3))
        if rng.random() < 0.4:
            poly = poly + F(rng.randint(-2, 2))
        coeffs[k] = coeffs.get(k, MultiPoly()) + poly
    return PhiLaurent(coeffs)


def test_derivative_is_a_derivation():
    rng = random.Random(21)
    for _ in range(100):
        L, M = _random_laurent(rng), _random_laurent(rng)
        lhs = (L * M).derivative()
        rhs = L.derivative() * M + L * M.derivative()
        assert lhs == rhs


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
    assert top.evaluate(bindings) == 0


def test_pure_positive_power_specialization_collapses(system):
    # killing the inverse-power coefficients must kill every equation that
    # came from a cleared power below 7, and only those can vanish
    for k, eq in zip(system.powers, system.equations):
        sub = eq.subs({"c1": 0, "c2": 0})
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
        got = eq.subs(_BENCH_CASES[case])
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
    floats = {k: float(v) + 0.1 for k, v in exact.items()}
    for values in (exact, floats):
        got = pl.check_assignment(system, values)
        want = [_evaluate_alone(eq, values) for eq in system.equations]
        assert [type(r) for r in got] == [type(r) for r in want]
        assert got == want
        assert got == [eq.evaluate(values) for eq in system.equations]
    assert any(r != 0 for r in pl.check_assignment(system, exact))
    with pytest.raises(KeyError, match="'lam'"):
        polyalg.evaluate_all(system.equations, {k: v for k, v in exact.items() if k != "lam"})


def test_serialization_round_trip_bit_exact(system):
    text = system.to_json()
    loaded = pl.AlgebraicSystem.from_json(text)
    assert loaded == system
    assert loaded.to_json() == text


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
    phi = phi_expr(RiccatiCoefficients(0.0, 1.0, -1.0))
    U = ex.add(ex.as_expr(a0), ex.mul(a1, phi), ex.mul(a2, ex.pow_(phi, 2)),
               ex.div(ex.as_expr(c1), phi), ex.div(ex.as_expr(c2), ex.pow_(phi, 2)))
    res = ode_residual(U, 3, F(lam))
    xs = np.linspace(-3, 3, 41)
    vals = ex.evaluate_many(res, {}, {"xi": xs})
    assert np.max(np.abs(vals)) < 1e-6
    xi = ex.var("xi")
    u_xt = ex.substitute(U, xi, ex.add(ex.var("x"), ex.mul(lam, ex.var("t"))))
    # keep |xi| small: the root's float-noise c1/c2 entries are amplified
    # by 1/phi^2 ~ e^|xi| as xi -> -inf, which is root imprecision, not a
    # defect of the waveform
    grid = GridSpec(x_min=-3.0, x_max=3.0, nx=61, t_min=0.0, t_max=1.0, nt=6)
    rep = verify_on_grid(u_xt, 3, grid=grid)
    assert rep.passed


# sha256 of report.dumps([list(r) for r in roots]), recorded from the
# per-seed Newton loop (one rng.uniform draw and one full iteration per
# seed) before the seeds were batched; lockstep iteration must not move a
# single bit of any root
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
    x = pl._lstsq_stack(A, B)
    for i in range(len(A)):
        want = np.linalg.lstsq(A[i], B[i], rcond=None)[0]
        assert np.array_equal(x[i], want), i
    assert pl._lstsq_stack(A[:0], B[:0]).shape == (0, 6)


def test_newton_seed_count(system):
    fixed = _BENCH_CASES["second"]
    assert pl.newton_solve(system, fixed, seeds=0) == []
    with pytest.raises(ValueError, match="seeds must be >= 0"):
        pl.newton_solve(system, fixed, seeds=-3)


def test_compiled_system_rows_are_batch_independent(system):
    fixed = _BENCH_CASES["first"]
    polys = [eq.subs(fixed) for eq in system.equations]
    compiled = pl._CompiledSystem(polys)
    X = np.random.default_rng(11).uniform(-3.0, 3.0, size=(7, len(pl.UNKNOWNS)))
    table = compiled.powers(X)
    r, scaled = compiled.residual_scaled(table)
    J = compiled.jacobian(table)
    assert np.array_equal(compiled.residual(table), r)
    assert r.shape == (7, len(polys)) and J.shape == (7, len(polys), len(pl.UNKNOWNS))
    for s, x in enumerate(X):
        one = compiled.powers(x[None, :])
        r1, scaled1 = compiled.residual_scaled(one)
        assert np.array_equal(r[s], r1[0])
        assert np.array_equal(scaled[s], scaled1[0])
        assert np.array_equal(J[s], compiled.jacobian(one)[0])
        bindings = {u: float(v) for u, v in zip(pl.UNKNOWNS, x)}
        for i, p in enumerate(polys):
            for j, u in enumerate(pl.UNKNOWNS):
                want = float(p.diff(u).evaluate(bindings))
                assert J[s, i, j] == pytest.approx(want, rel=1e-9, abs=1e-12)
