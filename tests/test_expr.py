"""Expression-tree core.

Covers:
  - constructor canonicalization of the trivial identities, and constant
    folding in add/mul against a reference Fraction fold
  - scalar evaluation values and domain/unbound errors
  - exact structural differentiation (values, linearity, product rule,
    finite-difference agreement, closure over the function set)
  - iterated derivatives, substitution, evaluate/substitute commutation
  - vectorized evaluation matching the scalar path
  - the compiled tape: one slot per structurally distinct node, shared
    roots equal to per-root evaluation, roots never freed, broadcasting
  - in-place sums and products: caller arrays untouched, broadcasting to a
    larger shape, scalar points, no RuntimeWarning on non-finite values
"""
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from mdpwave import catalog, verifier
from mdpwave import expr as ex
from mdpwave.errors import DomainError, UnboundSymbol

X = ex.var("x")
T = ex.var("t")
XI = ex.var("xi")


def test_constructor_canonicalization():
    e = ex.cosh(X)
    assert ex.mul(0, e) == ex.ZERO
    assert ex.mul(1, e) == e
    assert ex.add(e, 0) == e
    assert ex.pow_(e, 1) == e
    assert ex.add(1, 2) == ex.Rational(F(3))
    assert ex.mul(F(1, 2), 4) == ex.Rational(F(2))
    assert ex.div(ex.ZERO, e) == ex.ZERO


def _reference_add(*terms):
    """add as a Fraction accumulator over every constant."""
    out = []
    const = F(0)
    for t in terms:
        t = ex.as_expr(t)
        for p in (t.terms if isinstance(t, ex.Add) else (t,)):
            if isinstance(p, ex.Rational):
                const += p.value
            else:
                out.append(p)
    if const != 0:
        out.insert(0, ex.Rational(const))
    if not out:
        return ex.ZERO
    return out[0] if len(out) == 1 else ex.Add(tuple(out))


def _reference_mul(*factors):
    """mul as a Fraction accumulator over every constant."""
    out = []
    const = F(1)
    for f in factors:
        f = ex.as_expr(f)
        for p in (f.factors if isinstance(f, ex.Mul) else (f,)):
            if isinstance(p, ex.Rational):
                const *= p.value
            else:
                out.append(p)
    if const == 0:
        return ex.ZERO
    if not out:
        return ex.Rational(const)
    if const != 1:
        out.insert(0, ex.Rational(const))
    return out[0] if len(out) == 1 else ex.Mul(tuple(out))


def _random_operand(rng, depth=2):
    pick = rng.randrange(9 if depth else 7)
    if pick == 0:
        return rng.choice((0, 1, -1, 2, 64, 65, -65, 10 ** 20))
    if pick == 1:
        return F(rng.randint(-9, 9), rng.randint(1, 9))
    if pick == 2:
        return float(rng.randint(-70, 70))
    if pick == 3:
        return rng.choice((0.1, -2.5, 1e-300, 3.0e15 + 0.5))
    if pick == 4:
        return ex.Rational(F(rng.randint(-3, 3), rng.randint(1, 4)))
    if pick in (5, 6):
        return rng.choice((X, T, ex.cosh(X)))
    parts = [_random_operand(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    return ex.add(*parts) if pick == 7 else ex.mul(*parts)


def test_constant_folding_matches_reference_fold():
    rng = random.Random(46)
    for _ in range(2000):
        args = [_random_operand(rng) for _ in range(rng.randint(0, 5))]
        for build, reference in ((ex.add, _reference_add), (ex.mul, _reference_mul)):
            got, want = build(*args), reference(*args)
            assert type(got) is type(want), (build, args)
            assert ex.to_prefix(got) == ex.to_prefix(want), (build, args)


def test_empty_and_unit_folds():
    assert ex.mul() == ex.ONE and ex.to_prefix(ex.mul()) == "1"
    assert ex.add() == ex.ZERO and ex.to_prefix(ex.add()) == "0"
    assert ex.mul(0, X) == ex.ZERO
    assert ex.mul(X, 0, ex.cosh(X)) == ex.ZERO
    assert ex.mul(1, X) is X
    assert ex.add(0, X) is X
    assert ex.mul(2, F(1, 2)) == ex.ONE
    assert ex.add(F(1, 2), F(-1, 2), X) is X
    with pytest.raises(ValueError):
        ex.add(X, float("inf"))


def test_trees_are_shared_not_mutated():
    e = ex.add(X, ex.cosh(X))
    d = ex.differentiate(e, X)
    assert e == ex.add(X, ex.cosh(X))  # input unchanged
    assert d is not e


def test_evaluate_cosh_identity():
    assert ex.evaluate(ex.cosh(XI), {}, {"xi": 0.0}) == 1.0


def test_evaluate_u6_expression_at_origin():
    # -3(b+2) / ((b+1)(1 + cosh(x - (1 + b/2) t))) at b=3, origin
    b = 3
    phase = ex.sub(X, ex.mul(F(5, 2), T))
    u6 = ex.div(-3 * (b + 2), ex.mul(b + 1, ex.add(1, ex.cosh(phase))))
    assert ex.evaluate(u6, {}, {"x": 0, "t": 0}) == -1.875


def test_evaluate_exponential_phase():
    e = ex.exp(ex.add(ex.mul(1, X), ex.mul(F(-3, 2), T)))
    got = ex.evaluate(e, {}, {"x": 2, "t": 1})
    assert abs(got - math.exp(0.5)) < 1e-12
    assert abs(got - 1.6487212707) < 1e-9


def test_evaluate_errors():
    with pytest.raises(DomainError):
        ex.evaluate(ex.div(ex.ONE, X), {}, {"x": 0.0})
    with pytest.raises(DomainError):
        ex.evaluate(ex.sqrt(X), {}, {"x": -1.0})
    with pytest.raises(DomainError):
        ex.evaluate(ex.cot(X), {}, {"x": 0.0})
    with pytest.raises(DomainError):
        ex.evaluate(ex.csc(X), {}, {"x": 0.0})
    with pytest.raises(DomainError):
        ex.evaluate(ex.cosh(X), {}, {"x": 1e6})  # overflow surfaces, not inf*nan
    with pytest.raises(UnboundSymbol):
        ex.evaluate(X, {}, {})


def test_pow_normalises_integral_float_exponent():
    e = ex.pow_(X, 2.0)
    assert e == ex.pow_(X, 2)
    assert type(e.exponent) is F
    assert ex.evaluate(e, {}, {"x": -3.0}) == 9.0
    assert ex.pow_(X, 2.5).exponent == 2.5


def test_float_and_fraction_exponents_keep_separate_slots():
    # the scalar backend treats 2.0 and Fraction(2) differently at a
    # negative base, so no tape may share a slot between their parents
    as_float = ex.add(X, ex.Pow(X, 2.0))
    as_fraction = ex.add(X, ex.Pow(X, F(2)))
    assert as_float != as_fraction
    tape = ex.Tape([as_float, as_fraction])
    assert tape.outputs[0] != tape.outputs[1]
    with pytest.raises(DomainError):
        ex.evaluate(as_float, {}, {"x": -3.0})
    assert ex.evaluate(as_fraction, {}, {"x": -3.0}) == 6.0


def test_domain_error_carries_subtree():
    bad = ex.div(ex.ONE, X)
    try:
        ex.evaluate(bad, {}, {"x": 0.0})
    except DomainError as err:
        assert err.subtree is bad


def test_differentiate_constant_is_zero():
    assert ex.differentiate(ex.Rational(F(7, 3)), X) == ex.ZERO


def test_differentiate_tanh():
    d = ex.differentiate(ex.tanh(XI), XI)
    for p in (-2.0, -0.3, 0.0, 0.7, 1.9):
        want = 1 - math.tanh(p) ** 2
        assert abs(ex.evaluate(d, {}, {"xi": p}) - want) < 1e-14


def test_third_derivative_matches_finite_differences():
    base = ex.div(2, ex.add(1, ex.cosh(X)))
    d3 = ex.differentiate(ex.differentiate(ex.differentiate(base, X), X), X)
    h = 1e-3

    def f(p):
        return ex.evaluate(base, {}, {"x": p})

    fd = (f(1 - 3 * h) - 8 * f(1 - 2 * h) + 13 * f(1 - h)
          - 13 * f(1 + h) + 8 * f(1 + 2 * h) - f(1 + 3 * h)) / (8 * h ** 3)
    sym = ex.evaluate(d3, {}, {"x": 1.0})
    assert abs(sym - fd) / abs(fd) < 1e-6


def test_substitute_traveling_frame():
    e = ex.substitute(ex.cosh(XI), XI, ex.add(X, ex.mul(F(-5, 2), T)))
    assert ex.evaluate(e, {}, {"x": 5, "t": 2}) == 1.0


def test_substitute_absent_variable_is_identity():
    e = ex.mul(X, ex.cosh(X))
    assert ex.substitute(e, XI, ex.ZERO) is e


def test_substitute_zero_collapses():
    assert ex.substitute(ex.mul(X, ex.cosh(X)), X, 0) == ex.ZERO


def _random_tree(rng, depth=3):
    leaves = [X, T, ex.Rational(F(rng.randint(-3, 3))),
              ex.Rational(F(rng.randint(1, 5), 2))]
    if depth == 0:
        return rng.choice(leaves)
    kind = rng.randrange(6)
    a = _random_tree(rng, depth - 1)
    b = _random_tree(rng, depth - 1)
    if kind == 0:
        return ex.add(a, b)
    if kind == 1:
        return ex.mul(a, b)
    if kind == 2:
        return ex.div(a, ex.add(2, ex.pow_(ex.tanh(b), 2)))  # denominator >= 2
    if kind == 3:
        return ex.pow_(ex.add(2, ex.pow_(ex.tanh(a), 2)), rng.randint(2, 3))
    if kind == 4:
        return ex.fun(rng.choice(("sinh", "cosh", "tanh", "exp")), ex.tanh(a))
    return ex.sqrt(ex.add(1, ex.pow_(ex.tanh(a), 2)))


def test_differentiation_linearity_property():
    rng = random.Random(42)
    for _ in range(25):
        f = _random_tree(rng)
        g = _random_tree(rng)
        a, b = F(rng.randint(-4, 4)), F(rng.randint(-4, 4))
        lhs = ex.differentiate(ex.add(ex.mul(a, f), ex.mul(b, g)), X)
        rhs = ex.add(ex.mul(a, ex.differentiate(f, X)), ex.mul(b, ex.differentiate(g, X)))
        for _ in range(2):
            p = {"x": rng.uniform(-2, 2), "t": rng.uniform(-2, 2)}
            lv = ex.evaluate(lhs, {}, p)
            rv = ex.evaluate(rhs, {}, p)
            assert abs(lv - rv) <= 1e-10 * max(1.0, abs(lv), abs(rv))


def test_product_rule_property():
    rng = random.Random(43)
    for _ in range(25):
        f = _random_tree(rng)
        g = _random_tree(rng)
        lhs = ex.differentiate(ex.mul(f, g), X)
        rhs = ex.add(ex.mul(ex.differentiate(f, X), g),
                     ex.mul(f, ex.differentiate(g, X)))
        for _ in range(2):
            p = {"x": rng.uniform(-2, 2), "t": rng.uniform(-2, 2)}
            lv = ex.evaluate(lhs, {}, p)
            rv = ex.evaluate(rhs, {}, p)
            assert abs(lv - rv) <= 1e-10 * max(1.0, abs(lv), abs(rv))


def test_evaluate_substitute_commute():
    rng = random.Random(44)
    for _ in range(25):
        e = _random_tree(rng)
        r = _random_tree(rng, depth=2)
        p = {"x": rng.uniform(-2, 2), "t": rng.uniform(0, 2)}
        subbed = ex.substitute(e, X, r)
        lhs = ex.evaluate(subbed, {}, p)
        rhs = ex.evaluate(e, {}, {**p, "x": ex.evaluate(r, {}, p)})
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


def _children(node):
    if isinstance(node, ex.Add):
        return node.terms
    if isinstance(node, ex.Mul):
        return node.factors
    if isinstance(node, ex.Div):
        return (node.num, node.den)
    if isinstance(node, ex.Pow):
        return (node.base,)
    if isinstance(node, ex.Fun):
        return (node.arg,)
    return ()


def _function_kinds(e):
    kinds = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, ex.Fun):
            kinds.add(node.kind)
        stack.extend(_children(node))
    return kinds


def test_derivatives_closed_over_function_set():
    # repeated differentiation never introduces node kinds outside the set
    e = ex.add(*[ex.fun(k, ex.mul(F(1, 2), X)) for k in ex.FUNCTIONS])
    for _ in range(3):
        e = ex.differentiate(e, X)
        assert _function_kinds(e) <= set(ex.FUNCTIONS)


def test_vectorized_matches_scalar():
    rng = random.Random(45)
    trees = [_random_tree(rng) for _ in range(10)]
    tape = ex.Tape(trees)
    xs = np.linspace(-2, 2, 17)
    shared = ex.evaluate_many(tape, {}, {"x": xs, "t": 0.7})
    for e, vec in zip(trees, shared):
        assert np.array_equal(vec, ex.evaluate_many(e, {}, {"x": xs, "t": 0.7}))
    for i in (0, 5, 16):
        scalar = ex.evaluate(tape, {}, {"x": xs[i], "t": 0.7})
        for e, vec, sv in zip(trees, shared, scalar):
            assert sv == ex.evaluate(e, {}, {"x": xs[i], "t": 0.7})
            assert abs(vec[i] - sv) < 1e-12


def _residual_term_sets(samples):
    for fid in ("u14", "u22", "u7", "cole_hopf"):
        params = samples[fid][0]
        yield fid, verifier.mdp_residual_terms(catalog.build(fid, params), params["b"])


def test_shared_tape_matches_per_term_evaluation(catalog_samples):
    xs, ts = verifier.GridSpec().points()  # u14's pole lines cross this grid
    point = {"x": xs, "t": ts}
    for fid, terms in _residual_term_sets(catalog_samples):
        shared = ex.evaluate_many(ex.Tape(terms), {}, point)
        if fid == "u14":
            assert not all(np.isfinite(v).all() for v in shared)
        for term, got in zip(terms, shared):
            assert np.array_equal(got, ex.evaluate_many(term, {}, point), equal_nan=True)


def test_tape_has_one_slot_per_distinct_node(catalog_samples):
    for _, terms in _residual_term_sets(catalog_samples):
        distinct = set()
        stack = list(terms)
        while stack:
            node = stack.pop()
            if node not in distinct:
                distinct.add(node)
                stack.extend(_children(node))
        tape = ex.Tape(terms)
        assert len(tape.code) == len(distinct)
        # every non-root slot is freed once, by its last consumer
        freed = {}
        for i, (_, _, _, args, free) in enumerate(tape.code):
            for slot in free:
                assert slot in args and slot not in freed
                freed[slot] = i
        assert set(freed) | set(tape.outputs) == set(range(len(tape.code)))
        assert not set(freed) & set(tape.outputs)
        for slot, i in freed.items():
            assert all(slot not in ins[3] for ins in tape.code[i + 1:])


def test_tape_keeps_a_root_that_is_also_a_subtree():
    inner = ex.cosh(X)
    outer = ex.add(1, ex.mul(2, ex.cosh(X)))  # equal to, not the same as, inner
    xs = np.linspace(-1.0, 1.0, 5)
    got_outer, got_inner = ex.evaluate_many([outer, inner], {}, {"x": xs})
    assert np.array_equal(got_inner, np.cosh(xs))
    assert np.array_equal(got_outer, 1.0 + 2.0 * np.cosh(xs))
    assert ex.evaluate([outer, inner], {}, {"x": 0.0}) == [3.0, 1.0]


def test_constant_root_broadcasts_to_grid_shape():
    grid = np.zeros((3, 4))
    half, root2, x = ex.evaluate_many([ex.Rational(F(1, 2)), ex.sqrt(2), X], {}, {"x": grid})
    assert half.shape == root2.shape == x.shape == (3, 4)
    assert (half == 0.5).all() and (root2 == math.sqrt(2)).all()


def _chains(first):
    # n-ary sums and products whose first operand is `first`, built
    # directly so the constructors cannot reorder or fold them
    other = ex.cosh(X)
    return [ex.Add((first, T, X)), ex.Mul((first, T, X)), ex.Add((first, other, T, X)),
            ex.Mul((first, first, first)), ex.Add((first,)), ex.Mul((first, X, ex.Rational(F(3))))]


def test_in_place_chains_never_write_caller_arrays():
    xs = np.linspace(-2.0, 2.0, 9)
    ts = np.linspace(0.0, 1.0, 9)
    x0, t0 = xs.copy(), ts.copy()
    for first in (X, T, ex.Rational(F(5, 2))):
        roots = _chains(first)
        got = ex.evaluate_many(roots, {}, {"x": xs, "t": ts})
        assert np.array_equal(xs, x0) and np.array_equal(ts, t0)
        for root, vec in zip(roots, got):
            for i in (0, 4, 8):
                assert vec[i] == ex.evaluate(root, {}, {"x": x0[i], "t": t0[i]})
    # a shared operand read again after a chain that starts with it
    x_plus, x_times, x_again = ex.evaluate_many(
        [ex.Add((X, T, T)), ex.Mul((X, T, T)), X], {}, {"x": xs, "t": ts})
    assert np.array_equal(x_again, x0)
    assert np.array_equal(x_plus, x0 + t0 + t0)
    assert np.array_equal(x_times, x0 * t0 * t0)


def test_in_place_chain_broadcasts_to_a_larger_shape():
    xs = np.linspace(-1.0, 1.0, 4)[:, None]
    ts = np.linspace(0.0, 2.0, 3)[None, :]
    total, product = ex.evaluate_many(
        [ex.add(2, X, T), ex.mul(3, X, T)], {}, {"x": xs, "t": ts})
    assert total.shape == product.shape == (4, 3)
    assert np.array_equal(total, 2.0 + xs + ts)
    assert np.array_equal(product, 3.0 * xs * ts)
    assert xs.shape == (4, 1) and ts.shape == (1, 3)


def test_in_place_chain_with_a_scalar_point():
    xs = np.linspace(-2.0, 2.0, 5)
    e = ex.add(X, T, ex.mul(X, T, T), 1)
    got = ex.evaluate_many(e, {}, {"x": xs, "t": 0.7})
    assert np.array_equal(got, 1.0 + xs + 0.7 + xs * 0.7 * 0.7)
    both = ex.evaluate_many(e, {}, {"x": 0.5, "t": 0.7})
    assert both.shape == () and float(both) == ex.evaluate(e, {}, {"x": 0.5, "t": 0.7})


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_in_place_chain_on_non_finite_values_does_not_warn():
    xs = np.array([-1.0, 0.0, 1.0])
    inv = ex.div(1, X)
    total, product = ex.evaluate_many(
        [ex.Add((X, inv, inv, ex.mul(-1, inv))), ex.Mul((X, inv, inv, inv))], {}, {"x": xs})
    assert np.isnan(total[1]) and np.isnan(product[1])
    assert total[0] == -2.0 and total[2] == 2.0
    assert product[0] == 1.0 and product[2] == 1.0


def test_prefix_rendering_is_text():
    e = ex.add(1, ex.cosh(ex.add(X, ex.mul(F(-5, 2), T))))
    s = ex.to_prefix(e)
    assert isinstance(s, str) and "cosh" in s and s.startswith("(")
