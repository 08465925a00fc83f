"""Expression-tree core.

Covers:
  - constructor canonicalization of the trivial identities, and constant
    folding in add/mul against a reference Fraction fold, on random
    operands and on each integer fold path; equal rationals hash equal
  - evaluation values, inf/NaN at domain violations, unbound errors
  - exact structural differentiation (values, linearity, product rule,
    finite-difference agreement, closure over the function set)
  - iterated derivatives
  - vectorized evaluation matching a plain `math` walk of the tree
  - the compiled tape: one slot per structurally distinct node, shared
    roots equal to per-root evaluation, workspace rows reused but never
    while their value is still to be read, never an operand's row, and
    never a root's, broadcasting; every array `evaluate_many` returns is
    its own
  - in-place sums and products: caller arrays untouched, broadcasting to a
    larger shape, scalar points, no RuntimeWarning on non-finite values
  - the structural key: exact prefix text for every node kind, float and
    Fraction exponents as one node, nodes differing in kind or order
    unequal
  - every catalog residual's and collocation root's prefix text and tape
    instructions, pinned by sha256
  - interned constants: numpy scalars build what Python numbers build,
    trees survive pickle (also from another process) and deepcopy, and a
    clear of the leaf table moves no report byte and no tape slot
"""
import copy
import hashlib
import math
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path
from fractions import Fraction as F

import numpy as np
import pytest

from mdpwave import catalog, report, verifier
from mdpwave import expr as ex
from mdpwave import rational_hyperbolic as rh
from mdpwave.errors import UnboundSymbol

X = ex.var("x")
T = ex.var("t")
XI = ex.var("xi")


def _math_oracle(e, point):
    """Float value of `e` at scalar `point` by a plain recursive walk with
    the `math` module: the reference the tape's values are checked against."""
    if isinstance(e, ex.Rational):
        return float(e.value)
    if isinstance(e, ex.Var):
        return float(point[e.name])
    if isinstance(e, ex.Fun):
        a = _math_oracle(e.arg, point)
        if e.kind == "cot":
            return math.cos(a) / math.sin(a)
        if e.kind == "csc":
            return 1.0 / math.sin(a)
        return getattr(math, e.kind)(a)
    if isinstance(e, ex.Pow):
        return math.pow(_math_oracle(e.base, point), e.exponent)
    if isinstance(e, ex.Div):
        return _math_oracle(e.num, point) / _math_oracle(e.den, point)
    add = isinstance(e, ex.Add)
    vals = [_math_oracle(c, point) for c in (e.terms if add else e.factors)]
    out = vals[0]
    for v in vals[1:]:
        out = out + v if add else out * v
    return out

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


def test_integer_fold_paths_match_reference_fold():
    # int arithmetic out of the shared -64..64 leaves and back, zero
    # products, integers against Fractions (also integral ones), and bools
    cases = [(64, 1), (-64, -1), (65, -1), (8, 8, X), (-9, 8, T), (10 ** 20, 10 ** 20),
             (10 ** 20, -10 ** 20), (0, 10 ** 20, X), (X, 0), (0, F(1, 3)), (3, F(1, 3)),
             (2, F(-1, 2), X), (F(4, 2), F(6, 3)), (F(4, 2), F(6, 3), X), (True, True),
             (True, X, True), (False, X), (ex.Rational(F(4, 2)), 62), (ex.add(X, 64), 1),
             (ex.mul(64, X), 2), (ex.Rational(F(0, 5)), X)]
    for args in cases:
        for build, reference in ((ex.add, _reference_add), (ex.mul, _reference_mul)):
            got, want = build(*args), reference(*args)
            assert type(got) is type(want) and got == want, (build, args)
            assert ex.to_prefix(got) == ex.to_prefix(want), (build, args)
    assert ex.mul(8, 8) is ex.as_expr(64) and ex.add(-60, -4) is ex.as_expr(-64)
    assert ex.mul(8, 9) == ex.Rational(72) and ex.add(F(-1, 2), F(1, 2)) is ex.ZERO
    assert ex.add(F(4, 2), F(6, 3)) == ex.as_expr(4)


def test_equal_rationals_hash_equal():
    for a, b in ((ex.Rational(F(6, 4)), ex.Rational(F(3, 2))), (ex.Rational(2), ex.as_expr(2)),
                 (ex.Rational(F(-10 ** 20, 10 ** 20)), ex.as_expr(-1))):
        assert a == b and hash(a) == hash(b)
        assert ex.Tape([a, b]).outputs == (0, 0)
    assert ex.as_expr(F(8, 4)) is ex.as_expr(2) and ex.as_expr(True) is ex.ONE


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
    assert ex.evaluate_many(ex.cosh(XI), {}, {"xi": 0.0}) == 1.0


def test_evaluate_u6_expression_at_origin():
    # -3(b+2) / ((b+1)(1 + cosh(x - (1 + b/2) t))) at b=3, origin
    b = 3
    phase = ex.sub(X, ex.mul(F(5, 2), T))
    u6 = ex.div(-3 * (b + 2), ex.mul(b + 1, ex.add(1, ex.cosh(phase))))
    assert ex.evaluate_many(u6, {}, {"x": 0, "t": 0}) == -1.875


def test_evaluate_exponential_phase():
    e = ex.exp(ex.add(ex.mul(1, X), ex.mul(F(-3, 2), T)))
    got = ex.evaluate_many(e, {}, {"x": 2, "t": 1})
    assert abs(got - math.exp(0.5)) < 1e-12
    assert abs(got - 1.6487212707) < 1e-9


def test_evaluate_errors():
    # domain violations give inf or NaN, without a RuntimeWarning
    for bad, x in ((ex.div(ex.ONE, X), 0.0), (ex.sqrt(X), -1.0), (ex.cot(X), 0.0),
                   (ex.csc(X), 0.0), (ex.cosh(X), 1e6)):
        assert not np.isfinite(ex.evaluate_many(bad, {}, {"x": x}))
    with pytest.raises(UnboundSymbol):
        ex.evaluate_many(X, {}, {})


def test_pow_normalises_integral_float_exponent():
    e = ex.pow_(X, 2.0)
    assert e == ex.pow_(X, 2)
    assert type(e.exponent) is F
    assert ex.evaluate_many(e, {}, {"x": -3.0}) == 9.0
    assert ex.pow_(X, 2.5).exponent == 2.5
    # a Pow built with 2.0 equals the normalised one and shares its tape slot
    assert ex.Pow(X, 2.0) == e and len(ex.Tape([ex.Pow(X, 2.0), e]).code) == 2


def test_differentiate_constant_is_zero():
    assert ex.differentiate(ex.Rational(F(7, 3)), X) == ex.ZERO


def test_differentiate_tanh():
    d = ex.differentiate(ex.tanh(XI), XI)
    for p in (-2.0, -0.3, 0.0, 0.7, 1.9):
        want = 1 - math.tanh(p) ** 2
        assert abs(ex.evaluate_many(d, {}, {"xi": p}) - want) < 1e-14


def test_third_derivative_matches_finite_differences():
    base = ex.div(2, ex.add(1, ex.cosh(X)))
    d3 = ex.differentiate(ex.differentiate(ex.differentiate(base, X), X), X)
    h = 1e-3

    def f(p):
        return ex.evaluate_many(base, {}, {"x": p})

    fd = (f(1 - 3 * h) - 8 * f(1 - 2 * h) + 13 * f(1 - h)
          - 13 * f(1 + h) + 8 * f(1 + 2 * h) - f(1 + 3 * h)) / (8 * h ** 3)
    sym = ex.evaluate_many(d3, {}, {"x": 1.0})
    assert abs(sym - fd) / abs(fd) < 1e-6


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
            lv = ex.evaluate_many(lhs, {}, p)
            rv = ex.evaluate_many(rhs, {}, p)
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
            lv = ex.evaluate_many(lhs, {}, p)
            rv = ex.evaluate_many(rhs, {}, p)
            assert abs(lv - rv) <= 1e-10 * max(1.0, abs(lv), abs(rv))


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
        for e, vec in zip(trees, shared):
            assert abs(vec[i] - _math_oracle(e, {"x": xs[i], "t": 0.7})) < 1e-12


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
    # plus one per lowered sin or cos argument, and the leaf 1 of a csc
    for _, terms in _residual_term_sets(catalog_samples):
        distinct = set()
        stack = list(terms)
        while stack:
            node = stack.pop()
            if node not in distinct:
                distinct.add(node)
                stack.extend(_children(node))
        lowered = set()
        for node in distinct:
            if isinstance(node, ex.Fun) and node.kind in ("csc", "cot"):
                lowered |= {("sin", node.arg), ("cos", node.arg) if node.kind == "cot" else ex.ONE}
        tape = ex.Tape(terms)
        assert len(tape.code) == len(distinct | lowered)
        _assert_rows_hold_their_values(tape)
        # rows are reused: fewer rows than values that need one
        assert tape.rows < sum(ins[3] is not None for ins in tape.code)


def _assert_rows_hold_their_values(tape):
    """Replay the tape's row assignment: every operand is still in its row
    when it is read, no instruction writes an operand's row, and every root
    is still in its row at the end."""
    holder = {}  # row -> slot whose value it holds
    for i, (op, payload, args, row) in enumerate(tape.code):
        arg_rows = {tape.code[a][3] for a in args} - {None}
        for a in args:
            if tape.code[a][3] is not None:
                assert holder[tape.code[a][3]] == a
        if row is None:
            assert op == "var" or all(tape.code[a][3] is None and tape.code[a][0] != "var"
                                      for a in args)
            continue
        assert 0 <= row < tape.rows and row not in arg_rows
        holder[row] = i
    for s in tape.outputs:
        if tape.code[s][3] is not None:
            assert holder[tape.code[s][3]] == s


def test_tape_rows_around_roots_and_scratch():
    # a root read by a later instruction keeps its row, a cot's sin and
    # cos take rows of their own, and repeated operands take one row
    inner = ex.cosh(X)
    roots = [inner, ex.cot(ex.mul(2, inner)), ex.Mul((inner, inner, T)), ex.sqrt(2), X]
    tape = ex.Tape(roots)
    _assert_rows_hold_their_values(tape)
    assert [tape.code[s][3] is None for s in tape.outputs] == [False, False, False, True, True]
    xs, ts = np.linspace(-1.0, 1.0, 7), np.linspace(0.0, 2.0, 7)
    got = ex.evaluate_many(tape, {}, {"x": xs, "t": ts})
    assert np.array_equal(got[0], np.cosh(xs))
    assert np.array_equal(got[1], np.cos(2.0 * np.cosh(xs)) / np.sin(2.0 * np.cosh(xs)))
    assert np.array_equal(got[2], np.cosh(xs) * np.cosh(xs) * ts)


def test_tape_keeps_a_root_that_is_also_a_subtree():
    inner = ex.cosh(X)
    outer = ex.add(1, ex.mul(2, ex.cosh(X)))  # equal to, not the same as, inner
    xs = np.linspace(-1.0, 1.0, 5)
    got_outer, got_inner = ex.evaluate_many([outer, inner], {}, {"x": xs})
    assert np.array_equal(got_inner, np.cosh(xs))
    assert np.array_equal(got_outer, 1.0 + 2.0 * np.cosh(xs))
    assert [float(v) for v in ex.evaluate_many([outer, inner], {}, {"x": 0.0})] == [3.0, 1.0]


def test_tape_evaluates_a_constant_subtree_once_across_runs(monkeypatch):
    calls = []
    for name in ("sqrt", "cosh", "sinh", "cos", "sin"):
        def spy(*args, real=getattr(np, name), name=name):
            calls.append((name, np.ndim(args[0])))
            return real(*args)
        monkeypatch.setattr(np, name, spy)
    # sqrt(3) + cosh(1/2) and a constant cot: one scalar each, made once
    const = ex.add(ex.sqrt(3), ex.cosh(ex.Rational(F(1, 2))), ex.cot(ex.Rational(F(1, 3))))
    tape = ex.Tape([ex.mul(const, ex.sinh(X))])
    xs = np.linspace(-1.0, 1.0, 5)
    work = [np.empty(xs.shape) for _ in range(tape.rows)]
    for _ in range(4):
        [got] = tape.run({"x": xs}, work)
    assert sorted(calls) == sorted([("sqrt", 0), ("cosh", 0), ("sin", 0), ("cos", 0)]
                                   + [("sinh", 1)] * 4)
    want = (math.sqrt(3) + math.cosh(0.5) + math.cos(1 / 3) / math.sin(1 / 3)) * np.sinh(xs)
    assert np.allclose(got, want, rtol=1e-15, atol=0)


def _spy_ufuncs(monkeypatch, names=("sin", "cos", "square", "power")):
    """Replace numpy's `names` by wrappers that log (name, ndim of the
    first operand) to the list returned, before a tape binds them."""
    calls = []
    for name in names:
        def spy(*args, real=getattr(np, name), name=name):
            calls.append((name, np.ndim(args[0])))
            return real(*args)
        monkeypatch.setattr(np, name, spy)
    return calls


def _bits(v):
    return np.asarray(v, dtype=float).view(np.int64)


# 0, ±0.0, ±inf, NaN, ±1e200, and points at and next to multiples of pi
_NEAR_PI = [k * math.pi for k in (-3, -1, 1, 2, 50)]
_SINE_POINTS = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 1e200, -1e200, 1 / 3]
                        + _NEAR_PI + [math.nextafter(v, d) for v in _NEAR_PI for d in (-4e200, 4e200)])


def test_tape_calls_one_sine_per_argument_and_squares(monkeypatch):
    # csc(a) is 1 / sin(a) and cot(a) is cos(a) / sin(a) with one sin, and
    # a ** 2 runs as np.square: the same bits as before, fewer calls
    a = ex.mul(F(1, 2), X)
    xs = _SINE_POINTS
    half = 0.5 * xs
    with np.errstate(all="ignore"):
        want = [1.0 / np.sin(half), np.cos(half) / np.sin(half), np.power(half, 2.0)]
    calls = _spy_ufuncs(monkeypatch)
    tape = ex.Tape([ex.csc(a), ex.cot(a), ex.pow_(a, 2)])
    work = [np.empty(xs.shape) for _ in range(tape.rows)]
    for _ in range(3):
        calls.clear()
        with np.errstate(all="ignore"):
            got = tape.run({"x": xs}, work)
        for g, w in zip(got, want):
            assert np.array_equal(_bits(g), _bits(w))
        assert sorted(calls) == [("cos", 1), ("sin", 1), ("square", 1)]


def test_tape_makes_constant_sines_once_with_the_same_bits(monkeypatch):
    consts = [F(0), F(1, 3), F(1e200), F(-1e200)] + [F(v) for v in _SINE_POINTS[8:]]
    roots = []
    for c in consts:
        arg = ex.Rational(c)
        roots += [ex.csc(arg), ex.cot(arg), ex.pow_(ex.cot(arg), 2)]
    with np.errstate(all="ignore"):
        want = []
        for c in map(float, consts):
            cot = np.cos(c) / np.sin(c)
            want += [1.0 / np.sin(c), cot, np.power(cot, 2.0)]
    calls = _spy_ufuncs(monkeypatch)
    tape = ex.Tape([ex.mul(r, X) for r in roots] + roots)
    for _ in range(3):
        with np.errstate(all="ignore"):
            got = tape.run({"x": np.ones(2)}, [np.empty(2) for _ in range(tape.rows)])
        for g, w in zip(got[len(roots):], want):
            assert _bits(g) == _bits(w)
    # one sin, cos and square per constant argument, made by the first run
    assert sorted(calls) == sorted([("sin", 0), ("cos", 0), ("square", 0)] * len(consts))


def test_u14_residual_tape_calls_one_sine_per_run(monkeypatch, catalog_samples):
    params = catalog_samples["u14"][0]
    tape = ex.Tape(verifier.mdp_residual_terms(catalog.build("u14", params), params["b"]))
    xs, ts = verifier.GridSpec().points()
    work = [np.empty(xs.shape) for _ in range(tape.rows)]
    calls = _spy_ufuncs(monkeypatch)
    for _ in range(2):
        calls.clear()
        with np.errstate(all="ignore"):
            tape.run({"x": xs, "t": ts}, work)
        assert [c for c in calls if c[0] in ("sin", "power")] == [("sin", 1)]


def test_constant_root_broadcasts_to_grid_shape():
    grid = np.zeros((3, 4))
    half, root2, x = ex.evaluate_many([ex.Rational(F(1, 2)), ex.sqrt(2), X], {}, {"x": grid})
    assert half.shape == root2.shape == x.shape == (3, 4)
    assert (half == 0.5).all() and (root2 == math.sqrt(2)).all()


def test_evaluate_many_hands_out_independent_arrays():
    # a repeated root, a root that is also an operand, variable and
    # constant roots: from one call and from two calls of one tape, every
    # array is its own, and none is the caller's
    xs, ts = np.linspace(-1.0, 1.0, 5), np.linspace(0.0, 2.0, 5)
    x0, t0 = xs.copy(), ts.copy()
    c = ex.cosh(X)
    tape = ex.Tape([c, ex.mul(2, c), c, X, X, ex.Rational(F(1, 2)), ex.sqrt(2), ex.add(X, T)])
    first = ex.evaluate_many(tape, {}, {"x": xs, "t": ts})
    second = ex.evaluate_many(tape, {}, {"x": xs, "t": ts})
    for got in (first, second):
        assert all(v.shape == xs.shape for v in got)
        assert np.array_equal(got[0], np.cosh(x0)) and np.array_equal(got[2], np.cosh(x0))
        assert (got[5] == 0.5).all() and (got[6] == math.sqrt(2)).all()
    arrays = first + second
    for k, v in enumerate(arrays):
        v[...] = -1.0 - k
    assert all((v == -1.0 - k).all() for k, v in enumerate(arrays))
    assert np.array_equal(xs, x0) and np.array_equal(ts, t0)


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
                assert vec[i] == _math_oracle(root, {"x": x0[i], "t": t0[i]})
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
    assert both.shape == () and float(both) == _math_oracle(e, {"x": 0.5, "t": 0.7})


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


def test_prefix_rendering_of_every_node_kind():
    e = ex.add(
        ex.mul(F(-3, 2), X),
        ex.div(ex.exp(X), ex.sinh(T)),
        ex.pow_(X, F(1, 2)),
        ex.pow_(ex.cosh(X), 2.5),
        ex.tanh(ex.tan(X)),
        ex.cot(ex.csc(ex.sqrt(T))),
    )
    assert ex.to_prefix(e) == ("(+ (* -3/2 x) (/ (exp x) (sinh t)) (^ x 1/2) (^ (cosh x) 2.5)"
                               " (tanh (tan x)) (cot (csc (sqrt t))))")
    assert repr(ex.pow_(X, F(-1, 3))) == "(^ x -1/3)"


def test_float_and_fraction_exponents_are_one_node():
    half, exact = ex.pow_(X, 0.5), ex.pow_(X, F(1, 2))
    assert half == exact and hash(half) == hash(exact)
    assert len(ex.Tape([half, exact]).code) == 2


def test_nodes_differing_only_in_kind_or_order_are_unequal():
    pairs = [
        (ex.sinh(X), ex.cosh(X)),
        (ex.Add((X, T)), ex.Mul((X, T))),
        (ex.Add((X, T)), ex.Add((T, X))),
        (ex.div(X, T), ex.div(T, X)),
    ]
    for a, b in pairs:
        assert a != b and b != a
        assert len(ex.Tape([a, b]).code) == len(ex.Tape([a]).code) + 1


def _pinned_root_sets(samples):
    """Every residual tape's roots: `mdp_residual_terms` of each catalog
    sample, then the collocation roots (the denominator and the five
    traveling-wave terms times its 5th power) of u3..u10 at their samples."""
    for fid, rows in samples.items():
        for params in rows:
            yield verifier.mdp_residual_terms(catalog.build(fid, params), params["b"])
    for fid in rh.FAMILY_IDS:
        for params in samples[fid]:
            free = {k: v for k, v in params.items() if k != "b"}
            p = rh.family_params(fid, params["b"], **free)
            den = rh.rh_denominator(p)
            den5 = ex.pow_(den, 5)
            yield [den] + [ex.mul(t, den5) for t in
                           verifier.ode_residual_terms(rh.rh_ansatz(p), params["b"], p.lam)]


def test_residual_trees_and_tapes_are_pinned(catalog_samples):
    # sha256 of every root's prefix text and of every tape's instructions:
    # a change to the constructors or the compile must not move a byte.
    # The tapes' digest was e2fe5862... before csc and cot were lowered to
    # sin, cos and div instructions.  The trees' digest was 59387219...
    # while `rh.coefficients` rounded a0 and a2 for an integer b (u3 and u8
    # at b = 5 here, whose a0 = -10/3)
    trees, tapes = hashlib.sha256(), hashlib.sha256()
    count = 0
    for roots in _pinned_root_sets(catalog_samples):
        count += 1
        for r in roots:
            trees.update(ex.to_prefix(r).encode() + b"\n")
        tapes.update(repr(ex.Tape(roots).code).encode() + b"\n")
    assert count == 76 + 26
    assert trees.hexdigest() == "5fee51a504880cde8f3d591daae950bba13340a2c87e4175d44c37d4aafed749"
    assert tapes.hexdigest() == "d78e7e0904f601065afadb25e3bedd87ac33dc30f968385268065b78eea4437f"


# each call takes its integers through `i` and its floats through `f`: numpy
# scalars build the trees that the Python numbers they hold build, with no
# 64-bit wrap and no warning
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", [
    lambda i, f: ex.mul(ex.Rational(i(2 ** 40)), ex.Rational(i(2 ** 40)), X),
    lambda i, f: ex.add(ex.Rational(i(2 ** 62)), ex.Rational(i(2 ** 62)), X),
    lambda i, f: ex.mul(ex.Rational(F(i(2 ** 40), 3)), ex.Rational(F(i(2 ** 40))), X),
    lambda i, f: ex.mul(i(3), X),
    lambda i, f: ex.pow_(X, i(3)),
    lambda i, f: ex.pow_(X, f(2.5)),
    lambda i, f: ex.add(f(0.5), X, ex.as_expr(i(-5))),
], ids=["rational-square", "rational-sum", "fraction-product", "mul", "pow-int", "pow-float", "as-expr"])
@pytest.mark.parametrize("floats", [np.float64, np.float32])
def test_numpy_scalars_build_as_python_numbers(call, floats):
    assert ex.to_prefix(call(np.int64, floats)) == ex.to_prefix(call(int, float))


def test_trees_survive_pickle_and_deepcopy(catalog_samples):
    for fid, rows in catalog_samples.items():
        for params in rows:
            u, guard, _ = catalog.build_wave(fid, params)
            code = ex.Tape([u, guard]).code
            for u2, guard2 in (pickle.loads(pickle.dumps((u, guard))), copy.deepcopy((u, guard))):
                assert u2 == u and guard2 == guard, fid
                assert ex.to_prefix(u2) == ex.to_prefix(u) and ex.to_prefix(guard2) == ex.to_prefix(guard)
                assert ex.Tape([u2, guard2]).code == code, fid
    # a constant comes back as its interned leaf
    third = ex.Rational(F(1, 3))
    assert pickle.loads(pickle.dumps(third)) is third and copy.deepcopy(ex.ONE) is ex.ONE


def test_tree_pickled_by_another_process_equals_the_tree_built_here():
    # the other process hashes strings with another seed, so a node's hash
    # must be made where it is unpickled
    env = dict(os.environ, PYTHONHASHSEED="1",
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = ("import pickle, sys; from fractions import Fraction; from mdpwave import expr as ex; "
            "sys.stdout.buffer.write(pickle.dumps(ex.mul(Fraction(1, 3), ex.cosh(ex.var('x')))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True).stdout
    here = ex.mul(F(1, 3), ex.cosh(X))
    assert pickle.loads(out) == here and hash(pickle.loads(out)) == hash(here)


def test_leaf_table_clear_moves_no_byte_or_slot(monkeypatch, catalog_samples):
    def reports():
        out = []
        for fid, rows in catalog_samples.items():
            for params in rows:
                u, guard, _ = catalog.build_wave(fid, params)
                rep = verifier.verify_on_grid(u, params["b"], guard=guard)
                out.append(report.dumps(rep.to_dict()))
        return out

    want = reports()
    # a fresh table with room for one leaf beside the pinned ones: nearly
    # every new constant clears it
    monkeypatch.setattr(ex, "_LEAVES", dict(ex._PINNED))
    monkeypatch.setattr(ex, "_LEAF_BOUND", len(ex._PINNED) + 1)
    old = ex.Rational(F(-355, 113))
    table = ex._LEAVES
    u22 = catalog.build("u22", catalog_samples["u22"][0])
    verifier.mdp_residual_terms(u22, 3)
    assert ex._LEAVES is not table  # cleared during the residual build
    assert reports() == want
    assert len(ex._LEAVES) <= len(ex._PINNED) + 1
    assert all(ex.Rational(i) is leaf for (i, _), leaf in ex._PINNED.items())
    new = ex.Rational(F(-355, 113))
    assert new is not old and new == old and hash(new) == hash(old)
    tape = ex.Tape([old, new])
    assert tape.outputs == (0, 0) and len(tape.code) == 1
