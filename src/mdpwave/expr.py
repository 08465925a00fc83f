"""Immutable symbolic expression trees.

Nodes are exact-rational constants, variables, n-ary sums/products,
quotients, integer powers, and a closed set of elementary functions.
Constructors fold the trivial identities (0*e, 1*e, e+0, e^1,
rational-constant arithmetic) and nothing else; correctness downstream
rests on numeric agreement, not on normal forms.  `add` and `mul` keep a
lone constant as the leaf it came in as.  When a second constant meets
it, two integers fold with int arithmetic and any other pair with
Fraction arithmetic.  `Rational` interns one leaf per value in a table
that a clear empties when full, but for the integers -64..64 (ZERO and ONE
among them); equality stays structural, so a leaf made after a clear
equals its older twin.  numpy numbers become the Python numbers they hold.

Every node carries one structural key, (op, payload, children), set at
construction.  Equality and hashing, the tape compile and `to_prefix`
each read that key, so they are written once for all node kinds; only
`differentiate` keeps a rule per kind.

Constants stay exact rationals inside trees; floats only appear when a
tree is evaluated.  Differentiation is structural and closed over the
function set (e.g. csc' = -csc*cot), so derived trees never introduce new
node kinds.  Its memo maps structurally equal nodes to one derivative; a
residual builder passes one memo per variable to all the orders it
takes, and drops it when the build is done.  All values are immutable and
all operations are pure, so trees are safe to share across workers.

Evaluation compiles one or more roots into a single `Tape` that evaluates
each structurally distinct subtree once, csc(a) and cot(a) as 1 / sin(a)
and cos(a) / sin(a) with one sin per argument.  The tape runs over numpy
arrays in a workspace: rows of the points' shape, one per value that is live
at once.  Each instruction that depends on a variable calls its ufuncs with
`out=` its own row, and a row is reused once its value's last consumer has
run, but never for an operand of the same instruction; constant subtrees
stay scalars.  An n-ary sum or product is worked left to right in its row,
so the IEEE results are those of the plain chain.  `evaluate_many` runs
the tape on a fresh workspace; a caller that evaluates block after block
(`verifier`) passes the same workspace to `Tape.run` each time.  Domain
violations give inf/NaN values, which callers screen with their own
guards.  A caller's arrays are never written.

A tape's first run imports numpy and prepares its steps: each ufunc call
resolved to the ufunc (`np.square` for a power of 2, the same bits as
`np.power`) and its operand and output registers.  Constants are
evaluated then, once; every run loops over the other steps.  Building and
differentiating trees, and compiling a tape, run without loading numpy.
"""
from __future__ import annotations

import itertools
import math
import numbers
import operator
from fractions import Fraction

from .errors import UnboundSymbol

__all__ = [
    "Expr", "Rational", "Var", "Add", "Mul", "Div", "Pow", "Fun",
    "FUNCTIONS", "as_expr", "add", "mul", "sub", "div", "pow_", "fun",
    "exp", "sinh", "cosh", "tanh", "tan", "cot", "csc", "sqrt",
    "var", "sym_sqrt", "differentiate",
    "Tape", "evaluate_many", "to_prefix", "ZERO", "ONE",
]

FUNCTIONS = ("exp", "sinh", "cosh", "tanh", "tan", "cot", "csc", "sqrt")

np = None  # numpy, bound by the first Tape.run or evaluate_many


class Expr:
    """Base node.  Each constructor sets `_key = (op, payload, children)`
    and `_hash = hash(_key)`, a rational with its numerator and denominator
    in the Fraction's place; the key is the node's whole identity.

    The op is the tape's name for the node: "rat" (payload the Fraction),
    "var" (the name), "add" and "mul" (the terms or factors as children),
    "div" (children `(num, den)`), "pow" (the int exponent, children
    `(base,)`) or a function kind (children `(arg,)`).  Payloads are None
    where no op is named.  The key holds the named slots' own objects.
    """

    __slots__ = ("_key", "_hash")

    def __reduce__(self):  # rebuilt by its constructor: a leaf interned, a hash made anew
        return type(self), tuple(getattr(self, s) for s in self.__slots__)

    def __eq__(self, other):
        return self is other or (
            type(other) is type(self) and self._hash == other._hash and self._key == other._key
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return to_prefix(self)


class Rational(Expr):
    __slots__ = ("value",)

    def __new__(cls, value):
        global _LEAVES
        if type(value) is not int and type(value) is not Fraction:
            value = Fraction(_plain(value))
        key = (value, 1) if type(value) is int else (  # Fraction(np.int64(2)) keeps numpy's ints
            operator.index(value.numerator), operator.index(value.denominator))
        leaf = _LEAVES.get(key)
        if leaf is None:
            if len(_LEAVES) >= _LEAF_BOUND:
                _LEAVES = dict(_PINNED)
            leaf = _LEAVES[key] = object.__new__(cls)
            leaf.value = value = Fraction(*key)
            leaf._key, leaf._hash = ("rat", value, ()), hash(("rat", *key))
        return leaf


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name
        self._key = key = ("var", name, ())
        self._hash = hash(key)


class Add(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms
        self._key = key = ("add", None, terms)
        self._hash = hash(key)


class Mul(Expr):
    __slots__ = ("factors",)

    def __init__(self, factors):
        self.factors = factors
        self._key = key = ("mul", None, factors)
        self._hash = hash(key)


class Div(Expr):
    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = num
        self.den = den
        self._key = key = ("div", None, (num, den))
        self._hash = hash(key)


class Pow(Expr):
    """An integer power: the exponent is a Python int."""

    __slots__ = ("base", "exponent")

    def __init__(self, base, exponent):
        self.base = base
        self.exponent = exponent
        self._key = key = ("pow", exponent, (base,))
        self._hash = hash(key)


class Fun(Expr):
    __slots__ = ("kind", "arg")

    def __init__(self, kind, arg):
        self.kind = kind
        self.arg = arg
        self._key = key = (kind, None, (arg,))
        self._hash = hash(key)


def _plain(v):
    """`v`, a number of any type (numpy's too), as a Python int, float or
    Fraction; TypeError for anything else, ValueError for inf and NaN."""
    if isinstance(v, numbers.Integral):
        return operator.index(v)
    if isinstance(v, Fraction):
        return v
    if not isinstance(v, numbers.Real):
        raise TypeError(f"cannot coerce {type(v).__name__} to Expr")
    if not math.isfinite(v := float(v)):
        raise ValueError(f"non-finite constant {v!r}")
    return v


def as_expr(v):
    """Coerce a number to its rational leaf; pass expressions through."""
    return v if isinstance(v, Expr) else Rational(v)


# the leaves by (numerator, denominator), at most 4,096 (perfbench's sweep
# makes 744); a clear keeps the integers that the constructors and
# derivative rules ask for most and compare by identity
_LEAF_BOUND = 4096
_LEAVES = {}
_PINNED = {(i, 1): Rational(i) for i in range(-64, 65)}
ZERO, ONE = _PINNED[0, 1], _PINNED[1, 1]


def _gather(items, kind, product):
    """(the constant leaf or None, the other operands) of a sum or product
    of `items`, flattening operands of the same `kind`."""
    out = []
    const = None
    for t in items:
        if type(t) is not Rational:
            if type(t) is kind:
                for p in t._key[2]:
                    if type(p) is not Rational:
                        out.append(p)
                    else:
                        const = p if const is None else _fold(const, p, product)
                continue
            if isinstance(t, Expr):
                out.append(t)
                continue
            t = as_expr(t)
        const = t if const is None else _fold(const, t, product)
    return const, out


def _fold(a, b, product):
    """The leaf of two constant leaves' product or sum."""
    a, b = a.value, b.value
    if a.denominator == 1 == b.denominator:
        return Rational(a.numerator * b.numerator if product else a.numerator + b.numerator)
    return Rational(a * b if product else a + b)


def add(*terms):
    const, out = _gather(terms, Add, False)
    if const is not None and const is not ZERO:
        out.insert(0, const)
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    return Add(tuple(out))


def mul(*factors):
    const, out = _gather(factors, Mul, True)
    if const is None:
        if not out:
            return ONE
    elif const is ZERO:
        return ZERO
    elif not out:
        return const
    elif const is not ONE:
        out.insert(0, const)
    if len(out) == 1:
        return out[0]
    return Mul(tuple(out))


def sub(a, b):
    return add(a, mul(-1, b))


def div(num, den):
    num = as_expr(num)
    den = as_expr(den)
    if isinstance(den, Rational):
        if den is ZERO:
            raise ZeroDivisionError("division by exact zero at construction")
        if isinstance(num, Rational):
            return Rational(num.value / den.value)
        if den is ONE:
            return num
    if num is ZERO:
        return ZERO
    return Div(num, den)


def pow_(base, exponent):
    """Integer power, a rational base folded exactly.  A numpy integer
    exponent becomes its int; a float, Fraction or Rational raises TypeError."""
    base = as_expr(base)
    e = operator.index(exponent)
    if e == 1:
        return base
    if e == 0:
        return ONE
    if isinstance(base, Rational):
        if base.value == 0 and e < 0:
            raise ZeroDivisionError("zero base with negative exponent")
        return Rational(base.value ** e)
    return Pow(base, e)


def fun(kind, arg):
    if kind not in FUNCTIONS:
        raise ValueError(f"unknown function {kind!r}")
    return Fun(kind, as_expr(arg))


def exp(a):
    return fun("exp", a)


def sinh(a):
    return fun("sinh", a)


def cosh(a):
    return fun("cosh", a)


def tanh(a):
    return fun("tanh", a)


def tan(a):
    return fun("tan", a)


def cot(a):
    return fun("cot", a)


def csc(a):
    return fun("csc", a)


def sqrt(a):
    return fun("sqrt", a)


def sym_sqrt(q):
    """Square root of a nonnegative rational as an expression.

    Perfect squares fold to rational leaves; anything else stays a
    symbolic sqrt node so trees keep exact constants.
    """
    q = Fraction(q)
    if q < 0:
        raise ValueError("sym_sqrt of a negative rational")
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Rational(Fraction(rn, rd))
    return fun("sqrt", Rational(q))


def var(name):
    return Var(name)


def differentiate(e, v, memo=None):
    """Exact structural derivative of `e` with respect to the `Var` `v`.

    Total on well-formed trees.  `memo` maps nodes already differentiated
    with respect to `v` to their derivatives.  A caller taking several
    orders with respect to one variable passes the same dict to each call,
    so the subtrees that one order copies from the previous one are
    derived once; it keeps that dict for that one build and no longer.
    Keys are the nodes themselves, compared structurally, and the dict
    holds them alive.  Without `memo` each call starts from an empty one.
    """
    name = v.name
    if memo is None:
        memo = {}

    def d(node):
        hit = memo.get(node)
        if hit is not None:
            return hit
        if isinstance(node, Rational):
            out = ZERO
        elif isinstance(node, Var):
            out = ONE if node.name == name else ZERO
        elif isinstance(node, Add):
            out = add(*[d(t) for t in node.terms])
        elif isinstance(node, Mul):
            fs = node.factors
            out = add(*[
                mul(*fs[:i], df, *fs[i + 1:])
                for i, df in enumerate([d(f) for f in fs]) if df is not ZERO
            ])
        elif isinstance(node, Div):
            out = div(
                sub(mul(d(node.num), node.den), mul(node.num, d(node.den))),
                pow_(node.den, 2),
            )
        elif isinstance(node, Pow):
            e0 = node.exponent
            out = mul(as_expr(e0), pow_(node.base, e0 - 1), d(node.base))
        elif isinstance(node, Fun):
            a = node.arg
            k = node.kind
            if k == "exp":
                outer = node
            elif k == "sinh":
                outer = cosh(a)
            elif k == "cosh":
                outer = sinh(a)
            elif k == "tanh":
                outer = sub(1, pow_(node, 2))
            elif k == "tan":
                outer = add(1, pow_(node, 2))
            elif k == "cot":
                outer = mul(-1, add(1, pow_(node, 2)))
            elif k == "csc":
                outer = mul(-1, node, cot(a))
            else:  # sqrt
                outer = div(ONE, mul(2, node))
            out = mul(outer, d(a))
        else:  # pragma: no cover
            raise TypeError(f"unknown node {type(node).__name__}")
        memo[node] = out
        return out

    return d(as_expr(e))


class Tape:
    """Root expressions compiled into one topologically ordered tape.

    There is one slot, and one instruction, per structurally distinct
    node: nodes are keyed by their own `__hash__`/`__eq__`, and each
    instruction is the node's key with a "rat" or "pow" payload as a
    float, plus its workspace row.  A subtree shared between roots, or
    repeated inside one, is therefore evaluated once.  A csc or cot is a
    "div" of 1 or of a "cos" by a "sin", and a "sin" or "cos" instruction is
    keyed by (op, argument slot), so each argument takes one.  A value that
    depends on a variable goes into a row of the workspace given to `run`
    (`rows` of them): a row is reused once its value's last consumer has
    run, never for an operand of the same instruction, and never a root's.
    The compile looks each child's slot up in place and descends only into
    a node that has none yet.  A root built apart from the others goes
    last: a caller may build u and its guard in separate calls (perfbench
    calls `catalog.build`, then `catalog.build_guard_xt`), and then the
    guard's nodes are equal copies of slotted ones, so its root is found by
    one comparison of trees, where slotted first it makes each lookup of an
    equal node compare trees.

    The first `run` prepares the steps (`_bind`): a constant instruction
    is evaluated once, to the scalar every run reads, and `run` is one loop
    over the ufunc calls of the others, each with its operands and row.
    """

    __slots__ = ("code", "outputs", "rows", "_fixed", "_vars", "_roots", "_steps")

    def __init__(self, roots):
        slots = {}
        code = []  # [op, payload, argument slots, row: None for none, -1 until placed]
        varies = []  # per slot: whether its value depends on a variable

        def visit(node):  # a node without a slot: its children's slots first
            op, payload, kids = node._key
            row = None
            if kids:
                args = []
                for k in kids:
                    a = slots.get(k)
                    if a is None:
                        a = visit(k)
                    if varies[a]:
                        row = -1
                    args.append(a)
                args = tuple(args)
                if op == "pow":
                    payload = float(payload)
                elif op == "csc" or op == "cot":  # lowered: 1 / sin(a), cos(a) / sin(a)
                    num = (lowered("cos", args[0], row) if op == "cot"
                           else slots[ONE] if ONE in slots else visit(ONE))
                    op, args = "div", (num, lowered("sin", args[0], row))
            else:
                args = kids
                if op == "rat":  # float(payload)'s bits, without its int() calls
                    payload = payload.numerator / payload.denominator
            slot = slots[node] = len(code)
            code.append([op, payload, args, row])
            varies.append(row is not None or op == "var")
            return slot

        def lowered(op, a, row):  # the slot of sin(a) or cos(a), one per argument slot
            slot = slots.get((op, a))
            if slot is None:
                slot = slots[op, a] = len(code)
                code.append([op, None, (a,), row])
                varies.append(row is not None)
            return slot

        self.outputs = tuple(slots[r] if r in slots else visit(r) for r in map(as_expr, roots))
        # walk back from the roots, which are read last: the first use met
        # is a value's last, so it takes a free row there, and its row is
        # free again above the instruction that writes it
        free, fresh = [], itertools.count()
        for ins in reversed(code + [[None, None, self.outputs, None]]):
            for a in ins[2]:
                if code[a][3] == -1:
                    code[a][3] = free.pop() if free else next(fresh)
            if ins[3] is not None:
                free.append(ins[3])
        self.code = code
        self.rows = next(fresh)
        self._steps = None  # prepared by the first run

    def run(self, point, work):
        """Values of the roots at `point`, a dict of numpy arrays.  Row r of
        the workspace is `work[r]`, an array of the points' broadcast shape;
        a root is a row, a point array or a constant scalar."""
        if self._steps is None:
            self._bind()
        regs = [*work, *self._fixed]
        try:
            for name, r in self._vars:
                regs[r] = point[name]
        except KeyError:
            raise UnboundSymbol(f"unbound variable {name!r}") from None
        for f, a, b, out in self._steps:
            if b is None:
                f(regs[a], regs[out])
            else:
                f(regs[a], regs[b], regs[out])
        return [regs[r] for r in self._roots]

    def _bind(self):
        """Bind numpy and prepare the steps, one (ufunc, operand, second
        operand or None, output) per ufunc call, over registers: the
        workspace's rows, then the leaves and constants (`_fixed`), counted
        from the end.  The constants' steps run here, once."""
        global np
        import numpy as np
        fixed, variables, at, steps, const_steps = [], [], [], [], []  # at: per slot, its register
        for op, payload, args, row in self.code:
            if row is None:  # a leaf or a constant: a register of its own
                fixed.append(payload if op == "rat" else None)
                out, todo = -len(fixed), const_steps
            else:
                out, todo = row, steps
            at.append(out)
            if op == "var":
                variables.append((payload, out))
            if not args:
                continue
            f, x = getattr(np, _UFUNCS.get(op, op)), at[args[0]]
            if len(args) > 1:  # worked left to right in its row
                for a in args[1:]:
                    todo.append((f, x, at[a], out))
                    x = out
            elif op == "pow" and payload == 2.0:  # np.square: np.power's bits, faster
                todo.append((np.square, x, None, out))
            elif op == "pow":  # x ** payload
                fixed.append(payload)
                todo.append((f, x, -len(fixed), out))
            else:  # a function, or a lone term's bitwise copy into its row
                todo.append((np.positive if op == "add" or op == "mul" else f, x, None, out))
        fixed.reverse()  # the k-th register made is at -k
        for f, a, b, out in const_steps:  # each call makes the scalar its register keeps
            fixed[out] = f(fixed[a]) if b is None else f(fixed[a], fixed[b])
        self._fixed, self._vars = fixed, variables
        self._roots = tuple(at[s] for s in self.outputs)
        self._steps = tuple(steps)


# numpy's name for an op's ufunc where it is not the op's own
_UFUNCS = {"mul": "multiply", "div": "divide", "pow": "power"}


def evaluate_many(e, params=None, point=None):
    """Vectorized evaluation over numpy arrays of variable values.

    `e` is one expression (one array back), or a sequence of expressions
    or a compiled Tape (a list of arrays back, one per root); constant
    roots are broadcast to the points' shape.  The tape runs on a fresh
    workspace, and each array returned is its own.  Domain violations
    (division by zero, sqrt of a negative, trig poles, overflow) do not
    raise: they yield inf/NaN under suppressed numpy warnings, which
    callers screen with their own guards.  Unbound variables raise
    UnboundSymbol.  `params` is unused: trees embed their constants, and
    the slot stays for callers that pass `{}` before the point.
    """
    global np
    import numpy as np
    single = not isinstance(e, (Tape, tuple, list))
    tape = e if isinstance(e, Tape) else Tape((e,) if single else e)
    point = {k: np.asarray(v, dtype=float) for k, v in (point or {}).items()}
    shape = np.broadcast_shapes(*(a.shape for a in point.values())) if point else ()
    work = [np.empty(shape) for _ in range(tape.rows)]
    with np.errstate(all="ignore"):
        out = [np.array(np.broadcast_to(v, shape)) for v in tape.run(point, work)]
    return out[0] if single else out


_SYMBOLS = {"add": "+", "mul": "*", "div": "/", "pow": "^"}


def to_prefix(e):
    """The report format of an expression: `(op child ...)` in prefix form.

    A rational prints as `str` of its Fraction (`3`, `-1/2`) and a variable
    as its name; a sum, product, quotient and power print as `+ * / ^`
    and a function as its kind.  A power's integer exponent follows its
    base (`(^ x -3)`).  `mdpwave riccati` prints its `phi` in this form, so
    the bytes are part of the report.
    """
    parts = []

    def walk(node):
        op, payload, kids = node._key
        if op == "rat" or op == "var":
            parts.append(str(payload))
            return
        parts.append("(" + _SYMBOLS.get(op, op))
        for k in kids:
            parts.append(" ")
            walk(k)
        if op == "pow":
            parts.append(f" {payload}")
        parts.append(")")

    walk(as_expr(e))
    return "".join(parts)
