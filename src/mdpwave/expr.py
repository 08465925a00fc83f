"""Immutable symbolic expression trees.

Nodes are exact-rational constants, variables, n-ary sums/products,
quotients, constant powers, and a closed set of elementary functions.
Constructors fold the trivial identities (0*e, 1*e, e+0, e^1,
rational-constant arithmetic) and nothing else; correctness downstream
rests on numeric agreement, not on normal forms.  `add` and `mul` keep a
lone constant as the leaf it came in as and do Fraction arithmetic only
when a second constant meets it; small integers share one leaf each.

Constants stay exact rationals inside trees; floats only appear when a
tree is evaluated.  Differentiation is structural and closed over the
function set (e.g. csc' = -csc*cot), so derived trees never introduce new
node kinds.  Its memo maps structurally equal nodes to one derivative; a
residual builder passes one memo per variable to all the orders it
takes, and drops it when the build is done.  All values are immutable and
all operations are pure, so trees are safe to share across workers.

Evaluation compiles one or more roots into a single `Tape` that evaluates
each structurally distinct subtree once and frees its value after the
last use.  The tape has two backends: a scalar one (`evaluate`) with loud
domain errors, and a vectorized numpy one (`evaluate_many`) whose inf/NaN
values callers screen with their own guards.  Equal-but-distinct nodes
share a slot, so the `DomainError.subtree` of a failure is a structurally
equal node, not necessarily the same object.  The numpy backend works an
n-ary sum or product left to right: the first two operands go into a
fresh array, and each later scalar or same-shaped operand is added or
multiplied into that array in place, so the chain allocates one array
rather than one per operand.  The IEEE results are those of the plain
chain, and an operand that would broadcast to a larger shape takes the
allocating form.  A caller's arrays are never written.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import DomainError, UnboundSymbol

__all__ = [
    "Expr", "Rational", "Var", "Add", "Mul", "Div", "Pow", "Fun",
    "FUNCTIONS", "as_expr", "add", "mul", "sub", "div", "pow_", "fun",
    "exp", "sinh", "cosh", "tanh", "tan", "cot", "csc", "sqrt",
    "var", "sym_sqrt", "differentiate", "substitute",
    "Tape", "evaluate", "evaluate_many", "to_prefix", "ZERO", "ONE",
]

FUNCTIONS = ("exp", "sinh", "cosh", "tanh", "tan", "cot", "csc", "sqrt")


class Expr:
    """Base node.  Subclasses set `_hash` at construction."""

    __slots__ = ("_hash",)

    def __hash__(self):
        return self._hash

    # arithmetic sugar; all routes through the canonicalizing constructors
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __pow__(self, exponent):
        return pow_(self, exponent)

    def __neg__(self):
        return mul(-1, self)

    def __repr__(self):
        return to_prefix(self)


class Rational(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value if isinstance(value, Fraction) else Fraction(value)
        self._hash = hash(("rat", self.value))

    def __eq__(self, other):
        return self is other or (type(other) is Rational and self.value == other.value)

    __hash__ = Expr.__hash__


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name
        self._hash = hash(("var", name))

    def __eq__(self, other):
        return self is other or (type(other) is Var and self.name == other.name)

    __hash__ = Expr.__hash__


class Add(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms
        self._hash = hash(("add", terms))

    def __eq__(self, other):
        return self is other or (
            type(other) is Add and self._hash == other._hash and self.terms == other.terms
        )

    __hash__ = Expr.__hash__


class Mul(Expr):
    __slots__ = ("factors",)

    def __init__(self, factors):
        self.factors = factors
        self._hash = hash(("mul", factors))

    def __eq__(self, other):
        return self is other or (
            type(other) is Mul and self._hash == other._hash and self.factors == other.factors
        )

    __hash__ = Expr.__hash__


class Div(Expr):
    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = num
        self.den = den
        self._hash = hash(("div", num, den))

    def __eq__(self, other):
        return self is other or (
            type(other) is Div and self._hash == other._hash
            and self.num == other.num and self.den == other.den
        )

    __hash__ = Expr.__hash__


class Pow(Expr):
    """Constant exponent only: a Fraction (covers integers) or a float.

    Equality includes the exponent's type: the scalar evaluator treats
    Fraction(2) and 2.0 differently at a negative base.
    """

    __slots__ = ("base", "exponent")

    def __init__(self, base, exponent):
        self.base = base
        self.exponent = exponent
        self._hash = hash(("pow", base, exponent))

    def __eq__(self, other):
        return self is other or (
            type(other) is Pow and self._hash == other._hash
            and self.base == other.base and self.exponent == other.exponent
            and type(self.exponent) is type(other.exponent)
        )

    __hash__ = Expr.__hash__


class Fun(Expr):
    __slots__ = ("kind", "arg")

    def __init__(self, kind, arg):
        self.kind = kind
        self.arg = arg
        self._hash = hash(("fun", kind, arg))

    def __eq__(self, other):
        return self is other or (
            type(other) is Fun and self._hash == other._hash
            and self.kind == other.kind and self.arg == other.arg
        )

    __hash__ = Expr.__hash__


def as_expr(v):
    """Coerce a number to an exact rational leaf; pass expressions through."""
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, Fraction)):
        return _SMALL.get(v) or Rational(Fraction(v))
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValueError(f"non-finite constant {v!r}")
        return Rational(Fraction(v))
    raise TypeError(f"cannot coerce {type(v).__name__} to Expr")


# shared leaves for the small integers the constructors and derivative
# rules ask for most, mul(-1, ...) above all
_SMALL = {i: Rational(Fraction(i)) for i in range(-64, 65)}
ZERO = _SMALL[0]
ONE = _SMALL[1]


def add(*terms):
    out = []
    const = None  # the first constant leaf, until a second one forces a sum
    for t in terms:
        if not isinstance(t, Expr):
            t = as_expr(t)
        for p in (t.terms if type(t) is Add else (t,)):
            if type(p) is not Rational:
                out.append(p)
            elif const is None:
                const = p
            else:
                const = Rational(const.value + p.value)
    if const is not None and const.value:
        out.insert(0, const)
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    return Add(tuple(out))


def mul(*factors):
    out = []
    const = None  # the first constant leaf, until a second one forces a product
    for f in factors:
        if not isinstance(f, Expr):
            f = as_expr(f)
        for p in (f.factors if type(f) is Mul else (f,)):
            if type(p) is not Rational:
                out.append(p)
            elif const is None:
                const = p
            else:
                const = Rational(const.value * p.value)
    if const is None:
        if not out:
            return ONE
    elif not const.value:
        return ZERO
    elif not out:
        return const
    elif const.value != 1:
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
        if den.value == 0:
            raise ZeroDivisionError("division by exact zero at construction")
        if isinstance(num, Rational):
            return Rational(num.value / den.value)
        if den.value == 1:
            return num
    if isinstance(num, Rational) and num.value == 0:
        return ZERO
    return Div(num, den)


def pow_(base, exponent):
    """Constant power.  Integral float exponents become Fractions, so
    `pow_(e, 2.0) == pow_(e, 2)` and both take the integer-power path."""
    base = as_expr(base)
    if isinstance(exponent, Rational):
        exponent = exponent.value
    if isinstance(exponent, float):
        if not math.isfinite(exponent):
            raise ValueError("non-finite exponent")
        if not exponent.is_integer():
            return Pow(base, exponent)
        exponent = Fraction(exponent)
    if isinstance(exponent, (int, Fraction)):
        e = Fraction(exponent)
        if e == 1:
            return base
        if e == 0:
            return ONE
        if isinstance(base, Rational) and e.denominator == 1:
            if base.value == 0 and e < 0:
                raise ZeroDivisionError("zero base with negative exponent")
            return Rational(base.value ** e)
        return Pow(base, e)
    raise TypeError("exponent must be a constant number")


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
    """Exact structural derivative of `e` with respect to variable `v`.

    Total on well-formed trees.  `memo` maps nodes already differentiated
    with respect to `v` to their derivatives.  A caller taking several
    orders with respect to one variable passes the same dict to each call,
    so the subtrees that one order copies from the previous one are
    derived once; it keeps that dict for that one build and no longer.
    Keys are the nodes themselves, compared structurally, and the dict
    holds them alive.  Without `memo` each call starts from an empty one.
    """
    name = v.name if isinstance(v, Var) else v
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


def substitute(e, v, replacement):
    """Replace every occurrence of variable `v` by `replacement`.

    Structural and capture-free (there are no binders).  Returns `e`
    unchanged (same object) when `v` does not occur.
    """
    name = v.name if isinstance(v, Var) else v
    replacement = as_expr(replacement)
    memo = {}

    def walk(node):
        key = id(node)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if isinstance(node, Var):
            out = replacement if node.name == name else node
        elif isinstance(node, Rational):
            out = node
        elif isinstance(node, Add):
            kids = [walk(t) for t in node.terms]
            out = node if all(a is b for a, b in zip(kids, node.terms)) else add(*kids)
        elif isinstance(node, Mul):
            kids = [walk(f) for f in node.factors]
            out = node if all(a is b for a, b in zip(kids, node.factors)) else mul(*kids)
        elif isinstance(node, Div):
            n2, d2 = walk(node.num), walk(node.den)
            out = node if (n2 is node.num and d2 is node.den) else div(n2, d2)
        elif isinstance(node, Pow):
            b2 = walk(node.base)
            out = node if b2 is node.base else pow_(b2, node.exponent)
        else:
            a2 = walk(node.arg)
            out = node if a2 is node.arg else fun(node.kind, a2)
        memo[key] = out
        return out

    return walk(as_expr(e))


def _instruction(node):
    """(op, payload, children) of the tape instruction for one node."""
    if isinstance(node, Rational):
        return "rat", float(node.value), ()
    if isinstance(node, Var):
        return "var", node.name, ()
    if isinstance(node, Add):
        return "add", None, node.terms
    if isinstance(node, Mul):
        return "mul", None, node.factors
    if isinstance(node, Div):
        return "div", None, (node.num, node.den)
    if isinstance(node, Pow):
        e0 = node.exponent
        integral = isinstance(e0, Fraction) and e0.denominator == 1
        return "pow", int(e0) if integral else float(e0), (node.base,)
    return node.kind, None, (node.arg,)


class Tape:
    """Root expressions compiled into one topologically ordered tape.

    There is one slot, and one instruction, per structurally distinct
    node: nodes are keyed by their own `__hash__`/`__eq__`, and `Pow`
    equality includes the exponent's type.  A subtree shared between
    roots, or repeated inside one, is therefore evaluated once.  A slot is
    released right after its last consumer runs; root slots are never
    released.
    """

    __slots__ = ("code", "outputs")

    def __init__(self, roots):
        slots = {}
        code = []  # [op, payload, node, argument slots, slots to free after]

        def visit(node):
            slot = slots.get(node)
            if slot is None:
                op, payload, kids = _instruction(node)
                args = tuple([visit(k) for k in kids])
                slot = slots[node] = len(code)
                code.append([op, payload, node, args, ()])
            return slot

        self.outputs = tuple(visit(as_expr(r)) for r in roots)
        last_use = {a: i for i, ins in enumerate(code) for a in ins[3]}
        for slot, i in last_use.items():
            if slot not in self.outputs:
                code[i][4] += (slot,)
        self.code = code

    def run(self, step, point):
        """Values of the roots, computing each instruction with `step`."""
        vals = [None] * len(self.code)
        for slot, (op, payload, node, args, free) in enumerate(self.code):
            vals[slot] = step(op, payload, node, [vals[a] for a in args], point)
            for s in free:
                vals[s] = None
        return [vals[s] for s in self.outputs]


def _bound(point, name):
    try:
        return point[name]
    except KeyError:
        raise UnboundSymbol(f"unbound variable {name!r}") from None


def _scalar_step(op, payload, node, xs, point):
    if op == "rat":
        out = payload
    elif op == "var":
        out = float(_bound(point, payload))
    elif op == "add":
        out = 0.0
        for v in xs:
            out += v
    elif op == "mul":
        out = math.prod(xs, start=1.0)
    elif op == "div":
        if xs[1] == 0.0:
            raise DomainError("division by zero", node)
        out = xs[0] / xs[1]
    elif op == "pow":
        out = _scalar_pow(xs[0], payload, node)
    else:
        out = _scalar_fun(op, xs[0], node)
    if out != out:  # NaN guard
        raise DomainError("evaluation produced NaN", node)
    return out


def _scalar_pow(base, e0, node):
    if base == 0.0 and e0 < 0:
        raise DomainError("zero base with negative exponent", node)
    if type(e0) is not int and base < 0.0:
        raise DomainError("negative base with non-integer exponent", node)
    try:
        return base ** e0 if type(e0) is int else math.pow(base, e0)
    except (OverflowError, ValueError):
        raise DomainError("overflow in power", node) from None


def _scalar_fun(kind, a, node):
    if kind in ("cot", "csc"):
        s = math.sin(a)
        if s == 0.0:
            raise DomainError(f"{kind} at a pole", node)
        return math.cos(a) / s if kind == "cot" else 1.0 / s
    if kind == "sqrt" and a < 0.0:
        raise DomainError("sqrt of a negative", node)
    try:
        return getattr(math, kind)(a)
    except OverflowError:
        raise DomainError("overflow in function evaluation", node) from None


def _vector_step(op, payload, node, xs, point):
    if op == "rat":
        return payload
    if op == "var":
        return _bound(point, payload)
    if op == "add" or op == "mul":
        out = xs[0]
        if len(xs) > 1:
            out = out + xs[1] if op == "add" else out * xs[1]
            for v in xs[2:]:  # `out` is a scalar or an array this step made
                if type(out) is not np.ndarray or (type(v) is np.ndarray and v.shape != out.shape):
                    out = out + v if op == "add" else out * v
                elif op == "add":
                    out += v
                else:
                    out *= v
        return out
    if op == "div":
        return xs[0] / xs[1]
    if op == "pow":
        return np.power(xs[0], payload)
    if op == "cot":
        return np.cos(xs[0]) / np.sin(xs[0])
    if op == "csc":
        return 1.0 / np.sin(xs[0])
    return getattr(np, op)(xs[0])


def _compiled(e):
    """(tape, whether `e` is one expression rather than several roots)."""
    single = not isinstance(e, (Tape, tuple, list))
    return (e if isinstance(e, Tape) else Tape((e,) if single else e)), single


def evaluate(e, params=None, point=None):
    """Evaluate to a float.  Every variable must be bound in `point`.

    `e` is one expression (one float back), or a sequence of expressions
    or a compiled Tape (a list of floats back, one per root).  Domain
    violations (division by zero, sqrt of a negative, trig poles,
    overflow) raise DomainError carrying the offending subtree; a NaN
    never propagates out.  `params` is unused: trees embed their
    constants, and the slot stays for callers that pass `{}` before the
    point.
    """
    tape, single = _compiled(e)
    vals = tape.run(_scalar_step, point or {})
    return vals[0] if single else vals


def evaluate_many(e, params=None, point=None):
    """Vectorized evaluation over numpy arrays of variable values.

    `e` is taken as in `evaluate`; constant roots are broadcast to the
    points' shape.  Unlike `evaluate`, domain violations do not raise:
    they yield inf/NaN under suppressed numpy warnings, which callers
    screen with their own guards.  Unbound variables still raise.
    `params` is unused, as in `evaluate`.
    """
    tape, single = _compiled(e)
    point = {k: np.asarray(v, dtype=float) for k, v in (point or {}).items()}
    shape = np.broadcast_shapes(*(a.shape for a in point.values())) if point else ()
    with np.errstate(all="ignore"):
        vals = tape.run(_vector_step, point)
    out = [np.full(shape, float(v)) if np.ndim(v) == 0 else np.asarray(v, dtype=float)
           for v in vals]
    return out[0] if single else out


def to_prefix(e):
    """Plain-text prefix rendering, for debugging (not a stable format)."""
    parts = []

    def walk(node):
        if isinstance(node, Rational):
            parts.append(str(node.value))
        elif isinstance(node, Var):
            parts.append(node.name)
        elif isinstance(node, Add):
            parts.append("(+")
            for t in node.terms:
                parts.append(" ")
                walk(t)
            parts.append(")")
        elif isinstance(node, Mul):
            parts.append("(*")
            for f in node.factors:
                parts.append(" ")
                walk(f)
            parts.append(")")
        elif isinstance(node, Div):
            parts.append("(/ ")
            walk(node.num)
            parts.append(" ")
            walk(node.den)
            parts.append(")")
        elif isinstance(node, Pow):
            parts.append("(^ ")
            walk(node.base)
            e0 = node.exponent
            parts.append(f" {e0}" if isinstance(e0, Fraction) else f" {e0!r}")
            parts.append(")")
        else:
            parts.append(f"({node.kind} ")
            walk(node.arg)
            parts.append(")")

    walk(as_expr(e))
    return "".join(parts)
