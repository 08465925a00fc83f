"""Authoritative registry of the closed-form traveling-wave families
u1..u23 plus the generic kink-profile form ("cole_hopf").

Every family records its parameter signature, one table of (label,
predicate) admissibility checks, wave speed, singularity locus, and a
builder.  Profiles are expressions in
xi with all constants embedded exactly; `build` expands xi = x + lam*t.
Internally lam always satisfies xi = x + lam*t, so the familiar
"x - c*t" phases correspond to c = -lam.

The u14/u15 profiles use the squared-cosecant form with doubled argument,
built exactly as displayed rather than through the phi-power ansatz; the
re-derivation pipeline's round trip checks the two routes agree.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import expr as ex
from . import rational_hyperbolic as rh
from .errors import ConstraintViolation
from .riccati import (BASE_CHECKS, MU_LABEL, S_LABEL, discriminant,
                      is_degenerate)

__all__ = [
    "family_ids", "list_families", "validate", "build", "profile",
    "wave_speed", "singular_denominator",
]

XI = ex.var("xi")
X = ex.var("x")
T = ex.var("t")

F = Fraction
HALF = F(1, 2)


@dataclass(frozen=True)
class _Family:
    fid: str
    parameters: tuple
    optional: dict
    checks: tuple  # (label, fails(params)) pairs, in report order
    speed_doc: str
    maker: Callable  # params -> (profile Expr in xi, lam Expr, guard Expr in xi)


# --- admissibility checks ----------------------------------------------------

_BASE = tuple((label, lambda p, excluded=excluded: p["b"] == excluded)
              for label, excluded in BASE_CHECKS)
_MU = (MU_LABEL, lambda p: p["mu"] == 0)
_BETA = ("beta != 0", lambda p: p["beta"] == 0)


def _s_check(k):
    """S >= 0 for S = discriminant(b, k(params))."""
    return (S_LABEL, lambda p: discriminant(p["b"], k(p)) < 0)


def _delta(p):
    return p["beta"] ** 2 - 4 * p["alpha"] * p["gamma"]


def _zero_speed(p):
    """lam = -(b + 1 - branch*sqrt(S))/2 vanishes: branch*sqrt(S) = b + 1."""
    b = p["b"]
    return discriminant(b, p["mu"] ** 4) == (b + 1) ** 2 and p["branch"] * (b + 1) > 0


_KINK = _BASE + (_MU, _s_check(lambda p: p["mu"] ** 4))
_COLE_HOPF = _BASE + (_MU, ("branch in {+1, -1}", lambda p: p["branch"] ** 2 != 1),
                      _s_check(lambda p: p["mu"] ** 4))
# the frequency mu*lam must not vanish, a side condition of the form that is
# checked only once every other check holds
_COLE_HOPF += (("lambda != 0", lambda p, rest=_COLE_HOPF:
                not any(fails(p) for _, fails in rest) and _zero_speed(p)),)
_U11 = _BASE + (_BETA, ("beta^2 = 4*alpha*gamma", lambda p: p["beta"] != 0
                        and not is_degenerate(p["alpha"], p["beta"], p["gamma"])))
_EXP_PAIR = _BASE + (_BETA, _s_check(lambda p: p["beta"] ** 4))


def _trig(coef):
    return _BASE + (("alpha*gamma > 0", lambda p: p["alpha"] * p["gamma"] <= 0),
                    _s_check(lambda p: coef * (p["alpha"] * p["gamma"]) ** 2))


_TANH = _BASE + (("Delta > 0", lambda p: _delta(p) <= 0),
                 (S_LABEL, lambda p: _delta(p) > 0 and discriminant(p["b"], _delta(p) ** 2) < 0))


def _radical(b, k, sign):
    """(sign*sqrt(S), lam) for S = discriminant(b, k), lam = -(b + 1 - sign*sqrt(S))/2."""
    root = ex.mul(sign, ex.sym_sqrt(discriminant(b, k)))
    return root, ex.mul(-HALF, ex.sub(b + 1, root))


# --- kink-profile families (u1, u2, generic) -------------------------------

def _kink_maker(p, sign):
    """sign +1: +sqrt(S) branch; sign -1: -sqrt(S) branch."""
    b, mu, delta = p["b"], p["mu"], p.get("delta", F(0))
    root, lam = _radical(b, mu ** 4, sign)
    background = ex.div(ex.add(ex.as_expr(2 * mu * mu - 1 + b * (mu * mu - 1)), root),
                        2 * (b + 1))
    phase = ex.add(ex.mul(mu, XI), ex.as_expr(delta))
    prof = ex.sub(background,
                  ex.div(ex.mul(6 * (b + 2), mu * mu),
                         ex.mul(2 * (b + 1), ex.add(1, ex.cosh(phase)))))
    return prof, lam, ex.ONE


# --- phi-power families (u11..u23) -----------------------------------------

def _u11_maker(p):
    b, beta = p["b"], p["beta"]
    den = ex.mul(b + 1, ex.pow_(ex.add(ex.mul(beta, XI), 2), 2))
    prof = ex.sub(ex.div(ex.mul(6 * (b + 2), beta * beta), den), 1)
    guard = ex.pow_(ex.add(ex.mul(beta, XI), 2), 2)
    return prof, ex.as_expr(-b - 1), guard


def _exp_pair_maker(p, sign):
    b, beta, gamma = p["b"], p["beta"], p["gamma"]
    root, lam = _radical(b, beta ** 4, sign)
    const_num = ex.as_expr((b + 2) * beta * beta - b - 1)
    const = ex.div(ex.add(const_num, root), 2 * (b + 1))
    D = ex.sub(ex.mul(beta, ex.exp(ex.mul(-beta, XI))), ex.as_expr(gamma))
    tail = ex.mul(F(6) * (b + 2) * gamma * beta * beta / (b + 1),
                  ex.add(ex.div(1, D), ex.div(ex.as_expr(gamma), ex.pow_(D, 2))))
    return ex.add(const, tail), lam, D


def _csc_maker(p, sign):
    b, ag = p["b"], p["alpha"] * p["gamma"]
    root, lam = _radical(b, 256 * ag * ag, sign)
    arg = ex.mul(2, ex.sym_sqrt(ag), XI)
    num = ex.add(ex.as_expr(-(b + 1) - 16 * ag * (b + 2)),
                 root,
                 ex.mul(48 * ag * (b + 2), ex.pow_(ex.csc(arg), 2)))
    return ex.div(num, 2 * (b + 1)), lam, ex.div(1, ex.csc(arg))


def _tan_cot_maker(p, sign, kind):
    b, ag = p["b"], p["alpha"] * p["gamma"]
    root, lam = _radical(b, 16 * ag * ag, sign)
    arg = ex.mul(ex.sym_sqrt(ag), XI)
    trig = ex.cot(arg) if kind == "cot" else ex.tan(arg)
    num = ex.add(ex.as_expr(-(b + 1) + 8 * ag * (b + 2)),
                 root,
                 ex.mul(12 * ag * (b + 2), ex.pow_(trig, 2)))
    guard = ex.div(1, ex.csc(arg)) if kind == "cot" else ex.cot(arg)
    return ex.div(num, 2 * (b + 1)), lam, guard


def _tanh_sq_maker(p, sign):
    b = p["b"]
    delta = _delta(p)
    root, lam = _radical(b, delta ** 2, sign)
    tval = ex.tanh(ex.mul(HALF, ex.sym_sqrt(delta), XI))
    const = ex.div(ex.add(ex.as_expr(-(2 * delta * (b + 2) + b + 1)), root),
                   2 * (b + 1))
    prof = ex.add(const,
                  ex.mul(F(3) * (b + 2) * delta / (2 * (b + 1)), ex.pow_(tval, 2)))
    return prof, lam, ex.ONE


def _tanh_inv_maker(p, sign):
    b, alpha, beta, gamma = p["b"], p["alpha"], p["beta"], p["gamma"]
    ag = alpha * gamma
    delta = _delta(p)
    root, lam = _radical(b, delta ** 2, sign)
    rtd = ex.sym_sqrt(delta)
    tval = ex.tanh(ex.mul(HALF, rtd, XI))
    const = ex.div(ex.add(ex.as_expr((delta + 12 * ag) * (b + 2) - (b + 1)), root),
                   2 * (b + 1))
    pole = ex.add(ex.as_expr(beta), ex.mul(rtd, tval))
    num = ex.add(ex.as_expr(beta * beta - 2 * ag), ex.mul(beta, rtd, tval))
    tail = ex.mul(-12 * (b + 2) * ag,
                  ex.div(num, ex.mul(b + 1, ex.pow_(pole, 2))))
    return ex.add(const, tail), lam, pole


# --- rational-hyperbolic families (u3..u10) ---------------------------------

def _rh_checks(fid):
    if fid not in rh.FREE_PARAMETER:
        return _BASE
    name, label, fails = rh.FREE_PARAMETER[fid]
    return _BASE + ((label, lambda p: fails(p["b"], p[name])),)


def _rh_maker(p, fid):
    params = rh.family_params(fid, p["b"], a2=p.get("a2"), c2=p.get("c2"))
    prof = rh.rh_ansatz(params)
    lam = ex.as_expr(params.lam)
    guard = ex.ONE if params.c2 > 0 else rh.rh_denominator(params)
    return prof, lam, guard


def _make_registry():
    fams = []

    def addf(fid, parameters, optional, checks, speed_doc, maker):
        fams.append(_Family(fid, tuple(parameters), dict(optional),
                            tuple(checks), speed_doc, maker))

    addf("u1", ("b", "mu"), {"delta": F(0)}, _KINK,
         "lambda = -(b + 1 - sqrt(S))/2, S = 1 - b(b+2)(mu^4 - 1)",
         lambda p: _kink_maker(p, +1))
    addf("u2", ("b", "mu"), {"delta": F(0)}, _KINK,
         "lambda = -(b + 1 + sqrt(S))/2, S = 1 - b(b+2)(mu^4 - 1)",
         lambda p: _kink_maker(p, -1))

    for fid in rh.FAMILY_IDS:
        parameters = ("b",) + rh.FREE_PARAMETER.get(fid, ())[:1]
        speed = ("lambda = -b/2" if fid in ("u3", "u4", "u7", "u8")
                 else "lambda = -b/2 - 1")
        addf(fid, parameters, {}, _rh_checks(fid), speed,
             (lambda f: lambda p: _rh_maker(p, f))(fid))

    addf("u11", ("b", "alpha", "beta", "gamma"), {}, _U11,
         "lambda = -b - 1", _u11_maker)
    addf("u12", ("b", "beta", "gamma"), {}, _EXP_PAIR,
         "lambda = -(b + 1 + sqrt(S))/2, S = 1 - b(b+2)(beta^4 - 1)",
         lambda p: _exp_pair_maker(p, -1))
    addf("u13", ("b", "beta", "gamma"), {}, _EXP_PAIR,
         "lambda = -(b + 1 - sqrt(S))/2, S = 1 - b(b+2)(beta^4 - 1)",
         lambda p: _exp_pair_maker(p, +1))
    addf("u14", ("b", "alpha", "gamma"), {}, _trig(256),
         "lambda = -(b + 1 + sqrt(S))/2, S = b(b+2)(1 - 256(alpha*gamma)^2) + 1",
         lambda p: _csc_maker(p, -1))
    addf("u15", ("b", "alpha", "gamma"), {}, _trig(256),
         "lambda = -(b + 1 - sqrt(S))/2, S = b(b+2)(1 - 256(alpha*gamma)^2) + 1",
         lambda p: _csc_maker(p, +1))
    addf("u16", ("b", "alpha", "gamma"), {}, _trig(16),
         "lambda = -(b + 1 + sqrt(S))/2, S = b(b+2)(1 - 16(alpha*gamma)^2) + 1",
         lambda p: _tan_cot_maker(p, -1, "cot"))
    addf("u17", ("b", "alpha", "gamma"), {}, _trig(16),
         "lambda = -(b + 1 + sqrt(S))/2, S = b(b+2)(1 - 16(alpha*gamma)^2) + 1",
         lambda p: _tan_cot_maker(p, -1, "tan"))
    addf("u18", ("b", "alpha", "gamma"), {}, _trig(16),
         "lambda = -(b + 1 - sqrt(S))/2, S = b(b+2)(1 - 16(alpha*gamma)^2) + 1",
         lambda p: _tan_cot_maker(p, +1, "cot"))
    addf("u19", ("b", "alpha", "gamma"), {}, _trig(16),
         "lambda = -(b + 1 - sqrt(S))/2, S = b(b+2)(1 - 16(alpha*gamma)^2) + 1",
         lambda p: _tan_cot_maker(p, +1, "tan"))
    addf("u20", ("b", "alpha", "beta", "gamma"), {}, _TANH,
         "lambda = -(b + 1 + sqrt(S))/2, S = 1 - b(b+2)(Delta^2 - 1)",
         lambda p: _tanh_sq_maker(p, -1))
    addf("u21", ("b", "alpha", "beta", "gamma"), {}, _TANH,
         "lambda = -(b + 1 - sqrt(S))/2, S = 1 - b(b+2)(Delta^2 - 1)",
         lambda p: _tanh_sq_maker(p, +1))
    addf("u22", ("b", "alpha", "beta", "gamma"), {}, _TANH,
         "lambda = -(b + 1 - sqrt(S))/2, S = 1 - b(b+2)(Delta^2 - 1)",
         lambda p: _tanh_inv_maker(p, +1))
    addf("u23", ("b", "alpha", "beta", "gamma"), {}, _TANH,
         "lambda = -(b + 1 + sqrt(S))/2, S = 1 - b(b+2)(Delta^2 - 1)",
         lambda p: _tanh_inv_maker(p, -1))
    addf("cole_hopf", ("b", "mu", "branch"), {"delta": F(0)}, _COLE_HOPF,
         "lambda = -(b + 1 - branch*sqrt(S))/2, S = 1 - b(b+2)(mu^4 - 1)",
         lambda p: _kink_maker(p, +1 if p["branch"] > 0 else -1))

    return {f.fid: f for f in fams}


_REGISTRY = _make_registry()


def family_ids():
    return tuple(_REGISTRY)


def list_families():
    """Metadata for every family: id, parameters, constraints, wave speed."""
    return [
        {
            "id": f.fid,
            "parameters": list(f.parameters),
            "optional": {k: str(v) for k, v in f.optional.items()},
            "constraints": [label for label, _ in f.checks],
            "wave_speed": f.speed_doc,
        }
        for f in _REGISTRY.values()
    ]


def _norm_params(fam, params):
    out = {}
    for k, v in params.items():
        if k not in fam.parameters and k not in fam.optional:
            raise ValueError(f"family {fam.fid} has no parameter {k!r}")
        out[k] = Fraction(v)
    missing = [k for k in fam.parameters if k not in out]
    if missing:
        raise ValueError(f"family {fam.fid} missing parameter(s): {', '.join(missing)}")
    for k, dflt in fam.optional.items():
        out.setdefault(k, dflt)
    return out


def _get(fid):
    try:
        return _REGISTRY[fid]
    except KeyError:
        raise ValueError(f"unknown family {fid!r}") from None


def _violations(fam, p):
    return [label for label, fails in fam.checks if fails(p)]


def validate(fid, params):
    """List of violated predicates, in table order; empty when admissible."""
    fam = _get(fid)
    return _violations(fam, _norm_params(fam, params))


def _checked(fid, params):
    fam = _get(fid)
    p = _norm_params(fam, params)
    bad = _violations(fam, p)
    if bad:
        raise ConstraintViolation(bad)
    return fam, p


def profile(fid, params):
    """The waveform as an expression in xi."""
    fam, p = _checked(fid, params)
    return fam.maker(p)[0]


def wave_speed(fid, params):
    """lam such that the waveform depends on (x, t) only through x + lam*t."""
    fam, p = _checked(fid, params)
    return float(ex.evaluate_many(fam.maker(p)[1], {}, {}))


def singular_denominator(fid, params):
    """Expression in xi whose zero set is the family's pole locus
    (the constant 1 for pole-free families/parameters)."""
    fam, p = _checked(fid, params)
    return fam.maker(p)[2]


def build(fid, params):
    """The waveform as an expression in (x, t), xi expanded to x + lam*t."""
    fam, p = _checked(fid, params)
    prof, lam, _ = fam.maker(p)
    return ex.substitute(prof, XI, ex.add(X, ex.mul(lam, T)))


def build_guard_xt(fid, params):
    """The singular denominator in (x, t) coordinates, matching `build`."""
    fam, p = _checked(fid, params)
    _, lam, guard = fam.maker(p)
    return ex.substitute(guard, XI, ex.add(X, ex.mul(lam, T)))
