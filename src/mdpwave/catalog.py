"""Authoritative registry of the closed-form traveling-wave families
u1..u23 plus the generic kink-profile form ("cole_hopf").

Each family is one row: its parameter signature, its table of (label,
predicate) admissibility checks, and a maker(params, root, xi) of its
profile and singularity locus, root = sign*sqrt(S).  Every family's sign in
lam = -(b + 1 - sign*sqrt(S))/2 and radicand k, S = discriminant(b, k), are
its `riccati.RADICALS` entry, read here by the S >= 0 checks, root, lam and
the wave-speed text, and by `pipeline`, `colehopf` and `rational_hyperbolic`
without the makers; u7..u10 check `rational_hyperbolic.FREE_RADICANDS`.
The `cole_hopf` row is the one statement of the kink admissibility rules
(`colehopf` checks through it), and the u3..u10 rows are the one statement
of the rational-hyperbolic rules (`rational_hyperbolic` checks through
them).  Every table is walked by `riccati.violations`.
Profiles are expressions in xi with all constants embedded exactly;
`build` builds the profile with xi = x + lam*t in place.
Internally lam always satisfies xi = x + lam*t, so the familiar
"x - c*t" phases correspond to c = -lam.

The u14/u15 profiles use the squared-cosecant form with doubled argument,
built exactly as displayed rather than through the phi-power ansatz; the
re-derivation pipeline's round trip checks the two routes agree.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

from . import expr as ex
from . import rational_hyperbolic as rh
from .errors import ConstraintViolation
from .riccati import (AG16, AG256, BASE_CHECKS, BETA4, BETA_CHECK, DELTA2, MU4,
                      MU_CHECK, RADICALS, S_LABEL, delta_of, discriminant, exact,
                      is_degenerate, radical, violations)

__all__ = [
    "family_ids", "list_families", "validate", "build", "build_wave",
    "profile", "wave_speed", "singular_denominator",
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
    maker: Callable  # maker(params, sign*sqrt(S), xi) -> (profile, guard)


# --- admissibility checks ----------------------------------------------------

def _s_check(radicand, when=lambda p: True):
    """S >= 0 for the radicand's S, tested only where `when` holds."""
    return (S_LABEL, lambda p: when(p) and discriminant(p["b"], radicand[0](p)) < 0)


_KINK = BASE_CHECKS + (MU_CHECK, _s_check(MU4))
# The frequency mu*lam must not vanish where every other row holds (b != -1,
# -2, mu != 0, branch = +-1, S >= 0).  There lam = 0 means branch*sqrt(S) =
# b + 1, and S = (b+1)^2 reduces to b(b+2)mu^4 = 0, so b = 0 and, as b + 1 >
# 0, branch = +1.  At b = 0, S = 1, so the row fails exactly at b = 0,
# branch = +1, mu != 0, with every other row holding.
_COLE_HOPF = BASE_CHECKS + (
    MU_CHECK, ("branch in {+1, -1}", lambda p: p["branch"] ** 2 != 1), _s_check(MU4),
    ("lambda != 0", lambda p: p["b"] == 0 and p["branch"] == 1 and p["mu"] != 0))
_U11 = BASE_CHECKS + (BETA_CHECK, ("beta^2 = 4*alpha*gamma", lambda p: p["beta"] != 0
                      and not is_degenerate(p["alpha"], p["beta"], p["gamma"])))
_EXP_PAIR = BASE_CHECKS + (BETA_CHECK, _s_check(BETA4))


def _trig(radicand):
    return BASE_CHECKS + (("alpha*gamma > 0", lambda p: p["alpha"] * p["gamma"] <= 0),
                          _s_check(radicand))


_TANH = BASE_CHECKS + (("Delta > 0", lambda p: delta_of(p) <= 0),
                       _s_check(DELTA2, when=lambda p: delta_of(p) > 0))


# --- kink-profile families (u1, u2, generic) -------------------------------

def _kink_maker(p, root, xi):
    b, mu = p["b"], p["mu"]
    background = ex.div(ex.add(ex.as_expr(2 * mu * mu - 1 + b * (mu * mu - 1)), root),
                        2 * (b + 1))
    phase = ex.add(ex.mul(mu, xi), ex.as_expr(p["delta"]))
    prof = ex.sub(background,
                  ex.div(ex.mul(6 * (b + 2), mu * mu),
                         ex.mul(2 * (b + 1), ex.add(1, ex.cosh(phase)))))
    return prof, ex.ONE


# --- phi-power families (u11..u23) -----------------------------------------

def _u11_maker(p, root, xi):
    b, beta = p["b"], p["beta"]
    guard = ex.pow_(ex.add(ex.mul(beta, xi), 2), 2)
    prof = ex.sub(ex.div(ex.mul(6 * (b + 2), beta * beta), ex.mul(b + 1, guard)), 1)
    return prof, guard


def _exp_pair_maker(p, root, xi):
    b, beta, gamma = p["b"], p["beta"], p["gamma"]
    const_num = ex.as_expr((b + 2) * beta * beta - b - 1)
    const = ex.div(ex.add(const_num, root), 2 * (b + 1))
    D = ex.sub(ex.mul(beta, ex.exp(ex.mul(-beta, xi))), ex.as_expr(gamma))
    tail = ex.mul(F(6) * (b + 2) * gamma * beta * beta / (b + 1),
                  ex.add(ex.div(1, D), ex.div(ex.as_expr(gamma), ex.pow_(D, 2))))
    return ex.add(const, tail), D


def _csc_maker(p, root, xi):
    b, ag = p["b"], p["alpha"] * p["gamma"]
    arg = ex.mul(2, ex.sym_sqrt(ag), xi)
    num = ex.add(ex.as_expr(-(b + 1) - 16 * ag * (b + 2)),
                 root,
                 ex.mul(48 * ag * (b + 2), ex.pow_(ex.csc(arg), 2)))
    return ex.div(num, 2 * (b + 1)), ex.div(1, ex.csc(arg))


def _tan_cot_maker(kind, p, root, xi):
    b, ag = p["b"], p["alpha"] * p["gamma"]
    arg = ex.mul(ex.sym_sqrt(ag), xi)
    trig = ex.cot(arg) if kind == "cot" else ex.tan(arg)
    num = ex.add(ex.as_expr(-(b + 1) + 8 * ag * (b + 2)),
                 root,
                 ex.mul(12 * ag * (b + 2), ex.pow_(trig, 2)))
    guard = ex.div(1, ex.csc(arg)) if kind == "cot" else ex.cot(arg)
    return ex.div(num, 2 * (b + 1)), guard


def _tanh_sq_maker(p, root, xi):
    b, delta = p["b"], delta_of(p)
    tval = ex.tanh(ex.mul(HALF, ex.sym_sqrt(delta), xi))
    const = ex.div(ex.add(ex.as_expr(-(2 * delta * (b + 2) + b + 1)), root),
                   2 * (b + 1))
    prof = ex.add(const,
                  ex.mul(F(3) * (b + 2) * delta / (2 * (b + 1)), ex.pow_(tval, 2)))
    return prof, ex.ONE


def _tanh_inv_maker(p, root, xi):
    b, alpha, beta, gamma = p["b"], p["alpha"], p["beta"], p["gamma"]
    ag = alpha * gamma
    delta = delta_of(p)
    rtd = ex.sym_sqrt(delta)
    tval = ex.tanh(ex.mul(HALF, rtd, xi))
    const = ex.div(ex.add(ex.as_expr((delta + 12 * ag) * (b + 2) - (b + 1)), root),
                   2 * (b + 1))
    pole = ex.add(ex.as_expr(beta), ex.mul(rtd, tval))
    num = ex.add(ex.as_expr(beta * beta - 2 * ag), ex.mul(beta, rtd, tval))
    tail = ex.mul(-12 * (b + 2) * ag,
                  ex.div(num, ex.mul(b + 1, ex.pow_(pole, 2))))
    return ex.add(const, tail), pole


# --- rational-hyperbolic families (u3..u10) ---------------------------------

def _rh_maker(fid, p, root, xi):
    params = rh.coefficients(fid, p["b"], a2=p.get("a2"), c2=p.get("c2"))
    guard = ex.ONE if params.c2 > 0 else rh.rh_denominator(params, xi)
    return rh.rh_ansatz(params, xi), guard


def _make_registry():
    fams = []

    def addf(fid, parameters, checks, maker, speed_doc=None, optional=()):
        if speed_doc is None:
            (_, text), sign = RADICALS[fid]
            root = {1: "- sqrt(S)", -1: "+ sqrt(S)"}.get(sign, "- branch*sqrt(S)")
            speed_doc = f"lambda = -(b + 1 {root})/2, {text}"
        fams.append(_Family(fid, tuple(parameters), dict(optional), tuple(checks),
                            speed_doc, maker))

    phase = {"delta": F(0)}
    for fid in ("u1", "u2"):
        addf(fid, ("b", "mu"), _KINK, _kink_maker, optional=phase)

    for fid in rh.FAMILY_IDS:
        parameters, checks = ("b",), BASE_CHECKS
        free = rh.FREE_PARAMETER.get(fid)
        if free:
            k, label = rh.FREE_RADICANDS[free]
            parameters, checks = ("b", free), checks + ((label, lambda p, k=k: k(p) < 0),)
        speed = "lambda = -b/2" + ("" if RADICALS[fid][1] == 1 else " - 1")
        addf(fid, parameters, checks, partial(_rh_maker, fid), speed_doc=speed)

    addf("u11", ("b", "alpha", "beta", "gamma"), _U11, _u11_maker,
         speed_doc="lambda = -b - 1")
    for fid in ("u12", "u13"):
        addf(fid, ("b", "beta", "gamma"), _EXP_PAIR, _exp_pair_maker)
    for fid in ("u14", "u15"):
        addf(fid, ("b", "alpha", "gamma"), _trig(AG256), _csc_maker)
    for fid, kind in (("u16", "cot"), ("u17", "tan"), ("u18", "cot"), ("u19", "tan")):
        addf(fid, ("b", "alpha", "gamma"), _trig(AG16), partial(_tan_cot_maker, kind))
    for fid, maker in (("u20", _tanh_sq_maker), ("u21", _tanh_sq_maker),
                       ("u22", _tanh_inv_maker), ("u23", _tanh_inv_maker)):
        addf(fid, ("b", "alpha", "beta", "gamma"), _TANH, maker)
    addf("cole_hopf", ("b", "mu", "branch"), _COLE_HOPF, _kink_maker, optional=phase)

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


def _norm_params(fid, params):
    """(the family's row, `params` as Fractions of Python ints with the
    defaults filled in)."""
    try:
        fam = _REGISTRY[fid]
    except KeyError:
        raise ValueError(f"unknown family {fid!r}") from None
    out = {}
    for k, v in params.items():
        if k not in fam.parameters and k not in fam.optional:
            raise ValueError(f"family {fam.fid} has no parameter {k!r}")
        try:
            out[k] = exact(v)
        except (OverflowError, ValueError):
            raise ValueError(f"family {fam.fid}: {k} = {v!r} is not a finite number") from None
    missing = [k for k in fam.parameters if k not in out]
    if missing:
        raise ValueError(f"family {fam.fid} missing parameter(s): {', '.join(missing)}")
    for k, dflt in fam.optional.items():
        out.setdefault(k, dflt)
    return fam, out


def validate(fid, params):
    """List of violated predicates, in table order; empty when admissible."""
    fam, p = _norm_params(fid, params)
    return violations(fam.checks, p)


def _made(fid, params, xt):
    """(profile, lam, guard) of admissible `params`, built with xi = x +
    lam*t in place when `xt`, else in the variable xi."""
    fam, p = _norm_params(fid, params)
    bad = violations(fam.checks, p)
    if bad:
        raise ConstraintViolation(bad)
    sign, S = radical(fam.fid, p)
    root = ex.mul(sign, ex.sym_sqrt(S))
    lam = ex.mul(-HALF, ex.sub(p["b"] + 1, root))
    prof, guard = fam.maker(p, root, ex.add(X, ex.mul(lam, T)) if xt else XI)
    return prof, lam, guard


def profile(fid, params):
    """The waveform as an expression in xi."""
    return _made(fid, params, False)[0]


def wave_speed(fid, params):
    """lam such that the waveform depends on (x, t) only through x + lam*t."""
    return float(ex.evaluate_many(_made(fid, params, False)[1], {}, {}))


def singular_denominator(fid, params):
    """Expression in xi whose zero set is the family's pole locus
    (the constant 1 for pole-free families/parameters)."""
    return _made(fid, params, False)[2]


def build(fid, params):
    """The waveform as an expression in (x, t), built with xi = x + lam*t."""
    return _made(fid, params, True)[0]


def build_guard_xt(fid, params):
    """The singular denominator in (x, t) coordinates, matching `build`."""
    return _made(fid, params, True)[2]


def build_wave(fid, params):
    """(`build`, `build_guard_xt`, `wave_speed`) from one check of `params`
    and one call of the family's maker, which builds u and the guard at one
    x + lam*t node."""
    prof, lam, guard = _made(fid, params, True)
    return prof, guard, float(ex.evaluate_many(lam, {}, {}))
