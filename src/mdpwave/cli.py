"""Command-line surface: catalog listing, grid verification, closed-form
inspection, the re-derivation pipeline, pointwise equivalence checks, and
plot-data export.

Exit codes: 0 pass, 1 fail, 2 invalid input (bad flags, unknown ids,
constraint violations), 3 internal error.  Every report echoes its full
effective configuration, and identical configurations (including RNG
seeds) produce byte-identical output.
"""
from __future__ import annotations

import argparse
import sys
from fractions import Fraction

import numpy as np

from . import catalog, colehopf, pipeline, report
from . import expr as ex
from . import rational_hyperbolic as rh
from . import riccati as ric
from . import verifier
from .errors import (AllPointsSkipped, ConstraintViolation, DomainError,
                     InvalidParams, MdpWaveError, SampleAtPole,
                     UnboundSymbol, UnclassifiableCoefficients,
                     UnsupportedOrder)

__all__ = ["main"]

SIX_SYSTEM_TOL = 1e-9
EQUIV_DEFAULT_TOL = 1e-10


def _parse_value(text):
    try:
        return Fraction(text)
    except ValueError:
        return float(text)


def _parse_params(pairs):
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise ValueError(f"--param expects name=value, got {item!r}")
        name, _, value = item.partition("=")
        out[name.strip()] = _parse_value(value.strip())
    return out


def _params_echo(params):
    return {k: v for k, v in params.items()}


def _emit(doc, out_path):
    text = report.dumps(doc)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _grid_from_args(args):
    return verifier.GridSpec(
        x_min=args.x_min, x_max=args.x_max, nx=args.nx,
        t_min=args.t_min, t_max=args.t_max, nt=args.nt,
        eps_den=args.eps_den,
    )


def _add_grid_args(p):
    p.add_argument("--x-min", type=float, default=-10.0)
    p.add_argument("--x-max", type=float, default=10.0)
    p.add_argument("--nx", type=int, default=101)
    p.add_argument("--t-min", type=float, default=0.0)
    p.add_argument("--t-max", type=float, default=2.0)
    p.add_argument("--nt", type=int, default=11)
    p.add_argument("--eps-den", type=float, default=1e-3)


def _add_param_arg(p):
    p.add_argument("--param", action="append", default=[], metavar="NAME=VALUE",
                   help="repeatable parameter binding")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="mdpwave",
        description="traveling-wave solution catalog and verification toolkit "
                    "for the modified generalized Degasperis-Procesi equation",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_cat = subs.add_parser("catalog", help="catalog metadata")
    cat_subs = p_cat.add_subparsers(dest="action", required=True)
    p_list = cat_subs.add_parser("list", help="emit the family catalog as JSON")
    p_list.add_argument("--out")

    p_verify = subs.add_parser("verify", help="grid-verify one family")
    p_verify.add_argument("--family", required=True)
    _add_param_arg(p_verify)
    _add_grid_args(p_verify)
    p_verify.add_argument("--tol", type=float, default=None)
    p_verify.add_argument("--method", choices=["symbolic", "finite-difference"],
                          default="symbolic")
    p_verify.add_argument("--out")

    p_ric = subs.add_parser("riccati", help="classify a coefficient triple")
    _add_param_arg(p_ric)
    p_ric.add_argument("--samples", type=int, default=200)
    p_ric.add_argument("--out")

    p_ch = subs.add_parser("cole-hopf", help="solved branch + six-equation check")
    p_ch.add_argument("--branch", choices=["plus", "minus"], required=True)
    _add_param_arg(p_ch)
    _add_grid_args(p_ch)
    p_ch.add_argument("--out")

    p_rh = subs.add_parser("rh", help="rational-hyperbolic family + collocation")
    p_rh.add_argument("--family", required=True, choices=list(rh.FAMILY_IDS))
    _add_param_arg(p_rh)
    p_rh.add_argument("--out")

    p_pipe = subs.add_parser("pipeline", help="phi-power re-derivation pipeline")
    pipe_subs = p_pipe.add_subparsers(dest="action", required=True)
    p_gen = pipe_subs.add_parser("generate", help="emit the coefficient system")
    p_gen.add_argument("--out")
    p_check = pipe_subs.add_parser("check", help="check the solved tuples of a case")
    p_check.add_argument("--case", required=True, choices=sorted(pipeline.CASE_FAMILIES))
    _add_param_arg(p_check)
    p_check.add_argument("--out")
    p_solve = pipe_subs.add_parser("solve", help="multistart numeric root search")
    _add_param_arg(p_solve)
    p_solve.add_argument("--seeds", type=int, default=400)
    p_solve.add_argument("--rng-seed", type=int, default=0)
    p_solve.add_argument("--out")

    p_eq = subs.add_parser("equiv", help="pointwise comparison of two families")
    p_eq.add_argument("--left", required=True)
    p_eq.add_argument("--left-param", action="append", default=[], metavar="NAME=VALUE")
    p_eq.add_argument("--right", required=True)
    p_eq.add_argument("--right-param", action="append", default=[], metavar="NAME=VALUE")
    p_eq.add_argument("--points", type=int, default=100)
    p_eq.add_argument("--tol", type=float, default=EQUIV_DEFAULT_TOL)
    p_eq.add_argument("--seed", type=int, default=0)
    p_eq.add_argument("--out")

    p_plot = subs.add_parser("plot-data", help="CSV profile at fixed t")
    p_plot.add_argument("--family", required=True)
    _add_param_arg(p_plot)
    p_plot.add_argument("--t", type=float, required=True)
    p_plot.add_argument("--x-min", type=float, default=-10.0)
    p_plot.add_argument("--x-max", type=float, default=10.0)
    p_plot.add_argument("--nx", type=int, default=101)
    p_plot.add_argument("--eps-den", type=float, default=1e-3)
    p_plot.add_argument("--out")

    return parser


def _cmd_catalog_list(args):
    doc = {
        "config": {"command": "catalog list"},
        "count": len(catalog.family_ids()),
        "families": catalog.list_families(),
    }
    _emit(doc, args.out)
    return 0


def _cmd_verify(args):
    params = _parse_params(args.param)
    grid = _grid_from_args(args)
    bad = catalog.validate(args.family, params)
    if bad:
        raise ConstraintViolation(bad)
    u = catalog.build(args.family, params)
    guard = catalog.build_guard_xt(args.family, params)
    rep = verifier.verify_on_grid(u, params["b"], grid=grid, tol=args.tol,
                                  guard=guard, method=args.method)
    doc = {
        "config": {
            "command": "verify", "family": args.family,
            "params": _params_echo(params), "grid": grid.to_dict(),
            "tol": rep.tolerance, "method": args.method,
        },
        "family": args.family,
        "wave_speed": catalog.wave_speed(args.family, params),
        "report": rep.to_dict(),
    }
    _emit(doc, args.out)
    return 0 if rep.passed else 1


def _cmd_riccati(args):
    params = _parse_params(args.param)
    for name in ("alpha", "beta", "gamma"):
        if name not in params:
            raise ValueError(f"riccati requires --param {name}=...")
    c = ric.RiccatiCoefficients(float(params["alpha"]), float(params["beta"]),
                                float(params["gamma"]))
    case = ric.riccati_case(c)
    res = ric.riccati_residual(case.phi, c)
    guard = ric.pole_guard(c)
    xs = np.linspace(-3.0, 3.0, args.samples)
    gv = ex.evaluate_many(guard, {}, {"xi": xs})
    keep = np.abs(gv) > 1e-6
    rv = ex.evaluate_many(res, {}, {"xi": xs[keep]})
    rv = rv[np.isfinite(rv)]
    max_res = float(np.max(np.abs(rv))) if rv.size else 0.0
    doc = {
        "config": {"command": "riccati", "params": _params_echo(params),
                   "samples": args.samples},
        "case": case.case_id,
        "delta": c.delta,
        "phi": ex.to_prefix(case.phi),
        "max_residual": max_res,
        "residual_samples": int(rv.size),
    }
    _emit(doc, args.out)
    return 0


def _cmd_cole_hopf(args):
    params = _parse_params(args.param)
    for name in ("b", "mu"):
        if name not in params:
            raise ValueError(f"cole-hopf requires --param {name}=...")
    b, mu = params["b"], params["mu"]
    delta = params.get("delta", 0)
    A, B, lam = colehopf.branch_params(args.branch, b, mu)
    p = colehopf.ColeHopfParams(A, B, float(mu), lam, float(delta))
    residuals = colehopf.system_residuals(p, b)
    six_ok = all(abs(float(r)) < SIX_SYSTEM_TOL for r in residuals)
    u = colehopf.cole_hopf_u(p)
    grid = _grid_from_args(args)
    rep = verifier.verify_on_grid(u, b, grid=grid)
    doc = {
        "config": {"command": "cole-hopf", "branch": args.branch,
                   "params": _params_echo(params), "grid": grid.to_dict()},
        "branch": args.branch,
        "A": float(A), "B": float(B), "lambda": float(lam),
        "system_residuals": [float(r) for r in residuals],
        "system_pass": six_ok,
        "report": rep.to_dict(),
    }
    _emit(doc, args.out)
    return 0 if (six_ok and rep.passed) else 1


def _cmd_rh(args):
    params = _parse_params(args.param)
    if "b" not in params:
        raise ValueError("rh requires --param b=...")
    fam_params = rh.family_params(args.family, params["b"],
                                  a2=params.get("a2"), c2=params.get("c2"))
    u = rh.rh_ansatz(fam_params)
    rep = rh.collocation_identity_check(u, params["b"], fam_params.lam,
                                        denominator=rh.rh_denominator(fam_params))
    doc = {
        "config": {"command": "rh", "family": args.family,
                   "params": _params_echo(params)},
        "family": args.family,
        "coefficients": {
            "lam": float(fam_params.lam), "a0": float(fam_params.a0),
            "a1": float(fam_params.a1), "a2": float(fam_params.a2),
            "c1": float(fam_params.c1), "c2": float(fam_params.c2),
        },
        "collocation": {
            "passed": rep.passed,
            "points": list(rep.points),
            "residuals": list(rep.residuals),
            "scale": rep.scale,
            "threshold": rep.threshold,
        },
    }
    _emit(doc, args.out)
    return 0 if rep.passed else 1


def _cmd_pipeline_generate(args):
    system = pipeline.generate_system()
    doc = {
        "config": {"command": "pipeline generate"},
        "system": system.to_json_dict(),
    }
    _emit(doc, args.out)
    return 0


def _cmd_pipeline_check(args):
    params = _parse_params(args.param)
    for name in ("b", "alpha", "beta", "gamma"):
        if name not in params:
            raise ValueError(f"pipeline check requires --param {name}=...")
    system = pipeline.generate_system()
    entries = []
    all_ok = True
    for fid in pipeline.CASE_FAMILIES[args.case]:
        vals = pipeline.ansatz_tuple(fid, params["alpha"], params["beta"],
                                     params["gamma"], params["b"])
        bindings = dict(vals)
        for name in ("alpha", "beta", "gamma", "b"):
            bindings[name] = Fraction(params[name])
        residuals = pipeline.check_assignment(system, bindings)
        exact = all(isinstance(r, Fraction) for r in residuals)
        ok = (all(r == 0 for r in residuals) if exact
              else all(abs(float(r)) < SIX_SYSTEM_TOL for r in residuals))
        all_ok &= ok
        entries.append({
            "family": fid,
            "tuple": {k: vals[k] for k in pipeline.UNKNOWNS},
            "exact": exact,
            "residuals": residuals,
            "pass": ok,
        })
    doc = {
        "config": {"command": "pipeline check", "case": args.case,
                   "params": _params_echo(params)},
        "case": args.case,
        "tuples": entries,
    }
    _emit(doc, args.out)
    return 0 if all_ok else 1


def _cmd_pipeline_solve(args):
    params = _parse_params(args.param)
    for name in ("b", "alpha", "beta", "gamma"):
        if name not in params:
            raise ValueError(f"pipeline solve requires --param {name}=...")
    system = pipeline.generate_system()
    fixed = {k: params[k] for k in ("alpha", "beta", "gamma", "b")}
    roots = pipeline.newton_solve(system, fixed, seeds=args.seeds,
                                  rng_seed=args.rng_seed)
    doc = {
        "config": {"command": "pipeline solve", "params": _params_echo(params),
                   "seeds": args.seeds, "rng_seed": args.rng_seed},
        "unknowns": list(pipeline.UNKNOWNS),
        "root_count": len(roots),
        "roots": [list(r) for r in roots],
    }
    _emit(doc, args.out)
    return 0


def _sample_points(fids, param_sets, n, seed):
    """Deterministic (x, t) samples where every side is regular."""
    rng = np.random.default_rng(seed)
    guards = [catalog.build_guard_xt(f, p) for f, p in zip(fids, param_sets)]
    builds = [catalog.build(f, p) for f, p in zip(fids, param_sets)]
    tape = ex.Tape(guards + builds)
    xs_out, ts_out = [], []
    for _ in range(50):
        need = n - len(xs_out)
        if need <= 0:
            break
        xs = rng.uniform(-5.0, 5.0, size=4 * need)
        ts = rng.uniform(0.0, 2.0, size=4 * need)
        vals = ex.evaluate_many(tape, {}, {"x": xs, "t": ts})
        ok = np.ones(xs.shape, dtype=bool)
        for gv in vals[:len(guards)]:
            ok &= np.abs(gv) >= 1e-3
        for uv in vals[len(guards):]:
            ok &= np.isfinite(uv)
        xs_out.extend(xs[ok][:need])
        ts_out.extend(ts[ok][:need])
    if len(xs_out) < n:
        raise ValueError("could not find enough regular sample points")
    return np.array(xs_out), np.array(ts_out)


def _cmd_equiv(args):
    left_params = _parse_params(args.left_param)
    right_params = _parse_params(args.right_param)
    for fid, p in ((args.left, left_params), (args.right, right_params)):
        bad = catalog.validate(fid, p)
        if bad:
            raise ConstraintViolation([f"{fid}: {v}" for v in bad])
    xs, ts = _sample_points([args.left, args.right],
                            [left_params, right_params], args.points, args.seed)
    lv, rv = ex.evaluate_many([catalog.build(args.left, left_params),
                               catalog.build(args.right, right_params)], {}, {"x": xs, "t": ts})
    max_diff = float(np.max(np.abs(lv - rv)))
    passed = bool(max_diff < args.tol)
    doc = {
        "config": {"command": "equiv", "left": args.left,
                   "left_params": _params_echo(left_params),
                   "right": args.right,
                   "right_params": _params_echo(right_params),
                   "points": args.points, "tol": args.tol, "seed": args.seed},
        "max_abs_difference": max_diff,
        "points_compared": int(xs.size),
        "passed": passed,
    }
    _emit(doc, args.out)
    return 0 if passed else 1


def _cmd_plot_data(args):
    params = _parse_params(args.param)
    bad = catalog.validate(args.family, params)
    if bad:
        raise ConstraintViolation(bad)
    u = catalog.build(args.family, params)
    guard = catalog.build_guard_xt(args.family, params)
    xs = np.linspace(args.x_min, args.x_max, args.nx)
    ts = np.full(xs.shape, args.t)
    uv, gv = ex.evaluate_many([u, guard], {}, {"x": xs, "t": ts})
    ok = (np.abs(gv) >= args.eps_den) & np.isfinite(uv)
    lines = ["x,u"]
    for i in range(xs.size):
        xcell = format(float(xs[i]), ".17g")
        ucell = format(float(uv[i]), ".17g") if ok[i] else ""
        lines.append(f"{xcell},{ucell}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _dispatch(args):
    if args.command == "catalog":
        return _cmd_catalog_list(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "riccati":
        return _cmd_riccati(args)
    if args.command == "cole-hopf":
        return _cmd_cole_hopf(args)
    if args.command == "rh":
        return _cmd_rh(args)
    if args.command == "pipeline":
        if args.action == "generate":
            return _cmd_pipeline_generate(args)
        if args.action == "check":
            return _cmd_pipeline_check(args)
        return _cmd_pipeline_solve(args)
    if args.command == "equiv":
        return _cmd_equiv(args)
    return _cmd_plot_data(args)


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ConstraintViolation as err:
        _emit({"error": "constraint-violation", "violations": err.violations},
              getattr(args, "out", None))
        return 2
    except (ValueError, KeyError, UnboundSymbol, DomainError, InvalidParams,
            UnclassifiableCoefficients, UnsupportedOrder, SampleAtPole,
            AllPointsSkipped) as err:
        _emit({"error": "invalid-input", "message": str(err)},
              getattr(args, "out", None))
        return 2
    except MdpWaveError as err:  # pragma: no cover
        _emit({"error": "internal", "message": str(err)}, getattr(args, "out", None))
        return 3
    except Exception as err:  # pragma: no cover
        _emit({"error": "internal", "message": f"{type(err).__name__}: {err}"},
              getattr(args, "out", None))
        return 3


if __name__ == "__main__":
    sys.exit(main())
