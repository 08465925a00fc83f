"""Command-line surface: catalog listing, grid verification, closed-form
inspection, the re-derivation pipeline, pointwise equivalence checks, and
plot-data export.

Each subcommand's parser carries its handler (`run`), so `main` has one
path into every command and one out of it; it gets only the arguments,
and imports only the modules, of the command it runs.  `--param
NAME=VALUE` values are exact rationals: decimals (`0.25`, `1e-3`) or
`n/d` fractions, never infinities or NaN.  Catalog families check
parameter names against their signature; every other command rejects a
name it does not take.  A name is bound at most once.

Exit codes: 0 pass, 1 fail, 2 invalid input (bad flags, unknown ids or
parameter names, non-exact values, constraint violations, values beyond
the float range), 3 internal error.  Every report echoes its full
effective configuration, and identical configurations (including RNG
seeds) produce byte-identical output.
"""
from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

from .errors import ConstraintViolation, MdpWaveError

__all__ = ["main"]

SIX_SYSTEM_TOL = 1e-9
EQUIV_DEFAULT_TOL = 1e-10


def _params(pairs, command=None, required=(), optional=(), flag="--param"):
    """`--param NAME=VALUE` pairs as exact Fractions, in the order given;
    messages name `flag`, the option the pairs were read from.

    A command outside the catalog names itself and the parameters it
    takes: each `required` name must be bound, and nothing outside
    `required` and `optional` may be.
    """
    out = {}
    for item in pairs:
        name, eq, value = item.partition("=")
        if not eq:
            raise ValueError(f"{flag} expects name=value, got {item!r}")
        name, value = name.strip(), value.strip()
        if name in out:
            raise ValueError(f"parameter {name!r} is given more than once")
        try:
            out[name] = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"{flag} {name}={value} is not an exact number "
                             "(a decimal or n/d)") from None
    if command:
        for name in out:
            if name not in required and name not in optional:
                raise ValueError(f"{command} has no parameter {name!r}")
        for name in required:
            if name not in out:
                raise ValueError(f"{command} requires {flag} {name}=...")
    return out


def _check_tol(tol):
    """`--tol` is None (the command's default) or finite and > 0."""
    if tol is not None and not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"--tol must be finite and > 0, got {tol}")


def _write(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(doc, out_path):
    from . import report
    _write(report.dumps(doc), out_path)


def _grid_from_args(args):
    import dataclasses
    from .verifier import GridSpec
    return GridSpec(*(getattr(args, f.name) for f in dataclasses.fields(GridSpec)))


def _add_grid_args(p):
    import dataclasses
    from .verifier import GridSpec
    for f in dataclasses.fields(GridSpec):
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                       default=f.default)


def _add_param_arg(p):
    p.add_argument("--param", action="append", default=[], metavar="NAME=VALUE",
                   help="repeatable parameter binding")


def _build_parser(argv):
    """Every command's name and help, but the arguments of only the one `argv` names."""
    parser = argparse.ArgumentParser(
        prog="mdpwave",
        description="traveling-wave solution catalog and verification toolkit "
                    "for the modified generalized Degasperis-Procesi equation",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    words = [w for w in argv if not w.startswith("-")]  # options before a command take no value

    def command(group, name, run, help):
        p = group.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--out")
        path = p.prog.split()[1:]  # ["pipeline", "check"] for "mdpwave pipeline check"
        return p if words[:len(path)] == path else None

    p_cat = subs.add_parser("catalog", help="catalog metadata")
    cat_subs = p_cat.add_subparsers(dest="action", required=True)
    command(cat_subs, "list", _cmd_catalog_list, "emit the family catalog as JSON")

    if p := command(subs, "verify", _cmd_verify, "grid-verify one family"):
        p.add_argument("--family", required=True)
        _add_param_arg(p)
        _add_grid_args(p)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--method", choices=["symbolic", "finite-difference"],
                       default="symbolic")

    if p := command(subs, "riccati", _cmd_riccati, "classify a coefficient triple"):
        _add_param_arg(p)
        p.add_argument("--samples", type=int, default=200)

    if p := command(subs, "cole-hopf", _cmd_cole_hopf, "solved branch + six-equation check"):
        p.add_argument("--branch", choices=["plus", "minus"], required=True)
        _add_param_arg(p)
        _add_grid_args(p)

    if p := command(subs, "rh", _cmd_rh, "rational-hyperbolic family + collocation"):
        from .rational_hyperbolic import FAMILY_IDS
        p.add_argument("--family", required=True, choices=list(FAMILY_IDS))
        _add_param_arg(p)

    p_pipe = subs.add_parser("pipeline", help="phi-power re-derivation pipeline")
    pipe_subs = p_pipe.add_subparsers(dest="action", required=True)
    command(pipe_subs, "generate", _cmd_pipeline_generate, "emit the coefficient system")
    if p := command(pipe_subs, "check", _cmd_pipeline_check, "check the solved tuples of a case"):
        from .pipeline import CASE_FAMILIES
        p.add_argument("--case", required=True, choices=sorted(CASE_FAMILIES))
        _add_param_arg(p)
    if p := command(pipe_subs, "solve", _cmd_pipeline_solve, "multistart numeric root search"):
        _add_param_arg(p)
        p.add_argument("--seeds", type=int, default=400)
        p.add_argument("--rng-seed", type=int, default=0)

    if p := command(subs, "equiv", _cmd_equiv, "pointwise comparison of two families"):
        p.add_argument("--left", required=True)
        p.add_argument("--left-param", action="append", default=[], metavar="NAME=VALUE")
        p.add_argument("--right", required=True)
        p.add_argument("--right-param", action="append", default=[], metavar="NAME=VALUE")
        p.add_argument("--points", type=int, default=100)
        p.add_argument("--tol", type=float, default=EQUIV_DEFAULT_TOL)
        p.add_argument("--seed", type=int, default=0)

    if p := command(subs, "plot-data", _cmd_plot_data, "CSV profile at fixed t"):
        p.add_argument("--family", required=True)
        _add_param_arg(p)
        p.add_argument("--t", type=float, required=True)
        p.add_argument("--x-min", type=float, default=-10.0)
        p.add_argument("--x-max", type=float, default=10.0)
        p.add_argument("--nx", type=int, default=101)
        p.add_argument("--eps-den", type=float, default=1e-3)

    return parser


def _cmd_catalog_list(args):
    from . import catalog
    doc = {
        "config": {"command": "catalog list"},
        "count": len(catalog.family_ids()),
        "families": catalog.list_families(),
    }
    _emit(doc, args.out)
    return 0


def _cmd_verify(args):
    from . import catalog, verifier
    params = _params(args.param)
    grid = _grid_from_args(args)
    _check_tol(args.tol)
    u, guard, lam = catalog.build_wave(args.family, params)
    rep = verifier.verify_on_grid(u, params["b"], grid=grid, tol=args.tol,
                                  guard=guard, method=args.method)
    doc = {
        "config": {
            "command": "verify", "family": args.family,
            "params": params, "grid": grid.to_dict(),
            "tol": rep.tolerance, "method": args.method,
        },
        "family": args.family,
        "wave_speed": lam,
        "report": rep.to_dict(),
    }
    _emit(doc, args.out)
    return 0 if rep.passed else 1


def _cmd_riccati(args):
    import numpy as np
    from . import expr as ex, riccati as ric
    params = _params(args.param, "riccati", ("alpha", "beta", "gamma"))
    if args.samples < 1:
        raise ValueError("--samples must be >= 1")
    c = ric.RiccatiCoefficients(**params)
    case = ric.classify(c)
    phi = ric.phi_expr(c)
    res = ric.riccati_residual(phi, c)
    guard = ric.pole_guard(c)
    xs = np.linspace(-3.0, 3.0, args.samples)
    rv, gv = ex.evaluate_many([res, guard], {}, {"xi": xs})  # the guard last (`expr.Tape`)
    rv = rv[(np.abs(gv) > 1e-6) & np.isfinite(rv)]
    max_res = float(np.max(np.abs(rv))) if rv.size else 0.0
    doc = {
        "config": {"command": "riccati", "params": params,
                   "samples": args.samples},
        "case": case,
        "delta": float(c.delta),
        "phi": ex.to_prefix(phi),
        "max_residual": max_res,
        "residual_samples": int(rv.size),
    }
    _emit(doc, args.out)
    return 0


def _cmd_cole_hopf(args):
    from . import colehopf, verifier
    params = _params(args.param, "cole-hopf", ("b", "mu"), ("delta",))
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
                   "params": params, "grid": grid.to_dict()},
        "branch": args.branch,
        "A": float(A), "B": float(B), "lambda": float(lam),
        "system_residuals": [float(r) for r in residuals],
        "system_pass": six_ok,
        "report": rep.to_dict(),
    }
    _emit(doc, args.out)
    return 0 if (six_ok and rep.passed) else 1


def _cmd_rh(args):
    import dataclasses
    from . import rational_hyperbolic as rh
    free = rh.FREE_PARAMETER.get(args.family)
    params = _params(args.param, "rh", ("b", free) if free else ("b",))
    fam_params = rh.family_params(args.family, params["b"],
                                  a2=params.get("a2"), c2=params.get("c2"))
    u = rh.rh_ansatz(fam_params)
    rep = rh.collocation_identity_check(u, params["b"], fam_params.lam,
                                        denominator=rh.rh_denominator(fam_params))
    doc = {
        "config": {"command": "rh", "family": args.family,
                   "params": params},
        "family": args.family,
        "coefficients": {k: float(v) for k, v in dataclasses.asdict(fam_params).items()},
        "collocation": dataclasses.asdict(rep),
    }
    _emit(doc, args.out)
    return 0 if rep.passed else 1


def _cmd_pipeline_generate(args):
    from . import pipeline
    system = pipeline.generate_system()
    doc = {
        "config": {"command": "pipeline generate"},
        "system": system.to_json_dict(),
    }
    _emit(doc, args.out)
    return 0


def _cmd_pipeline_check(args):
    from . import pipeline, riccati
    params = _params(args.param, "pipeline check", pipeline.PARAMETERS)
    system = pipeline.generate_system()
    entries, failed = [], []
    for fid in pipeline.CASE_FAMILIES[args.case]:
        try:
            vals = pipeline.ansatz_tuple(fid, *(params[k] for k in pipeline.PARAMETERS))
        except ConstraintViolation as err:
            if err.violations != [riccati.S_LABEL]:  # a case condition: every family fails it
                raise
            failed.append(f"{fid}: {riccati.S_LABEL}")
            continue
        residuals = pipeline.check_assignment(system, {**vals, **params})
        exact = all(isinstance(r, Fraction) for r in residuals)
        ok = (all(r == 0 for r in residuals) if exact
              else all(abs(float(r)) < SIX_SYSTEM_TOL for r in residuals))
        entries.append({
            "family": fid,
            "tuple": {k: vals[k] for k in pipeline.UNKNOWNS},
            "exact": exact,
            "residuals": residuals,
            "pass": ok,
        })
    if failed:
        raise ConstraintViolation(failed)
    doc = {
        "config": {"command": "pipeline check", "case": args.case,
                   "params": params},
        "case": args.case,
        "tuples": entries,
    }
    _emit(doc, args.out)
    return 0 if all(e["pass"] for e in entries) else 1


def _cmd_pipeline_solve(args):
    from . import pipeline
    params = _params(args.param, "pipeline solve", pipeline.PARAMETERS)
    if args.rng_seed < 0:
        raise ValueError("--rng-seed must be >= 0")
    system = pipeline.generate_system()
    roots = pipeline.newton_solve(system, params, seeds=args.seeds,
                                  rng_seed=args.rng_seed)
    doc = {
        "config": {"command": "pipeline solve", "params": params,
                   "seeds": args.seeds, "rng_seed": args.rng_seed},
        "unknowns": list(pipeline.UNKNOWNS),
        "root_count": len(roots),
        "roots": [list(r) for r in roots],
    }
    _emit(doc, args.out)
    return 0


def _equiv_side(fid, params):
    """(u, guard) of one side of `equiv`; violations are prefixed by its id."""
    from . import catalog
    try:
        return catalog.build_wave(fid, params)[:2]
    except ConstraintViolation as err:
        raise ConstraintViolation([f"{fid}: {v}" for v in err.violations]) from None


def _sample_difference(us, guards, n, seed):
    """Left minus right side (`us`) at seeded (x, t) samples where all are regular."""
    import numpy as np
    from . import expr as ex
    rng = np.random.default_rng(seed)
    tape = ex.Tape(guards + us)
    diffs, found = [], 0
    for _ in range(50):
        need = n - found
        if need <= 0:
            break
        xs = rng.uniform(-5.0, 5.0, size=4 * need)
        ts = rng.uniform(0.0, 2.0, size=4 * need)
        *gvs, lv, rv = ex.evaluate_many(tape, {}, {"x": xs, "t": ts})
        ok = np.isfinite(lv) & np.isfinite(rv)
        for gv in gvs:
            ok &= np.abs(gv) >= 1e-3
        diffs.append(lv[ok][:need] - rv[ok][:need])
        found += diffs[-1].size
    if found < n:
        raise ValueError("could not find enough regular sample points")
    return np.concatenate(diffs)


def _cmd_equiv(args):
    import numpy as np
    left_params = _params(args.left_param, flag="--left-param")
    right_params = _params(args.right_param, flag="--right-param")
    if args.points < 1:
        raise ValueError("--points must be >= 1")
    if args.seed < 0:
        raise ValueError("--seed must be >= 0")
    _check_tol(args.tol)
    (lu, lg), (ru, rg) = (_equiv_side(args.left, left_params),
                          _equiv_side(args.right, right_params))
    diff = _sample_difference([lu, ru], [lg, rg], args.points, args.seed)
    max_diff = float(np.max(np.abs(diff)))
    passed = bool(max_diff < args.tol)
    doc = {
        "config": {"command": "equiv", "left": args.left,
                   "left_params": left_params,
                   "right": args.right,
                   "right_params": right_params,
                   "points": args.points, "tol": args.tol, "seed": args.seed},
        "max_abs_difference": max_diff,
        "points_compared": int(diff.size),
        "passed": passed,
    }
    _emit(doc, args.out)
    return 0 if passed else 1


def _cmd_plot_data(args):
    import numpy as np
    from . import catalog, expr as ex, verifier
    params = _params(args.param)
    # GridSpec checks the x axis, eps_den and t: a profile is the grid at t_min = t_max = t
    grid = verifier.GridSpec(x_min=args.x_min, x_max=args.x_max, nx=args.nx,
                             t_min=args.t, t_max=args.t, eps_den=args.eps_den)
    u, guard, _ = catalog.build_wave(args.family, params)
    xs = np.linspace(grid.x_min, grid.x_max, grid.nx)
    ts = np.full(xs.shape, grid.t_min)
    uv, gv = ex.evaluate_many([u, guard], {}, {"x": xs, "t": ts})
    ok = (np.abs(gv) >= grid.eps_den) & np.isfinite(uv)
    lines = ["x,u"]
    for i in range(xs.size):
        xcell = format(float(xs[i]), ".17g")
        ucell = format(float(uv[i]), ".17g") if ok[i] else ""
        lines.append(f"{xcell},{ucell}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _is_float(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


def _join_negative_values(argv):
    """`--flag -1e3` as `--flag=-1e3`: argparse takes a negative value that
    is not plain digits (`-1e3`, `-inf`) for an option name."""
    out = []
    for token in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and token.startswith("-") and _is_float(token)):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None):
    """Run one command line and return its exit code.  On the process's
    own command line (no `argv`) the cyclic collector is off until the
    return, which freezes the heap so that shutdown neither walks nor
    frees it; `main(argv)` leaves the caller's collector alone."""
    if argv is not None:
        return _run(argv)
    import gc
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(sys.argv[1:])
    finally:
        gc.freeze()
        if enabled:
            gc.enable()


def _run(argv):
    argv = _join_negative_values(argv)
    args = _build_parser(argv).parse_args(argv)
    if args.out:  # every report below goes to --out, so it must open first
        try:
            open(args.out, "a").close()
        except OSError as err:
            _emit({"error": "invalid-input", "message": f"--out {args.out}: {err.strerror}"}, None)
            return 2
    try:
        return args.run(args)
    except ConstraintViolation as err:
        _emit({"error": "constraint-violation", "violations": err.violations}, args.out)
        return 2
    except OverflowError as err:
        _emit({"error": "invalid-input", "message": "a value derived from the parameters "
               f"is outside the float range ({err})"}, args.out)
        return 2
    except (ValueError, KeyError, MdpWaveError) as err:
        _emit({"error": "invalid-input", "message": str(err)}, args.out)
        return 2
    except Exception as err:  # pragma: no cover
        _emit({"error": "internal", "message": f"{type(err).__name__}: {err}"}, args.out)
        return 3


if __name__ == "__main__":
    sys.exit(main())
