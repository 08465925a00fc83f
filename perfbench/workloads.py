"""The four workloads: seeded inputs, the operations timed on them, and the
judge that holds each verdict against the known answers in `answers.py`.

A workload yields its operations one cycle at a time.  An operation's `run`
returns the program's output; `judge` turns that output into (agrees with
the known answer, bytes that must repeat when the same operation runs
again or None, work units: grid points or multistart seeds).
"""
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from mdpwave import catalog, colehopf, pipeline, rational_hyperbolic, report, riccati, verifier
from mdpwave import expr

import answers as A

HERE = os.path.dirname(os.path.abspath(__file__))
# what the installed `mdpwave` console script runs
CLI_ENTRY = "import sys; from mdpwave.cli import main; sys.exit(main())"
CLI_TIMEOUT_S = 120


@dataclass
class Op:
    key: object
    name: str
    run: Callable
    judge: Callable


def _verify_op(key, fid, i, grid, method):
    params = A.CATALOG_SAMPLES[fid][i]
    tol = A.VERIFY_TOL if method == "symbolic" else A.FD_TOL

    def run(trace):
        u = catalog.build(fid, params)
        guard = catalog.build_guard_xt(fid, params)
        return verifier.verify_on_grid(u, params["b"], grid=grid, tol=tol,
                                       guard=guard, method=method)

    def judge(rep):
        ok = rep.passed
        if (fid, i) in A.POLE_SAMPLES:
            ok = ok and rep.points_skipped > 0
        if i in A.POLE_FREE_SAMPLES.get(fid, ()):
            ok = ok and rep.points_skipped == 0
        return ok, report.dumps(rep.to_dict()).encode(), rep.points_evaluated

    return Op(key, f"verify:{fid}:{method}", run, judge)


def _riccati_triple(rng, case):
    u = lambda lo, hi: rng.uniform(lo, hi) * rng.choice((-1, 1))
    if case == 1:
        return 0, u(0.2, 3), rng.uniform(-3, 3)
    if case == 2:
        return 0, 0, u(0.2, 3)
    if case == 3:
        return rng.uniform(-3, 3), u(0.2, 3), 0
    if case == 4:
        return u(0.2, 3), 0, u(0.2, 3)
    if case == 5:
        alpha, beta = u(0.2, 3), u(0.2, 3)
        return alpha, beta, beta * beta / (4 * alpha)
    if case == 6:
        beta, gamma = u(0.2, 2), u(0.2, 2)
        return (beta * beta / 4 + rng.uniform(0.1, 3)) / gamma, beta, gamma
    beta, gamma = u(0.5, 3), u(0.2, 2)
    return (beta * beta / 4 - rng.uniform(0.1, 3)) / gamma, beta, gamma


def _riccati_op(key, case, triple):
    xs = np.linspace(-3.0, 3.0, A.RICCATI_POINTS)

    def run(trace):
        c = riccati.RiccatiCoefficients(*triple)
        got = riccati.classify(c)
        phi = riccati.phi_expr(c)
        residual = riccati.riccati_residual(phi, c)
        gv = expr.evaluate_many(riccati.pole_guard(c), {}, {"xi": xs})
        rv = expr.evaluate_many(residual, {}, {"xi": xs[np.abs(gv) > A.RICCATI_POLE_EPS]})
        return got, rv

    def judge(out):
        got, rv = out
        rv = rv[np.isfinite(rv)]
        worst = float(np.max(np.abs(rv))) if rv.size else 0.0
        return got == case and worst < A.RICCATI_TOL, None, 0

    return Op(key, "riccati", run, judge)


def _collocation_op(key, params, b, expect_pass):
    rh = rational_hyperbolic

    def run(trace):
        return rh.collocation_identity_check(rh.rh_ansatz(params), b, params.lam,
                                             denominator=rh.rh_denominator(params))

    return Op(key, "collocation", run,
              lambda rep: (rep.passed == expect_pass, None, 0))


def _kink_op(key, branch, b, mu):
    def run(trace):
        A_, B_, lam = colehopf.branch_params(branch, b, mu)
        p = colehopf.ColeHopfParams(A_, B_, mu, lam)
        six = max(abs(float(r)) for r in colehopf.system_residuals(p, b))
        return six, verifier.verify_on_grid(colehopf.cole_hopf_u(p), b, tol=A.VERIFY_TOL)

    def judge(out):
        six, rep = out
        return (six < A.KINK_SYSTEM_TOL and rep.passed,
                report.dumps(rep.to_dict()).encode(), rep.points_evaluated)

    return Op(key, "kink", run, judge)


def _exact_op(key, system, fid, instance):
    alpha, beta, gamma, b = instance

    def run(trace):
        vals = pipeline.ansatz_tuple(fid, alpha, beta, gamma, b)
        return pipeline.check_assignment(system, dict(
            vals, alpha=Fraction(alpha), beta=Fraction(beta), gamma=Fraction(gamma), b=Fraction(b)))

    def judge(res):
        return all(type(r) is Fraction and r == 0 for r in res), None, 0

    return Op(key, "exact", run, judge)


def _newton_op(key, system, fixed, seeds, rng_seed, targets):
    def run(trace):
        return pipeline.newton_solve(system, fixed, seeds=seeds, rng_seed=rng_seed)

    def judge(roots):
        found = all(
            any(max(abs(r - float(t)) for r, t in zip(root, target)) < A.NEWTON_TOL
                for root in roots)
            for target in targets.values())
        return found, report.dumps([list(r) for r in roots]).encode(), seeds

    return Op(key, "newton", run, judge)


def _cli_op(key, name, argv, expected, root, env):
    def run(trace):
        if trace is None:
            cmd = [sys.executable, "-c", CLI_ENTRY, *argv]
        else:
            cmd = [sys.executable, os.path.join(HERE, "clishim.py"), *argv]
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              timeout=CLI_TIMEOUT_S)
        if trace is not None:
            trace.merge(proc.stderr)
        return proc

    def judge(proc):
        ok = proc.returncode == expected
        if ok and name == "verify_u5":  # README: passes, skips pole points
            ok = json.loads(proc.stdout)["report"]["points_skipped"] > 0
        if ok and name == "pipeline_check":  # README: residuals print as "0/1"
            tuples = json.loads(proc.stdout)["tuples"]
            ok = all(r == "0/1" for t in tuples for r in t["residuals"])
        return ok, proc.stdout, 0

    return Op(key, name, run, judge)


class Workload:
    """`setup_code` runs in a fresh interpreter to time set-up; `setup()`
    does the same set-up in this process; `warm()` warms caches before the
    timed phase and returns operations to run judged but untimed; `cycle(c)`
    lists the operations of cycle c."""

    setup_code = "import mdpwave"
    units_name = None       # what the work units of judge() are
    subprocesses = False    # operations run in child processes
    scaled = True           # operation times scaled by the machine's speed

    def __init__(self, seed, root, env):
        self.seed = seed
        self.root = root
        self.env = env

    def setup(self):
        pass

    def warm(self):
        return self.cycle(0)

    def cycle(self, c):
        return self.ops


class VerifyGrid(Workload):
    """Symbolic verification of u14, u22, u7 and cole_hopf on a 1001x101
    grid, plus the finite-difference path for the pole-free ones."""

    units_name = "grid_points_per_s"
    # array-bound: its time does not follow the Python-bound reference in
    # speed.py, and unscaled it drifts less than the other workloads
    scaled = False

    def setup(self):
        rng = random.Random(self.seed)
        dx, dt = rng.choice(A.GRID_X_SHIFTS), rng.choice(A.GRID_T_SHIFTS)
        nx, nt = A.GRID_SHAPE
        grid = verifier.GridSpec(x_min=float(-10 + dx), x_max=float(10 + dx), nx=nx,
                                 t_min=float(dt), t_max=float(2 + dt), nt=nt)
        self.ops = []
        for fid, choices in A.GRID_SAMPLES.items():
            i = rng.choice(choices)
            methods = ["symbolic"]
            if i in A.POLE_FREE_SAMPLES.get(fid, ()):
                methods.append("finite-difference")
            for method in methods:
                self.ops.append(_verify_op(len(self.ops), fid, i, grid, method))


class AcceptanceSweep(Workload):
    """Many small verdicts on the default grid: every catalog sample, the
    finite-difference path, seeded Riccati triples, collocation certificates
    and their bumps, both kink branches and the exact rational instances."""

    setup_code = "import mdpwave.pipeline as p; p.generate_system()"
    units_name = "grid_points_per_s"

    def setup(self):
        self.system = pipeline.generate_system()
        rng = random.Random(self.seed)
        grid = verifier.GridSpec()
        ops = []
        for fid, samples in A.CATALOG_SAMPLES.items():
            for i in range(len(samples)):
                ops.append(_verify_op(len(ops), fid, i, grid, "symbolic"))
                if i in A.POLE_FREE_SAMPLES.get(fid, ()):
                    ops.append(_verify_op(len(ops), fid, i, grid, "finite-difference"))
        for case in range(1, 8):
            for _ in range(A.RICCATI_TRIPLES_PER_CASE):
                ops.append(_riccati_op(len(ops), case, _riccati_triple(rng, case)))
        rh = rational_hyperbolic
        for fid in rh.FAMILY_IDS:
            for b in A.COLLOCATION_BS:
                for free in A.COLLOCATION_FREE.get(fid, [{}]):
                    ops.append(_collocation_op(len(ops), rh.family_params(fid, b, **free), b, True))
            p = rh.family_params(fid, Fraction(3), **A.BUMP_FREE.get(fid, {}))
            for name in A.COLLOCATION_FIELDS:
                vals = {k: getattr(p, k) for k in A.COLLOCATION_FIELDS}
                vals[name] += A.BUMP
                ops.append(_collocation_op(len(ops), rh.RHAnsatzParams(**vals), Fraction(3), False))
        for b, mu in A.KINK_CASES:
            for branch in ("plus", "minus"):
                ops.append(_kink_op(len(ops), branch, b, mu))
        for fid, instance in A.RATIONAL_INSTANCES:
            ops.append(_exact_op(len(ops), self.system, fid, instance))
        rng.shuffle(ops)
        self.ops = ops


class NewtonMultistart(Workload):
    """newton_solve at the first, second and third cases; cycle c uses
    rng_seed = seed * 1000 + c, so no two calls in a run repeat."""

    setup_code = "import mdpwave.pipeline as p; p.generate_system()"
    units_name = "seeds_per_s"

    def setup(self):
        self.system = pipeline.generate_system()

    def warm(self):
        for _, fixed, _, _ in A.NEWTON_CASES:
            pipeline.newton_solve(self.system, fixed, seeds=A.NEWTON_WARMUP_SEEDS,
                                  rng_seed=self.seed)
        return []

    def cycle(self, c):
        rng_seed = self.seed * 1000 + c
        return [_newton_op((name, rng_seed), self.system, fixed, seeds, rng_seed, targets)
                for name, fixed, seeds, targets in A.NEWTON_CASES]


class CliReadme(Workload):
    """Each README command as a subprocess, one at a time."""

    setup_code = "import mdpwave.cli"
    subprocesses = True

    def setup(self):
        self.ops = [
            _cli_op(name, name, [a.format(seed=self.seed) for a in argv], expected,
                    self.root, self.env)
            for name, argv, expected in A.CLI_COMMANDS]

    def warm(self):
        return []


WORKLOADS = {
    "verify-grid": VerifyGrid,
    "acceptance-sweep": AcceptanceSweep,
    "newton-multistart": NewtonMultistart,
    "cli-readme": CliReadme,
}
