"""Spans around the public functions of mdpwave's modules (traced runs only).

`installed(tracer)` swaps each function in TARGETS for a wrapper, in its own
module and in every mdpwave module that imported it by name, and puts the
originals back on exit.  A wrapper records a span (name, start, end, parent)
in memory, but only inside a root span opened with `Tracer.root`, so work
the benchmark does between operations is never counted.  A span's self time
is its duration minus the durations of its direct children; a layer's time
is the self time of all its spans.
"""
import contextlib
import functools
import importlib
import json
import sys
import time
from collections import Counter

import numpy as np

PACKAGE = "mdpwave"
TRACE_PREFIX = "perfbench-trace "
# counters that describe one cycle of operations, not each operation
TREE_COUNTS = ("tree_nodes", "distinct_nodes")

# (module, function, metric that receives the span's self time, hook).  A
# missing function is skipped, so the benchmark still runs after a refactor
# renames one; its metric then reads 0.
TARGETS = (
    ("expr", "evaluate_many", "expr.evaluate_many_s", "evaluate_many"),
    ("expr", "differentiate", "expr.differentiate_s", "differentiate"),
    ("catalog", "validate", "catalog.build_s", None),
    ("catalog", "build", "catalog.build_s", None),
    ("catalog", "build_guard_xt", "catalog.build_s", None),
    ("catalog", "wave_speed", "catalog.build_s", None),
    ("riccati", "classify", "riccati.build_s", None),
    ("riccati", "phi_expr", "riccati.build_s", None),
    ("riccati", "riccati_case", "riccati.build_s", None),
    ("riccati", "riccati_residual", "riccati.build_s", None),
    ("riccati", "pole_guard", "riccati.build_s", None),
    ("colehopf", "branch_params", "colehopf.branch_s", None),
    ("colehopf", "cole_hopf_u", "colehopf.branch_s", None),
    ("colehopf", "system_residuals", "colehopf.branch_s", None),
    ("rational_hyperbolic", "family_params", "rational_hyperbolic.collocation_s", None),
    ("rational_hyperbolic", "rh_ansatz", "rational_hyperbolic.collocation_s", None),
    ("rational_hyperbolic", "rh_denominator", "rational_hyperbolic.collocation_s", None),
    ("rational_hyperbolic", "collocation_identity_check",
     "rational_hyperbolic.collocation_s", "collocation"),
    ("verifier", "verify_on_grid", "verifier.self_s", "verify"),
    ("verifier", "mdp_residual", "verifier.self_s", None),
    ("verifier", "mdp_residual_terms", "verifier.self_s", "residual_terms"),
    ("verifier", "ode_residual", "verifier.self_s", None),
    ("verifier", "ode_residual_terms", "verifier.self_s", "residual_terms"),
    ("pipeline", "generate_system", "pipeline.generate_system_s", "generate_system"),
    ("pipeline", "check_assignment", "pipeline.check_assignment_s", None),
    ("pipeline", "newton_solve", "pipeline.newton_solve_s", "newton"),
    ("polyalg", "MultiPoly.subs", "polyalg.subs_s", None),
    ("polyalg", "MultiPoly.evaluate", "polyalg.evaluate_s", None),
    ("report", "dumps", "report.dumps_s", "dumps"),
)

CHILD_FIELDS = ("terms", "factors", "num", "den", "base", "arg")


def tree_size(root):
    """(nodes counted along every path, structurally distinct nodes) of an
    expression tree, read through the public node fields only."""
    total = 0
    distinct = set()
    stack = [root]
    while stack:
        node = stack.pop()
        total += 1
        distinct.add(node)
        for field in CHILD_FIELDS:
            child = getattr(node, field, None)
            if isinstance(child, tuple):
                stack.extend(child)
            elif child is not None:
                stack.append(child)
    return total, len(distinct)


class Tracer:
    """In-memory spans plus counters taken at the same boundaries."""

    def __init__(self):
        self.spans = []          # [name, metric, start, end, parent index]
        self.stack = []
        self.counts = Counter()
        self.residuals = []      # term tuples built while capture is on
        self.tree_sizes = []     # (nodes, distinct) per residual, set by totals()
        self.capture = False
        self._guard_parents = set()

    @contextlib.contextmanager
    def root(self, name="op"):
        index = len(self.spans)
        self.spans.append([name, None, time.perf_counter(), None, -1])
        self.stack.append(index)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[index][3] = time.perf_counter()

    def wrap(self, name, metric, fn, hook):
        hook = getattr(self, f"_hook_{hook}") if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.stack:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self.stack[-1]
            span = [name, metric, time.perf_counter(), None, parent]
            self.spans.append(span)
            self.stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                span[3] = time.perf_counter()
            if hook:
                hook(args, kwargs, out, span)
            return out

        return wrapper

    def _hook_evaluate_many(self, args, kwargs, out, span):
        self.counts["evaluate_many_calls"] += 1
        self.counts["evaluate_many_points"] += int(np.size(out))
        parent = span[4]
        # verify_on_grid evaluates the guard before anything else
        if self.spans[parent][0] == "verifier.verify_on_grid" \
                and parent not in self._guard_parents:
            self._guard_parents.add(parent)
            self.counts["guard_eval_s"] += span[3] - span[2]

    def _hook_differentiate(self, args, kwargs, out, span):
        self.counts["differentiate_calls"] += 1

    def _hook_verify(self, args, kwargs, out, span):
        self.counts["verify_skipped"] += out.points_skipped
        self.counts["verify_points"] += out.points_skipped + out.points_evaluated

    def _hook_residual_terms(self, args, kwargs, out, span):
        if self.capture:
            self.residuals.append(out)

    def _hook_collocation(self, args, kwargs, out, span):
        first = np.linspace(-2.0, 2.0, len(out.points))
        self.counts["resampled_points"] += int(np.count_nonzero(np.asarray(out.points) != first))

    def _hook_generate_system(self, args, kwargs, out, span):
        self.counts["generate_system_calls"] += 1

    def _hook_newton(self, args, kwargs, out, span):
        seeds = kwargs["seeds"] if "seeds" in kwargs else args[2]
        self.counts["newton_seeds"] += seeds
        self.counts["newton_roots"] += len(out)

    def _hook_dumps(self, args, kwargs, out, span):
        self.counts["dumps_bytes"] += len(out.encode())

    def merge(self, stderr):
        """Add the totals a traced subprocess wrote to its stderr."""
        for line in stderr.decode().splitlines():
            if line.startswith(TRACE_PREFIX):
                totals = json.loads(line[len(TRACE_PREFIX):])
                if not self.capture:
                    for key in TREE_COUNTS:
                        totals.pop(key, None)
                self.counts.update(totals)

    def totals(self):
        """Self time per metric, the counters, and residual tree sizes."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter(self.counts)
        for i, (_, metric, start, end, _) in enumerate(self.spans):
            if metric:
                out[metric] += end - start - child[i]
        add = sys.modules[f"{PACKAGE}.expr"].add
        self.tree_sizes = [tree_size(add(*terms)) for terms in self.residuals]
        for nodes, distinct in self.tree_sizes:
            out[TREE_COUNTS[0]] += nodes
            out[TREE_COUNTS[1]] += distinct
        return out


@contextlib.contextmanager
def installed(tracer):
    """Wrap every function in TARGETS (and count numpy least-squares calls,
    one per Gauss-Newton step) for the duration of the block."""
    for name in {t[0] for t in TARGETS}:
        importlib.import_module(f"{PACKAGE}.{name}")
    modules = [m for n, m in sys.modules.items()
               if n == PACKAGE or n.startswith(PACKAGE + ".")]
    patches = []

    def patch(owner, attr, new):
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for module_name, attr, metric, hook in TARGETS:
        module = sys.modules[f"{PACKAGE}.{module_name}"]
        owner, _, method = attr.rpartition(".")
        owner = getattr(module, owner) if owner else module
        original = getattr(owner, method, None)
        if original is None:
            continue
        wrapped = tracer.wrap(f"{module_name}.{attr}", metric, original, hook)
        patch(owner, method, wrapped)
        if owner is module:
            for other in modules:
                for name, value in list(vars(other).items()):
                    if value is original:
                        patch(other, name, wrapped)

    lstsq = np.linalg.lstsq

    def counted_lstsq(*args, **kwargs):
        if tracer.stack:
            tracer.counts["gn_steps"] += 1
        return lstsq(*args, **kwargs)

    patch(np.linalg, "lstsq", counted_lstsq)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
