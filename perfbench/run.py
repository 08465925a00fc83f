"""mdpwave benchmark: time to a trusted verdict on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  With --trace 0 the run times every operation with tracing off and
prints the end-to-end metrics, with times scaled by the machine's speed
measured beside them (`speed.py`); with --trace 1 it runs the same operations
twice, untraced and then traced, and prints the per-layer metrics and the
tracing overhead.  Each verdict is checked against the known answers in
`answers.py`.  Human-readable lines come first; the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.
"""
import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import answers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = "1"
SETUP_REPEATS = 9    # fresh interpreters per set-up measurement
TAIL_BEYOND = 10     # samples the printed highest percentile leaves above it
MIN_OPS = TAIL_BEYOND + 1

END_TO_END = (("setup_s", "s"), ("verdict_p50_s", "s"), ("verdict_tail_s", "s"),
              ("verdicts_per_s", "1/s"), ("peak_rss_mb", "MB"))
PER_OP_LAYERS = (
    ("expr.evaluate_many_s", "expr.evaluate_many_s", "s/op"),
    ("expr.evaluate_many_calls", "evaluate_many_calls", "calls/op"),
    ("expr.evaluate_many_points", "evaluate_many_points", "points/op"),
    ("expr.differentiate_s", "expr.differentiate_s", "s/op"),
    ("expr.differentiate_calls", "differentiate_calls", "calls/op"),
    ("catalog.build_s", "catalog.build_s", "s/op"),
    ("riccati.build_s", "riccati.build_s", "s/op"),
    ("colehopf.branch_s", "colehopf.branch_s", "s/op"),
    ("rational_hyperbolic.collocation_s", "rational_hyperbolic.collocation_s", "s/op"),
    ("rational_hyperbolic.resampled_points", "resampled_points", "points/op"),
    ("verifier.self_s", "verifier.self_s", "s/op"),
    ("verifier.guard_eval_s", "guard_eval_s", "s/op"),
    ("pipeline.newton_solve_s", "pipeline.newton_solve_s", "s/op"),
    ("pipeline.gn_steps", "gn_steps", "steps/op"),
    ("pipeline.check_assignment_s", "pipeline.check_assignment_s", "s/op"),
    ("polyalg.subs_s", "polyalg.subs_s", "s/op"),
    ("polyalg.evaluate_s", "polyalg.evaluate_s", "s/op"),
    ("report.dumps_s", "report.dumps_s", "s/op"),
    ("report.bytes", "dumps_bytes", "B/op"),
)
PROBES = (("cli.python_floor_s", "pass"), ("cli.import_numpy_s", "import numpy"),
          ("cli.import_s", "import mdpwave.cli"))
PER_LAYER = (
    *((name, unit) for name, _, unit in PER_OP_LAYERS),
    ("expr.tree_nodes", "nodes"), ("expr.distinct_nodes", "nodes"),
    ("verifier.skip_ratio", "ratio"), ("pipeline.roots_per_seed", "roots/seed"),
    ("pipeline.generate_system_s", "s/call"),
    *((name, "s") for name, _ in PROBES),
    *((f"cli.{name}_s", "s") for name, _, _ in answers.CLI_COMMANDS),
    ("trace.overhead_s", "s/op"),
)


class Tally:
    def __init__(self):
        self.starts = []
        self.times = []
        self.names = []
        self.cycle_ends = []    # len(times) after each whole cycle
        self.attempted = 0
        self.failed = 0
        self.units = 0          # grid points or seeds
        self.unit_time = 0.0    # time of the operations that report units


def execute(op, trace, refs, tally, speed=None):
    """Run one operation, time it and judge its verdict; a wrong verdict, a
    repeat whose bytes differ, or an exception counts as failed.  With a
    speed sampler the reference runs after the operation."""
    tally.attempted += 1
    start = time.perf_counter()
    try:
        if trace is None:
            out = op.run(None)
        else:
            with trace.root():
                out = op.run(trace)
        elapsed = time.perf_counter() - start
        ok, det, units = op.judge(out)
    except Exception:
        elapsed = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        ok, det, units = False, None, 0
    if det is not None and refs.setdefault(op.key, det) != det:
        print(f"not deterministic: {op.name} {op.key}", file=sys.stderr)
        ok = False
    if not ok:
        print(f"failed: {op.name} {op.key}", file=sys.stderr)
        tally.failed += 1
    if speed is not None:
        speed.after(elapsed)
    tally.starts.append(start)
    tally.times.append(elapsed)
    tally.names.append(op.name)
    tally.units += units
    if units:
        tally.unit_time += elapsed


def timed_phase(workload, seconds, trace, refs, tally, n_ops=None, speed=None):
    """Whole cycles until `seconds` have passed and the tail is defined, or
    until n_ops operations have run; returns the wall time."""
    start = time.perf_counter()
    c = 0
    while True:
        if trace is not None:
            trace.capture = c == 0
        for op in workload.cycle(c):
            execute(op, trace, refs, tally, speed)
        tally.cycle_ends.append(len(tally.times))
        c += 1
        if n_ops is None:
            if time.perf_counter() - start >= seconds and len(tally.times) >= MIN_OPS:
                break
        elif len(tally.times) >= n_ops:
            break
    return time.perf_counter() - start


def probe(code, env):
    """Start and wall time of a fresh interpreter running `code`."""
    start = time.perf_counter()
    # pipes, not DEVNULL: with no pipe to wait on, run(timeout=...) polls
    # the child with sleeps of up to 50 ms, which quantizes the time
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                   capture_output=True, timeout=120)
    return start, time.perf_counter() - start


def median_probe(code, env, speed=None):
    """Median over SETUP_REPEATS probes; scaled by the machine's speed when
    a sampler is given."""
    runs = []
    for _ in range(SETUP_REPEATS):
        runs.append(probe(code, env))
        if speed is not None:
            speed.after(runs[-1][1])
    return statistics.median(t * (speed.scale(s, s + t) if speed else 1.0) for s, t in runs)


def end_to_end(workload, tally, wall, setup_s, speed):
    scaled = tally.times
    if speed is not None:
        scaled = [t * speed.scale(s, s + t) for s, t in zip(tally.starts, tally.times)]
    times = sorted(scaled)
    n = len(times)
    # every cycle runs the same operations in the same order; the tail is
    # the p90 over those operations of each one's median over the cycles.
    # A percentile of single timings records the machine's stalls, not the
    # program: about one in a hundred acceptance-sweep operations and one
    # in five cli-readme commands (0.35 s becoming 0.5-0.85 s) take up to
    # twice their usual time
    starts = [0, *tally.cycle_ends[:-1]]
    per_op = [statistics.median(col)
              for col in zip(*(scaled[a:b] for a, b in zip(starts, tally.cycle_ends)))]
    tail = statistics.quantiles(per_op, n=10, method="inclusive")[-1]
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if workload.subprocesses
                               else resource.RUSAGE_SELF)
    metrics = {
        "setup_s": setup_s,
        "verdict_p50_s": statistics.median(times),
        "verdict_tail_s": tail,
        "verdicts_per_s": n / sum(scaled),
        "peak_rss_mb": usage.ru_maxrss / 1024,
    }
    print(f"# timed phase: {n} operations in {len(starts)} cycles in {wall:.3f} s; tail is the p90"
          f" over the {len(per_op)} operations of a cycle of each one's median; p{100 * (n - TAIL_BEYOND) / n:.1f} of all {n}"
          f" (the highest with {TAIL_BEYOND} beyond, not gated) is {times[n - 1 - TAIL_BEYOND]:.6g} s")
    if speed is not None:
        print(f"# times scaled by the machine's speed: median factor {statistics.median(scaled) / statistics.median(tally.times):.4f};"
              f" unscaled p50 {statistics.median(tally.times):.6g} s, {n / wall:.6g} operations per"
              f" wall second; {len(speed.times)} reference samples")
    if workload.units_name and tally.unit_time:
        print(f"{workload.units_name:36s} {tally.units / tally.unit_time:.6g} 1/s")
    print(f"{'failed_ratio':36s} {tally.failed / tally.attempted:.6g} ratio")
    return metrics


def per_layer(workload, untraced, traced, totals, setup_totals, probes):
    n = len(traced.times)
    metrics = {name: totals[key] / n for name, key, _ in PER_OP_LAYERS}
    metrics["expr.tree_nodes"] = totals["tree_nodes"]
    metrics["expr.distinct_nodes"] = totals["distinct_nodes"]
    ratio = lambda a, b: a / b if b else 0.0
    metrics["verifier.skip_ratio"] = ratio(totals["verify_skipped"], totals["verify_points"])
    metrics["pipeline.roots_per_seed"] = ratio(totals["newton_roots"], totals["newton_seeds"])
    metrics["pipeline.generate_system_s"] = ratio(
        totals["pipeline.generate_system_s"] + setup_totals["pipeline.generate_system_s"],
        totals["generate_system_calls"] + setup_totals["generate_system_calls"])
    metrics.update(probes)
    for name, _, _ in answers.CLI_COMMANDS:
        own = [t for t, op in zip(untraced.times, untraced.names) if op == name]
        metrics[f"cli.{name}_s"] = statistics.median(own) if workload.subprocesses else 0.0
    metrics["trace.overhead_s"] = statistics.fmean(traced.times) - statistics.fmean(untraced.times)
    print(f"# traced {n} operations; tracing overhead "
          f"{ratio(sum(traced.times), sum(untraced.times)) - 1:+.1%} of operation time")
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "mdpwave" / "__init__.py").is_file():
        print(f"error: no mdpwave sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, str(SRC))
    import numpy
    import mdpwave
    import speed
    import tracing
    import workloads

    if Path(mdpwave.__file__).resolve().parent != (SRC / "mdpwave").resolve():
        print(f"error: imported mdpwave from {mdpwave.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    env = dict(os.environ)
    make = lambda: workloads.WORKLOADS[args.workload](args.seed, str(ROOT), env)

    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"# python {platform.python_version()} numpy {numpy.__version__} "
          f"{platform.machine()} cpus {os.cpu_count()} blas_threads {BLAS_THREADS}")
    workload = make()
    setup_s = None if args.trace else median_probe(workload.setup_code, env, speed.Speed())
    workload.setup()
    refs = {}
    warm = Tally()
    for op in workload.warm():
        execute(op, None, refs, warm)

    untraced = Tally()
    if not args.trace:
        sampler = speed.Speed() if workload.scaled else None
        wall = timed_phase(workload, args.seconds, None, refs, untraced, speed=sampler)
        metrics = end_to_end(workload, untraced, wall, setup_s, sampler)
        tallies = (warm, untraced)
        units = dict(END_TO_END)
    else:
        timed_phase(workload, args.seconds / 2, None, refs, untraced)
        setup_tracer = tracing.Tracer()
        with tracing.installed(setup_tracer), setup_tracer.root("setup"):
            make().setup()
        tracer = tracing.Tracer()
        traced = Tally()
        with tracing.installed(tracer):
            timed_phase(workload, 0, tracer, refs, traced, n_ops=len(untraced.times))
        probes = {name: median_probe(code, env) if workload.subprocesses else 0.0
                  for name, code in PROBES}
        metrics = per_layer(workload, untraced, traced, tracer.totals(),
                            setup_tracer.totals(), probes)
        if 0 < len(tracer.tree_sizes) <= 8:
            print("# residual trees, nodes/distinct: "
                  + " ".join(f"{a}/{b}" for a, b in tracer.tree_sizes))
        tallies = (warm, untraced, traced)
        units = dict(PER_LAYER)

    for name, value in metrics.items():
        print(f"{name:36s} {value:.6g} {units[name]}")
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
