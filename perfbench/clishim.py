"""Run one mdpwave command line under the tracer, for traced cli-readme runs.

    python3 perfbench/clishim.py <mdpwave arguments>

Behaves like the `mdpwave` console script, then writes the tracer's totals
to stderr as one JSON line that starts with tracing.TRACE_PREFIX.
"""
import json
import sys

import tracing
from mdpwave.cli import main


def run():
    tracer = tracing.Tracer()
    tracer.capture = True
    with tracing.installed(tracer), tracer.root():
        code = main(sys.argv[1:])
    sys.stdout.flush()
    sys.stderr.write(tracing.TRACE_PREFIX + json.dumps(tracer.totals()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(run())
