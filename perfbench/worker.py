"""One pass of one workload, in the fresh interpreter run.py starts for it.

    python perfbench/worker.py --workload W --seed N [--setup-only | --trace PATH | --record]

Prints one JSON object as its last line of standard output.  "ready" is the
time.monotonic() reading at the first timed call, which run.py subtracts
from its own reading before the start of the process to get setup_s.

--setup-only stops at that point; --trace PATH wraps the ellop layers,
writes the spans to PATH and adds per-layer metrics; --record prints the
exact outputs that reference.json holds instead of checking them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"


def pin_to_one_cpu() -> int:
    """Keep the pass on one CPU, since moving between CPUs widens the spread
    of its timings; returns how many CPUs the process was allowed."""
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[-1]})
    return len(allowed)


def environment(cpus_allowed: int) -> dict:
    """What decides whether two results may be compared."""
    import mpmath
    import numpy
    import scipy
    from ellop import rationals

    return {
        "backend": rationals.BACKEND,
        "ELLOP_PURE_RATIONAL": os.environ.get("ELLOP_PURE_RATIONAL"),
        "nproc": os.cpu_count(),
        "cpus_allowed": cpus_allowed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="one benchmark pass")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--trace", metavar="PATH")
    mode.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    cpus_allowed = pin_to_one_cpu()

    import ellop

    if Path(ellop.__file__).resolve().parent != (SRC / "ellop").resolve():
        print(f"imported ellop from {ellop.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import layers
    import workloads
    from tracer import Bindings, Tracer

    workload = workloads.WORKLOADS[args.workload]
    bindings = Bindings("ellop")
    if args.record:
        doc = workload.record(bindings)
        bindings.restore()
        print(json.dumps(doc, sort_keys=True))
        return 0

    # the traced pass hooks no output recorders, whose work would land in
    # the layer spans; the untraced pass of the same run checks the outputs
    inputs = workload.prepare(args.seed, None if args.trace else bindings)
    if args.setup_only:
        print(json.dumps({"ready": time.monotonic()}))
        return 0
    tracer = missing = None
    if args.trace:
        tracer = Tracer()
        missing = layers.install(tracer, bindings)

    ready = time.monotonic()
    t0, c0 = time.perf_counter(), time.process_time()
    results = workload.run(inputs)
    untimed_s = workload.untimed_s(inputs)
    wall_s = time.perf_counter() - t0 - untimed_s
    cpu_s = time.process_time() - c0 - untimed_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    bindings.restore()

    checks = workload.check(inputs, results, json.loads(REFERENCE.read_text()))
    out = {
        "ready": ready,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "untimed_s": untimed_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "mismatches": checks.mismatches,
        "known_failures": checks.known_failures,
        "env": environment(cpus_allowed),
    }
    if tracer is not None:
        out["layers"] = layers.metrics(tracer, wall_s)
        out["missing_hooks"] = missing
        t0 = time.perf_counter()
        tracer.dump(args.trace)
        out["spans"] = len(tracer.start)
        out["dump_s"] = time.perf_counter() - t0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
