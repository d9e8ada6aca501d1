"""Benchmark of ellop.

    python3 perfbench/run.py --workload {verify,frontier,numeric,all} \
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout; it imports ellop from ./src.

Workloads (see BENCHMARK.json for why each was chosen):
  verify    acceptance.run_all(seed % 32), the whole `ellop verify-paper` suite
  frontier  constraints_for + triangular_solve on distinct high-gap cells
  numeric   wp grid, loop transport, Newton solves, Inozemtsev gradients

Every pass runs in a fresh interpreter, as every ellop command does, on one
CPU, with BLAS/OpenMP threads pinned to 1 and PYTHONHASHSEED fixed.  A run
makes --seconds / NOMINAL_PASS_S passes (at least one) and reports medians.
With --trace 0 the end-to-end metrics are printed:

  setup_s      interpreter start to the first timed call (imports, inputs);
               median of at least 5 starts
  wall_s       one pass of the workload
  peak_rss_mb  peak resident memory of the pass
  fail_frac    failed / attempted output checks (also in the last line as
               "failed" and "attempted")

With --trace 1 one untraced and one traced pass run, and the per-layer
metrics of layers.METRICS are printed instead.  Full records go to
.perfbench/results/ and spans to .perfbench/traces/.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402  (needs HERE on sys.path)

WORKLOADS = ("verify", "frontier", "numeric")
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 5
#: seconds one pass nominally takes; --seconds / this is the pass count, so
#: the count does not depend on how fast the machine is during the run
NOMINAL_PASS_S = {"verify": 30.0, "frontier": 8.5, "numeric": 8.0}
TIME_LIMIT_S = 170           # per workload; each run must end within 180 s
PINNED = {
    "PYTHONHASHSEED": "0",   # locus3 iterates over sets of variable names
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(args, deadline: float) -> dict:
    """Run worker.py to completion; its last stdout line, parsed."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} exceeded the time limit")
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}:\n"
                         + "\n".join(err.splitlines()[-15:]))
    doc = json.loads(out.strip().splitlines()[-1])
    doc["setup_s"] = doc["ready"] - t0
    return doc


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    base = ["--workload", workload, "--seed", str(seed)]
    # warm-up start, not measured: fills the bytecode and file caches that
    # every later ellop command finds filled
    spawn(base + ["--setup-only"], deadline)
    count = 1 if trace else max(1, round(seconds / NOMINAL_PASS_S[workload]))
    passes = [spawn(base, deadline) for _ in range(count)]
    wall_s = statistics.median(p["wall_s"] for p in passes)
    runs = list(passes)
    if trace:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        spans = OUT / "traces" / f"{workload}-seed{seed}.json"
        traced = spawn(base + ["--trace", str(spans)], deadline)
        runs.append(traced)
        metrics = dict(traced["layers"])
        metrics["trace.overhead_frac"] = traced["wall_s"] / wall_s - 1
        units = layers.METRICS
        extra = {"traced_wall_s": traced["wall_s"], "spans": traced["spans"],
                 "dump_s": traced["dump_s"], "missing_hooks": traced["missing_hooks"]}
    else:
        setups = [p["setup_s"] for p in passes]
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(base + ["--setup-only"], deadline)["setup_s"])
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall_s,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        units = END_TO_END
        extra = {"setup_samples": setups}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "env": passes[0]["env"],
        "passes": [{k: p[k] for k in ("setup_s", "wall_s", "cpu_s", "untimed_s", "peak_rss_mb")}
                   for p in passes],
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted if attempted else 1.0,
        "mismatches": [m for r in runs for m in r["mismatches"]],
        "known_failures": sorted({k for r in runs for k in r["known_failures"]}),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        **extra,
    }


def report(rec: dict):
    m = rec["metrics"]
    head = f"{rec['workload']} seed={rec['seed']} passes={len(rec['passes'])}"
    if rec["trace"]:
        print(head + " (traced)")
        for name, v in m.items():
            print(f"  {name} = {v['value']:.6g} {v['unit']}")
        if rec["missing_hooks"]:
            print(f"  hooks with no target: {', '.join(rec['missing_hooks'])}")
    else:
        print(f"{head}: setup_s {m['setup_s']['value']:.4f} s, "
              f"wall_s {m['wall_s']['value']:.4f} s, "
              f"peak_rss_mb {m['peak_rss_mb']['value']:.1f} MB, "
              f"fail_frac {rec['fail_frac']:.4g} frac ({rec['failed']}/{rec['attempted']})")
    for text in rec["known_failures"]:
        print(f"  known failure (not counted as failed): {text}")
    for text in rec["mismatches"]:
        print(f"  MISMATCH: {text}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ellop benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ellop" / "__init__.py").is_file():
        print(f"no ellop sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [measure(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    (OUT / "results").mkdir(parents=True, exist_ok=True)
    print("env " + json.dumps(records[0]["env"], sort_keys=True))
    for rec in records:
        path = OUT / "results" / f"{rec['workload']}-seed{rec['seed']}-trace{int(rec['trace'])}.json"
        path.write_text(json.dumps(rec, indent=1))
        report(rec)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
