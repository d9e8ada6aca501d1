"""Regenerate reference.json, the outputs the benchmark checks against: the
exact outputs of verify (seed 0) and frontier, and which acceptance criteria
fail at which of the acceptance seeds verify draws from.

    python3 perfbench/record_reference.py

The outputs are those of the working tree: record only at a commit whose
outputs are known to be right.  Each workload is recorded under two
PYTHONHASHSEED values, and nothing is written if they differ.  The benchmark
runs under a third value, so every run that matches the reference also shows
that the outputs do not depend on the hash seed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from run import HERE, ROOT, child_env

HASH_SEEDS = ("1", "2")
RECORDED = ("verify", "frontier")


def record_workload(workload: str) -> list:
    """The worker's --record output under each hash seed; the two run at
    the same time, one per CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    procs = []
    for i, hash_seed in enumerate(HASH_SEEDS):
        env = child_env()
        env["PYTHONHASHSEED"] = hash_seed
        cpu = {cpus[i % len(cpus)]}     # the worker pins itself to one allowed CPU
        procs.append(subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--record"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            preexec_fn=lambda cpu=cpu: os.sched_setaffinity(0, cpu)))
    outs = [proc.communicate()[0] for proc in procs]
    for proc in procs:
        if proc.returncode != 0:
            raise SystemExit(f"recording {workload} failed with {proc.returncode}")
    return [json.loads(out.splitlines()[-1]) for out in outs]


def main() -> int:
    docs = [{"exact": {}} for _ in HASH_SEEDS]
    for workload in RECORDED:
        for doc, part in zip(docs, record_workload(workload)):
            clash = {k for k, v in part["exact"].items() if doc["exact"].get(k, v) != v}
            if clash:
                raise SystemExit(f"{workload} disagrees with an earlier workload on {sorted(clash)}")
            doc["exact"].update(part.pop("exact"))
            doc.update(part)
    first, second = docs
    if first != second:
        keys = sorted(k for k in first["exact"].keys() | second["exact"].keys()
                      if first["exact"].get(k) != second["exact"].get(k))
        print(f"outputs depend on PYTHONHASHSEED: {keys[:20]}", file=sys.stderr)
        return 1
    (HERE / "reference.json").write_text(json.dumps(first, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(first['exact'])} exact outputs and the failures of "
          f"{len(first['criteria'])} criteria at {first['acceptance_seeds']} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
