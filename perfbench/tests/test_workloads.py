"""Tests of the benchmark's verdict checks."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from workloads import ACCEPTANCE_SEEDS, Checks, check_verdicts  # noqa: E402

REFERENCE = {
    "acceptance_seeds": ACCEPTANCE_SEEDS,
    "criteria": ["closed-form-loci", "symmetric-third-order"],
    "failures": {"symmetric-third-order": {"4": "residual/gradient mismatch #"}},
}


def verdicts(seed, detail):
    checks = Checks()
    results = [("closed-form-loci", True, "ok"),
               ("symmetric-third-order", False, detail)]
    check_verdicts(checks, seed, results, REFERENCE)
    return checks


def test_failure_at_a_recorded_seed_is_known():
    checks = verdicts(4, "residual/gradient mismatch 5.46e-06")
    assert (checks.attempted, checks.failed) == (4, 0)
    assert len(checks.known_failures) == 1


def test_same_failure_at_another_seed_counts():
    checks = verdicts(0, "residual/gradient mismatch 5.46e-06")
    assert checks.failed == 1
    assert checks.known_failures == []


def test_other_failure_at_a_recorded_seed_counts():
    checks = verdicts(4, "exception: ValueError('x')")
    assert checks.failed == 1
    assert checks.known_failures == []
