"""Checks the CLI pins of .github/cli-pins.txt, in one process.

    python tools/pins.py

Run it from anywhere; it imports ellop from src/.  Each line of the pins
file is `exit sha256 args...`, and `ellop args...` must exit with that code
and print a stdout with that SHA-256.  Every line runs through
``ellop.cli.main`` here, with its stdout captured; a line that does not match
prints its args, the exit code and digest it got, and the pinned ones.

Three more checks ride along:

- the ``constraints`` lines run first, with numpy blocked, as does the import
  of ellop, so the pins also show that the exact path never loads numpy;
- every row that a ``locus`` line prints has a class in
  ``acceptance.HIGH_R_CLASSES``, the cyclic point or inconsistent;
- every valid r from 23 to 64 has a ``locus`` line on the generic curve and
  on the cuspidal one, and on the nodal one when r = 1 (mod 3); each
  (r, curve) without one is named.

It runs every line before it exits, with 1 if any check failed.  It takes no
options.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import sys
import traceback
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PINS = ROOT / ".github" / "cli-pins.txt"
sys.path[:0] = [str(ROOT / "src")]


@contextlib.contextmanager
def numpy_blocked():
    """`import numpy` fails inside; sys.modules is as it was afterwards."""
    saved = sys.modules.get("numpy")
    sys.modules["numpy"] = None
    try:
        yield
    finally:
        if saved is None:
            del sys.modules["numpy"]
        else:
            sys.modules["numpy"] = saved


# the exact path loads no numpy, and neither does the import of ellop
with numpy_blocked():
    from ellop import cli  # noqa: E402
    from ellop.acceptance import HIGH_R_CLASSES  # noqa: E402
    from ellop.locus3 import valid_r  # noqa: E402

#: the r that the locus lines must cover
HIGH_R = range(23, 65)


class Pin(NamedTuple):
    code: int
    sha: str
    args: list


def read_pins(path=PINS) -> list:
    """The pins of path, in file order; blank and # lines are skipped."""
    pins = []
    for line in path.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            code, sha, *args = line.split()
            pins.append(Pin(int(code), sha, args))
    return pins


def run(args) -> tuple:
    """`ellop args` in this process: its exit code and its stdout.  An
    exception that escapes main exits 1 with its traceback, as it would in a
    process of its own."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(list(args))
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue()


def off_class_rows(stdout: str) -> list:
    """The rows of a locus CSV whose class is not in HIGH_R_CLASSES."""
    return [row for row in csv.DictReader(io.StringIO(stdout))
            if row["classification"] not in HIGH_R_CLASSES]


def check(pin) -> list:
    """One line per way in which pin fails."""
    code, stdout = run(pin.args)
    sha = hashlib.sha256(stdout.encode()).hexdigest()
    args = " ".join(pin.args)
    problems = []
    if (code, sha) != (pin.code, pin.sha):
        problems.append(f"{args}: exit {code}, sha256 {sha}; "
                        f"pinned exit {pin.code}, sha256 {pin.sha}")
    if pin.args[0] == "locus":
        problems += [f"{args}: {','.join(row.values())}" for row in off_class_rows(stdout)]
    return problems


def missing(pins) -> list:
    """(r, curve) of each valid r in HIGH_R and curve that covers it without
    a locus line."""
    parser = cli.build_parser()
    pinned = {(a.r, a.curve) for a in (parser.parse_args(p.args) for p in pins
                                       if p.args[0] == "locus")}
    return [(r, curve) for r in HIGH_R if valid_r(r)
            for curve in ("generic", "cuspidal", "nodal")
            if (r, curve) not in pinned and (curve != "nodal" or r % 3 == 1)]


def main() -> int:
    pins = read_pins()
    with numpy_blocked():
        problems = [line for pin in pins if pin.args[0] == "constraints"
                    for line in check(pin)]
    problems += [line for pin in pins if pin.args[0] != "constraints" for line in check(pin)]
    problems += [f"locus --r {r} --curve {curve} has no pin line" for r, curve in missing(pins)]
    for line in problems:
        print(line)
    print(f"{len(pins)} pin lines, {len(problems)} failed checks")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
