"""Checks every pinned CLI output, in one process.

    python tools/pins.py

Run it from anywhere; it imports ellop from src/.  This docstring states
the pin rules; the headers of both pin files, CI and README point here.

Every pinned output of `ellop` is a line `exit sha256 args...` of one of two
files, where blank lines and # lines are comments:

- tests/cli-pins.txt, the lines that tier-1 runs through ``check`` as well,
  and that tools/reach.py runs as its probe, so they run every subcommand;
- .github/cli-pins.txt, the lines too slow for tier-1.

No args appear on two lines of the two files together.  ``check`` judges
one line, through ``ellop.cli.main`` with its stdout and stderr captured:

- `ellop args...` must exit with the pinned code and print a stdout with
  the pinned SHA-256; a line that does not match prints its args, the exit
  code and digest it got, and the pinned ones;
- a line pinned to exit 0 must write nothing to stderr;
- the lines of the subcommands in EXACT run with numpy blocked, as does the
  import of ellop, so the pins also show that the exact path never loads
  numpy; this script runs them before any other line;
- every row that a ``locus`` line with r in HIGH_R prints has a class in
  ``acceptance.HIGH_R_CLASSES``, the cyclic point or inconsistent; a line
  below HIGH_R may print any class.

``missing`` checks that every valid r in HIGH_R has a ``locus`` line on the
generic curve and on the cuspidal one, and on the nodal one when r = 1
(mod 3), and names each (r, curve) without one.  The class rule is a
computation over the pinned cells, not a proof that it holds at every r.

It runs every line of both files before it exits, with 1 if any check
failed.  It takes no options.
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
#: the lines that tier-1 runs, and the slow ones that only CI runs
TIER1 = ROOT / "tests" / "cli-pins.txt"
SLOW = ROOT / ".github" / "cli-pins.txt"
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

#: the subcommands that do exact work only, as README's Install section lists them
EXACT = frozenset({"constraints", "locus", "jtable", "reconstruct", "commute", "indicial",
                   "homog-check"})
#: the r of the class rule, which the locus lines must cover
HIGH_R = range(23, 65)


class Pin(NamedTuple):
    code: int
    sha: str
    args: list


def read_pins(path) -> list:
    """The pins of path, in file order; blank and # lines are skipped."""
    pins = []
    for line in path.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            code, sha, *args = line.split()
            pins.append(Pin(int(code), sha, args))
    return pins


def subcommand(args):
    """The subcommand that args name, or None for a usage error without one."""
    return next((a for a in args if a in cli._DISPATCH), None)


def run(args) -> tuple:
    """`ellop args` in this process: its exit code, its stdout and its
    stderr.  An exception that escapes main exits 1 with its traceback, as it
    would in a process of its own."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def off_class_rows(stdout: str) -> list:
    """The rows of a locus CSV whose class is not in HIGH_R_CLASSES."""
    return [row for row in csv.DictReader(io.StringIO(stdout))
            if row["classification"] not in HIGH_R_CLASSES]


def check(pin) -> list:
    """One line per way in which pin fails."""
    command = subcommand(pin.args)
    with numpy_blocked() if command in EXACT else contextlib.nullcontext():
        code, stdout, stderr = run(pin.args)
    sha = hashlib.sha256(stdout.encode()).hexdigest()
    args = " ".join(pin.args)
    tail = stderr.strip().rpartition("\n")[2]
    problems = []
    if (code, sha) != (pin.code, pin.sha):
        problems.append(f"{args}: exit {code}, sha256 {sha}; pinned exit {pin.code}, "
                        f"sha256 {pin.sha}" + (f"; stderr ends {tail!r}" if tail else ""))
    elif code == 0 and stderr:
        problems.append(f"{args}: exit 0, but stderr ends {tail!r}")
    if command == "locus" and code == 0 and cli.build_parser().parse_args(pin.args).r in HIGH_R:
        problems += [f"{args}: {','.join(row.values())}" for row in off_class_rows(stdout)]
    return problems


def missing(pins) -> list:
    """(r, curve) of each valid r in HIGH_R and curve that covers it without
    a locus line."""
    parser = cli.build_parser()
    pinned = {(a.r, a.curve) for a in (parser.parse_args(p.args) for p in pins
                                       if subcommand(p.args) == "locus")}
    return [(r, curve) for r in HIGH_R if valid_r(r)
            for curve in ("generic", "cuspidal", "nodal")
            if (r, curve) not in pinned and (curve != "nodal" or r % 3 == 1)]


def main() -> int:
    pins = read_pins(TIER1) + read_pins(SLOW)
    # the exact lines first, before a numeric line has loaded numpy
    ordered = sorted(pins, key=lambda pin: subcommand(pin.args) not in EXACT)
    problems = [line for pin in ordered for line in check(pin)]
    problems += [f"locus --r {r} --curve {curve} has no pin line" for r, curve in missing(pins)]
    for line in problems:
        print(line)
    print(f"{len(pins)} pin lines, {len(problems)} failed checks")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
