"""Lists the functions in src/ellop that no program path enters.

    python tools/reach.py

Run it from anywhere; it imports ellop from src/ and the benchmark's
workloads from perfbench/.  In this one process, under ``sys.setprofile``,
it runs a fixed probe:

- the CLI commands in COMMANDS, which between them run all 13 subcommands,
  `verify-paper` and a few usage errors among them;
- ``acceptance.run_all(4)``, a seed at which a criterion fails;
- one pass of each perfbench workload at seed 0, checks included.

Then it prints every function or method defined in src/ellop that the probe
never entered and that ALLOWED does not name, one per line, and exits 1 if
it printed anything.  Functions are named "<module>.<qualified name>", as in
"poly.MultiPoly.__eq__".  It takes no options.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ellop"
PERFBENCH = ROOT / "perfbench"

#: functions the probe does not enter that stay in src, and why
ALLOWED = {
    "poly.MultiPoly.__eq__": "value equality across universes; tests compare polynomials with ==",
    "poly.MultiPoly.__hash__": "a class that defines __eq__ needs it to stay hashable",
    "poly.MultiPoly.__str__": "error messages show a polynomial through it "
                              "(\"not a constant: {self}\")",
    "poly.MultiPoly.__repr__": "how a failing test or a debugger shows a polynomial",
    "poly.RatFunc.__eq__": "value equality; tests compare rational functions with ==",
    "poly.RatFunc.__hash__": "a class that defines __eq__ needs it to stay hashable",
    "poly.RatFunc.__str__": "as_poly's error message shows a rational function through it",
    "poly.RatFunc.__repr__": "how a failing test or a debugger shows a rational function",
    "poly.RatFunc.substitute": "perfbench's poly.substitute span hooks it",
    "elliptic.EllipticElement.__eq__": "value equality; tests compare ring elements with ==",
}

#: CLI argument vectors; each subcommand runs at least once
COMMANDS = (
    ("indicial", "--n", "2", "--b2", "-6"),
    ("indicial", "--n", "3", "--b2", "-12", "--b3", "1/2"),
    ("indicial", "--n", "1"),
    ("homog-check", "--n", "3", "--indices=-1,1,3"),
    ("constraints", "--q", "2", "--r", "2"),
    ("constraints", "--q", "3", "--r", "3"),
    ("locus", "--r", "2", "--q-max", "5"),
    ("locus", "--r", "13", "--q-max", "13", "--curve", "nodal"),
    ("reconstruct", "--r", "2", "--quantity", "c/e2"),
    ("reconstruct", "--r", "4", "--quantity", "c2/g2"),
    ("jtable", "--r", "1", "--count", "2"),
    ("commute", "--operator", "second:a=-2", "--order", "3"),
    ("commute", "--operator", "cyclic:n=3,indices=-1|1|3,curve=lemniscatic", "--order", "4"),
    ("cm2-residuals", "--points", "0.13+0.21j;0.41-0.07j", "--mults", "1,1"),
    ("cm3-crit", "--points", "0.21+0.11j;0.62-0.07j", "--momenta", "0.4;-0.4", "--c", "1.0"),
    ("cm3-crit", "--points", "0.21+0.11j;0.62-0.07j", "--momenta", "0.4;-0.4", "--c", "1.0",
     "--solve"),
    ("cryst3-crit", "--points", "0.23+0.14j;-0.11+0.39j", "--momenta", "0.5;0.2-0.1j",
     "--alphas", "1.2;0.7;1.1", "--betas", "0.3;-0.2;0.1"),
    ("inozemtsev-grad", "--points", "0.21+0.33j;0.57-0.12j", "--ms", "1;0.5;0.25;0.1"),
    ("monodromy", "--operator", "second:a=-2", "--lambda", "1.5"),
    ("monodromy", "--operator", "second:a=0.5j", "--lambda", "1", "--tau", "0.3+1.1j"),
    ("monodromy", "--operator", "third:q=2,r=2,c=-3,e=3", "--lambda", "0.7"),
    ("monodromy", "--operator", "junk:x=1", "--lambda", "1"),
    ("--seed", "0", "verify-paper"),
)


def defined() -> dict:
    """{(path, first line): name} of every function and method in src/ellop.
    The first line is that of the first decorator if there is one, which is
    what a code object's co_firstlineno holds."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(str(path), first)] = prefix + child.name
                visit(child, path, prefix + child.name + ".<locals>.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path, path.stem + ".")
    return out


def probe() -> set:
    """(path, first line) of every code object the probe entered."""
    sys.path[:0] = [str(ROOT / "src"), str(PERFBENCH)]
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        from ellop import acceptance, cli
        import workloads

        for argv in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                cli.main(list(argv))
        acceptance.run_all(4)
        reference = json.loads((PERFBENCH / "reference.json").read_text())
        for workload in workloads.WORKLOADS.values():
            inputs = workload.prepare(0, None)
            workload.check(inputs, workload.run(inputs), reference)
    finally:
        sys.setprofile(None)
    return {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in entered}


def main() -> int:
    functions = defined()
    entered = probe()
    unreached = [f"{name}  ({Path(path).relative_to(ROOT)}:{line})"
                 for (path, line), name in sorted(functions.items())
                 if (os.path.realpath(path), line) not in entered and name not in ALLOWED]
    for line in unreached:
        print(line)
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main())
