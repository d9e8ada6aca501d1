"""Lists the functions in src/ellop that no program path enters.

    python tools/reach.py

Run it from anywhere; it imports ellop from src/ and tools/pins.py.  In
this one process, under ``sys.setprofile``, it runs a fixed probe of
program paths:

- every line of tests/cli-pins.txt, through ``pins.run`` of tools/pins.py:
  the pinned CLI runs that tier-1 checks, which between them run all 13
  subcommands, `verify-paper` and a few usage errors among them;
- ``acceptance.run_all(4)``, a seed at which a criterion fails.

Then it prints every function or method defined in src/ellop that the probe
never entered and that ALLOWED does not name, one per line, and exits 1 if
it printed anything.  Functions are named "<module>.<qualified name>", as in
"poly.MultiPoly.__eq__".  It takes no options.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ellop"

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
    "monodromy.frobenius_solve": "perfbench's monodromy.frobenius span hooks it; tests read "
                                 "every f_k of a z run through it",
    "monodromy._LambdaSlots.unpack": "frobenius_solve unpacks the obstructions for that span, "
                                     "and tests the f_k",
    "oracle.integrability_verdict": "perfbench's numeric workload calls it",
    "elliptic.EllipticElement.__eq__": "value equality; tests compare ring elements with ==",
}

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
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tools")]
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        from ellop import acceptance
        import pins

        for pin in pins.read_pins(pins.TIER1):
            pins.run(pin.args)
        acceptance.run_all(4)
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
