"""Certifies the gap family's solved branches by the z engine.

    python tools/certify.py

Run it from anywhere; it imports ellop from src/, and the certificate,
``standing_conditions``, and the low cells, ``LOW_CELLS``, from
tests/reference.py.  The certificate puts a branch's assignments into the
Laurent coefficients of third_order_from_gaps(q, r).localize(q + r - 1)
and runs the z engine from the lowest index
(``monodromy.trivial_monodromy_constraints``), whose conditions decide
trivial monodromy at every index.  A branch passes when
every condition vanishes, modulo its c^2 relation if it has one.  The z
engine shares only the slot runner with the x engine that found the
branch: its template comes from the Laurent series.

An inconsistent branch passes when one of its conditions cannot vanish
there: a nonzero constant, or a monomial in the variables that the branch
assumes nonzero.  Such a condition is the z engine's witness that the
branch holds no point.

It checks five sets of branches, each found by ``locus3.curve_branches``:

- generic: every solved branch (not inconsistent, not unsolved) of the
  158 valid cells with q <= 31 and r <= 22 (``LOW_CELLS``);
- nodal: every decided branch (not unsolved) of the same cells on the
  nodal curve g2 = 3 w^2, g3 = w^3 (``locus --curve nodal``), the
  inconsistent ones among them;
- cyclic: the cyclic point of each of the 112 cells that the pins of
  ``locus --r R`` scan, 23 <= R <= 64, at q = R, R+3, R+6 and R+9;
- inconsistent: every inconsistent branch of the 158 cells of generic;
- inconsistent-high: every inconsistent branch of the 48 of those 112
  cells with R <= 40.

Inconsistent branches with R > 40 stay out: one takes 1.4-2.2 s at R = 64.
It prints the number of branches of each set and one line for each branch
that fails, and exits 1 if there is any such branch, or a cell without its
cyclic point.  It takes no options.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from ellop.locus3 import curve_branches, valid_r  # noqa: E402
from reference import LOW_CELLS, standing_conditions  # noqa: E402

UNSOLVED = ("inconsistent", "unsolved")


def has_witness(branch, standing) -> bool:
    """A condition in standing cannot vanish on branch: a nonzero constant or
    a monomial in the variables that branch assumes nonzero."""
    return any((vs := p.monomial_vars()) is not None and set(vs) <= set(branch.nonzero)
               for p in standing)


def branch_sets():
    """{name: [(branch, the name of its curve)]}, and the cells without a
    cyclic point."""
    generic = [b for q, r in LOW_CELLS for b in curve_branches(q, r)]
    sets = {
        "generic": [(b, "generic") for b in generic if b.classification not in UNSOLVED],
        "nodal": [(b, "nodal") for q, r in LOW_CELLS for b in curve_branches(q, r, "nodal")
                  if b.classification != "unsolved"],
        "cyclic": [],
        "inconsistent": [(b, "generic") for b in generic if b.classification == "inconsistent"],
        "inconsistent-high": [],
    }
    missing = []
    high = [(q, r) for r in range(23, 65) if valid_r(r) for q in range(r, r + 10, 3)]
    for q, r in high:
        branches = curve_branches(q, r)
        points = [b for b in branches if b.classification == "cyclic-point"]
        sets["cyclic"] += [(b, "generic") for b in points]
        if r <= 40:
            sets["inconsistent-high"] += [(b, "generic") for b in branches
                                          if b.classification == "inconsistent"]
        if not points:
            missing.append((q, r))
    return sets, missing


def main() -> int:
    sets, missing = branch_sets()
    failed = bool(missing)
    for q, r in missing:
        print(f"q={q} r={r}: no cyclic-point branch")
    for name, branches in sets.items():
        print(f"{name}: {len(branches)} branches")
        for b, curve in branches:
            standing = standing_conditions(b, b.assignments, curve)
            if b.classification == "inconsistent":
                if not has_witness(b, standing):
                    failed = True
                    print(f"  q={b.q} r={b.r} inconsistent: none of its {len(standing)}"
                          " standing conditions is a witness")
            elif standing:
                failed = True
                print(f"  q={b.q} r={b.r} {b.classification}: {len(standing)} conditions stand,"
                      f" the first {standing[0].text()}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
