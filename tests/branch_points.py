"""Numeric points on the solved branches of the gap family, for loop
transport.

branch_point(branch, lat, rng) puts a point on a one-parameter-family or
finite-set branch of ``triangular_solve(constraints_for(q, r))`` whose
invariants are those of lat.  A free c or e is drawn from rng, a free g2 or
g3 is lat's, and a c^2 relation gives c as a square root.  On a finite-set
branch one invariant is assigned; the point is scaled along the weights of
``poly.WEIGHTS`` (e 1, c 2, g2 4, g3 6), which map the branch to itself,
until that invariant is lat's too.  off_branch_point moves one coordinate
that the branch determines, c or e, by 1: an O(1) move, since near the
cyclic point a small one is invisible to the loop.  Branches with both
invariants assigned (exotic-j) need a lattice of given j, which this
module does not find.
"""

from __future__ import annotations

import cmath

from ellop.poly import WEIGHTS

_ROUNDS = 60                      # scaling steps of a finite-set branch


def _evaluate(branch, free):
    """free, with every assigned variable and a c^2 relation evaluated."""
    point = dict(free)
    for v, value in branch.assignments.items():
        point[v] = complex(value.evaluate(point))
    if branch.relation is not None:
        v, square = branch.relation
        point[v] = cmath.sqrt(square.evaluate(point))
    return point


def branch_point(branch, lat, rng) -> dict:
    """(c, e, g2, g3) on branch with lat's invariants, as a dict."""
    if branch.classification not in ("one-parameter-family", "finite-set"):
        raise ValueError(f"no point for a {branch.classification} branch")
    invariants = {"g2": lat.g2, "g3": lat.g3}
    free = {v: invariants[v] if v in invariants
            else complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
            for v in branch.free}
    assigned = [v for v in invariants if v in branch.assignments]
    for _ in range(_ROUNDS):
        point = _evaluate(branch, free)
        if not assigned:
            return point
        (x,) = assigned
        t = (invariants[x] / point[x]) ** (1 / WEIGHTS[x])
        if abs(t - 1) < 1e-15:
            return point
        for v in free:
            if v not in invariants:
                free[v] *= t ** WEIGHTS[v]
    raise ArithmeticError(f"({branch.q}, {branch.r}): {x} did not reach the lattice's")


def off_branch_point(branch, point) -> dict:
    """point with the first of c, e that branch determines moved by 1."""
    determined = set(branch.assignments)
    if branch.relation is not None:
        determined.add(branch.relation[0])
    v = next(v for v in ("c", "e") if v in determined)
    return {**point, v: point[v] + 1}
