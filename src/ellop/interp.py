"""Exact rational-function interpolation in one variable.

The interpolant's coefficients are a kernel vector of a rational matrix,
found by integer Bareiss elimination (rows cleared of denominators, exact
``//``) and a Fraction back-substitution for one column only.
"""

from __future__ import annotations

import math

from .rationals import ONE, ZERO, as_rat
from .poly import MultiPoly, RatFunc


class ReconstructionError(ArithmeticError):
    """No rational function within the degree bounds matches the samples."""


def _kernel_vector(rows, ncols):
    """The kernel vector of a rational matrix with a 1 at the first free
    column f and 0 at every other free column; None if no column is free.

    Each row is cleared of denominators and reduced by integer Bareiss
    elimination with exact ``//``.  Columns 0..f-1 all hold pivots, on the
    diagonal, and the rows below them are zero in column f, so the vector is
    0 after f and its first f entries come from back-substitution in the
    leading f x f triangle.  Elimination stops at f.
    """
    m = []
    for row in rows:
        den = math.lcm(*(x.denominator for x in row))
        m.append([x.numerator * (den // x.denominator) for x in row])
    nrows = len(m)
    prev = 1
    for col in range(ncols):
        sel = next((r for r in range(col, nrows) if m[r][col]), None)
        if sel is None:
            break
        m[col], m[sel] = m[sel], m[col]
        top = m[col]
        piv = top[col]
        # rows below the pivot are zero left of col+1 in the eliminated
        # matrix and those entries are never read again; update col+1.. only
        for r in range(col + 1, nrows):
            row = m[r]
            a = row[col]
            row[col + 1:] = [(piv * x - a * y) // prev
                             for x, y in zip(row[col + 1:], top[col + 1:])]
        prev = piv
    else:
        return None
    f = col
    vec = [ZERO] * ncols
    vec[f] = ONE
    for r in reversed(range(f)):
        acc = sum(m[r][k] * vec[k] for k in range(r + 1, f + 1))
        vec[r] = -acc / m[r][r]
    return vec


def rational_interpolate(points, dn: int, dd: int) -> RatFunc:
    """Unique rational function of q with num degree <= dn, den degree <= dd
    passing through the given (q0, value) exact samples.

    Raises ReconstructionError if the samples are inconsistent with the
    bounds (callers may raise the bounds and retry).
    """
    pts = [(as_rat(x), as_rat(v)) for x, v in points]
    xs = [x for x, _ in pts]
    if len(set(xs)) != len(xs):
        raise ValueError("sample abscissae must be distinct")
    if len(pts) < dn + dd + 1:
        raise ReconstructionError(
            f"need at least {dn + dd + 1} samples for bounds ({dn}, {dd}), got {len(pts)}"
        )
    ncols = dn + 1 + dd + 1
    rows = []
    for x, v in pts:
        row = [x**j for j in range(dn + 1)] + [-v * x**j for j in range(dd + 1)]
        rows.append(row)
    vec = _kernel_vector(rows, ncols)
    if vec is None:
        raise ReconstructionError("no rational function within the degree bounds")
    num = MultiPoly.zero(("q",))
    for j, cf in enumerate(vec[: dn + 1]):
        if cf != 0:
            num = num + MultiPoly.var("q", j, cf)
    den = MultiPoly.zero(("q",))
    for j, cf in enumerate(vec[dn + 1 :]):
        if cf != 0:
            den = den + MultiPoly.var("q", j, cf)
    if den.is_zero():
        raise ReconstructionError("degenerate kernel: zero denominator")
    f = RatFunc(num, den)
    # kernel solutions can hide a pole at a sample; verify every point
    for x, v in pts:
        try:
            if f.evaluate_exact({"q": x}) != v:
                raise ReconstructionError("interpolant misses a sample point")
        except ZeroDivisionError as exc:
            raise ReconstructionError("interpolant has a pole at a sample") from exc
    return f
