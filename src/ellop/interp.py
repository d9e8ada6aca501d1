"""Exact rational-function interpolation in one variable."""

from __future__ import annotations

from .rationals import ONE, ZERO, as_rat
from .poly import MultiPoly, RatFunc


class ReconstructionError(ArithmeticError):
    """No rational function within the degree bounds matches the samples."""


def _kernel_vector(rows, ncols):
    """First kernel basis vector of a rational matrix (Gauss over Q)."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    pivots = {}
    prow = 0
    for col in range(ncols):
        sel = next((r for r in range(prow, nrows) if rows[r][col] != 0), None)
        if sel is None:
            continue
        rows[prow], rows[sel] = rows[sel], rows[prow]
        inv = 1 / rows[prow][col]
        rows[prow] = [x * inv for x in rows[prow]]
        for r in range(nrows):
            if r != prow and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[prow])]
        pivots[col] = prow
        prow += 1
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return None
    f = free[0]
    vec = [ZERO] * ncols
    vec[f] = ONE
    for col, r in pivots.items():
        vec[col] = -rows[r][f]
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
