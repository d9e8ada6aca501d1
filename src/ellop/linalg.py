"""Linear solving over fraction fields of polynomial rings.

Elimination is fraction-free (Bareiss): rows are cleared of denominators up
front and every division along the way is an exact polynomial division, so
compatibility conditions come out as honest polynomials with deterministic
content-1 normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poly import MultiPoly, RatFunc, exact_div


@dataclass
class LinearSolution:
    solution: list          # one RatFunc per unknown (free unknowns are 0)
    free_variables: list    # column indices with no pivot
    conditions: list        # MultiPoly compatibility conditions, content 1

    @property
    def consistent_generically(self) -> bool:
        return not self.conditions


def _as_poly_rows(matrix, rhs):
    rows = []
    for row, b in zip(matrix, rhs):
        entries = [RatFunc.from_value(x) for x in row] + [RatFunc.from_value(b)]
        den = MultiPoly.const(1)
        for x in entries:
            den = den * x.den
        cleared = []
        for x in entries:
            cleared.append((x.num * exact_div(den, x.den)))
        rows.append(cleared)
    return rows


def solve_linear_over_field(matrix, rhs) -> LinearSolution:
    """Solve M x = rhs over the fraction field of a polynomial ring.

    Entries may be MultiPoly, RatFunc, or rationals.  Returns a particular
    solution with free unknowns set to zero, the list of free columns, and
    the compatibility conditions (numerators of residual equations, content
    normalized, in row order).  An empty system yields empty outputs.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    if nrows == 0 or ncols == 0:
        conditions = []
        for b in rhs:
            b = RatFunc.from_value(b)
            if not b.is_zero():
                conditions.append(b.num.primitive())
        return LinearSolution([], list(range(ncols)), conditions)

    rows = _as_poly_rows(matrix, rhs)
    pivots = []  # (row, col)
    prev_pivot = MultiPoly.const(1)
    prow = 0
    for col in range(ncols):
        # find a pivot at or below prow
        sel = None
        for r in range(prow, nrows):
            if not rows[r][col].is_zero():
                sel = r
                break
        if sel is None:
            continue
        rows[prow], rows[sel] = rows[sel], rows[prow]
        piv = rows[prow][col]
        for r in range(prow + 1, nrows):
            if all(rows[r][k].is_zero() for k in range(col, ncols + 1)):
                continue
            rows[r] = [
                exact_div(piv * rows[r][k] - rows[r][col] * rows[prow][k], prev_pivot)
                for k in range(ncols + 1)
            ]
        pivots.append((prow, col))
        prev_pivot = piv
        prow += 1
        if prow == nrows:
            break

    conditions = []
    for r in range(prow, nrows):
        resid = rows[r][ncols]
        if not resid.is_zero():
            conditions.append(resid.primitive())

    free = [c for c in range(ncols) if c not in {col for _, col in pivots}]
    solution = [RatFunc(0) for _ in range(ncols)]
    for r, col in reversed(pivots):
        acc = RatFunc(rows[r][ncols])
        for k in range(col + 1, ncols):
            if not rows[r][k].is_zero():
                acc = acc - RatFunc(rows[r][k]) * solution[k]
        solution[col] = acc / RatFunc(rows[r][col])
    return LinearSolution(solution, free, conditions)
