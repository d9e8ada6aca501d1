"""Linear solving over fraction fields of polynomial rings.

Elimination is fraction-free (Bareiss): rows are cleared of denominators up
front (a row whose denominators are all 1 is taken as it is) and every
division along the way is an exact polynomial division, so compatibility
conditions come out as honest polynomials with deterministic content-1
normalization.  The update for pivot column col touches columns col+1..ncols
only, since the rows below the pivot are zero left of col; a zero entry
skips its product and a zero numerator skips its division.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poly import MultiPoly, RatFunc, exact_div


@dataclass
class LinearSolution:
    solution: list          # one RatFunc per unknown (free unknowns are 0)
    free_variables: list    # column indices with no pivot
    conditions: list        # MultiPoly compatibility conditions, content 1


def _as_poly_rows(matrix, rhs):
    rows = []
    for row, b in zip(matrix, rhs):
        entries = [RatFunc.from_value(x) for x in row] + [RatFunc.from_value(b)]
        if all(x.den.is_constant() for x in entries):
            # a RatFunc with a constant denominator has denominator 1
            rows.append([x.num for x in entries])
            continue
        den = MultiPoly.const(1)
        for x in entries:
            den = den * x.den
        rows.append([x.num * exact_div(den, x.den) for x in entries])
    return rows


def solve_linear_over_field(matrix, rhs) -> LinearSolution:
    """Solve M x = rhs over the fraction field of a polynomial ring.

    Entries may be MultiPoly, RatFunc, or rationals.  Returns a particular
    solution with free unknowns set to zero, the list of free columns, and
    the compatibility conditions (numerators of residual equations, content
    normalized, in row order).  An empty system yields empty outputs.
    Raises ValueError unless rhs has one entry per row and the rows have
    equal length.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    if len(rhs) != nrows:
        raise ValueError(f"{len(rhs)} right-hand sides for {nrows} rows")
    if any(len(row) != ncols for row in matrix):
        raise ValueError(f"ragged matrix: row lengths {sorted({len(row) for row in matrix})}")

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
        top = rows[prow]
        piv = top[col]
        # Invariant: in the eliminated matrix, rows prow.. are zero left of
        # col, since every earlier column was cleared below its pivot or had
        # no pivot, and this update clears column col.  Those entries are
        # never read again, so they are left as they are and
        # (piv*x - a*y) / prev_pivot is computed for columns col+1..ncols.
        for r in range(prow + 1, nrows):
            row = rows[r]
            a = row[col]
            for k in range(col + 1, ncols + 1):
                x, y = row[k], top[k]
                if a.is_zero() or y.is_zero():
                    if x.is_zero():
                        continue
                    num = piv * x
                elif x.is_zero():
                    num = -(a * y)
                else:
                    num = piv * x - a * y
                row[k] = exact_div(num, prev_pivot) if not num.is_zero() else num
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
