"""Linear solving over a polynomial ring.

Elimination is fraction-free (Bareiss): every division along the way is an
exact polynomial division, so the eliminated rows stay polynomial.  The
update for pivot column col touches columns col+1..ncols only, since the
rows below the pivot are zero left of col; a zero entry skips its product
and a zero numerator skips its division.  Back-substitution stays in the
ring too: it solves for d times the solution, d the last pivot, so every
quotient is exact.  The solver keeps
its name, ``solve_linear_over_field``: the benchmark's layer tracer hooks it
by that name.
"""

from __future__ import annotations

from .poly import MultiPoly, exact_div, try_div


def solve_linear_over_field(matrix, rhs):
    """A polynomial solution of M x = d rhs, the free unknowns set to 0.

    Entries of matrix and rhs are MultiPoly.  Returns (d, x), x one
    MultiPoly per unknown, or None exactly when the system is inconsistent.
    d is 1 when the solution x of M x = rhs is polynomial.  Otherwise d is
    the last Bareiss pivot, the determinant of the pivot rows and columns,
    so by Cramer's rule d x is polynomial, and it comes back in place of x.
    So whether a system is solved does not depend on the order of its
    unknowns.  A system without unknowns is solved by (1, []) exactly when
    rhs is zero.  Raises ValueError unless rhs has one entry per row and
    the rows have equal length.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    if len(rhs) != nrows:
        raise ValueError(f"{len(rhs)} right-hand sides for {nrows} rows")
    if any(len(row) != ncols for row in matrix):
        raise ValueError(f"ragged matrix: row lengths {sorted({len(row) for row in matrix})}")

    rows = [list(row) + [b] for row, b in zip(matrix, rhs)]
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

    if any(not rows[r][ncols].is_zero() for r in range(prow, nrows)):
        return None
    d = prev_pivot
    scaled = [MultiPoly.zero() for _ in range(ncols)]
    for r, col in reversed(pivots):
        acc = d * rows[r][ncols]
        for k in range(col + 1, ncols):
            if not rows[r][k].is_zero():
                acc = acc - rows[r][k] * scaled[k]
        scaled[col] = exact_div(acc, rows[r][col])
    plain = [try_div(v, d) for v in scaled]
    if any(v is None for v in plain):
        return d, scaled
    return MultiPoly.const(1), plain
