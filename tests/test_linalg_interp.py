"""Exact linear algebra over the rational function field and interpolation."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from ellop.rationals import Rat
from ellop.poly import MultiPoly, RatFunc, exact_div
from ellop.linalg import solve_linear_over_field
from ellop.interp import ReconstructionError, _kernel_vector, rational_interpolate


rats = st.fractions(min_value=-20, max_value=20, max_denominator=5).map(
    lambda f: Rat(f.numerator, f.denominator)
)


@given(st.lists(st.lists(rats, min_size=3, max_size=3), min_size=3, max_size=5))
@settings(max_examples=40, deadline=None)
def test_solution_satisfies_system(rows):
    matrix = [[MultiPoly.const(v) for v in row] for row in rows]
    rhs = [MultiPoly.const(sum(row, Rat(0))) for row in rows]
    sol = solve_linear_over_field(matrix, rhs)
    if sol.conditions:
        return
    values = sol.solution        # free unknowns come back as zero
    for row, b in zip(rows, rhs):
        acc = RatFunc(0)
        for cf, x in zip(row, values):
            acc = acc + x * cf
        assert (acc - RatFunc(b)).is_zero()


def test_all_ones_solution_exists():
    # rhs is the row sum, so x = (1,1,1) must satisfy the system
    rows = [[1, 2, 3], [2, 0, 1], [5, 5, 5]]
    matrix = [[MultiPoly.const(Rat(v)) for v in row] for row in rows]
    rhs = [MultiPoly.const(Rat(sum(row))) for row in rows]
    sol = solve_linear_over_field(matrix, rhs)
    assert not sol.conditions


def test_inconsistent_system_reports_conditions():
    matrix = [[MultiPoly.const(Rat(1))], [MultiPoly.const(Rat(1))]]
    rhs = [MultiPoly.const(Rat(1)), MultiPoly.const(Rat(2))]
    sol = solve_linear_over_field(matrix, rhs)
    assert sol.conditions


def poly_eval(coeffs, x):
    acc = Rat(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@given(
    st.lists(rats, min_size=1, max_size=4),
    st.lists(rats, min_size=1, max_size=3),
)
@settings(max_examples=30, deadline=None)
def test_interpolation_round_trip(num, den):
    if all(v == 0 for v in num):
        num = [Rat(1)]
    den = [Rat(1)] + den              # keep the denominator nonzero at 0
    dn, dd = len(num) - 1, len(den) - 1
    pts = []
    x = Rat(0)
    while len(pts) < dn + dd + 3:
        dv = poly_eval(den, x)
        if dv != 0:
            pts.append((x, poly_eval(num, x) / dv))
        x += 1
    fn = rational_interpolate(pts, dn, dd)
    for x, y in pts:
        assert fn.evaluate_exact({"q": x}) == y


def test_interpolation_degree_too_small():
    pts = [(Rat(k), Rat(k * k * k)) for k in range(1, 8)]
    with pytest.raises(ReconstructionError):
        rational_interpolate(pts, 1, 0)


# -- input shape ---------------------------------------------------------------


@pytest.mark.parametrize("matrix,rhs", [
    ([[1, 2]], [1, 5]),            # a right-hand side without a row
    ([[1], [3, 4]], [1, 1]),       # ragged rows
    ([[1, 2], [3, 4]], [1]),       # a row without a right-hand side
    ([], [1]),
])
def test_misshapen_system_is_rejected(matrix, rhs):
    with pytest.raises(ValueError):
        solve_linear_over_field(matrix, rhs)


def test_system_without_unknowns_reports_nonzero_rhs():
    sol = solve_linear_over_field([[], [], []], [0, Rat(-2, 3), MultiPoly.var("c")])
    assert sol.solution == [] and sol.free_variables == []
    assert [c.text() for c in sol.conditions] == ["1", "c"]
    assert solve_linear_over_field([], []) == type(sol)([], [], [])


# -- equivalence with plain dense elimination ----------------------------------
#
# The solvers skip work known to be zero.  These copies do all of it: a
# Bareiss update of every column, and Gauss-Jordan over Q.  Both pairs must
# agree on every output.


def _dense_bareiss_solve(matrix, rhs):
    rows = []
    for row, b in zip(matrix, rhs):
        entries = [RatFunc.from_value(x) for x in row] + [RatFunc.from_value(b)]
        den = MultiPoly.const(1)
        for x in entries:
            den = den * x.den
        rows.append([x.num * exact_div(den, x.den) for x in entries])
    nrows, ncols = len(rows), len(matrix[0])
    pivots, prev, prow = [], MultiPoly.const(1), 0
    for col in range(ncols):
        sel = next((r for r in range(prow, nrows) if not rows[r][col].is_zero()), None)
        if sel is None:
            continue
        rows[prow], rows[sel] = rows[sel], rows[prow]
        piv = rows[prow][col]
        for r in range(prow + 1, nrows):
            rows[r] = [exact_div(piv * rows[r][k] - rows[r][col] * rows[prow][k], prev)
                       for k in range(ncols + 1)]
        pivots.append((prow, col))
        prev = piv
        prow += 1
        if prow == nrows:
            break
    conditions = [rows[r][ncols].primitive() for r in range(prow, nrows)
                  if not rows[r][ncols].is_zero()]
    free = [c for c in range(ncols) if c not in {col for _, col in pivots}]
    solution = [RatFunc(0) for _ in range(ncols)]
    for r, col in reversed(pivots):
        acc = RatFunc(rows[r][ncols])
        for k in range(col + 1, ncols):
            acc = acc - RatFunc(rows[r][k]) * solution[k]
        solution[col] = acc / RatFunc(rows[r][col])
    return solution, free, conditions


def _gauss_jordan_kernel(rows, ncols):
    rows = [list(r) for r in rows]
    pivots, prow = {}, 0
    for col in range(ncols):
        sel = next((r for r in range(prow, len(rows)) if rows[r][col] != 0), None)
        if sel is None:
            continue
        rows[prow], rows[sel] = rows[sel], rows[prow]
        rows[prow] = [x / rows[prow][col] for x in rows[prow]]
        for r in range(len(rows)):
            if r != prow:
                rows[r] = [x - rows[r][col] * y for x, y in zip(rows[r], rows[prow])]
        pivots[col] = prow
        prow += 1
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return None
    vec = [Rat(0)] * ncols
    vec[free[0]] = Rat(1)
    for col, r in pivots.items():
        vec[col] = -rows[r][free[0]]
    return vec


def _random_poly(rng):
    out = MultiPoly.zero()
    for _ in range(rng.randint(1, 3)):
        mono = MultiPoly.const(Rat(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 5])))
        for v in ("c", "g2", "g3"):
            mono = mono * MultiPoly.var(v, rng.randint(0, 2)) if rng.random() < 0.4 else mono
        out = out + mono
    return out


def _random_entry(rng, density):
    if rng.random() > density:
        return MultiPoly.zero()
    if rng.random() < 0.08:
        return RatFunc(_random_poly(rng), MultiPoly.var("c") + rng.choice([1, -2, 3]))
    return _random_poly(rng)


def _random_sparse_system(seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 5), rng.randint(1, 4)
    density = rng.choice([0.2, 0.35, 0.5, 0.8])
    matrix = [[_random_entry(rng, density) for _ in range(ncols)] for _ in range(nrows)]
    rhs = [_random_entry(rng, density) for _ in range(nrows)]
    if nrows > 1 and rng.random() < 0.4:
        # a repeated row: consistent with its copy, or not
        src, dst = rng.sample(range(nrows), 2)
        matrix[dst] = list(matrix[src])
        rhs[dst] = rhs[src] if rng.random() < 0.5 else rhs[src] + 1
    return matrix, rhs


def _texts(values):
    return [v.text() for v in values]


@pytest.mark.parametrize("block", range(8))
def test_sparse_bareiss_matches_dense_elimination(block):
    for seed in range(25 * block, 25 * block + 25):
        matrix, rhs = _random_sparse_system(seed)
        got = solve_linear_over_field(matrix, rhs)
        solution, free, conditions = _dense_bareiss_solve(matrix, rhs)
        assert _texts(got.solution) == _texts(solution), seed
        assert got.free_variables == free, seed
        assert _texts(got.conditions) == _texts(conditions), seed


def _random_rational_matrix(seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 6), rng.randint(2, 6)
    density = rng.choice([0.3, 0.6, 1.0])
    rows = [[Rat(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 7])) if rng.random() < density
             else Rat(0) for _ in range(ncols)] for _ in range(nrows)]
    for col in rng.sample(range(ncols), rng.randint(0, 2)):
        for row in rows:
            row[col] = Rat(0)          # a zero column
    if nrows > 1 and rng.random() < 0.5:
        rows[rng.randrange(nrows)] = list(rows[rng.randrange(nrows)])
    return rows, ncols


def test_integer_bareiss_kernel_matches_gauss_jordan():
    shapes = set()
    for seed in range(300):
        rows, ncols = _random_rational_matrix(seed)
        got = _kernel_vector(rows, ncols)
        assert got == _gauss_jordan_kernel(rows, ncols), seed
        if got is not None:
            assert all(sum(a * x for a, x in zip(row, got)) == 0 for row in rows)
            assert all(type(x) is Rat for x in got)
        shapes.add((len(rows) < ncols, got is None))
    assert shapes == {(True, False), (False, False), (False, True)}


@pytest.mark.parametrize("rows,ncols,expected", [
    ([[0, 0, 0]], 3, [1, 0, 0]),                           # all columns zero
    ([[0, 2, 4], [0, 1, 2]], 3, [1, 0, 0]),                # zero first column
    ([[1, 2, 3], [1, 2, 3], [1, 2, 3]], 3, [-2, 1, 0]),    # repeated rows
    ([[2, 0, 1, 5]], 4, [0, 1, 0, 0]),                     # nrows < ncols
    ([[1, 0], [0, 1], [1, 1]], 2, None),                   # full column rank
])
def test_integer_bareiss_kernel_examples(rows, ncols, expected):
    rows = [[Rat(x) for x in row] for row in rows]
    got = _kernel_vector(rows, ncols)
    assert got == (None if expected is None else [Rat(x) for x in expected])
    assert got == _gauss_jordan_kernel(rows, ncols)
