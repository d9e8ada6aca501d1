"""Exact linear algebra over a polynomial ring and interpolation."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from ellop.rationals import Rat
from ellop.poly import MultiPoly, RatFunc, exact_div
from ellop.linalg import solve_linear_over_field
from ellop import interp
from ellop.interp import ReconstructionError, rational_interpolate

from reference import from_terms


rats = st.fractions(min_value=-20, max_value=20, max_denominator=5).map(
    lambda f: Rat(f.numerator, f.denominator)
)


@given(st.lists(st.lists(rats, min_size=3, max_size=3), min_size=3, max_size=5))
@settings(max_examples=40, deadline=None)
def test_solution_satisfies_system(rows):
    matrix = [[MultiPoly.const(v) for v in row] for row in rows]
    rhs = [MultiPoly.const(sum(row, Rat(0))) for row in rows]
    d, sol = solve_linear_over_field(matrix, rhs)
    # x = (1, 1, 1) solves it, and a constant pivot divides exactly
    assert d == MultiPoly.const(1)
    for row, b in zip(matrix, rhs):
        acc = MultiPoly.zero()
        for cf, x in zip(row, sol):     # free unknowns come back as zero
            acc = acc + cf * x
        assert (acc - b).is_zero()


def test_all_ones_solution_exists():
    # rhs is the row sum and the matrix is regular, so x = (1,1,1)
    rows = [[1, 2, 3], [2, 0, 1], [5, 5, 5]]
    matrix = [[MultiPoly.const(Rat(v)) for v in row] for row in rows]
    rhs = [MultiPoly.const(Rat(sum(row))) for row in rows]
    d, sol = solve_linear_over_field(matrix, rhs)
    assert d == MultiPoly.const(1)
    assert [v.text() for v in sol] == ["1", "1", "1"]


def test_inconsistent_system_has_no_solution():
    matrix = [[MultiPoly.const(Rat(1))], [MultiPoly.const(Rat(1))]]
    rhs = [MultiPoly.const(Rat(1)), MultiPoly.const(Rat(2))]
    assert solve_linear_over_field(matrix, rhs) is None


def test_a_denominator_is_cleared_by_the_last_pivot():
    # g2 x = 1 has the solution 1/g2, which is not in the polynomial ring:
    # it comes back scaled by the last pivot, g2, as g2 x = 1 with x = 1.
    # 2 x = 1 has 1/2, which is, so its pivot 2 scales nothing
    one, g2 = MultiPoly.const(1), MultiPoly.var("g2")
    assert solve_linear_over_field([[g2]], [one]) == (g2, [one])
    assert solve_linear_over_field([[MultiPoly.const(2)]], [one]) == (
        one, [MultiPoly.const(Rat(1, 2))])


def test_both_column_orders_find_a_solution():
    # (g2, 1) x = 1 pivots on g2 with x_1 free at 0, so x_0 = 1/g2 and the
    # solution comes scaled by g2; (1, g2) x = 1 pivots on 1 and gives
    # x = (1, 0).  Reporting no solution for the first order would make the
    # answer depend on the order of the unknowns
    one, zero, g2 = MultiPoly.const(1), MultiPoly.zero(), MultiPoly.var("g2")
    assert solve_linear_over_field([[g2, one]], [one]) == (g2, [one, zero])
    assert solve_linear_over_field([[one, g2]], [one]) == (one, [one, zero])


# -- interpolation -------------------------------------------------------------


def _q_poly(coeffs):
    return from_terms(("q",), {(i,): c for i, c in enumerate(coeffs)})


def _samples(f, xs):
    """Exact samples of f at the abscissae xs, skipping its poles."""
    for x in xs:
        try:
            yield Rat(x), f.evaluate_exact({"q": Rat(x)})
        except ZeroDivisionError:
            continue


class _Counted:
    """An iterable of samples that counts how many were read."""

    def __init__(self, samples):
        self.samples, self.read = samples, 0

    def __iter__(self):
        for s in self.samples:
            self.read += 1
            yield s


@given(
    st.lists(rats, min_size=1, max_size=4),
    st.lists(rats, min_size=1, max_size=4),
    st.integers(-5, 5),
)
@settings(max_examples=40, deadline=None)
def test_interpolation_round_trip(num, den, start):
    # degrees at most _CONFIRM = 3, which the interpolant cannot mistake
    if all(v == 0 for v in den):
        den = [Rat(1)]
    f = RatFunc(_q_poly(num), _q_poly(den))
    assert rational_interpolate(_samples(f, itertools.count(start))).text() == f.text()


def test_interpolation_recovers_every_small_function():
    # numerator and denominator of degree <= 2 with coefficients in -1..1,
    # read from q = 0 and from q = -3: one confirmation is fooled here
    coeffs = [_q_poly(cs) for cs in itertools.product((-1, 0, 1), repeat=3)]
    coeffs = [p for p in coeffs if not p.is_zero()]
    count = 0
    for num, den in itertools.product(coeffs, repeat=2):
        f = RatFunc(num, den)
        for start in (0, -3):
            got = rational_interpolate(_samples(f, itertools.count(start)))
            assert got.text() == f.text(), (f, start)
            count += 1
    assert count == 1352


def test_interpolation_skips_a_sample_a_shallower_convergent_fits():
    # f(2) = f(0) = 2 = a0, so the third sample is read but not used: the
    # nodes are 0, 1, 3, 4, and 5, 6, 7 confirm
    f = RatFunc(_q_poly([2, 2, 1]), _q_poly([1, 2]))
    stream = _Counted(_samples(f, itertools.count(0)))
    assert rational_interpolate(stream).text() == f.text()
    assert stream.read == 8
    # the same sample between two confirmations starts the count again
    stream = _Counted(_samples(f, (0, 1, 3, 4, 5, 2, 6, 7, 8, 9)))
    assert rational_interpolate(stream).text() == f.text()
    assert stream.read == 9


def test_interpolation_counts_only_consecutive_confirmations():
    # read first, q = 2 confirms the constant 2; q = 1 then adds a level,
    # so three more confirmations (5, 6, 7) are needed after 3 and 4
    f = RatFunc(_q_poly([2, 2, 1]), _q_poly([1, 2]))
    stream = _Counted(_samples(f, (0, 2, 1, 3, 4, 5, 6, 7, 8, 9)))
    assert rational_interpolate(stream).text() == f.text()
    assert stream.read == 8


def test_interpolation_samples_run_out():
    # q^3 is the convergent at depth 5: six nodes and three confirmations
    pts = [(Rat(k), Rat(k**3)) for k in range(1, 10)]
    assert rational_interpolate(pts).text() == "q^3"
    with pytest.raises(ReconstructionError, match="ran out"):
        rational_interpolate(pts[:-1])
    with pytest.raises(ReconstructionError, match="ran out"):
        rational_interpolate([])


def test_interpolation_stops_at_the_sample_cap(monkeypatch):
    f = RatFunc(_q_poly([0, 0, 0, 1]))
    monkeypatch.setattr(interp, "_MAX_SAMPLES", 9)
    assert rational_interpolate(_samples(f, itertools.count(1))).text() == "q^3"
    monkeypatch.setattr(interp, "_MAX_SAMPLES", 8)
    stream = _Counted(_samples(f, itertools.count(1)))
    with pytest.raises(ReconstructionError, match="8 samples"):
        rational_interpolate(stream)
    assert stream.read == 8


def test_interpolation_checks_every_sample_read():
    # (2, 0) fits the constant convergent 0, so it is read but not used;
    # 3, 4, 5 then confirm q, which misses it
    pts = [(Rat(x), Rat(v)) for x, v in [(0, 0), (1, 1), (2, 0), (3, 3), (4, 4), (5, 5)]]
    with pytest.raises(ReconstructionError, match="misses a sample"):
        rational_interpolate(pts)
    # 1/q after a node at q = 0: the convergent's numerator and denominator
    # share the factor q, and 1/q has a pole at that node
    pts = [(Rat(0), Rat(5))] + [(Rat(k), Rat(1, k)) for k in range(1, 30)]
    with pytest.raises(ReconstructionError, match="pole at a sample"):
        rational_interpolate(pts)


def test_interpolation_rejects_a_repeated_abscissa():
    with pytest.raises(ValueError):
        rational_interpolate([(Rat(0), Rat(1)), (Rat(1), Rat(2)), (Rat(0), Rat(1))])


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
    zero = MultiPoly.zero()
    rhs = [zero, MultiPoly.const(Rat(-2, 3)), MultiPoly.var("c")]
    assert solve_linear_over_field([[], [], []], rhs) is None
    one = MultiPoly.const(1)
    assert solve_linear_over_field([[], []], [zero, zero]) == (one, [])
    assert solve_linear_over_field([], []) == (one, [])


# -- equivalence with plain dense elimination ----------------------------------
#
# The solver skips work known to be zero and back-substitutes in the
# polynomial ring.  This copy does all of the elimination, a Bareiss update
# of every column, and back-substitutes in RatFunc arithmetic, scaling a
# solution with a denominator by the last pivot; the two must agree on
# every output.


def _dense_bareiss_solve(matrix, rhs):
    rows = [list(row) + [b] for row, b in zip(matrix, rhs)]
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
    if any(not rows[r][ncols].is_zero() for r in range(prow, nrows)):
        return None
    solution = [RatFunc(0) for _ in range(ncols)]
    for r, col in reversed(pivots):
        acc = RatFunc(rows[r][ncols])
        for k in range(col + 1, ncols):
            acc = acc - RatFunc(rows[r][k]) * solution[k]
        solution[col] = acc / RatFunc(rows[r][col])
    if all(v.is_polynomial() for v in solution):
        return MultiPoly.const(1), [v.as_poly() for v in solution]
    return prev, [(v * RatFunc(prev)).as_poly() for v in solution]


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
    return _random_poly(rng)


def _random_sparse_system(seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 5), rng.randint(1, 4)
    density = rng.choice([0.2, 0.35, 0.5, 0.8])
    matrix = [[_random_entry(rng, density) for _ in range(ncols)] for _ in range(nrows)]
    rhs = [_random_entry(rng, density) for _ in range(nrows)]
    if rng.random() < 0.5:
        # rhs = M x for a polynomial x: consistent, and the solution with
        # free unknowns at 0 is often polynomial
        x = [_random_poly(rng) for _ in range(ncols)]
        rhs = [sum((a * v for a, v in zip(row, x)), MultiPoly.zero()) for row in matrix]
    if nrows > 1 and rng.random() < 0.4:
        # a repeated row: consistent with its copy, or not
        src, dst = rng.sample(range(nrows), 2)
        matrix[dst] = list(matrix[src])
        rhs[dst] = rhs[src] if rng.random() < 0.5 else rhs[src] + 1
    return matrix, rhs


def _texts(solved):
    return None if solved is None else [v.text() for v in (solved[0], *solved[1])]


@pytest.mark.parametrize("block", range(8))
def test_sparse_bareiss_matches_dense_elimination(block):
    for seed in range(25 * block, 25 * block + 25):
        matrix, rhs = _random_sparse_system(seed)
        got = solve_linear_over_field(matrix, rhs)
        assert _texts(got) == _texts(_dense_bareiss_solve(matrix, rhs)), seed
