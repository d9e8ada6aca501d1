"""Exact linear algebra over the rational function field and interpolation."""

import pytest
from hypothesis import given, settings, strategies as st

from ellop.rationals import Rat
from ellop.poly import MultiPoly, RatFunc
from ellop.linalg import solve_linear_over_field
from ellop.interp import ReconstructionError, rational_interpolate


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
