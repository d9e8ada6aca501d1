"""Frobenius recursion, resonance obstructions, closed-form conditions."""

import pytest

from ellop.rationals import Rat
from ellop.poly import MultiPoly
from ellop.series import wp_series
from ellop.elliptic import EllipticElement
from ellop.operators import GlobalEllipticOperator, third_order_from_gaps
from ellop.monodromy import (
    frobenius_solve,
    second_order_conditions,
    trivial_monodromy_constraints,
    two_gap_conditions,
)
from ellop.locus3 import constraints_for


def lame_local(K):
    # D^2 - 2P, indices -1 and 2
    return GlobalEllipticOperator(2, {2: EllipticElement([0, -2])}).localize(K)


def test_frobenius_rejects_non_root():
    with pytest.raises(ValueError):
        frobenius_solve(lame_local(6), Rat(1), 5)


def test_frobenius_resonance_is_unobstructed_for_lame():
    sol = frobenius_solve(lame_local(6), Rat(-1), 5)
    # offset 3 hits the second index; the obstruction must vanish for all
    # spectral values, leaving one free parameter
    assert len(sol.free_parameters) == 1
    assert all(p.is_zero() for _, p in sol.obstructions)


def test_frobenius_upper_root_has_no_resonance():
    sol = frobenius_solve(lame_local(6), Rat(2), 5)
    assert not sol.free_parameters
    assert all(p.is_zero() for _, p in sol.obstructions)


@pytest.mark.parametrize("q,r", [(1, 1), (2, 2), (5, 2)])
def test_frobenius_solution_solves_the_operator(q, r):
    # independent of the recursion: apply L - lambda to psi = z^m * sol.psi
    # with series arithmetic.  Offset k lands at z^(m+k-3); it must vanish
    # except at a resonance, where f_k is free and what is left is minus
    # the recorded obstruction
    K = 10
    op = third_order_from_gaps(q, r).localize(K)
    lam = MultiPoly.var("lambda")
    idx, _ = op.indices()
    for m in idx.indices:
        sol = frobenius_solve(op, m, K)
        psi = sol.psi.shift(int(m))
        d1 = psi.differentiate()
        d3 = d1.differentiate().differentiate()
        out = d3 + op.coeffs[2] * d1 + op.coeffs[3] * psi - psi * lam
        assert out.order >= m + K - 2          # every offset k <= K is trusted
        obstruction = {int(m) + k - 3: p for k, p in sol.obstructions}
        for e in range(out.low, out.order):
            got = out.coefficient(e)
            if e in obstruction:
                assert (got + obstruction.pop(e)).is_zero(), (m, e)
            else:
                assert got.is_zero(), (m, e, got.text())
        assert not obstruction


def test_trivial_monodromy_detects_generic_failure():
    op = GlobalEllipticOperator(
        2, {2: EllipticElement([0, MultiPoly.var("a")])}
    ).localize(8)
    with pytest.raises(ValueError):
        # symbolic leading coefficient: indices are not determined
        trivial_monodromy_constraints(op)


def test_trivial_monodromy_full_vs_point():
    # a = -2 is integrable, a = -5/2 is not
    good = GlobalEllipticOperator(2, {2: EllipticElement([0, -2])})
    bad = GlobalEllipticOperator(2, {2: EllipticElement([0, Rat(-5, 2)])})
    assert trivial_monodromy_constraints(good.localize(8)).satisfied()
    cs = trivial_monodromy_constraints(bad.localize(8))
    assert cs.unsatisfiable
    assert not cs.satisfied()


def test_third_order_conditions_match_known_locus():
    cs = constraints_for(2, 2)
    assert [c.poly.text() for c in cs.conditions] == ["3*c + e^2"]
    on = {"c": MultiPoly.var("e", 2, Rat(-1, 3))}
    off = {"c": MultiPoly.var("e", 2)}
    assert cs.satisfied_at(on)
    assert not cs.satisfied_at(off)


def test_conditions_carry_lambda_degrees():
    cs = constraints_for(5, 5)
    degs = [c.lambda_degree for c in cs.conditions]
    assert degs == sorted(degs, reverse=True)
    assert all(c.poly.is_weighted_homogeneous() for c in cs.conditions)


def test_second_order_lame_is_unconditional():
    for m in (1, 2, 3):
        u = wp_series(2 * m + 2) * Rat(-m * (m + 1))
        assert second_order_conditions(m, u).is_empty()


def test_second_order_flags_odd_coefficient():
    u = wp_series(6) * Rat(-6)
    bumped = u + _monomial_series(1, MultiPoly.var("t"), 6)
    cs = second_order_conditions(2, bumped)
    assert [c.poly.text() for c in cs.conditions] == ["t"]


def _monomial_series(k, coeff, order):
    from ellop.series import LaurentSeries

    lo = min(k, -2)
    coeffs = [MultiPoly.zero()] * (order - lo)
    coeffs[k - lo] = coeff
    return LaurentSeries(lo, coeffs, order)


def test_second_order_validates_principal_part():
    u = wp_series(4) * Rat(-5)
    with pytest.raises(ValueError):
        second_order_conditions(1, u)
    with pytest.raises(ValueError):
        second_order_conditions(-1, wp_series(4))


def test_two_gap_conditions_known_form():
    a = [Rat(-3), MultiPoly.var("a1"), MultiPoly.var("a2"),
         MultiPoly.var("a3"), MultiPoly.var("a4")]
    b = [Rat(3), MultiPoly.var("b1"), MultiPoly.var("b2"),
         MultiPoly.var("b3"), MultiPoly.var("b4")]
    cs = two_gap_conditions(a, b)
    texts = {c.poly.text() for c in cs.conditions}
    assert "a1" in texts
    assert "b2" in texts
    assert any("b1^2" in t for t in texts)


def test_two_gap_conditions_validate_input():
    with pytest.raises(ValueError):
        two_gap_conditions([Rat(-3)] * 3, [Rat(3)] * 5)
    with pytest.raises(ValueError):
        two_gap_conditions([Rat(1)] + [Rat(0)] * 4, [Rat(3)] + [Rat(0)] * 4)
