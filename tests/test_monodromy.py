"""Frobenius recursion, resonance obstructions, closed-form conditions."""

import dataclasses

import pytest

from ellop.rationals import Rat, falling_factorial
from ellop.poly import MultiPoly
from ellop.series import LaurentSeries, TruncationError, wp_series
from ellop.elliptic import EllipticElement
from ellop.operators import (
    GlobalEllipticOperator,
    IndexData,
    coefficients_from_indices,
    third_order_from_gaps,
)
from ellop.monodromy import (
    ConstraintSet,
    _horner,
    _indicial_values,
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


def assert_solves_the_operator(op, m, K):
    # independent of the recursion: apply L - lambda to psi = z^m * sol.psi
    # with series arithmetic.  Offset k lands at z^(m+k-3); it must vanish
    # except at a resonance, where f_k is free and what is left is minus
    # the recorded obstruction
    lam = MultiPoly.var("lambda")
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
    return sol


@pytest.mark.parametrize("q,r", [(1, 1), (2, 2), (5, 2)])
def test_frobenius_solution_solves_the_operator(q, r):
    K = 10
    op = third_order_from_gaps(q, r).localize(K)
    idx, _ = op.indices()
    for m in idx.indices:
        assert_solves_the_operator(op, m, K)


@pytest.mark.parametrize("q,r", [(1, 1), (2, 2), (5, 2), (2, 5), (4, 4)])
def test_frobenius_solution_with_a_resonance_at_the_last_step(q, r):
    # K is the deepest resonance offset, as constraints_for runs the middle
    # index and full mode the lower ones: the last f_K is a free parameter
    op = third_order_from_gaps(q, r).localize(q + r + 4)
    idx, _ = op.indices()
    top = idx.indices[-1]
    for m in idx.indices[:-1]:
        K = int(top - m)
        sol = assert_solves_the_operator(op, m, K)
        assert sol.obstructions[-1][0] == K
        name = sol.free_parameters[-1]
        assert sol.psi.coefficient(K) == MultiPoly.var(name)
        assert name not in sol.obstructions[-1][1].used_vars()
        # a longer run goes on past K and agrees up to it
        longer = frobenius_solve(op, m, K + 3)
        assert longer.obstructions == sol.obstructions
        for k in range(K + 1):
            assert longer.psi.coefficient(k) == sol.psi.coefficient(k)


@pytest.mark.parametrize("m", [Rat(0), Rat(-7), Rat(5), Rat(-1, 3), Rat(7, 2), Rat(-22, 9)])
@pytest.mark.parametrize("coeffs", [
    [Rat(0), Rat(2), Rat(-3), Rat(1)],                       # m(m-1)(m-2)
    [Rat(-5, 6), Rat(3, 4), Rat(-3), Rat(1)],
    [Rat(7, 10), Rat(0), Rat(-1, 3), Rat(-6), Rat(11, 2), Rat(1)],
    [Rat(4)],
])
def test_integer_horner_indicial_values_are_the_fraction_horner(coeffs, m):
    K = 9
    got = _indicial_values(coeffs, m, K)
    assert got == [_horner(coeffs, m + k) for k in range(K + 1)]
    assert all(type(v) is Rat for v in got)


def reference_recursion(op, m, K):
    """The recursion one summand at a time in MultiPoly arithmetic: f_k and
    the obstructions, {k: MultiPoly} each."""
    n = op.n
    P = op.indicial_coefficients()
    lam = MultiPoly.var("lambda")
    f = {0: MultiPoly.const(1)}
    obstructions = {}
    for k in range(1, K + 1):
        inhom = MultiPoly.zero()
        for i in range(2, n + 1):
            a_i = op.coeffs[i]
            for j in range(a_i.low, k - i + 1):
                if j == -i:
                    continue
                A = a_i.coefficient(j)
                if A.is_zero():
                    continue
                kp = k - i - j
                inhom = inhom - A * f[kp] * falling_factorial(m + kp, n - i)
        if k >= n:
            inhom = inhom + lam * f[k - n]
        c = _horner(P, m + k)
        if c != 0:
            f[k] = inhom * (1 / c)
        else:
            obstructions[k] = inhom
            f[k] = MultiPoly.var(f"u{len(obstructions)}")
    return f, obstructions


def assert_matches_reference(op, m, K):
    sol = frobenius_solve(op, m, K)
    f, obstructions = reference_recursion(op, m, K)
    for k in range(K + 1):
        got = sol.psi.coefficient(k)
        assert got == f[k] and got.text() == f[k].text(), (m, k)
    assert [k for k, _ in sol.obstructions] == list(obstructions)
    for k, p in sol.obstructions:
        assert p == obstructions[k] and p.text() == obstructions[k].text(), (m, k)
    return sol


# (1, 4), (2, 5) and (1, 7) have zero falling factorials among the products
@pytest.mark.parametrize("q,r", [(1, 1), (2, 2), (1, 4), (2, 5), (1, 7), (7, 4), (10, 10)])
def test_recursion_matches_the_summand_by_summand_reference(q, r):
    # from the middle index, as constraints_for runs it: the indicial value
    # at m + k is k(k - r)(k + q), negative for 0 < k < r
    op = third_order_from_gaps(q, r).localize(r + 4)
    idx, _ = op.indices()
    sol = assert_matches_reference(op, idx.indices[1], r)
    assert [k for k, _ in sol.obstructions] == [r]


@pytest.mark.parametrize("q,r", [(1, 1), (2, 2), (5, 2), (1, 4)])
def test_recursion_matches_the_reference_across_a_resonance(q, r):
    # full mode from the lowest index: the free parameter u1 enters at the
    # middle index and the later f_k and the obstruction at the top use it
    op = third_order_from_gaps(q, r).localize(q + r + 4)
    idx, _ = op.indices()
    low, mid, top = idx.indices
    sol = assert_matches_reference(op, low, int(top - low))
    assert sol.free_parameters == ["u1", "u2"]
    assert "u1" in sol.psi.coefficient(int(top - low) - 1).used_vars()


def third_order_with_indices(indices):
    # D^3 + (c + b2 P) D + (e P + b P') with b2, b3 = -2b from the indices
    bs = coefficients_from_indices(IndexData(indices))
    return GlobalEllipticOperator(3, {
        2: EllipticElement([MultiPoly.var("c"), bs[2]]),
        3: EllipticElement([0, MultiPoly.var("e")], [-bs[3] / 2]),
    })


@pytest.mark.parametrize("indices,m,K", [
    ((Rat(-1, 3), Rat(4, 3), Rat(2)), Rat(-1, 3), 7),   # no resonance
    ((Rat(-1, 3), Rat(4, 3), Rat(2)), Rat(4, 3), 6),
    ((Rat(-1, 3), Rat(2, 3), Rat(8, 3)), Rat(-1, 3), 5),  # resonances at 1 and 3
    ((Rat(-5, 2), Rat(5, 2), Rat(3)), Rat(-5, 2), 7),    # resonance at 5
])
def test_recursion_at_a_non_integer_index_matches_the_reference(indices, m, K):
    op = third_order_with_indices(indices).localize(K + 4)
    sol = assert_matches_reference(op, m, K)
    assert [k for k, _ in sol.obstructions] == [int(rt - m) for rt in sorted(indices)
                                                if rt > m and (rt - m).denominator == 1]


def test_constraint_sets_are_immutable():
    cs = constraints_for(5, 5)
    assert isinstance(cs.conditions, tuple) and (cs.q, cs.r) == (5, 5)
    for name, value in (("q", 7), ("conditions", ()), ("unsatisfiable", True)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cs, name, value)
    assert hash(cs) == hash(constraints_for(5, 5))


@pytest.mark.parametrize("q,r,expected", [
    (2, 2, [(0, "3*c + e^2", 2)]),
    (4, 4, [(1, "e", 4), (0, "945*c^2 + 126*c*e^2 + e^4 - 11340*g2", 4)]),
])
def test_full_mode_keeps_each_condition_once(q, r, expected):
    # the free-parameter coefficients of the lowest index's obstructions
    # repeat conditions of the middle index (3 nonzero pieces at (2, 2), 6
    # at (4, 4)); each value is kept once, at its first occurrence
    op = third_order_from_gaps(q, r).localize(q + r + 4)
    cs = trivial_monodromy_constraints(op, mode="full")
    low = op.indices()[0].indices[0]
    assert [(c.lambda_degree, c.poly.text(), c.provenance) for c in cs.conditions] == [
        (d, text, (3, low, offset)) for d, text, offset in expected]


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
    assert not cs.unsatisfiable
    assert all(c.poly.substitute(on).is_zero() for c in cs.conditions)
    assert not all(c.poly.substitute(off).is_zero() for c in cs.conditions)


def test_conditions_carry_lambda_degrees():
    cs = constraints_for(5, 5)
    degs = [c.lambda_degree for c in cs.conditions]
    assert degs == sorted(degs, reverse=True)
    assert all(len(c.poly.weights()) == 1 for c in cs.conditions)


def test_second_order_lame_is_unconditional():
    for m in (1, 2, 3):
        u = wp_series(2 * m + 2) * Rat(-m * (m + 1))
        cs = second_order_conditions(m, u)
        assert not cs.unsatisfiable and not cs.conditions


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


@pytest.mark.parametrize("call,error,message", [
    (lambda: frobenius_solve(lame_local(6), Rat(-1), 2), TruncationError,
     "K=2 below deepest resonance offset 3"),
    (lambda: trivial_monodromy_constraints(lame_local(6), mode="middle-only"), ValueError,
     "middle-only mode requires order 3"),
    (lambda: trivial_monodromy_constraints(lame_local(6), mode="point"), ValueError,
     "unknown mode 'point'"),
    (lambda: second_order_conditions(1, wp_series(4) * Rat(-2) + LaurentSeries(-1, [1], 4)),
     ValueError, "1/z term must vanish"),
], ids=["frobenius_below_resonance", "middle_only_order_2", "unknown_mode", "one_over_z"])
def test_monodromy_guards(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_an_unsatisfiable_set_prints_its_reason():
    cs = ConstraintSet(3, unsatisfiable=True, reason="non-rational indices")
    assert cs.to_json() == ('{"n": 3, "unsatisfiable": true, "reason": "non-rational indices", '
                            '"conditions": []}')
