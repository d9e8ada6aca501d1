"""Locus classification for the third-order one-pole family."""

import pytest

from ellop.rationals import Rat
from ellop.poly import MultiPoly, RatFunc
from ellop import locus3
from ellop.monodromy import Condition, ConstraintSet
from ellop.operators import InvalidGapsError, VerificationError
from ellop.acceptance import CLOSED_FORMS, closed_form_value
from ellop.locus3 import (
    _State,
    _check_cyclic_point,
    _normalize,
    _verify,
    constraints_for,
    j_invariant,
    reconstruct_in_q,
    scan_grid,
    solved_branch,
    branch_quantity,
    triangular_solve,
    valid_r,
)


def test_valid_r():
    assert [r for r in range(1, 12) if valid_r(r)] == [1, 2, 4, 5, 7, 8, 10, 11]
    assert not valid_r(0)
    assert not valid_r(-2)


def test_constraints_reject_bad_gaps():
    with pytest.raises(InvalidGapsError):
        constraints_for(0, 1)
    with pytest.raises(InvalidGapsError):
        constraints_for(3, 3)


@pytest.mark.parametrize("r,expected", [
    (1, ["one-parameter-family"]),
    (2, ["one-parameter-family"]),
    (4, ["finite-set"]),
    (5, ["cyclic-point", "finite-set"]),
])
def test_branch_structure(r, expected):
    branches = triangular_solve(constraints_for(r, r))
    assert sorted(b.classification for b in branches) == sorted(expected)


def test_known_branch_values():
    # gaps (2,2): c = -3 e^2 / (q+1)^2 at q = 2
    b = solved_branch(2, 2)
    assert branch_quantity(b, "c/e2") == Rat(-1, 3)
    # gaps (4,4): c^2 = (q+2)^2 g2 / 3 at q = 4
    b = solved_branch(4, 4)
    assert branch_quantity(b, "c2/g2") == Rat(12)
    # gaps (5,5): a rigid point with c = -11/432 e^2
    b = solved_branch(5, 5)
    assert branch_quantity(b, "c/e2") == Rat(-11, 432)
    assert branch_quantity(b, "g2/e4") == Rat(25, 2239488)


def test_j_invariant():
    assert j_invariant(Rat(1), Rat(0)) == RatFunc(1728)
    assert j_invariant(Rat(0), Rat(1)) == RatFunc(0)
    assert j_invariant(Rat(3), Rat(1)) == "infinite"


def test_reconstruct_matches_closed_form():
    got = reconstruct_in_q(2, "c/e2")
    q = RatFunc(MultiPoly.var("q"))
    expect = closed_form_value(CLOSED_FORMS[2, "c/e2"], q)
    assert (got - expect).is_zero()


def test_reconstruct_rejects_unknown_quantity():
    with pytest.raises(ValueError):
        reconstruct_in_q(2, "c/e3")


def test_scan_report_serialization():
    report = scan_grid([2], q_offset=3)
    assert len(report.rows) == 2
    assert not report.supports_conjecture     # solvable family at r = 2
    csv_text = report.to_csv()
    assert csv_text.splitlines()[0].startswith("r,q,branch,classification")
    assert len(csv_text.splitlines()) == 3


def test_scan_skips_invalid_r():
    report = scan_grid([3], q_offset=0)
    assert report.rows == []


def test_scan_degenerate_curves():
    for curve in ("cuspidal", "nodal"):
        report = scan_grid([2], q_offset=0, curve=curve)
        assert report.curve == curve
        assert report.rows
    with pytest.raises(ValueError):
        scan_grid([2], curve="smooth")


def test_high_r_branches_are_not_solvable():
    report = scan_grid([11], q_offset=3)
    assert report.supports_conjecture
    assert {row.classification for row in report.rows} <= {
        "cyclic-point", "inconsistent"
    }


def test_assign_keeps_every_value_closed():
    x, y, z = (MultiPoly.var(v) for v in "xyz")
    state = _State([], {}, ("c", x * y), [], [])
    state.assign("x", y + 1)
    assert state.assignments == {"x": y + 1}
    assert state.relation == ("c", (y + 1) * y)
    state.assign("y", z * 2)
    assert state.assignments == {"x": z * 2 + 1, "y": z * 2}
    assert state.relation == ("c", (z * 2 + 1) * z * 2)
    assert _normalize(x * 2 + y, state.assignments, None) == z * 3 + 1
    # assigning c itself turns the square relation into a condition
    state.assign("c", MultiPoly.zero())
    assert state.relation is None
    assert _normalize(state.conds[0], state.assignments, None) == z * z * 2 + z


def test_linear_rule_needs_a_polynomial_quotient():
    # e is a monomial pivot for g3 (and g3 one for e), but neither divides
    # c^3, so no rule applies and the condition stays unsolved
    c, e, g3 = (MultiPoly.var(v) for v in ("c", "e", "g3"))
    p = e * g3 + c * c * c
    branches = triangular_solve(ConstraintSet(3, (Condition(p, 0, "test"),)))
    assert [b.classification for b in branches] == ["unsolved"]
    assert branches[0].residuals == [p]
    assert branches[0].assignments == {}


def test_failed_back_substitution_is_a_verification_error():
    x = MultiPoly.var("x")
    _verify([x * x - 1], {"x": MultiPoly.const(1)}, None)
    with pytest.raises(VerificationError, match="back-substitution"):
        _verify([x - 1], {"x": MultiPoly.const(2)}, None)
    with pytest.raises(VerificationError, match="back-substitution"):
        _verify([x - 1], {}, ("x", MultiPoly.const(1)))


def test_a_condition_off_the_cyclic_point_is_a_verification_error():
    c = MultiPoly.var("c")
    _check_cyclic_point(ConstraintSet(3, (Condition(c * c, 0, "test"),)))
    with pytest.raises(VerificationError, match="cyclic point"):
        _check_cyclic_point(ConstraintSet(3, (Condition(c + 1, 0, "test"),)))


@pytest.mark.parametrize("poly,message", [
    ("c + e", "not weighted-homogeneous"),
    ("g2", "weight inconsistent"),
])
def test_conditions_of_the_wrong_weight_are_a_verification_error(
        monkeypatch, poly, message):
    cond = {"c + e": MultiPoly.var("c") + MultiPoly.var("e"),
            "g2": MultiPoly.var("g2")}[poly]
    monkeypatch.setattr(
        locus3, "trivial_monodromy_constraints",
        lambda op, mode: ConstraintSet(3, (Condition(cond, 0, "test"),)))
    with pytest.raises(VerificationError, match=message):
        constraints_for(2, 2)
