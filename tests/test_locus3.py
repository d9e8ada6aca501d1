"""Locus classification for the third-order one-pole family."""

import hashlib
import inspect

import pytest

from ellop.rationals import Rat
from ellop.poly import MultiPoly, RatFunc
from ellop import locus3
from ellop.monodromy import Condition, ConstraintSet
from ellop.operators import (InvalidGapsError, VerificationError, coefficients_from_indices,
                             third_order_indices)
from ellop.acceptance import CLOSED_FORMS, closed_form_value
from ellop.locus3 import (
    _State,
    _normalize,
    _verify,
    constraints_for,
    j_invariant,
    reconstruct_in_q,
    scan_grid,
    solved_branch,
    LocusBranch,
    branch_quantity,
    curve_branches,
    substitute_constraints,
    triangular_solve,
    valid_r,
)
from pinned import lines_of, pins
from reference import LOW_CELLS


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


# the reconstruct lines of tests/cli-pins.txt, under the ids R-QUANTITY of the
# digest table they came from; each pins the JSON that `ellop reconstruct`
# prints, whose value is reconstruct_in_q(r, quantity).text()
@pytest.mark.parametrize("pin", lines_of("reconstruct"),
                         ids=lambda pin: f"{pin.args[2]}-{pin.args[4]}")
def test_reconstruction_is_pinned(pin):
    assert pins.check(pin) == []


def test_reconstruct_rejects_unknown_quantity():
    with pytest.raises(ValueError):
        reconstruct_in_q(2, "c/e3")


def test_scan_report_serialization():
    report = scan_grid([2], q_offset=3)
    assert len(report.rows) == 2
    # a solvable family at r = 2
    assert {row.classification for row in report.rows} == {"one-parameter-family"}
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


def test_nodal_scan_solves_a_square_relation():
    # at (13, 13) the nodal solve reaches e = 0 and c^2 = 54208/57 w^2, and
    # then 55989 c w^4 + 114532 w^5, linear in c with the pivot w^4: off
    # w = 0, c = -114532/55989 w breaks the relation, and on w = 0 the
    # relation's value vanishes, so c = 0
    rows = scan_grid([13], q_offset=0, curve="nodal").rows
    assert [(row.r, row.q, row.branch, row.classification, row.c_text, row.g2_text,
             row.g3_text, row.j_text) for row in rows] == [
        (13, 13, 0, "cyclic-point", "0", "0", "0", "infinite"),
        (13, 13, 1, "inconsistent", "-114532/55989*w", "3*w^2", "w^3", "none"),
    ]


def test_curve_branches_rejects_an_unknown_curve():
    with pytest.raises(ValueError, match="unknown curve mode 'smooth'"):
        curve_branches(2, 2, "smooth")


@pytest.mark.parametrize("curve,mapping,universe", [
    ("cuspidal", {"g2": MultiPoly.zero(), "g3": MultiPoly.zero()}, ("c", "e")),
    ("nodal", {"g2": MultiPoly.var("w", 2, 3), "g3": MultiPoly.var("w", 3)}, ("c", "e", "w")),
], ids=["cuspidal", "nodal"])
def test_curve_branches_substitutes_the_curve_then_solves(curve, mapping, universe):
    def fields(branches):
        return [(b.classification, {v: a.text() for v, a in b.assignments.items()},
                 b.relation and (b.relation[0], b.relation[1].text()), b.free, b.nonzero)
                for b in branches]

    assert len(LOW_CELLS) == 158
    for q, r in LOW_CELLS:
        cs = substitute_constraints(constraints_for(q, r), mapping)
        assert fields(curve_branches(q, r, curve)) == fields(triangular_solve(cs, universe)), (q, r)


def test_the_benchmark_binds_these_parameter_names():
    # perfbench/workloads.py (_Capture) binds each call of these functions to
    # its parameters and reads them by name, so a rename breaks the benchmark
    # and no other test: a triangular_solve whose universe was renamed passed
    # every other tier-1 test, and the verify workload read "correct": false
    names = {fn.__name__: list(inspect.signature(fn).parameters)
             for fn in (constraints_for, triangular_solve, scan_grid, reconstruct_in_q)}
    assert names == {
        "constraints_for": ["q", "r"],
        "triangular_solve": ["cs", "universe"],
        "scan_grid": ["r_values", "q_offset", "curve"],
        "reconstruct_in_q": ["r", "quantity"],
    }


def test_high_r_branches_are_not_solvable():
    report = scan_grid([11], q_offset=3)
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
    branches = triangular_solve(ConstraintSet(3, (Condition(p, 0),)))
    assert [b.classification for b in branches] == ["unsolved"]
    assert branches[0].residuals == [p]
    assert branches[0].assignments == {}


def test_a_monomial_with_three_candidates_fans_out_without_overlap():
    # c*e*g2 = 0 forks on e = 0 with c != 0, on g2 = 0 with c, e != 0, and
    # on c = 0; the second condition leaves c^2 != 0 on the first two, and
    # is -g2*e^2 on the third, which forks again: g2 = 0 with e != 0, e = 0
    c, e, g2 = (MultiPoly.var(v) for v in ("c", "e", "g2"))
    cs = ConstraintSet(3, (Condition(c * e * g2, 1),
                           Condition(c * c - g2 * e * e, 0)))
    got = [(b.classification, {v: a.text() for v, a in b.assignments.items()},
            b.nonzero) for b in triangular_solve(cs)]
    assert got == [
        ("inconsistent", {"e": "0"}, ["c"]),
        ("inconsistent", {"g2": "0"}, ["c", "e"]),
        ("finite-set", {"c": "0", "g2": "0"}, ["e"]),
        ("cyclic-point", {"c": "0", "e": "0"}, []),
    ]


def test_failed_back_substitution_is_a_verification_error():
    x = MultiPoly.var("x")
    _verify([x * x - 1], {"x": MultiPoly.const(1)}, None)
    with pytest.raises(VerificationError, match="back-substitution"):
        _verify([x - 1], {"x": MultiPoly.const(2)}, None)
    with pytest.raises(VerificationError, match="back-substitution"):
        _verify([x - 1], {}, ("x", MultiPoly.const(1)))


# g3 and 1 do not vanish at the cyclic point c = e = g2 = 0; their weights,
# 6 and 0, are multiples of 3, so the weight check refuses them at every r
@pytest.mark.parametrize("poly,message", [
    ("c + e", "not weighted-homogeneous"),
    ("g2", "weight inconsistent"),
    ("g3", "weight inconsistent"),
    ("1", "weight inconsistent"),
])
def test_conditions_of_the_wrong_weight_are_a_verification_error(
        monkeypatch, uncached_constraints, poly, message):
    cond = {"c + e": MultiPoly.var("c") + MultiPoly.var("e"),
            "g2": MultiPoly.var("g2"), "g3": MultiPoly.var("g3"),
            "1": MultiPoly.const(1)}[poly]
    monkeypatch.setattr(
        locus3, "algebraic_conditions",
        lambda L, m, top: ((Condition(cond, 0),
                           cond.primitive_with_weights()[1]),))
    with pytest.raises(VerificationError, match=message):
        constraints_for(2, 2)


def _branch_lines(branch):
    yield branch.classification
    for v, a in branch.assignments.items():
        yield f"{v}={a.text()}"
    rel = branch.relation
    yield "relation=" + ("" if rel is None else f"{rel[0]}^2={rel[1].text()}")
    yield "free=" + ",".join(branch.free)
    yield "nonzero=" + ",".join(branch.nonzero)
    for p in branch.residuals:
        yield "residual=" + p.text()


# SHA-256 of the conditions' JSON and every branch's texts, recorded before
# the Frobenius recursion grouped its products by earlier coefficient
FRONTIER_DIGESTS = {
    (22, 22): "4ec27be3c95ee8d0b51c0660b19e0bad5a79ae7bd941d30d67c9f73fae72f373",
    (25, 22): "76eef223bccfcc830fc890529b442c2596ab77a07fae7473bc52e398396db49d",
    (34, 34): "958f9b8c52697d8c4f71395c05cd6a3f52c823e5128521fa5a88f20f2b3caa78",
    (37, 34): "e0d76e01f3c4a2f153a983517d1a767b9091246a2833661354673c63a64e5cd7",
}


@pytest.mark.parametrize("q,r", sorted(FRONTIER_DIGESTS))
def test_frontier_outputs_are_pinned(q, r):
    cs = constraints_for(q, r)
    texts = [c.poly.text() for c in cs.conditions]
    assert len(set(texts)) == len(texts)  # duplicates were removed
    h = hashlib.sha256(cs.to_json().encode())
    for branch in triangular_solve(cs):
        for line in _branch_lines(branch):
            h.update(line.encode() + b"\n")
    assert h.hexdigest() == FRONTIER_DIGESTS[q, r]


def test_every_condition_vanishes_at_the_cyclic_point():
    # constraints_for's lemma: the weight check leaves no term free of c, e
    # and g2
    cyclic_point = {v: MultiPoly.zero() for v in ("c", "e", "g2")}
    for q, r in LOW_CELLS + sorted(FRONTIER_DIGESTS):
        assert substitute_constraints(constraints_for(q, r), cyclic_point).conditions == (), (q, r)


def synthetic_branch(assignments, relation=None):
    return LocusBranch(2, 2, assignments, relation, [], [], [], "exotic-j")


C, W = MultiPoly.var("c"), MultiPoly.var("w")


@pytest.mark.parametrize("branch,quantity,message", [
    (synthetic_branch({}), "j", "j is generic on this branch"),
    (synthetic_branch({"e": C}, ("c", W * W)), "c/e2", "c is determined only up to sign"),
    (synthetic_branch({}), "g2/e4", "g2 is not determined on this branch"),
    (synthetic_branch({"g2": C * C * 3}, ("c", W * W)), "g2/c2", "square relation is not constant"),
], ids=["j_string", "c_up_to_sign", "target_undetermined", "relation_not_constant"])
def test_branch_quantity_errors(branch, quantity, message):
    with pytest.raises(ValueError, match=message):
        branch_quantity(branch, quantity)


def test_a_constant_condition_left_over_makes_an_inconsistent_branch():
    cs = ConstraintSet(3, (Condition(C, 0), Condition(C + 1, 0)))
    (branch,) = triangular_solve(cs)
    assert branch.classification == "inconsistent"
    assert branch.witness == MultiPoly.const(1)
    assert branch.assignments == {"c": MultiPoly.zero()}


def solve(*polys):
    return triangular_solve(ConstraintSet(3, tuple(Condition(p, 0) for p in polys)))


E, G2, G3 = MultiPoly.var("e"), MultiPoly.var("g2"), MultiPoly.var("g3")


@pytest.mark.parametrize("p", [(C + E) * G3 + C ** 3, E * C * C + G2 * G2],
                         ids=["pivot-not-a-monomial", "square-over-a-nonconstant"])
def test_a_condition_no_rule_solves_stays_unsolved(p):
    # (c + e) g3: the pivot of g3 is no single-variable monomial.  e c^2:
    # the pure quadratic in c has a nonconstant leading coefficient
    (branch,) = solve(p)
    assert (branch.classification, branch.residuals, branch.relation) == ("unsolved", [p], None)


def test_a_condition_linear_in_the_relations_variable_is_solved_for_it():
    # c^2 = 4 w^2, then c w - 2 w^2: c = 2 w where w != 0, which meets the
    # relation, and on w = 0 the relation's value vanishes, so c = 0
    cs = ConstraintSet(3, (Condition(C * C - W * W * 4, 0), Condition(C * W - W * W * 2, 0)))
    got = [(b.classification, {v: a.text() for v, a in b.assignments.items()}, b.relation,
            b.nonzero, b.residuals) for b in triangular_solve(cs, ("c", "e", "w"))]
    assert got == [
        ("finite-set", {"w": "0", "c": "0"}, None, [], []),
        ("one-parameter-family", {"c": "2*w"}, None, ["w"], []),
    ]


def test_a_nonzero_square_relation_counts_as_a_constraint():
    (branch,) = solve(C * C - G2 * G2)
    assert branch.relation == ("c", G2 * G2)
    assert branch.classification == "finite-set"


def test_a_nonzero_constant_square_relation_divides_the_quantity():
    # c^2 = 4 and g2 = 3 c^2 = 12, so g2 / c^2 = 3
    (branch,) = solve(C * C - 4, G2 - C * C * 3)
    assert (branch.relation, branch.assignments) == (("c", MultiPoly.const(4)),
                                                     {"g2": MultiPoly.const(12)})
    assert branch_quantity(branch, "g2/c2") == 3
    assert branch_quantity(branch, "c2/g2") == Rat(1, 3)


@pytest.mark.parametrize("polys,j,text", [
    ((G2, G3), "cusp", "cusp"),
    ((G2, G3 - E ** 6), RatFunc(0), "0"),
], ids=["cusp", "j-zero"])
def test_the_j_of_a_branch_on_a_special_curve(polys, j, text):
    (branch,) = solve(*polys)
    assert branch.j() == j
    assert locus3._j_text(branch) == text


SMALL_PAIRS = [(q, r) for q in range(1, 23) for r in range(1, 23)
               if (q - r) % 3 == 0 and q % 3 and r % 3]


def test_swapping_the_gaps_is_the_adjoint():
    # L = D^3 + (aP + c)D + (bP' + eP) has the formal adjoint
    # -(D^3 + (aP + c)D + ((a - b)P' - eP)), whose indices are those of the
    # (r, q) family: a is the same and b becomes a - b
    for q, r in SMALL_PAIRS:
        bs = coefficients_from_indices(third_order_indices(q, r))
        swapped = coefficients_from_indices(third_order_indices(r, q))
        a, b = bs[2], -bs[3] / 2
        assert swapped[2] == a, (q, r)
        assert -swapped[3] / 2 == a - b, (q, r)


def test_every_solved_branch_lies_on_the_swapped_locus_with_e_negated():
    # the adjoint has trivial monodromy exactly when L has, so
    # (c, e, g2, g3) is on Locus(q, r) iff (c, -e, g2, g3) is on
    # Locus(r, q): every solved branch of (q, r) satisfies the (r, q)
    # conditions with e -> -e, checked by back-substitution modulo its c^2
    # relation.  (1, 4) has two conditions and (4, 1) one, so branches are
    # compared, not texts.  A condition of weight w has e-degrees of w's
    # parity, so e -> -e only multiplies it by (-1)^w; a branch checked
    # against another cell's conditions, (r + 3, q), fails in 80 of 88
    # non-cyclic cases
    flip = {"e": -MultiPoly.var("e")}
    solved = 0
    for q, r in SMALL_PAIRS:
        swapped = [c.poly.substitute(flip) for c in constraints_for(r, q).conditions]
        for branch in triangular_solve(constraints_for(q, r)):
            if branch.classification in ("inconsistent", "unsolved"):
                continue
            _verify(swapped, branch.assignments, branch.relation)
            solved += 1
    assert solved > len(SMALL_PAIRS)
    assert len(constraints_for(1, 4).conditions) == 2
    assert len(constraints_for(4, 1).conditions) == 1
