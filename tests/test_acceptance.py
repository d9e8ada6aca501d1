"""Full verification suite, one test per criterion.

Every criterion runs once per session, through acceptance.run_all(0) (the
verify_results fixture).  Each test prints a single pass/fail line (run
pytest with -s to see them) and then asserts, so a failure reports the
criterion's own diagnostic.
"""

from dataclasses import replace

import pytest

from ellop import acceptance
from ellop.elliptic import EllipticElement
from ellop.locus3 import constraints_for, substitute_constraints
from ellop.monodromy import Condition, _algebraic_templates, trivial_monodromy_constraints
from ellop.operators import GlobalEllipticOperator, third_order_from_gaps, third_order_indices
from ellop.poly import MultiPoly, RatFunc, sort_vars
from ellop.rationals import Rat
from ellop.series import TruncationError


@pytest.mark.parametrize(
    "name", [n for n, _ in acceptance.CRITERIA], ids=[n for n, _ in acceptance.CRITERIA]
)
def test_criterion(name, verify_results):
    (ok, detail), = [(ok, detail) for n, ok, detail in verify_results if n == name]
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_suite_is_complete(verify_results):
    assert len(acceptance.CRITERIA) == 11
    assert len({name for name, _ in acceptance.CRITERIA}) == 11
    assert [n for n, _, _ in verify_results] == [n for n, _ in acceptance.CRITERIA]


def _raise(*args, **kwargs):
    raise ArithmeticError("evaluation fails everywhere")


def test_symmetric_sampling_gives_up_when_every_fold_draw_raises(monkeypatch):
    monkeypatch.setattr(acceptance, "hexagonal_fold_residual", _raise)
    ok, detail = acceptance.criterion_symmetric_third_order(0)
    assert not ok
    assert detail.startswith("fold identity: fewer than 20 of")


def test_symmetric_sampling_gives_up_when_every_gradient_draw_raises(monkeypatch):
    monkeypatch.setattr(acceptance, "cryst3_residuals", _raise)
    ok, detail = acceptance.criterion_symmetric_third_order(0)
    assert not ok
    assert detail.startswith("residual/gradient: fewer than 20 of")


def test_a_criterion_that_raises_is_a_failure(monkeypatch):
    monkeypatch.setattr(acceptance, "CRITERIA", [("raises", _raise)])
    assert acceptance.run_all() == [
        ("raises", False, "exception: ArithmeticError('evaluation fails everywhere')")]


def test_named_reference_values():
    # the benchmark workloads call these three names, so their values are pinned
    assert acceptance.ref_c_over_e2(5, 8) == Rat(-43, 3456)
    assert acceptance.ref_c_over_e2(8, 11) == Rat(-16763, 4233600)
    assert acceptance.ref_g2_over_e4_r5(5) == Rat(25, 2239488)
    assert acceptance.ref_g2_over_e4_r5(8) == Rat(49, 35831808)
    assert acceptance.ref_j(8, 8) == Rat(-209904021955584, 30695424821815)
    assert acceptance.ref_j(10, 13) == Rat(-3368254499, 309396192)
    assert acceptance.ref_j(13, 16) == Rat(-68865494768741564928,
                                           12157649085105703249)


@pytest.mark.parametrize("key", list(acceptance.CLOSED_FORMS),
                         ids=[f"{r}-{name}" for r, name in acceptance.CLOSED_FORMS])
def test_closed_form_as_a_function_of_q_matches_its_values(key):
    form = acceptance.CLOSED_FORMS[key]
    f = acceptance.closed_form_value(form, RatFunc(MultiPoly.var("q")))
    for q in (Rat(1, 2), Rat(3), Rat(17)):
        assert f.evaluate_exact({"q": q}) == acceptance.closed_form_value(form, q)


def _bump_a_coefficient(form):
    scale, ((coeffs, power), *rest), den = form
    return scale, (((coeffs[0] + 1,) + coeffs[1:], power), *rest), den


@pytest.mark.parametrize("key, criterion, detail", [
    ((5, "c/e2"), acceptance.criterion_closed_form_loci, "(q,r)=(5,5): c/e2 mismatch"),
    ((10, "j"), acceptance.criterion_j_invariants, "(q,r)=(10,10): j mismatch"),
])
def test_a_wrong_closed_form_fails_its_criterion(monkeypatch, key, criterion, detail):
    form = acceptance.CLOSED_FORMS[key]
    monkeypatch.setitem(acceptance.CLOSED_FORMS, key, _bump_a_coefficient(form))
    assert criterion(0) == (False, detail)


def test_numerical_monodromy_transports_its_locus_points_in_one_loop(monkeypatch):
    # Lame a = -2, a = -5/2 and the three cyclic operators each take one
    # loop; the ten locus points share the last one, 10 operators x 3
    # spectral values of 3 x 3 matrices
    import ellop.dop853 as dop853
    import ellop.oracle as oracle

    integrate = dop853.integrate
    sizes = []

    def counted(fun, y0, *args):
        sizes.append(len(y0))
        return integrate(fun, y0, *args)

    monkeypatch.setattr(dop853, "integrate", counted)
    ok, detail = acceptance.criterion_numerical_monodromy(0)
    assert ok, detail
    assert len(sizes) == 1 + 1 + 3 + 1
    assert sizes[-1] == 10 * len(oracle.DEFAULT_LAMBDAS) * 3 * 3


def test_an_on_locus_point_moved_off_fails_numerical_monodromy(monkeypatch):
    # the second point, (2, 2), is on its locus; moved off it, the batched
    # loop must still single it out, in the criterion's own words
    locus_point = acceptance._locus_point
    calls = []

    def moved(q, r, lat, rng):
        vals = locus_point(q, r, lat, rng)
        calls.append((q, r))
        if len(calls) == 2:
            vals["c"] = vals["c"] * 1.01 + 0.01
        return vals

    monkeypatch.setattr(acceptance, "_locus_point", moved)
    ok, detail = acceptance.criterion_numerical_monodromy(0)
    assert calls[1] == (2, 2)
    assert not ok
    head, _, value = detail.rpartition(" ")
    assert head == "(q,r)=(2,2) on=True: deviation"
    assert float(value) >= 1e-8


def _patch_call(monkeypatch, name, n, change):
    """Make the n-th call (from 1) of acceptance.<name> return change(its
    result); every other call returns what it returns.  Returns the list
    of every call's positional arguments."""
    real = getattr(acceptance, name)
    calls = []

    def patched(*args, **kwargs):
        calls.append(args)
        out = real(*args, **kwargs)
        return change(out) if len(calls) == n else out

    monkeypatch.setattr(acceptance, name, patched)
    return calls


def _one_report(i, **fields):
    """A change for _patch_call: report i of a list gets the given fields."""
    return lambda reports: [replace(rep, **fields) if j == i else rep
                            for j, rep in enumerate(reports)]


@pytest.mark.parametrize("name, n, change, detail", [
    # the first cell is (1, 1), whose one branch is a one-parameter family
    # and whose one condition is e
    ("triangular_solve", 1, lambda branches: branches * 2,
     "(q,r)=(1,1): branch structure ['one-parameter-family', 'one-parameter-family']"),
    ("constraints_for", 1, lambda cs: replace(cs, conditions=cs.conditions * 2),
     "(q,r)=(1,1): conditions not {e}"),
    # (2, 2) is the first cell with a closed form, c = -e^2/3; twice that
    # leaves 3c + e^2 at -e^2
    ("_annihilating_substitution", 1, lambda sub: {**sub, "c": sub["c"] * 2},
     "(q,r)=(2,2): residual -e^2"),
], ids=["branch-structure", "conditions-not-e", "residual"])
def test_each_failed_check_fails_closed_form_loci(monkeypatch, name, n, change, detail):
    _patch_call(monkeypatch, name, n, change)
    assert acceptance.criterion_closed_form_loci(0) == (False, detail)


def test_a_truncated_constant_that_fits_fails_j_invariants(monkeypatch):
    # calls 1-7 read the seven j-values; the eighth reads g2/e4 at (8, 8),
    # which is made to match the truncated constant 767835508
    scale, ((p8, k),), den = acceptance.CLOSED_FORMS[8, "g2/e4"]
    bad = (scale, (((767835508,) + p8[1:], k),), den)
    calls = _patch_call(monkeypatch, "branch_quantity", 8,
                        lambda _: acceptance.closed_form_value(bad, 8))
    assert acceptance.criterion_j_invariants(0) == (
        False, "degree-8 constant adjudication failed")
    assert [quantity for _, quantity in calls] == ["j"] * 7 + ["g2/e4"]


def test_a_wrong_reconstruction_fails_rational_reconstruction(monkeypatch):
    # the first reconstruction is c/e2 at r = 2, -1/3 for every q
    _patch_call(monkeypatch, "reconstruct_in_q", 1, lambda f: f + 1)
    assert acceptance.criterion_reconstruction(0) == (
        False, "r=2 c/e2: got (q^2 + 2*q - 2)/(q^2 + 2*q + 1)")


def test_a_non_cyclic_branch_fails_high_r_scan(monkeypatch):
    # the first row of the scan is branch 0 of (14, 14)
    _patch_call(monkeypatch, "scan_grid", 1, lambda report: replace(
        report, rows=[replace(report.rows[0], classification="finite-set"), *report.rows[1:]]))
    assert acceptance.criterion_high_r_scan(0) == (
        False, "non-cyclic branches: [(14, 14, 'finite-set')]")


@pytest.mark.parametrize("name, n, change, detail", [
    ("monodromy_matrices", 1, _one_report(2, deviation=1e-6),
     "integrable order-2 deviation 1e-06"),
    ("monodromy_matrices", 1, _one_report(0, determinant=1.001 + 0j), "determinant drift"),
    ("monodromy_matrix", 1, lambda rep: replace(rep, deviation=1e-3),
     "a=-5/2 deviation only 0.001"),
    ("monodromy_matrices", 2, _one_report(0, deviation=1e-6),
     "cyclic order-3 deviation 1e-06"),
], ids=["integrable-deviation", "determinant-drift", "obstructed-trivial", "cyclic-deviation"])
def test_each_failed_loop_fails_numerical_monodromy(monkeypatch, name, n, change, detail):
    # the first loop is integrable Lame (five spectral values), the single
    # matrix is a = -5/2, and the second loop is the order-3 cyclic operator
    _patch_call(monkeypatch, name, n, change)
    assert acceptance.criterion_numerical_monodromy(0) == (False, detail)


def test_an_off_locus_point_that_reads_trivial_fails_numerical_monodromy(monkeypatch):
    # the sixth point, (1, 1), is moved off its locus by e += 0.05; starting
    # it at e = -0.05 lands it on the locus, so its loop reads trivial
    calls = _patch_call(monkeypatch, "_locus_point", 6, lambda vals: {**vals, "e": -0.05})
    ok, detail = acceptance.criterion_numerical_monodromy(0)
    assert calls[5][:2] == (1, 1)
    head, _, value = detail.rpartition(" ")
    assert (ok, head) == (False, "(q,r)=(1,1) on=False: deviation")
    assert float(value) <= 1e-6


def test_a_half_period_pair_loop_that_deviates_fails_many_body(monkeypatch):
    _patch_call(monkeypatch, "monodromy_matrices", 1, _one_report(0, deviation=1e-5))
    assert acceptance.criterion_many_body(0) == (False, "half-period pair deviation 1e-05")


@pytest.mark.parametrize("change, detail", [
    (lambda _: None, "no order-3 partner found for a = -2"),
    # D^3 + P does not commute with D^2 - 2P
    (lambda _: {3: EllipticElement.const(1), 0: EllipticElement.P()}, "commutator does not vanish"),
], ids=["no-partner", "nonzero-commutator"])
def test_a_bad_first_search_fails_commuting_certificate(monkeypatch, change, detail):
    # the first search is a = -2, whose partner D^3 - 3P D - 3/2 P' exists
    _patch_call(monkeypatch, "find_commuting", 1, change)
    assert acceptance.criterion_commuting_certificate(0) == (False, detail)


def test_a_partner_for_a_minus_5_2_fails_commuting_certificate(monkeypatch):
    # the second search is a = -5/2, which has no partner; D^3 stands in
    _patch_call(monkeypatch, "find_commuting", 2,
                lambda _: {3: EllipticElement.const(1)})
    assert acceptance.criterion_commuting_certificate(0) == (
        False, "spurious partner found for a = -5/2")


def _nowhere(cs):
    """A change for _patch_call: a constraint set that no point satisfies."""
    return replace(cs, conditions=(Condition(MultiPoly.const(1), 0),))


@pytest.mark.parametrize("name, n, change, detail", [
    # calls 1-20 are the order-2 trials, 21-40 the gaps-(2,2) trials and
    # 41-45 the full runs of the one-pole family, one per cell, (2, 2)
    # first; trial 0 of each block is on its locus
    ("trivial_monodromy_constraints", 1, _nowhere, "order-2 disagreement at trial 0 (m=1)"),
    ("trivial_monodromy_constraints", 21, _nowhere, "gaps-(2,2) disagreement at trial 0"),
    ("trivial_monodromy_constraints", 41, _nowhere, "middle/full disagreement at (q,r)=(2,2)"),
    ("constraints_for", 1, _nowhere, "middle/full disagreement at (q,r)=(2,2)"),
], ids=["order-2", "gaps-2-2", "full-run", "middle-run"])
def test_each_disagreement_fails_engine_equivalences(monkeypatch, name, n, change, detail):
    _patch_call(monkeypatch, name, n, change)
    assert acceptance.criterion_engine_equivalences(0) == (False, detail)


def test_engine_equivalences_localizes_to_the_least_truncation(monkeypatch):
    # each full run of the one-pole family starts from the lowest index and
    # reads through z^(q+r-2): q + r - 1 is enough and q + r - 2 is not.
    # The z engine runs once per cell, 45 runs in all, and no value is put
    # into an operator
    seen = []
    localize = GlobalEllipticOperator.localize

    def spy(self, K):
        seen.append(K)
        return localize(self, K)

    monkeypatch.setattr(GlobalEllipticOperator, "localize", spy)
    monkeypatch.setattr(GlobalEllipticOperator, "substitute", None)
    runs = _patch_call(monkeypatch, "trivial_monodromy_constraints", 0, None)
    assert acceptance.criterion_engine_equivalences(0)[0]
    pairs = [(2, 2), (1, 1), (4, 4), (5, 2), (2, 5)]
    assert seen == [q + r - 1 for q, r in pairs]
    assert len(runs) == 45
    monkeypatch.undo()
    for q, r in pairs:
        op = third_order_from_gaps(q, r).substitute(
            {v: MultiPoly.const(1) for v in ("c", "e")})
        with pytest.raises(TruncationError, match=f"beyond trusted order {q + r - 2}"):
            trivial_monodromy_constraints(op.localize(q + r - 2))


@pytest.mark.parametrize("t", [Rat(1), Rat(-2, 3)], ids=["t=1", "t=-2/3"])
def test_both_engines_read_a_point_of_the_4_4_locus_as_on_it(t):
    # e = 0 and c^2/g2 = 12 (CLOSED_FORMS[4, "c2/g2"] at q = 4) is the (4, 4)
    # locus, and g3 is free on it.  The P expansion keeps g2 and g3
    # symbolic, so both engines' conditions are read at the point; a value
    # for g2 put into the operator never reached the z run, which read this
    # point as off the locus
    def point(g2):
        return {v: MultiPoly.const(x) for v, x in (("c", 12 * t), ("e", 0), ("g2", g2), ("g3", 5))}

    on, off = point(12 * t * t), point(12 * t * t + 1)
    with pytest.raises(ValueError, match="g2 and g3"):
        third_order_from_gaps(4, 4).substitute(on)
    for cs in (trivial_monodromy_constraints(third_order_from_gaps(4, 4).localize(7)),
               constraints_for(4, 4)):
        assert cs.conditions
        assert substitute_constraints(cs, on).conditions == ()
        assert substitute_constraints(cs, off).conditions != ()


@pytest.mark.parametrize("seed", range(4))
def test_engine_equivalences_samples_the_4_4_locus_on_it(monkeypatch, seed):
    # the third block's trial 2, at (4, 4), takes e = 0 and g2 = c^2/12;
    # each trial reads the z run's conditions, then constraints_for's, at
    # its point, and both must read it as on the locus
    reads = []
    real = acceptance.substitute_constraints

    def spy(cs, point):
        out = real(cs, point)
        reads.append((point, out.conditions))
        return out

    monkeypatch.setattr(acceptance, "substitute_constraints", spy)
    assert acceptance.criterion_engine_equivalences(seed) == (
        True, "50 randomized equivalence samples agree")
    assert len(reads) == 20
    (point, z), (same, x) = reads[4:6]
    assert point is same and point["e"].is_zero()
    assert (point["g2"] * 12 - point["c"] * point["c"]).is_zero()
    assert z == x == ()


def test_a_leading_condition_other_than_e_fails_leading_condition(monkeypatch):
    # the first cell is (7, 7); without its leading condition e, the next
    # one leads
    _patch_call(monkeypatch, "constraints_for", 1,
                lambda cs: replace(cs, conditions=cs.conditions[1:]))
    assert acceptance.criterion_leading_condition(0) == (
        False, "(q,r)=(7,7): leading condition 28224*c^2 + 636*c*e^2 + e^4 - 1555200*g2")


def test_the_sign_lemma_gives_the_leading_condition_e_for_every_r_1_mod_3():
    # criterion_leading_condition's lemma, from the x-form templates: on every
    # valid cell with r = 3s + 1 <= 22 and q <= 31, rho(m1 + 3i) = 1 and
    # R_0(m1 + k) > 0 for 0 < k < r, so C < 0; and with C != 0 the first
    # condition of constraints_for is e, at lambda degree s
    universe = sort_vars(("lambda", "u1", "c", "e", "g2", "g3"))
    (e_key,) = MultiPoly.var("e").in_universe(universe).terms
    cells = [(q, r) for r in range(1, 23, 3) for q in range(1, 32, 3)]
    for q, r in cells:
        s = (r - 1) // 3
        _, m1, _ = third_order_indices(q, r).indices
        m1 = int(m1)
        templates = _algebraic_templates(third_order_from_gaps(q, r), universe)

        def R(j, eps):
            E, table = templates[eps % 2]
            return {key: Rat(sum(c * eps ** d for d, c in enumerate(cs)), E)
                    for key, cs in table[j].items()}

        R0 = [R(0, m1 + k)[0] for k in range(r)]
        assert all(v > 0 for v in R0[1:]), (q, r)
        assert all(R(1, m1 + 3 * i) == {e_key: 1} for i in range(s + 1)), (q, r)
        G = [Rat(1)]
        for d in range(1, s + 1):
            G.append(G[-1] / R0[3 * d])
        C = Rat(0)
        for i in range(s + 1):
            tail = Rat(1)
            for j in range(i, s):
                tail /= R0[3 * j + 1]
            C -= G[i] * tail
        assert C < 0, (q, r)
        lead = constraints_for(q, r).conditions[0]
        assert (lead.poly.text(), lead.lambda_degree) == ("e", s), (q, r)


def _shift_first(delta):
    """A change for _patch_call: the first value of a list moves by delta."""
    return lambda values: [values[0] + delta, *values[1:]]


@pytest.mark.parametrize("name, n, change, detail", [
    ("ref_c_over_e2", 1, lambda ratio: ratio * 2,
     "c = -3p^2 does not match the (2,2) locus under e = 3p"),
    ("cm3_residuals", 1, _shift_first(1e-11), "single-pole critical residual too large"),
    ("finite_gap_residuals", 1, lambda res: [1e-11, *res[1:]], "half-period residual 1e-11"),
    ("newton_critical", 1, lambda out: replace(out, residual_norm=1e-9), "Newton residual 1e-09"),
], ids=["locus-ratio", "single-pole", "half-period", "newton-residual"])
def test_each_failed_check_fails_many_body(monkeypatch, name, n, change, detail):
    # ref_c_over_e2's only call is the (2, 2) ratio c/e^2 = -1/3, which
    # c = -3p^2 at e = 3p must match; cm3_residuals' first call is the
    # single pole, its second the gradient
    # check; the only finite_gap_residuals and newton_critical calls are the
    # half-period pair and the pinned two-pole solve
    _patch_call(monkeypatch, name, n, change)
    assert acceptance.criterion_many_body(0) == (False, detail)


@pytest.mark.parametrize("name, n, change, head, bound", [
    ("cm3_residuals", 2, _shift_first(1e-3), "finite-difference gradient mismatch", 1e-6),
    ("newton_critical", 1, lambda out: replace(out, success=False), "Newton residual", None),
], ids=["gradient", "newton-failure"])
def test_a_measured_failure_fails_many_body(monkeypatch, name, n, change, head, bound):
    _patch_call(monkeypatch, name, n, change)
    ok, detail = acceptance.criterion_many_body(0)
    got_head, _, value = detail.rpartition(" ")
    assert (ok, got_head) == (False, head)
    if bound is None:
        assert float(value) <= 1e-10        # converged, yet reported unsuccessful
    else:
        assert float(value) > bound


@pytest.mark.parametrize("name, change, head, bound", [
    ("hexagonal_fold_residual", lambda v: v + 1e-9, "fold identity residual", 1e-10),
    ("cryst3_residuals", _shift_first(1e-6), "residual/gradient mismatch", 1e-8),
], ids=["fold-identity", "residual-gradient"])
def test_each_failed_check_fails_symmetric_third_order(monkeypatch, name, change, head, bound):
    calls = _patch_call(monkeypatch, name, 1, change)
    ok, detail = acceptance.criterion_symmetric_third_order(0)
    got_head, _, value = detail.rpartition(" ")
    assert (ok, got_head) == (False, head)
    assert float(value) > bound
    assert len(calls) >= acceptance._SYMMETRIC_SAMPLES


@pytest.mark.parametrize("name, change, head, bound", [
    # the first point's wp' moves, which the relation sees and periodicity,
    # read from wp alone, does not
    ("wp01", lambda pair: (pair[0], pair[1] + 1e-3), "defining relation residual", 1e-9),
    ("wp_eval", lambda v: v + 1e-9, "periodicity residual", 1e-10),
], ids=["relation", "periodicity"])
def test_each_residual_fails_elliptic_numerics(monkeypatch, name, change, head, bound):
    _patch_call(monkeypatch, name, 1, change)
    ok, detail = acceptance.criterion_elliptic_numerics(0)
    got_head, _, value = detail.rpartition(" ")
    assert (ok, got_head) == (False, head)
    assert float(value) > bound


def test_a_series_off_the_evaluator_fails_elliptic_numerics(monkeypatch):
    # a constant term 1e-8 in the first lattice's series shows at its first
    # sample point
    _patch_call(monkeypatch, "wp_series_numeric", 1, lambda d: {**d, 0: 1e-8})
    assert acceptance.criterion_elliptic_numerics(0) == (
        False, "series/evaluator gap at |z|=0.12*shortest")


def test_a_programming_error_in_a_sampled_check_is_not_retried(monkeypatch):
    # only a draw on a pole or an orbit collision is skipped: a TypeError
    # surfaces at once instead of reading as too few evaluated points
    calls = []

    def broken(cfg):
        calls.append(cfg)
        raise TypeError("unsupported operand")

    monkeypatch.setattr(acceptance, "cryst3_residuals", broken)
    with pytest.raises(TypeError, match="unsupported operand"):
        acceptance.criterion_symmetric_third_order(0)
    assert len(calls) == 1
