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
from ellop.poly import MultiPoly, RatFunc
from ellop.rationals import Rat


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
    import ellop.oracle as oracle

    integrate = oracle.integrate
    sizes = []

    def counted(fun, y0, *args):
        sizes.append(len(y0))
        return integrate(fun, y0, *args)

    monkeypatch.setattr(oracle, "integrate", counted)
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
    of every call's arguments."""
    real = getattr(acceptance, name)
    calls = []

    def patched(*args):
        calls.append(args)
        out = real(*args)
        return change(out) if len(calls) == n else out

    monkeypatch.setattr(acceptance, name, patched)
    return calls


def _one_report(i, **fields):
    """A change for _patch_call: report i of a list gets the given fields."""
    return lambda reports: [replace(rep, **fields) if j == i else rep
                            for j, rep in enumerate(reports)]


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


def test_a_partner_for_a_minus_5_2_fails_commuting_certificate(monkeypatch):
    # the second search is a = -5/2, which has no partner; D^3 stands in
    _patch_call(monkeypatch, "find_commuting", 2,
                lambda _: {3: EllipticElement.const(1)})
    assert acceptance.criterion_commuting_certificate(0) == (
        False, "spurious partner found for a = -5/2")


def _shift_first(delta):
    """A change for _patch_call: the first value of a list moves by delta."""
    return lambda values: [values[0] + delta, *values[1:]]


@pytest.mark.parametrize("name, n, change, detail", [
    ("cm3_residuals", 1, _shift_first(1e-11), "single-pole critical residual too large"),
    ("finite_gap_residuals", 1, lambda res: [1e-11, *res[1:]], "half-period residual 1e-11"),
    ("newton_critical", 1, lambda out: replace(out, residual_norm=1e-9), "Newton residual 1e-09"),
], ids=["single-pole", "half-period", "newton-residual"])
def test_each_failed_check_fails_many_body(monkeypatch, name, n, change, detail):
    # cm3_residuals' first call is the single pole, its second the gradient
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
