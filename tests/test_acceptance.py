"""Full verification suite, one test per criterion.

Every criterion runs once per session, through acceptance.run_all(0) (the
verify_results fixture).  Each test prints a single pass/fail line (run
pytest with -s to see them) and then asserts, so a failure reports the
criterion's own diagnostic.
"""

import pytest

from ellop import acceptance
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
