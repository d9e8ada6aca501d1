"""Full verification suite, one test per criterion.

Every criterion runs once per session, through acceptance.run_all(0) (the
verify_results fixture).  Each test prints a single pass/fail line (run
pytest with -s to see them) and then asserts, so a failure reports the
criterion's own diagnostic.
"""

import pytest

from ellop import acceptance


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
