"""tools/pins.py: its two files, its checks, and the tier-1 lines that no
test of their subcommand runs."""

import hashlib
import re
import sys
from collections import Counter

import pytest

from ellop.cli import _DISPATCH, build_parser
from pinned import OWN_TESTS, TIER1, lines_of, pins

BOTH = TIER1 + pins.read_pins(pins.SLOW)


@pytest.mark.parametrize("pin", lines_of(*(set(_DISPATCH) - OWN_TESTS), None),
                         ids=lambda pin: " ".join(pin.args))
def test_pin_line(pin):
    assert pins.check(pin) == []


def test_every_pin_line_is_well_formed():
    parser = build_parser()
    for path in (pins.TIER1, pins.SLOW):
        assert pins.read_pins(path), path
    for pin in BOTH:
        assert pin.code in (0, 1, 2), pin
        assert re.fullmatch("[0-9a-f]{64}", pin.sha), pin
        parser.parse_args(pin.args)


def test_no_args_appear_on_two_lines():
    # in one file or across both
    assert [args for args, n in Counter(" ".join(p.args) for p in BOTH).items() if n > 1] == []


def test_the_tier1_pins_run_every_subcommand():
    # tools/reach.py runs these lines as its probe
    assert {pins.subcommand(pin.args) for pin in TIER1} - {None} == set(_DISPATCH)


def test_coverage_names_the_r_and_curve_of_a_dropped_locus_line():
    assert pins.missing(BOTH) == []
    dropped = [p for p in BOTH if p.args != ["locus", "--r", "25", "--curve", "nodal"]]
    assert len(dropped) == len(BOTH) - 1
    assert pins.missing(dropped) == [(25, "nodal")]


def test_a_wrong_digest_is_reported():
    args = ["constraints", "--q", "2", "--r", "2"]
    code, stdout, stderr = pins.run(args)
    assert (code, stderr) == (0, "")
    assert pins.check(pins.Pin(0, hashlib.sha256(stdout.encode()).hexdigest(), args)) == []
    (problem,) = pins.check(pins.Pin(0, "0" * 64, args))
    assert problem.startswith("constraints --q 2 --r 2: exit 0, sha256 ")
    assert problem.endswith("pinned exit 0, sha256 " + "0" * 64)


def test_an_exit_0_line_that_writes_to_stderr_is_reported(monkeypatch):
    args = ["homog-check", "--n", "3", "--indices=-1,1,3"]
    monkeypatch.setitem(_DISPATCH, "homog-check",
                        lambda a: print("careful", file=sys.stderr) or 0)
    empty = hashlib.sha256(b"").hexdigest()
    assert pins.check(pins.Pin(0, empty, args)) == [
        "homog-check --n 3 --indices=-1,1,3: exit 0, but stderr ends 'careful'"]


def test_an_exact_line_that_imports_numpy_fails(monkeypatch):
    # jtable is exact: its lines run with numpy blocked
    def jtable(args):
        import numpy  # noqa: F401
        return 0

    monkeypatch.setitem(_DISPATCH, "jtable", jtable)
    pin = pins.Pin(0, hashlib.sha256(b"").hexdigest(), ["jtable", "--r", "1"])
    (problem,) = pins.check(pin)
    assert problem.startswith("jtable --r 1: exit 1, ")
    assert "stderr ends 'ModuleNotFoundError: import of numpy halted" in problem


def test_an_exotic_j_row_fails_the_class_check(monkeypatch):
    # r = 8 has an exotic-j branch beside the cyclic point; the class rule
    # covers it once HIGH_R does
    args = ["locus", "--r", "8", "--q-max", "8"]
    code, stdout, _ = pins.run(args)
    assert code == 0
    assert [row["classification"] for row in pins.off_class_rows(stdout)] == ["exotic-j"]
    monkeypatch.setattr(pins, "HIGH_R", range(8, 65))
    problems = pins.check(pins.Pin(code, "0" * 64, args))
    assert len(problems) == 2 and "exotic-j" in problems[1]


def test_the_class_rule_skips_a_locus_line_below_r_23():
    args = ["locus", "--r", "8", "--q-max", "8"]
    code, stdout, _ = pins.run(args)
    assert pins.check(pins.Pin(code, hashlib.sha256(stdout.encode()).hexdigest(), args)) == []
