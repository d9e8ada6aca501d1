"""tools/pins.py: its parser and its three checks, on fast lines only."""

import hashlib
import importlib.util
import re
from pathlib import Path

from ellop.cli import build_parser

TOOL = Path(__file__).resolve().parents[1] / "tools" / "pins.py"


def load_pins():
    spec = importlib.util.spec_from_file_location("pins", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_pin_line_is_well_formed():
    pins = load_pins().read_pins()
    assert pins
    parser = build_parser()
    for pin in pins:
        assert pin.code in (0, 1, 2), pin
        assert re.fullmatch("[0-9a-f]{64}", pin.sha), pin
        parser.parse_args(pin.args)


def test_coverage_names_the_r_and_curve_of_a_dropped_locus_line():
    tool = load_pins()
    pins = tool.read_pins()
    assert tool.missing(pins) == []
    dropped = [p for p in pins if p.args != ["locus", "--r", "25", "--curve", "nodal"]]
    assert len(dropped) == len(pins) - 1
    assert tool.missing(dropped) == [(25, "nodal")]


def test_a_wrong_digest_is_reported():
    tool = load_pins()
    args = ["constraints", "--q", "2", "--r", "2"]
    code, stdout = tool.run(args)
    assert code == 0
    assert tool.check(tool.Pin(0, hashlib.sha256(stdout.encode()).hexdigest(), args)) == []
    (problem,) = tool.check(tool.Pin(0, "0" * 64, args))
    assert problem.startswith("constraints --q 2 --r 2: exit 0, sha256 ")
    assert problem.endswith("pinned exit 0, sha256 " + "0" * 64)


def test_an_exotic_j_row_fails_the_class_check():
    # r = 8 has an exotic-j branch beside the cyclic point
    tool = load_pins()
    code, stdout = tool.run(["locus", "--r", "8", "--q-max", "8"])
    assert code == 0
    assert [row["classification"] for row in tool.off_class_rows(stdout)] == ["exotic-j"]
    problems = tool.check(tool.Pin(code, "0" * 64, ["locus", "--r", "8", "--q-max", "8"]))
    assert len(problems) == 2 and "exotic-j" in problems[1]
