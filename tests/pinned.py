"""tools/pins.py, loaded for the tests, and the lines of tests/cli-pins.txt."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "pins", Path(__file__).resolve().parents[1] / "tools" / "pins.py")
pins = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pins)

#: the lines that tier-1 runs
TIER1 = pins.read_pins(pins.TIER1)

#: the subcommands whose lines a test in test_cli.py or test_locus3.py runs,
#: under the ids that the digest table each line came from gave it;
#: test_pins.py runs the lines of every other subcommand
OWN_TESTS = {"locus", "jtable", "commute", "reconstruct",
             "cm2-residuals", "cm3-crit", "cryst3-crit", "inozemtsev-grad"}


def lines_of(*commands) -> list:
    """The lines of TIER1 whose subcommand is one of commands."""
    return [pin for pin in TIER1 if pins.subcommand(pin.args) in commands]

