"""tools/reach.py: its allowlist, checked without running the probe.  The
probe runs the lines of tests/cli-pins.txt, which test_pins.py checks run
every subcommand."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "reach.py"


def load_reach():
    spec = importlib.util.spec_from_file_location("reach", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_allowlist_entry_names_a_function_in_src():
    # read from the source with ast, so that an entry left behind by a
    # rename or a removal fails here and not only in the slow probe
    reach = load_reach()
    names = set(reach.defined().values())
    assert sorted(set(reach.ALLOWED) - names) == []
    assert all(why.strip() for why in reach.ALLOWED.values())
