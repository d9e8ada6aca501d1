"""tools/reach.py: its allowlist and its probe, checked without running it."""

import importlib.util
from pathlib import Path

from ellop.cli import _DISPATCH

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


def test_the_probe_runs_every_subcommand():
    reach = load_reach()
    ran = {next(a for a in argv if not a.startswith("-") and not a.isdigit())
           for argv in reach.COMMANDS}
    assert ran == set(_DISPATCH)
