"""Tests of the benchmark's own tracer and patching."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import layers  # noqa: E402
import run  # noqa: E402
from tracer import Bindings, Tracer, same_signature  # noqa: E402


def ticking_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_of_nested_spans():
    # outer [0,10] holds a [1,3] and b [4,8]; b holds a [5,6]
    tr = Tracer(clock=ticking_clock([0, 1, 3, 4, 5, 6, 8, 10]))
    with tr.span("outer"):
        with tr.span("a"):
            pass
        with tr.span("b"):
            with tr.span("a"):
                pass
    assert list(tr.parent) == [-1, 0, 0, 2]
    assert tr.self_times() == [4, 2, 3, 1]
    stats = tr.summary()
    assert stats["outer"] == (1, 10, 4)
    assert stats["a"] == (2, 3, 3)
    assert stats["b"] == (1, 4, 3)
    assert tr.top_level_seconds() == 10
    assert tr.top_level_seconds(lambda name: name == "outer") == 6


def test_recursive_spans_count_outermost_time_once():
    tr = Tracer(clock=ticking_clock([0, 1, 2, 5]))
    with tr.span("f"):
        with tr.span("f"):
            pass
    assert tr.summary()["f"] == (2, 5, 5)


def test_dump_writes_the_spans_as_json(tmp_path):
    tr = Tracer(clock=ticking_clock([0.5, 1.0, 2.0, 4.0]))
    with tr.span("x"):
        with tr.span("y"):
            pass
    tr.dump(tmp_path / "t.json")
    doc = json.loads((tmp_path / "t.json").read_text())
    assert doc == {"names": ["x", "y"], "name": [0, 1], "start": [0.5, 1.0],
                   "end": [4.0, 2.0], "parent": [-1, 0]}


def test_wrapper_keeps_the_signature():
    def f(a, b=2, *rest, c, **kw):
        return a, b, rest, c, kw

    g = same_signature(f, f)
    assert g.__code__.co_argcount == f.__code__.co_argcount
    assert g(1, c=3) == (1, 2, (), 3, {})
    assert g(1, 5, 6, c=3, d=4) == (1, 5, (6,), 3, {"d": 4})


def _snapshot():
    """Every ellop module global, class attribute and container item."""
    out = {}
    for name, module in list(sys.modules.items()):
        if not name.startswith("ellop"):
            continue
        for key, value in vars(module).items():
            out[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    out[(name, key, attr)] = member
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    out[(name, key, i)] = item
    return out


@pytest.fixture
def traced():
    import ellop  # noqa: F401  (load every module before the snapshot)
    import ellop.cli  # noqa: F401

    before = _snapshot()
    tracer, bindings = Tracer(), Bindings("ellop")
    missing = layers.install(tracer, bindings)
    try:
        yield tracer, missing
    finally:
        bindings.restore()
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_every_hook_finds_its_target(traced):
    _, missing = traced
    assert missing == []


def test_constraints_counted_via_acceptance_and_solved_branch(traced):
    tracer, _ = traced
    from ellop import acceptance, locus3

    assert acceptance.criterion_many_body.__code__.co_argcount == 1
    assert acceptance.criterion_leading_condition()[0]      # 12 direct calls
    assert acceptance.criterion_j_invariants()[0]           # 8 via solved_branch
    # the copied name in acceptance was replaced along with the original
    assert acceptance.constraints_for is locus3.constraints_for
    assert acceptance.constraints_for.__wrapped__.__module__ == "ellop.locus3"
    stats = tracer.summary()
    assert stats["locus3.constraints"][0] == 20
    assert len(tracer.distinct["locus3.constraints"]) == 15
    assert stats["acceptance.leading-condition"][0] == 1
    assert stats["acceptance.j-invariants"][0] == 1
    assert stats["locus3.solve"][0] == 8
    m = layers.metrics(tracer, wall_s=sum(tracer.self_times()))  # = root spans
    assert m["locus3.constraints_calls"] == 20
    assert m["locus3.constraints_distinct"] == 15
    assert m["lattice.wp_calls"] == 0
    assert 0.5 < m["trace.coverage_frac"] <= 1.0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.METRICS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
