"""Span recording and out-of-program function patching for the benchmark.

The program is never edited to be measured.  Instead `Bindings` replaces
every binding of a function inside a package with a wrapper and puts the
originals back afterwards.  `from`-imports copy bindings, so one function can
be reached through many names: module globals in every module that imported
it, class attributes (``__rmul__ = __mul__``), and module-level lists or
dicts that hold it (``acceptance.CRITERIA``).  All of them are replaced.

`Tracer` records spans -- a name, a start, an end and a parent -- in flat
arrays kept in memory, plus named counters.  A span's self time is its
duration minus the time its child spans cover.  The spans are written out
with `Tracer.dump` when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []              # span name table; spans store indices
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")     # index of the enclosing span, or -1
        self.outermost = array("b")  # 1 if no enclosing span has the same name
        self.counters = Counter()
        self.distinct = defaultdict(set)
        self._stack = []
        self._open = []              # per name id: spans of that name now open

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return nid

    def begin(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.outermost.append(self._open[nid] == 0)
        self._open[nid] += 1
        self._stack.append(i)
        self.end.append(0.0)
        self.start.append(self.clock())
        return i

    def finish(self, i: int):
        self.end[i] = self.clock()
        self._stack.pop()
        self._open[self.name[i]] -= 1

    @contextmanager
    def span(self, name: str):
        i = self.begin(self.name_id(name))
        try:
            yield
        finally:
            self.finish(i)

    def wrap(self, name: str, fn, after=None, before=None):
        """fn with a span around every call.

        before(tracer, args, kwargs) may return replacement (args, kwargs);
        after(tracer, args, kwargs, result) runs on every normal return.
        Calls that raise are counted under "<name>.errors".
        """
        nid = self.name_id(name)

        def call(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            i = self.begin(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counters[name + ".errors"] += 1
                raise
            finally:
                self.finish(i)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return same_signature(fn, call)

    # -- summaries ----------------------------------------------------------

    def _durations(self):
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self):
        """Per span: duration minus the time its child spans cover."""
        dur = self._durations()
        out = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= dur[i]
        return out

    def summary(self):
        """{name: (calls, seconds, self_seconds)}.  seconds sums only the
        outermost span of each name, so recursion is not counted twice."""
        dur = self._durations()
        own = self.self_times()
        stats = {name: [0, 0.0, 0.0] for name in self.names}
        for i, nid in enumerate(self.name):
            s = stats[self.names[nid]]
            s[0] += 1
            if self.outermost[i]:
                s[1] += dur[i]
            s[2] += own[i]
        return {name: tuple(v) for name, v in stats.items()}

    def top_level_seconds(self, transparent=lambda name: False) -> float:
        """Time covered by the outermost spans, looking through spans whose
        name is transparent (their children count as outermost instead)."""
        dur = self._durations()
        clear = []                   # every span on the path up is transparent
        total = 0.0
        for i, nid in enumerate(self.name):
            p = self.parent[i]
            above_clear = p < 0 or clear[p]
            see_through = transparent(self.names[nid])
            clear.append(above_clear and see_through)
            if above_clear and not see_through:
                total += dur[i]
        return total

    # -- output -------------------------------------------------------------

    def dump(self, path):
        """Write the spans as one JSON document: the name table, and per
        span its name index, start, end and parent index (-1 at the top)."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "name": self.name.tolist(),
                       "start": self.start.tolist(), "end": self.end.tolist(),
                       "parent": self.parent.tolist()}, fh)


# -- patching ---------------------------------------------------------------


class _Ref:
    """Renders as a bare name inside a generated signature."""

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return self.name


def same_signature(fn, call):
    """A function with fn's parameters that passes them on to call.

    A plain (*args, **kwargs) wrapper would not do: acceptance.run_all reads
    ``__code__.co_argcount`` to decide whether a criterion takes the seed.
    """
    sig = inspect.signature(fn)
    ns = {"_call": call}
    params, args = [], []
    for i, p in enumerate(sig.parameters.values()):
        default = p.default
        if default is not p.empty:
            ns[f"_d{i}"] = default
            default = _Ref(f"_d{i}")
        params.append(p.replace(annotation=p.empty, default=default))
        if p.kind is p.VAR_POSITIONAL:
            args.append("*" + p.name)
        elif p.kind is p.VAR_KEYWORD:
            args.append("**" + p.name)
        elif p.kind is p.KEYWORD_ONLY:
            args.append(f"{p.name}={p.name}")
        else:
            args.append(p.name)
    header = sig.replace(parameters=params, return_annotation=sig.empty)
    name = fn.__name__ if fn.__name__.isidentifier() else "wrapper"
    exec(f"def {name}{header}:\n    return _call({', '.join(args)})", ns)
    return functools.update_wrapper(ns[name], fn)


def _swap(item, old, new):
    if item is old:
        return new
    if isinstance(item, tuple) and any(x is old for x in item):
        return tuple(new if x is old else x for x in item)
    return item


def _put(container, key, value):
    if isinstance(container, type):
        setattr(container, key, value)
    else:
        container[key] = value


class Bindings:
    """Replaces every binding of a function inside one package; `restore`
    puts all of them back, newest first."""

    def __init__(self, package: str):
        self.package = package
        self._undo = []              # (container, key, previous value)

    def _modules(self):
        prefix = self.package + "."
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == self.package or name.startswith(prefix))]

    def _set(self, container, key, old, new):
        self._undo.append((container, key, old))
        _put(container, key, new)

    def replace(self, original, replacement) -> int:
        """Rebind every name whose value is original; returns how many."""
        before = len(self._undo)
        for module in self._modules():
            space = vars(module)
            for key, value in list(space.items()):
                if value is original:
                    self._set(space, key, value, replacement)
                elif isinstance(value, type) and value.__module__ == module.__name__:
                    for attr, member in list(vars(value).items()):
                        if member is original:
                            self._set(value, attr, member, replacement)
                elif isinstance(value, (list, dict)):
                    slots = value.items() if isinstance(value, dict) else enumerate(value)
                    for k, item in list(slots):
                        new = _swap(item, original, replacement)
                        if new is not item:
                            self._set(value, k, item, new)
        return len(self._undo) - before

    def restore(self):
        while self._undo:
            container, key, old = self._undo.pop()
            _put(container, key, old)


def resolve(module, path: str):
    """The raw object at "Class.attr" or "function" inside module, or None."""
    owner = module
    *outer, last = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        return vars(owner).get(last)
    return getattr(owner, last, None)
