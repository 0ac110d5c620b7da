"""In-memory span tracing around the program's public functions.

The benchmark never edits the program: a traced run patches each
wrapped function *at the name its caller looks up* (a module global or
a class attribute), records one span per call, and restores every
original when the phase ends.  Spans live in flat in-memory arrays
(name, start, end, parent span, request) and are written out once,
when the run ends (:meth:`Tracer.write`).

A layer's *self time* is its spans' duration minus the part covered by
their child spans; :func:`span_stats` derives it together with call
counts, total seconds, and duration percentiles.

After a traced phase, :meth:`Tracer.assert_fired` fails loudly if any
span name the phase expects never fired, so a renamed function cannot
silently read as zero.
"""

from __future__ import annotations

import importlib
import json
import statistics
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter


_INHERITED = object()


class Tracer:
    """Flat, append-only span store for one single-threaded process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.requests = array("i")
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._restore: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        index = len(self.starts)
        parent = self._stack[-1] if self._stack else -1
        self.name_ids.append(nid)
        self.parents.append(parent)
        self.requests.append(self.requests[parent] if parent >= 0 else index)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    def span(self, name: str) -> "_SpanContext":
        """Context manager for spans the benchmark opens itself."""
        return _SpanContext(self, self.name_id(name))

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    # --- patching ----------------------------------------------------------

    def wrap(self, name: str, fn, measure=None):
        """``fn`` wrapped in a span; ``measure(args)`` feeds counters."""
        nid = self.name_id(name)
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            if measure is not None:
                measure(args)
            index = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                end(index)

        traced.__wrapped__ = fn
        return traced

    def patch(self, target: str, name: str, measure=None) -> None:
        """Wrap ``module:attr.path`` in place; raises if it is gone."""
        module_name, _, attr_path = target.partition(":")
        owner = importlib.import_module(module_name)
        *parents, attr = attr_path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        self.replace(
            owner, attr, self.wrap(name, getattr(owner, attr), measure)
        )

    def replace(self, owner, attr: str, value) -> None:
        """Install ``value`` at ``owner.attr``; undone by :meth:`unpatch`.

        An attribute a class only inherits is restored by deleting the
        override again, so the base class's method shows through.
        """
        own = vars(owner) if isinstance(owner, type) else None
        original = own.get(attr, _INHERITED) if own is not None else (
            getattr(owner, attr)
        )
        self._restore.append((owner, attr, original))
        setattr(owner, attr, value)

    def patch_item(self, mapping: dict, key: str, name: str) -> None:
        """Wrap one entry of a registry dict (looked up per call)."""
        original = mapping[key]
        self._restore.append((mapping, key, original))
        mapping[key] = self.wrap(name, original)

    def unpatch(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            elif original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # --- checks and output ---------------------------------------------------

    def calls(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            return 0
        return sum(1 for value in self.name_ids if value == nid)

    def assert_fired(self, names) -> None:
        fired = set(self.name_ids)
        missing = [
            name
            for name in names
            if self._ids.get(name) not in fired
        ]
        if missing:
            raise AssertionError(
                "traced functions never fired (renamed or no longer "
                f"called?): {', '.join(sorted(missing))}"
            )

    def write(self, path: Path) -> Path:
        """One JSON header line, then the raw span columns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = {
            "name": self.name_ids,
            "start": self.starts,
            "end": self.ends,
            "parent": self.parents,
            "request": self.requests,
        }
        header = {
            "names": self.names,
            "spans": len(self.starts),
            "columns": [[key, col.typecode] for key, col in columns.items()],
            "counters": dict(self.counters),
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for col in columns.values():
                col.tofile(handle)
        return path


class _SpanContext:
    def __init__(self, tracer: Tracer, nid: int):
        self._tracer = tracer
        self._nid = nid

    def __enter__(self) -> "_SpanContext":
        self._index = self._tracer.begin(self._nid)
        return self

    def __exit__(self, *exc_info) -> bool:
        self._tracer.end(self._index)
        return False


def read_spans(path: Path) -> tuple[dict, dict[str, array]]:
    """Inverse of :meth:`Tracer.write`: ``(header, columns)``."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        columns = {}
        for key, typecode in header["columns"]:
            col = array(typecode)
            col.fromfile(handle, header["spans"])
            columns[key] = col
    return header, columns


def span_stats(tracer: Tracer) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, durations."""
    count = len(tracer.starts)
    child = [0.0] * count
    durations = [tracer.ends[i] - tracer.starts[i] for i in range(count)]
    for i in range(count):
        parent = tracer.parents[i]
        if parent >= 0:
            child[parent] += durations[i]
    stats: dict[str, dict] = {}
    for i in range(count):
        name = tracer.names[tracer.name_ids[i]]
        entry = stats.get(name)
        if entry is None:
            entry = stats[name] = {"calls": 0, "s": 0.0, "self_s": 0.0,
                                   "durations": []}
        entry["calls"] += 1
        entry["s"] += durations[i]
        entry["self_s"] += durations[i] - child[i]
        entry["durations"].append(durations[i])
    return stats


def percentile_ms(durations: list[float], q: int) -> float:
    """The ``q``-th percentile in ms (0.0 with fewer than 2 samples)."""
    if len(durations) < 2:
        return durations[0] * 1000 if durations else 0.0
    return statistics.quantiles(durations, n=100)[q - 1] * 1000
