"""In-memory spans around the benchmark's own calls into sqzopo.

A span records (id, parent, trace id, layer, name, start, end); spans of one
benchmark operation share the trace id of that operation's root span.
Spans stay in memory until :meth:`Tracer.dump` writes them out at the end
of a run.  A layer's self time is the duration of its spans minus the part
covered by their direct children.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

# Layer of the root span that wraps one whole benchmark operation.  Its self
# time is the time no layer span covers, i.e. the unaccounted share.
ROOT = "op"


class Tracer:
    """Records spans and named values for the operations it is passed to."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.values: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, layer: str, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        trace_id = self._stack[0] if self._stack else sid
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, trace_id, layer, name, t0, t1))

    def value(self, key: str, v: float) -> None:
        self.values[key].append(v)

    def durations(self, layer: str, name: str) -> list[float]:
        return [s[6] - s[5] for s in self.spans if s[3] == layer and s[4] == name]

    def self_times(self) -> dict[str, float]:
        """Self time in seconds summed per layer, the root layer included."""
        child = defaultdict(float)
        for _, parent, _, _, _, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for sid, _, _, layer, _, t0, t1 in self.spans:
            out[layer] += (t1 - t0) - child[sid]
        return dict(out)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "trace", "layer", "name", "start", "end")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]))


class NullTracer:
    """Stands in for :class:`Tracer` on untraced operations."""

    def span(self, layer: str, name: str):
        return nullcontext()

    def value(self, key: str, v: float) -> None:
        pass


NULL = NullTracer()


def median(values: list[float], default: float = 0.0) -> float:
    return statistics.median(values) if values else default
