"""In-memory spans around the benchmark's calls into the program's layers.

A span has a name, a start, an end and a parent; spans nest by the call
stack of the (single) driver thread.  The recorder keeps everything in
memory and writes Chrome trace-event JSON, which Perfetto and
``chrome://tracing`` load, only when asked to at the end of a run.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    span_id: int
    parent_id: "int | None"
    root_id: int
    name: str
    start_ns: int
    end_ns: int = 0
    args: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    """Records spans; ``span`` is a context manager yielding the span's
    ``args`` dict, so a caller can attach counts measured inside it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 1

    @contextmanager
    def span(self, name: str, **args):
        parent = self._stack[-1].span_id if self._stack else None
        root = self._stack[0].span_id if self._stack else self._next_id
        record = Span(self._next_id, parent, root, name,
                      time.perf_counter_ns(), args=dict(args))
        self._next_id += 1
        self._stack.append(record)
        try:
            yield record.args
        finally:
            record.end_ns = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append(record)

    def under(self, root: Span) -> list[Span]:
        """``root`` and every span recorded beneath it."""
        return [s for s in self.spans if s.root_id == root.root_id]

    def self_times_by_name(self, roots: "list[Span]") -> dict[str, float]:
        """Summed self time per span name over the subtrees of ``roots``.

        A span's self time is its duration minus the part of it its child
        spans cover; children of one span never overlap (one thread).
        """
        kids: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent_id is not None:
                kids.setdefault(s.parent_id, []).append(s)
        totals: dict[str, float] = {}
        pending = list(roots)
        while pending:
            span = pending.pop()
            own = kids.get(span.span_id, [])
            self_s = span.seconds - sum(c.seconds for c in own)
            totals[span.name] = totals.get(span.name, 0.0) + self_s
            pending.extend(own)
        return totals

    def write_chrome_trace(self, path: str) -> None:
        """Write complete ("X") events, microseconds from the first span."""
        if not self.spans:
            origin = 0
        else:
            origin = min(s.start_ns for s in self.spans)
        pid = os.getpid()
        tid = threading.get_ident() & 0xFFFFFFFF
        events = [
            {"name": "process_name", "ph": "M", "pid": pid, "tid": tid,
             "args": {"name": "perfbench driver"}},
        ]
        for s in sorted(self.spans, key=lambda s: (s.start_ns, -s.end_ns)):
            events.append({
                "name": s.name,
                "cat": s.name.split(".")[0],
                "ph": "X",
                "ts": (s.start_ns - origin) / 1e3,
                "dur": (s.end_ns - s.start_ns) / 1e3,
                "pid": pid,
                "tid": tid,
                "args": dict(s.args, span_id=s.span_id, parent_id=s.parent_id),
            })
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
