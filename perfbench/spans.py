"""Span recording for the traced benchmark passes.

A span covers one call the benchmark makes into a public fracheat
function: its name, layer, start, end and the span that was open when
it began.  Spans stay in memory until the run ends.  Datum evaluations
inside the program are caught by a counting wrapper placed on
``FunctionSpec.value``; they become leaf spans of layer ``families``
whose parent is the benchmark call that caused them, so solver and
fraclap self times exclude the time spent evaluating data.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections import defaultdict
from typing import Any, Callable, Optional


@dataclasses.dataclass
class Span:
    id: int
    parent: Optional[int]
    layer: str
    name: str
    start: float
    end: float = 0.0
    pass_index: Optional[int] = None
    points: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Plain:
    """Untraced calls: no span, no wrapper, nothing between caller and callee."""

    def call(self, layer: str, name: str, fn: Callable, *args: Any, **kw: Any) -> Any:
        return fn(*args, **kw)

    def datum(self, spec):
        return spec


class Tracer:
    """Records spans for benchmark-side calls and counts datum points."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.pass_index: Optional[int] = None

    def call(self, layer: str, name: str, fn: Callable, *args: Any, **kw: Any) -> Any:
        span = self._open(layer, name)
        self._stack.append(span.id)
        try:
            return fn(*args, **kw)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _open(self, layer: str, name: str) -> Span:
        # datum spans may open on solver worker threads; they are leaves and
        # never pushed, so the parent is always the innermost benchmark call
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, layer, name, time.perf_counter(), pass_index=self.pass_index)
        self.spans.append(span)
        return span

    def datum(self, spec):
        """The same datum with a value function that records a span per call."""
        inner, dim = spec.value, spec.dim

        def value(points):
            span = self._open("families", "families.value")
            try:
                return inner(points)
            finally:
                span.end = time.perf_counter()
                span.points = int(getattr(points, "size", 0)) // dim

        return dataclasses.replace(spec, value=value)

    def write(self, path, origin: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                row = dataclasses.asdict(sp)
                row["start"] -= origin
                row["end"] -= origin
                fh.write(json.dumps(row) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append(sp)
    out = {}
    for sp in spans:
        covered = 0.0
        cursor = sp.start
        for ch in sorted(children.get(sp.id, ()), key=lambda c: c.start):
            lo, hi = max(ch.start, cursor), min(ch.end, sp.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sp.id] = sp.duration - covered
    return out
