"""In-memory spans recorded by the benchmark around its own calls into tariffopt.

A span has a name (``<layer>.<function>`` for calls into the package, or a
benchmark-level name such as ``pass``), start and end times, its parent span
and the subscriber it belongs to. Spans stay in memory until the run ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

LAYERS = ("catalog", "traffic", "cost", "sensitivity", "simulate", "cli")


@dataclass
class Span:
    sid: int  # span id
    name: str
    parent: int | None
    subscriber: int | None
    start: float
    end: float = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Times every call into the package; when enabled, also records spans."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        #: (name, subscriber, seconds) of every `call`, in call order
        self.calls: list[tuple[str, int | None, float]] = []
        self._stack: list[Span] = []

    def open(self, name: str, subscriber: int | None = None) -> Span | None:
        if not self.enabled:
            return None
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), name, parent, subscriber, perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span | None) -> None:
        if span is not None:
            span.end = perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, subscriber: int | None = None, **kwargs):
        span = self.open(name, subscriber)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.calls.append((name, subscriber, perf_counter() - t0))
            self.close(span)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    own = {s.sid: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def spans_json(spans: list[Span]) -> list[dict]:
    return [
        {"id": s.sid, "name": s.name, "parent": s.parent, "subscriber": s.subscriber,
         "start": s.start, "end": s.end}
        for s in spans
    ]
