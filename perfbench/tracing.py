"""Span recorder for the traced benchmark run.

Spans are recorded by the benchmark around each call into a cftweave layer,
never inside the package.  Each span keeps its name, start, end, parent
span and op id in memory; the report is computed when the run ends.  A
span's self time is its duration minus the time its direct children cover
(children run one after another inside their parent, so that is the sum of
their durations).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    op: int
    failed: bool


class Tracer:
    """Records spans and counts while ``on``; otherwise only calls through."""

    def __init__(self, on: bool):
        self.on = on
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []

    def call(self, name: str, fn, *args):
        if not self.on:
            return fn(*args)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, 0.0, 0.0, parent, self.op, False)
        self.spans.append(span)
        self._stack.append(index)
        span.start = perf_counter()
        try:
            return fn(*args)
        except BaseException:
            span.failed = True
            raise
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def count(self, name: str, value) -> None:
        if self.on:
            self.counts[name] += value

    def peak(self, name: str, value) -> None:
        if self.on:
            self.counts[name] = max(self.counts[name], value)

    def take(self) -> tuple[list[Span], Counter]:
        """Hand over everything recorded so far and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    totals: dict[str, float] = defaultdict(float)
    for span, child_time in zip(spans, covered):
        totals[span.name] += span.end - span.start - child_time
    return dict(totals)


def failures(spans: list[Span]) -> Counter:
    """Failed calls per layer (the span name up to its first dot).

    An exception leaves through every enclosing span, so only the innermost
    failed span counts.
    """
    has_failed_child = {s.parent for s in spans if s.failed and s.parent >= 0}
    return Counter(s.name.split(".", 1)[0] for i, s in enumerate(spans)
                   if s.failed and i not in has_failed_child)
