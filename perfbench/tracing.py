"""In-memory span recorder for the traced benchmark run.

A span covers one pass, one case of a pass, or one call the harness makes
into a polyrad module.  Spans carry the id of the span that caused them and
the id of the pass (trace) they belong to; they are kept in memory and
written out once, when the run ends.
The untraced run uses :data:`NULL_TRACER`, whose spans and counters do
nothing, so end-to-end timings carry no recording cost.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    id: int
    parent: Optional[int]
    trace: int
    name: str
    metric: Optional[str]
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and per-pass counters.  Not thread-safe: the harness
    and the serial polyrad path run in one thread."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[int, Dict[str, float]] = {}
        self._stack: List[Span] = []
        self._trace = -1

    def begin_trace(self) -> int:
        """Start a new pass; later spans and counters belong to it."""
        self._trace += 1
        self.counters[self._trace] = {}
        return self._trace

    @contextmanager
    def span(self, name: str, metric: Optional[str] = None, **attrs) -> Iterator[Span]:
        parent = self._stack[-1].id if self._stack else None
        span = Span(id=len(self.spans), parent=parent, trace=self._trace,
                    name=name, metric=metric, start=time.perf_counter(),
                    attrs=attrs)
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def add(self, key: str, value: float) -> None:
        """Accumulate a per-pass count."""
        bucket = self.counters[self._trace]
        bucket[key] = bucket.get(key, 0.0) + value

    def peak(self, key: str, value: float) -> None:
        """Keep the largest value seen in this pass."""
        bucket = self.counters[self._trace]
        bucket[key] = max(bucket.get(key, value), value)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span, own in zip(self.spans, self_times(self.spans)):
                handle.write(json.dumps({**asdict(span), "self": own}) + "\n")


class NullTracer:
    """Stand-in for the untraced run: every call is a no-op."""

    enabled = False

    def begin_trace(self) -> int:
        return -1

    def span(self, name: str, metric: Optional[str] = None, **attrs):
        return nullcontext()

    def add(self, key: str, value: float) -> None:
        pass

    def peak(self, key: str, value: float) -> None:
        pass


NULL_TRACER = NullTracer()


def _covered(intervals: List[tuple]) -> float:
    """Length of the union of [start, end] intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: Dict[int, List[tuple]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [span.duration - _covered(children.get(span.id, [])) for span in spans]


def pass_metrics(tracer: Tracer, trace: int) -> Dict[str, float]:
    """Per-layer values of one traced pass: the self time of every span that
    names a metric, summed per metric, plus the pass's counters."""
    out: Dict[str, float] = dict(tracer.counters.get(trace, {}))
    spans = [span for span in tracer.spans if span.trace == trace]
    for span, own in zip(spans, self_times(spans)):
        if span.metric is not None:
            out[span.metric] = out.get(span.metric, 0.0) + own
    return out
