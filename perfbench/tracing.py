"""The benchmark's own span recorder and self-time arithmetic.

Spans are recorded only here, around the benchmark's calls into the
layers' public functions; nothing inside ``repro`` is instrumented. Each
span has a name, start, end (seconds on the recorder's clock), a parent
span id and a trace id — one trace per closed-loop step, open-loop request
or replayed flush. Spans stay in memory and are written out as JSON lines
when the run ends.

A span's *self time* is its duration minus the part of its interval its
children cover (the union of the children, clipped to the parent, so
overlapping children are not double-counted).
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Iterable


@dataclass
class Span:
    """One recorded interval."""

    span_id: int
    name: str
    start: float
    end: float
    trace_id: int
    parent: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans in memory; ``clock`` returns seconds (injectable).

    Safe to record from several threads: ids come from ``itertools.count``
    and ``list.append`` is atomic in CPython.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._traces = itertools.count(1)

    def new_trace(self) -> int:
        """A fresh trace id (one per step, request or flush)."""
        return next(self._traces)

    def reserve(self) -> int:
        """A span id to name as parent before the span itself is added."""
        return next(self._ids)

    def add(
        self,
        name: str,
        start: float,
        end: float,
        trace_id: int,
        parent: int | None = None,
        span_id: int | None = None,
    ) -> int:
        """Record an interval measured by the caller; returns its span id."""
        span_id = next(self._ids) if span_id is None else span_id
        self.spans.append(Span(span_id, name, start, end, trace_id, parent))
        return span_id

    @contextmanager
    def span(self, name: str, trace_id: int, parent: int | None = None):
        """Time the body; yields the span id so children can name it parent."""
        span = Span(next(self._ids), name, self.clock(), 0.0, trace_id, parent)
        try:
            yield span.span_id
        finally:
            span.end = self.clock()
            self.spans.append(span)

    def write_jsonl(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: (s.trace_id, s.start)):
                fh.write(json.dumps(asdict(span)) + "\n")


class NullRecorder:
    """The untraced stand-in: same interface, records nothing."""

    def new_trace(self) -> int:
        return 0

    def reserve(self) -> int:
        return 0

    def add(self, name, start, end, trace_id, parent=None, span_id=None) -> int:
        return 0

    @contextmanager
    def span(self, name, trace_id, parent=None):
        yield 0


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Self time of every span, keyed by span id."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        s.span_id: s.duration - _covered(children.get(s.span_id, []), s.start, s.end)
        for s in spans
    }


@dataclass
class LayerRow:
    """One row of the self-time table."""

    name: str
    count: int
    total_s: float
    self_s: float


def layer_table(spans: Iterable[Span]) -> tuple[list[LayerRow], float, float]:
    """Per-name totals, the traced wall (sum of root durations) and coverage.

    Coverage is the share of the traced wall that layer spans account for:
    the children's self time over the roots' duration, i.e. one minus the
    roots' own uncovered time over their duration.
    """
    spans = list(spans)
    own = self_times(spans)
    rows: dict[str, LayerRow] = {}
    wall = root_self = 0.0
    for span in spans:
        row = rows.setdefault(span.name, LayerRow(span.name, 0, 0.0, 0.0))
        row.count += 1
        row.total_s += span.duration
        row.self_s += own[span.span_id]
        if span.parent is None:
            wall += span.duration
            root_self += own[span.span_id]
    coverage = 1.0 - root_self / wall if wall > 0 else 0.0
    return sorted(rows.values(), key=lambda r: -r.self_s), wall, coverage


def format_table(spans: Iterable[Span], title: str) -> str:
    """The self-time table, each share given with its base."""
    spans = list(spans)
    rows, wall, coverage = layer_table(spans)
    roots = sum(1 for s in spans if s.parent is None)
    lines = [
        f"{title}: traced wall {wall * 1e3:.1f} ms over {roots} root spans, "
        f"coverage {coverage:.3f} (layer self time / traced wall)",
        f"  {'span':38s} {'count':>7s} {'total ms':>10s} {'self ms':>10s} {'self/wall':>9s}",
    ]
    for row in rows:
        share = row.self_s / wall if wall > 0 else 0.0
        lines.append(
            f"  {row.name:38s} {row.count:7d} {row.total_s * 1e3:10.2f} "
            f"{row.self_s * 1e3:10.2f} {share:9.3f}"
        )
    return "\n".join(lines)
