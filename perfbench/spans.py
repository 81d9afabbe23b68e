"""In-memory spans and the small statistics the benchmark reports.

A span is ``(name, start, end, parent, op)``: *parent* is the index of
the enclosing span in the same :class:`Tracer` (``None`` at the top)
and *op* identifies the request, universe or pass it belongs to.
Spans are only recorded from the benchmark's own code, around its
calls into each layer of the program; nothing inside the program is
instrumented.  A disabled tracer records nothing, so untraced runs pay
one attribute test per call site.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Sequence

Span = Dict[str, object]


class Tracer:
    """Collects spans for one process; not thread-safe (one per thread)."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, op: object = None) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        record: Span = {
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": parent,
            "op": op,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def adopt(self, spans: Sequence[Span]) -> None:
        """Append spans recorded by another tracer (another thread or
        process), re-basing their parent indices onto this one."""
        offset = len(self.spans)
        for span in spans:
            parent = span.get("parent")
            self.spans.append(
                dict(span, parent=None if parent is None else int(parent) + offset)
            )


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span never overlap (every tracer is single
    threaded), so the covered time is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        parent = span.get("parent")
        if parent is not None:
            covered[int(parent)] += float(span["end"]) - float(span["start"])
    return [
        float(span["end"]) - float(span["start"]) - covered[index]
        for index, span in enumerate(spans)
    ]


def self_time_by_name(spans: Sequence[Span]) -> Dict[str, List[float]]:
    """Self times grouped by span name, in recording order."""
    grouped: Dict[str, List[float]] = {}
    for span, value in zip(spans, self_times(spans)):
        grouped.setdefault(str(span["name"]), []).append(value)
    return grouped


def write_spans(path: Path, spans: Iterable[Span]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span, default=str) + "\n")


# -- statistics ----------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: int) -> float:
    """The *q*-th percentile by ``statistics.quantiles`` (inclusive)."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(
        statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    )
