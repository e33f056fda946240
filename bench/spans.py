"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, unit): ``parent`` is the index of the
enclosing span (-1 at top level) and ``unit`` numbers the unit of work that
caused it, so every span of one unit shares an identifier. Spans are timed
with ``perf_counter`` around calls the benchmark makes into the package and
stay in memory until the run ends.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, list[float]] = defaultdict(list)
        self.unit = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Time the body as one span; yields the span's index."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.unit])
        self._stack.append(index)
        try:
            yield index
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[name].append(float(value))

    def duration_ms(self, index: int) -> float:
        _, start, end, _, _ = self.spans[index]
        return (end - start) * 1e3

    def total_ms(self, names, since: int) -> float:
        """Summed duration of spans named in ``names`` recorded from ``since`` on."""
        return sum(
            (end - start) * 1e3
            for name, start, end, _, _ in self.spans[since:]
            if name in names
        )

    def durations_ms(self, name: str) -> list[float]:
        return [(end - start) * 1e3 for n, start, end, _, _ in self.spans if n == name]

    def median_ms(self, name: str) -> float:
        """Median span duration; 0.0 when the run never entered the layer."""
        values = self.durations_ms(name)
        return statistics.median(values) if values else 0.0

    def self_ms(self) -> dict[str, float]:
        """Total self time per span name: duration minus time in child spans."""
        own = [(end - start) * 1e3 for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= (end - start) * 1e3
        totals: dict[str, float] = defaultdict(float)
        for (name, *_), ms in zip(self.spans, own):
            totals[name] += ms
        return {name: round(ms, 3) for name, ms in sorted(totals.items())}
