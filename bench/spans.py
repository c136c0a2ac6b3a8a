"""In-memory span recorder for the traced benchmark run, plus summary statistics.

A span is one call into a layer, recorded from outside the package: its
name, start and end (``time.perf_counter`` seconds) and the index of the
span that contains it. Spans stay in memory while the run measures and are
written out once, when it ends.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from typing import Iterator, Sequence

# candidate tail levels, highest first; the reported one leaves >= 10 samples above it
_TAIL_LEVELS = (0.99, 0.98, 0.975, 0.95, 0.9, 0.75, 0.5)
_MIN_BEYOND_TAIL = 10


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; ``with tracer.span(name):`` around each layer call."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._kids: dict[int | None, list[int]] = {}
        self._kids_for = -1

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent))
        self._open.append(index)
        try:
            yield index
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def children(self, index: int) -> list[int]:
        if self._kids_for != len(self.spans):
            self._kids = {}
            for i, s in enumerate(self.spans):
                self._kids.setdefault(s.parent, []).append(i)
            self._kids_for = len(self.spans)
        return self._kids.get(index, [])

    def roots(self, name: str) -> list[int]:
        """Indices of the top-level spans called ``name``."""
        return [i for i, s in enumerate(self.spans) if s.parent is None and s.name == name]

    def self_seconds(self, index: int) -> float:
        """Span duration minus the time its (sequential) child spans cover."""
        return self.spans[index].seconds - sum(self.spans[c].seconds for c in self.children(index))

    def leaves_under(self, index: int) -> list[int]:
        """Spans below ``index`` that have no children: the individual layer calls."""
        out = []
        for child in self.children(index):
            grandchildren = self.children(child)
            out.extend(self.leaves_under(child) if grandchildren else [child])
        return out

    def find_under(self, index: int, name: str) -> list[int]:
        """Indices of the spans called ``name`` anywhere below ``index``."""
        found = []
        for child in self.children(index):
            if self.spans[child].name == name:
                found.append(child)
            found.extend(self.find_under(child, name))
        return found

    def seconds_under(self, index: int, name: str) -> float:
        """Total duration of the spans called ``name`` below ``index``."""
        return sum(self.spans[i].seconds for i in self.find_under(index, name))

    def leaf_seconds(self, index: int) -> float:
        """Total duration of the layer calls below ``index``."""
        return sum(self.spans[i].seconds for i in self.leaves_under(index))

    def to_list(self) -> list[dict]:
        return [
            dict(asdict(s), index=i, self_seconds=self.self_seconds(i))
            for i, s in enumerate(self.spans)
        ]


class NullTracer:
    """Stands in for :class:`Tracer` to run the same replay with no recording."""

    _NOTHING = nullcontext()

    def span(self, name: str) -> nullcontext:
        return self._NOTHING


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def trimmed_mean(values: Sequence[float], share: float = 0.1) -> float:
    """Mean of the samples left after dropping ``share`` of them at each end.

    A shared host switches between speeds every few seconds, so the timings
    of one run fall into two modes. Their median jumps from one mode to the
    other with the share of the run spent in each; the mean follows that
    share smoothly, and trimming keeps a single stall from moving it.
    """
    if not values:
        raise ValueError("mean of no samples")
    ordered = sorted(values)
    cut = int(len(ordered) * share)
    return float(statistics.fmean(ordered[cut:len(ordered) - cut]))


def tail(values: Sequence[float]) -> tuple[float, float]:
    """(level, value) of the highest listed percentile with >= 10 samples beyond it.

    With fewer than 20 samples no level qualifies and the maximum is returned
    with level 1.0.
    """
    n = len(values)
    if n == 0:
        raise ValueError("tail of no samples")
    for level in _TAIL_LEVELS:
        if n * (1.0 - level) >= _MIN_BEYOND_TAIL:
            ordered = sorted(values)
            pos = level * (n - 1)
            lo = math.floor(pos)
            hi = min(lo + 1, n - 1)
            return level, ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
    return 1.0, float(max(values))
