"""Counters and structured trace recording.

The experiment harness consumes :class:`CounterSet` totals (bytes sent per
packet class, packets delivered, collisions, ...) to compute the paper's
throughput, delay, and overhead columns.  :class:`TraceRecorder` keeps an
optional bounded in-memory log of tagged events for debugging and for the
Figure 5 tree-edge extraction.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterable, List, NamedTuple, Optional


class CounterSet:
    """A dictionary of named numeric counters with a few conveniences.

    ``counts`` is the underlying ``defaultdict(float)``: per-frame hot
    paths write ``counts[name] += 1.0`` directly, which is exactly
    :meth:`add` without the method call.
    """

    def __init__(self) -> None:
        self.counts: Dict[str, float] = defaultdict(float)

    def add(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    def get(self, name: str) -> float:
        return self.counts.get(name, 0.0)

    def __getitem__(self, name: str) -> float:
        return self.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self.counts

    def names(self) -> List[str]:
        return sorted(self.counts)

    def as_dict(self) -> Dict[str, float]:
        return dict(self.counts)

    def total(self, prefix: str) -> float:
        """Sum of all counters whose name starts with ``prefix``."""
        return sum(
            value for name, value in self.counts.items()
            if name.startswith(prefix)
        )

    def merge(self, other: "CounterSet") -> None:
        """Add all of ``other``'s counters into this set."""
        for name, value in other.counts.items():
            self.counts[name] += value


class TraceEntry(NamedTuple):
    time: float
    tag: str
    data: Dict[str, Any]


class TraceRecorder:
    """Bounded in-memory event log.

    Disabled recorders (``enabled=False``) cost one attribute check per
    record call, so models can trace unconditionally.
    """

    def __init__(self, enabled: bool = False, max_entries: int = 1_000_000) -> None:
        self.enabled = enabled
        self.max_entries = max_entries
        self.entries: List[TraceEntry] = []
        self.dropped = 0

    def record(self, time: float, tag: str, **data: Any) -> None:
        if not self.enabled:
            return
        if len(self.entries) >= self.max_entries:
            self.dropped += 1
            return
        self.entries.append(TraceEntry(time, tag, data))

    def with_tag(self, tag: str) -> List[TraceEntry]:
        return [entry for entry in self.entries if entry.tag == tag]

    def tags(self) -> List[str]:
        return sorted({entry.tag for entry in self.entries})

    def clear(self) -> None:
        self.entries.clear()
        self.dropped = 0

    def iter_between(self, start: float, end: float) -> Iterable[TraceEntry]:
        """Entries with ``start <= time < end`` (times are appended in order)."""
        return (e for e in self.entries if start <= e.time < end)


class WelfordAccumulator:
    """Streaming mean/variance (Welford's algorithm).

    Used for per-packet delay statistics without storing every sample.
    """

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    @property
    def variance(self) -> float:
        """Sample variance (n-1 denominator); 0 for fewer than 2 samples."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def stddev(self) -> float:
        return self.variance ** 0.5
