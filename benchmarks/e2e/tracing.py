"""Span tracing for the end-to-end benchmark.

A :class:`Tracer` wraps callables so that every call opens a span.  Spans
nest through one stack: when a span closes, its duration is added to its
parent's child time, so a span's *self time* is its duration minus the
part of it that child spans covered.  Self time, inclusive time and call
count are kept per span name for every span; raw spans (id, parent, name,
layer, start, end, run id) are kept only while :attr:`Tracer.recording`
is on, which bounds memory on runs that open tens of millions of spans.

Wrappers are installed with :meth:`Tracer.patch` and every patched
attribute is put back, ``is``-identical, by :meth:`Tracer.unpatch_all`.
Nothing here knows about the simulator; ``ledger.py`` decides what to wrap.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

_MISSING = object()


class Tracer:
    """Nested spans with per-name self-time aggregates."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: Open frames, innermost last: ``[start, child_s, record]``.
        self.stack: List[list] = []
        #: span name -> ``[self_s, calls, layer, total_s]``.
        self.stats: Dict[str, list] = {}
        self.recording = False
        self.run_id: Any = None
        #: Raw spans taken while recording:
        #: ``[span_id, parent_id, name, layer, start, end, run_id]``.
        self.spans: List[list] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    def stat(self, name: str, layer: str) -> list:
        """The aggregate entry for ``name``, created on first use."""
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0.0, 0, layer, 0.0]
        return entry

    def _new_record(self) -> list:
        parent = self.stack[-1][2] if self.stack else None
        record = [
            len(self.spans) + 1,
            parent[0] if parent is not None else None,
            None, None, 0.0, 0.0, self.run_id,
        ]
        self.spans.append(record)
        return record

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        layer: str,
        after: Optional[Callable[[Any], None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` timed as span ``name``; ``after(result)`` sees each result."""
        entry = self.stat(name, layer)
        stack = self.stack
        clock = self.clock
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            record = tracer._new_record() if tracer.recording else None
            frame = [0.0, 0.0, record]
            stack.append(frame)
            start = frame[0] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                entry[0] += duration - frame[1]
                entry[1] += 1
                entry[3] += duration
                if stack:
                    stack[-1][1] += duration
                if record is not None:
                    record[2:6] = (name, layer, start, end)
            if after is not None:
                after(result)
            return result

        return traced

    # ------------------------------------------------------------------
    # Patching

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` to ``replacement``.

        ``owner`` is a class, an instance or a module.  The attribute's
        own entry (or its absence, for an inherited or class-level
        attribute seen through an instance) is remembered, so
        :meth:`unpatch_all` restores exactly what was there.
        """
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def patch_traced(
        self,
        owner: Any,
        attr: str,
        name: str,
        layer: str,
        after: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a traced wrapper around itself."""
        self.patch(owner, attr, self.wrap(getattr(owner, attr), name, layer, after))

    def unpatch_all(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    # ------------------------------------------------------------------
    # Results

    def self_seconds(self) -> float:
        """Self time summed over every span name."""
        return sum(entry[0] for entry in self.stats.values())

    def by_layer(self) -> Dict[str, Tuple[float, int]]:
        """layer -> (self seconds, calls)."""
        layers: Dict[str, Tuple[float, int]] = {}
        for self_s, calls, layer, _total_s in self.stats.values():
            layer_s, layer_calls = layers.get(layer, (0.0, 0))
            layers[layer] = (layer_s + self_s, layer_calls + calls)
        return layers

    def total_seconds(self, name: str) -> float:
        """Inclusive time of every span named ``name``."""
        entry = self.stats.get(name)
        return entry[3] if entry is not None else 0.0

    def calls(self, name: str) -> int:
        entry = self.stats.get(name)
        return entry[1] if entry is not None else 0

    def span_count(self) -> int:
        return sum(entry[1] for entry in self.stats.values())

    def write_spans(self, path: str, origin: float) -> int:
        """Write the closed recorded spans as JSONL, times from ``origin``."""
        count = 0
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, layer, start, end, run_id in self.spans:
                if name is None:
                    continue  # still open when the run ended
                record = {
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "layer": layer,
                    "start": start - origin,
                    "end": end - origin,
                    "run": run_id,
                }
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")
                count += 1
        return count
