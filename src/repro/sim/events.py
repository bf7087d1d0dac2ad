"""Event objects for the discrete-event engine.

Events are ordered by ``(time, priority, sequence)``.  The sequence number
breaks ties between events scheduled for the same instant with the same
priority, so execution order is always the order of scheduling -- a property
several protocol state machines (and the reproducibility guarantees of the
whole simulator) rely on.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable


class EventPriority:
    """Symbolic priorities for same-time events.

    Lower values run first.  The engine uses these to guarantee, for
    example, that a transmission's end-of-reception is processed before a
    new transmission scheduled for the same instant begins.
    """

    PHY = 0
    MAC = 10
    ROUTING = 20
    APPLICATION = 30
    DEFAULT = 50
    STATS = 90


class Event:
    """A single scheduled callback.

    Events should not be created directly; use
    :meth:`repro.sim.engine.Simulator.schedule`.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "cancelled")

    _sequence = itertools.count()

    def __init__(
        self,
        time: float,
        callback: Callable[..., Any],
        args: tuple = (),
        priority: int = EventPriority.DEFAULT,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = next(Event._sequence)
        self.callback = callback
        self.args = args
        self.cancelled = False

    def sort_key(self) -> tuple[float, int, int]:
        return (self.time, self.priority, self.seq)

    def __lt__(self, other: "Event") -> bool:
        # The engine's heap orders (time, priority, seq, event) tuples
        # instead, so sifts never call this.
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.6f} prio={self.priority} {name}{state}>"


class EventHandle:
    """Cancellation handle returned by ``Simulator.schedule``.

    Cancellation is lazy: the event stays in the heap but is skipped when
    popped.  This makes cancel O(1), which matters because MAC backoff and
    routing timers cancel events constantly.
    """

    __slots__ = ("_event",)

    def __init__(self, event: Event) -> None:
        self._event = event

    @property
    def time(self) -> float:
        """Scheduled execution time of the underlying event."""
        return self._event.time

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    def cancel(self) -> bool:
        """Cancel the event; returns False if it was already cancelled."""
        if self._event.cancelled:
            return False
        self._event.cancelled = True
        return True
