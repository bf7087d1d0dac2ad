"""The discrete-event simulation engine.

A :class:`Simulator` owns the virtual clock and a binary-heap event queue
of ``(time, priority, seq, event)`` tuples: ``seq`` is unique, so heap
sifts compare floats and ints in C and never reach the :class:`Event`.
Everything in the reproduction -- radio transmissions, MAC backoffs, probe
timers, ODMRP refresh floods, CBR sources -- is expressed as callbacks
scheduled on one simulator instance.

The engine is deliberately callback-based rather than coroutine-based:
profiling showed plain callbacks are 3-4x faster than generator-based
processes for the packet-level workloads in this project, and the protocol
state machines map naturally onto explicit callbacks.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.sim.events import Event, EventHandle, EventPriority
from repro.sim.rng import RngRegistry


class SimulationError(RuntimeError):
    """Raised for invalid scheduling requests (e.g. scheduling in the past)."""


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for the simulator's RNG registry.  Two simulators
        constructed with the same seed and driven by the same model code
        produce bit-identical event sequences.

    Examples
    --------
    >>> sim = Simulator(seed=1)
    >>> fired = []
    >>> _ = sim.schedule(2.5, fired.append, "hello")
    >>> sim.run(until=10.0)
    >>> (fired, sim.now)
    (['hello'], 10.0)
    """

    def __init__(self, seed: int = 0) -> None:
        self._queue: list[tuple[float, int, int, Event]] = []
        self._now = 0.0
        self._running = False
        self._stopped = False
        self.events_executed = 0
        self.rng = RngRegistry(seed)
        self.seed = seed

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def queue_depth(self) -> int:
        """Raw event-queue length, including lazily cancelled events.

        O(1) -- the telemetry sampler polls this every tick.  Use
        :meth:`pending_events` when the exact live count matters.
        """
        return len(self._queue)

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = EventPriority.DEFAULT,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        # Inlined schedule_at: this is the hottest scheduling entry point
        # (every frame, timer and protocol tick goes through it), and
        # delay >= 0 already implies time >= now.
        time = self._now + delay
        event = Event(time, callback, args, priority)
        heapq.heappush(self._queue, (time, priority, event.seq, event))
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = EventPriority.DEFAULT,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at an absolute virtual time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self._now}"
            )
        event = Event(time, callback, args, priority)
        heapq.heappush(self._queue, (time, priority, event.seq, event))
        return event

    def run(self, until: Optional[float] = None) -> None:
        """Run events in order until the queue drains or ``until`` is reached.

        When ``until`` is given, the clock is advanced to exactly ``until``
        on return even if the queue drained earlier, so post-run statistics
        can divide by a well-defined duration.  Events scheduled exactly at
        ``until`` are *not* executed (half-open interval).

        ``events_executed`` is updated once on return, not per event --
        this loop is the hottest frame in every sweep, and batching the
        counter (plus binding the heap pop locally) buys a measurable
        fraction of the engine microbenchmark.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        self._stopped = False
        queue = self._queue
        pop = heapq.heappop
        executed = 0
        try:
            if until is None:
                while queue:
                    time, _, _, event = pop(queue)
                    if event.cancelled:
                        continue
                    self._now = time
                    executed += 1
                    event.callback(*event.args)
                    if self._stopped:
                        break
            else:
                while queue:
                    if queue[0][0] >= until:
                        break
                    time, _, _, event = pop(queue)
                    if event.cancelled:
                        continue
                    self._now = time
                    executed += 1
                    event.callback(*event.args)
                    if self._stopped:
                        break
                if not self._stopped and self._now < until:
                    self._now = until
        finally:
            self._running = False
            self.events_executed += executed

    def step(self, until: Optional[float] = None) -> bool:
        """Execute the single next non-cancelled event.

        Returns True if an event ran, False if the queue is empty -- or,
        when ``until`` is given, if the next event lies at or beyond
        ``until``.  The bound is half-open exactly like :meth:`run`'s: an
        event scheduled at precisely ``until`` is left queued, so
        stepping after ``run(until=T)`` cannot execute a time-``T`` event
        that a subsequent ``run(until=T2)`` is entitled to see first.
        Useful in tests that walk a protocol one transition at a time.
        """
        queue = self._queue
        while queue:
            if until is not None and queue[0][0] >= until:
                return False
            time, _, _, event = heapq.heappop(queue)
            if event.cancelled:
                continue
            self._now = time
            self.events_executed += 1
            event.callback(*event.args)
            return True
        return False

    def stop(self) -> None:
        """Stop the run loop after the current event completes."""
        self._stopped = True

    def release(self) -> None:
        """Drop every pending event, with its callback and arguments, and
        every random stream drawn so far.

        For a finished run: a pending event and the handle a model object
        keeps to it tie the simulator and the model into reference
        cycles, and whatever cycle is left still reaches the simulator,
        whose registry holds a stream per MAC and router.  The clock and
        ``events_executed`` stay readable; the run cannot continue.
        """
        for entry in self._queue:
            event = entry[3]
            event.callback = None
            event.args = ()
        self._queue.clear()
        self.rng = RngRegistry(self.seed)

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or None if the queue is empty."""
        queue = self._queue
        while queue and queue[0][3].cancelled:
            heapq.heappop(queue)
        return queue[0][0] if queue else None

    def pending_events(self) -> int:
        """Number of non-cancelled events still queued (O(n); for tests)."""
        return sum(1 for entry in self._queue if not entry[3].cancelled)

    @property
    def quiescent(self) -> bool:
        """True when no live (non-cancelled) event remains queued.

        A quiescent simulator cannot advance further; the invariant
        monitors use this to decide when drain conditions (empty channel
        ledgers, no pending receptions) must hold exactly.
        """
        return self.peek_time() is None
