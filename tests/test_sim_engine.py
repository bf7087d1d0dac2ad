"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import SimulationError, Simulator
from repro.sim.events import Event, EventHandle, EventPriority


class TestScheduling:
    def test_events_run_in_time_order(self, sim):
        order = []
        sim.schedule(3.0, order.append, "c")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(2.0, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_run_in_scheduling_order(self, sim):
        order = []
        for tag in range(10):
            sim.schedule(1.0, order.append, tag)
        sim.run()
        assert order == list(range(10))

    def test_priority_breaks_same_time_ties(self, sim):
        order = []
        sim.schedule(1.0, order.append, "late", priority=EventPriority.STATS)
        sim.schedule(1.0, order.append, "early", priority=EventPriority.PHY)
        sim.run()
        assert order == ["early", "late"]

    def test_clock_advances_to_event_time(self, sim):
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_in_past_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_nested_scheduling_from_callback(self, sim):
        order = []

        def outer():
            order.append("outer")
            sim.schedule(1.0, order.append, "inner")

        sim.schedule(1.0, outer)
        sim.run()
        assert order == ["outer", "inner"]
        assert sim.now == 2.0


class TestRunUntil:
    def test_until_is_exclusive(self, sim):
        fired = []
        sim.schedule(5.0, fired.append, "x")
        sim.run(until=5.0)
        assert fired == []
        assert sim.now == 5.0

    def test_clock_set_to_until_even_if_queue_drains(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run(until=100.0)
        assert sim.now == 100.0

    def test_remaining_events_survive_for_next_run(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(10.0, fired.append, 2)
        sim.run(until=5.0)
        assert fired == [1]
        sim.run(until=20.0)
        assert fired == [1, 2]

    def test_stop_halts_the_loop(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(2.0, sim.stop)
        sim.schedule(3.0, fired.append, 3)
        sim.run()
        assert fired == [1]
        assert sim.now == 2.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        assert handle.cancel()
        sim.run()
        assert fired == []

    def test_double_cancel_returns_false(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        assert handle.cancel() is True
        assert handle.cancel() is False

    def test_schedule_returns_the_event_as_its_handle(self, sim):
        """``EventHandle`` is ``Event``: the handle is the queued event,
        and ``EventHandle.cancel`` is the method a handle's cancel runs
        (the benchmark ledger patches it there to count cancels)."""
        assert EventHandle is Event
        handle = sim.schedule(1.0, lambda: None)
        at = sim.schedule_at(2.0, lambda: None)
        assert type(handle) is Event and type(at) is Event
        assert [entry[3] for entry in sorted(sim._queue)] == [handle, at]
        assert (handle.time, at.time) == (1.0, 2.0)
        calls = []
        original = EventHandle.cancel

        def counted(event):
            calls.append(event)
            return original(event)

        EventHandle.cancel = counted
        try:
            assert handle.cancel() is True
            assert handle.cancel() is False
        finally:
            EventHandle.cancel = original
        assert calls == [handle, handle]
        assert handle.cancelled and not at.cancelled
        assert sim.pending_events() == 1

    def test_pending_events_skips_cancelled(self, sim):
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        drop.cancel()
        assert sim.pending_events() == 1
        assert not keep.cancelled

    def test_peek_time_skips_cancelled(self, sim):
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        first.cancel()
        assert sim.peek_time() == 2.0


class TestStep:
    def test_step_runs_exactly_one_event(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(2.0, fired.append, 2)
        assert sim.step() is True
        assert fired == [1]

    def test_step_on_empty_queue_returns_false(self, sim):
        assert sim.step() is False

    def test_step_until_is_half_open_like_run(self, sim):
        """step(until=T) must not execute an event scheduled exactly at T."""
        fired = []
        sim.schedule(5.0, fired.append, "at-bound")
        assert sim.step(until=5.0) is False
        assert fired == []
        assert sim.pending_events() == 1  # still queued, not consumed

    def test_step_after_run_until_respects_bound(self, sim):
        """Regression: after run(until=T), a bounded step must not pull a
        time-T event forward out of order -- a later run(until=T2) is
        entitled to execute it interleaved with anything scheduled in
        [T, T2) at higher priority."""
        order = []
        sim.schedule(5.0, order.append, "exactly-at-T")
        sim.run(until=5.0)
        assert sim.now == 5.0
        assert order == []
        assert sim.step(until=5.0) is False
        assert order == []
        # The event is executed in order once the window opens.
        sim.schedule_at(
            5.0, order.append, "same-time-higher-prio",
            priority=EventPriority.PHY,
        )
        sim.run(until=6.0)
        assert order == ["same-time-higher-prio", "exactly-at-T"]

    def test_step_until_executes_events_before_bound(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        assert sim.step(until=1.5) is True
        assert fired == ["a"]
        assert sim.step(until=1.5) is False
        assert fired == ["a"]

    def test_step_until_skips_cancelled_up_to_bound(self, sim):
        fired = []
        dropped = sim.schedule(1.0, fired.append, "cancelled")
        sim.schedule(3.0, fired.append, "beyond")
        dropped.cancel()
        assert sim.step(until=2.0) is False
        assert fired == []
        assert sim.step() is True
        assert fired == ["beyond"]


class TestDeterminism:
    def test_same_seed_same_rng_draws(self):
        def draws(seed):
            simulator = Simulator(seed=seed)
            rng = simulator.rng.stream("test")
            return [rng.random() for _ in range(20)]

        assert draws(42) == draws(42)
        assert draws(42) != draws(43)

    def test_event_counter_counts_executed_only(self, sim):
        sim.schedule(1.0, lambda: None)
        cancelled = sim.schedule(2.0, lambda: None)
        cancelled.cancel()
        sim.run()
        assert sim.events_executed == 1


class TestEventOrdering:
    @given(
        times=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=50,
        )
    )
    def test_execution_order_is_sorted_by_time(self, times):
        simulator = Simulator()
        executed = []
        for t in times:
            simulator.schedule(t, executed.append, t)
        simulator.run()
        assert executed == sorted(executed)

    def test_event_lt_uses_time_then_priority_then_seq(self):
        early = Event(1.0, lambda: None, priority=5)
        late = Event(2.0, lambda: None, priority=0)
        assert early < late
        high = Event(1.0, lambda: None, priority=0)
        assert high < early
