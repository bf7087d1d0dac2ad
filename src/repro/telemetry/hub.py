"""The per-run telemetry registry and sampling engine.

A :class:`TelemetryHub` owns every instrument of one run plus a bounded
structured event log (a :class:`~repro.sim.trace.TraceRecorder`).  Probes
-- zero-argument callables returning either a float or a ``{suffix:
float}`` mapping -- are registered once at scenario build time and
sampled into :class:`~repro.telemetry.instruments.TimeSeries` at a fixed
virtual-time interval.

The sampling *driver* lives with whoever owns the run loop: the scenario
runner advances the simulator in ``sample_interval_s`` chunks
(:func:`repro.experiments.scenarios.drive_with_observers`) and calls
:meth:`TelemetryHub.sample` between chunks.  Driving from outside the
event queue (rather than scheduling sampler events inside it) means the
engine's batched ``events_executed`` counter is always flushed and exact
when a probe reads it, and the event heap never contains telemetry
events.

Zero cost when disabled: a run without telemetry never constructs a hub
and runs the simulator in one uninterrupted ``run(until=...)`` call, so
the simulator, MAC, channel, and protocol hot paths execute exactly the
seed instruction stream.  Sampling itself is read-only -- probes only
*look at* model state and draw from no RNG stream -- so even an enabled
run produces bit-identical ``CounterSet`` totals to a disabled one
(asserted in ``tests/test_telemetry.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Union

from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecorder
from repro.telemetry.instruments import (
    DEFAULT_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    Instrument,
    TimeSeries,
)

ProbeValue = Union[float, Mapping[str, float], None]
Probe = Callable[[], ProbeValue]


@dataclass
class TelemetryConfig:
    """Per-run observability knobs (picklable; part of the run config).

    ``enabled=False`` (the default) keeps the hot path untouched: no hub
    is built and no sampler events are scheduled.  ``per_link`` expands
    the probing probes from aggregate df/cost statistics to one series
    per heard link -- detailed but voluminous on 50-node meshes, so it is
    opt-in.  ``export_dir`` overrides where the runner writes the JSONL
    artifact (default: ``telemetry/`` under the result cache directory).
    """

    enabled: bool = False
    sample_interval_s: float = 1.0
    per_link: bool = False
    max_trace_entries: int = 100_000
    export_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.sample_interval_s <= 0:
            raise ValueError("sample interval must be positive")


class TelemetryHub:
    """Instrument registry + probe sampler for one run."""

    def __init__(self, config: Optional[TelemetryConfig] = None) -> None:
        self.config = config or TelemetryConfig(enabled=True)
        self._instruments: Dict[str, Instrument] = {}
        self._probes: List[tuple] = []  # (name, probe, unit)
        self.samples_taken = 0
        self.recorder = TraceRecorder(
            enabled=True, max_entries=self.config.max_trace_entries
        )

    # ------------------------------------------------------------------
    # Instrument registry

    def _register(self, name: str, factory: Callable[[], Instrument],
                  expected: type) -> Any:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory()
            self._instruments[name] = instrument
        elif not isinstance(instrument, expected):
            raise TypeError(
                f"instrument {name!r} already registered as "
                f"{type(instrument).__name__}, not {expected.__name__}"
            )
        return instrument

    def counter(self, name: str, description: str = "",
                unit: str = "") -> Counter:
        return self._register(
            name, lambda: Counter(name, description, unit), Counter
        )

    def gauge(self, name: str, description: str = "", unit: str = "") -> Gauge:
        return self._register(
            name, lambda: Gauge(name, description, unit), Gauge
        )

    def histogram(
        self,
        name: str,
        bounds: Sequence[float] = DEFAULT_BOUNDS,
        description: str = "",
        unit: str = "",
    ) -> Histogram:
        return self._register(
            name, lambda: Histogram(name, bounds, description, unit), Histogram
        )

    def time_series(
        self,
        name: str,
        interval_s: Optional[float] = None,
        description: str = "",
        unit: str = "",
    ) -> TimeSeries:
        interval = interval_s or self.config.sample_interval_s
        return self._register(
            name, lambda: TimeSeries(name, interval, description, unit),
            TimeSeries,
        )

    def instruments(self) -> List[Instrument]:
        """Instruments in name order (the export order)."""
        return [self._instruments[name] for name in sorted(self._instruments)]

    def get(self, name: str) -> Optional[Instrument]:
        return self._instruments.get(name)

    # ------------------------------------------------------------------
    # Structured events

    def record_event(self, time: float, tag: str, **data: Any) -> None:
        """Log one structured event (bounded; drops are counted)."""
        self.recorder.record(time, tag, **data)

    # ------------------------------------------------------------------
    # Probes and sampling

    def add_probe(self, name: str, probe: Probe, unit: str = "") -> None:
        """Register a probe sampled into ``name`` every tick.

        A probe returning a float feeds the series ``name``; one
        returning a mapping feeds ``name.<key>`` per entry (used for
        per-link and per-group breakdowns whose key set is only known at
        run time); returning ``None`` skips the tick.
        """
        self._probes.append((name, probe, unit))

    def sample(self, now: float) -> None:
        """Evaluate every probe once at virtual time ``now``."""
        self.samples_taken += 1
        for name, probe, unit in self._probes:
            value = probe()
            if value is None:
                continue
            if isinstance(value, Mapping):
                for key, sub_value in value.items():
                    self.time_series(f"{name}.{key}", unit=unit).append(
                        now, sub_value
                    )
            else:
                self.time_series(name, unit=unit).append(now, value)

    def finalize(self, sim: Simulator) -> None:
        """Take a closing sample and publish recorder health gauges."""
        self.sample(sim.now)
        self.gauge(
            "trace.entries", "structured events recorded"
        ).set(len(self.recorder.entries))
        self.gauge(
            "trace.dropped", "structured events dropped at the bound"
        ).set(self.recorder.dropped)
