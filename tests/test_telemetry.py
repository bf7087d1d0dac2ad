"""Tests for the telemetry subsystem: instruments, hub, export, wiring.

The two load-bearing properties pinned here:

* **Zero interference** -- a run with telemetry enabled produces results
  bit-identical to the same run with telemetry disabled (sampling is
  read-only and draws no RNG).
* **Lossless artifacts** -- ``read_trace(write_trace(...))`` reproduces
  the manifest, event log, and every instrument exactly.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.experiments.parallel import RunSpec
from repro.experiments.runner import run_protocol
from repro.experiments.scenarios import (
    SimulationScenarioConfig,
    drive_with_observers,
)
from repro.sim.engine import Simulator
from repro.telemetry import (
    TRACE_FORMAT_VERSION,
    Counter,
    Gauge,
    Histogram,
    RunManifest,
    TelemetryConfig,
    TelemetryHub,
    TimeSeries,
    TraceFormatError,
    build_manifest,
    canonicalize,
    config_digest,
    diff_traces,
    read_trace,
    summarize_trace,
    trace_filename,
    write_trace,
)

TINY = SimulationScenarioConfig(
    num_nodes=10,
    area_width_m=500.0,
    area_height_m=500.0,
    num_groups=1,
    members_per_group=3,
    duration_s=15.0,
    warmup_s=5.0,
)


def tiny_config(**overrides) -> SimulationScenarioConfig:
    return dataclasses.replace(TINY, **overrides)


# ----------------------------------------------------------------------
# Instruments


class TestInstruments:
    def test_counter_accumulates_and_rejects_decrease(self):
        counter = Counter("frames", unit="frames")
        counter.inc()
        counter.inc(4.5)
        assert counter.value == 5.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_is_none_until_set(self):
        gauge = Gauge("depth")
        assert gauge.value is None
        gauge.set(3)
        assert gauge.value == 3.0

    def test_series_rejects_time_going_backwards(self):
        series = TimeSeries("fg", interval_s=1.0)
        series.append(1.0, 5.0)
        series.append(1.0, 6.0)  # equal times are fine (closing sample)
        with pytest.raises(ValueError):
            series.append(0.5, 7.0)

    def test_series_statistics(self):
        series = TimeSeries("fg", interval_s=1.0)
        for t, v in ((1.0, 2.0), (2.0, 4.0), (3.0, 9.0)):
            series.append(t, v)
        assert series.last == 9.0
        assert series.mean() == pytest.approx(5.0)
        assert series.minimum() == 2.0
        assert series.maximum() == 9.0
        assert len(series) == 3

    def test_histogram_buckets_are_inclusive_upper_edges(self):
        histogram = Histogram("df", bounds=(0.5, 1.0))
        for value in (0.5, 0.9, 1.0, 7.0):
            histogram.observe(value)
        assert histogram.counts == [1, 2, 1]  # <=0.5, <=1.0, overflow
        assert histogram.count == 4
        assert histogram.min == 0.5 and histogram.max == 7.0

    def test_histogram_rejects_bad_bounds(self):
        Histogram("ok", bounds=(1.0, 2.0, 3.0))  # increasing: accepted
        with pytest.raises(ValueError):
            Histogram("bad", bounds=())
        with pytest.raises(ValueError):
            Histogram("bad", bounds=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("bad", bounds=(2.0, 1.0))

    @pytest.mark.parametrize("make", [
        lambda: Counter("c", "d", "u"),
        lambda: Gauge("g"),
        lambda: TimeSeries("s", interval_s=0.5, unit="pkts"),
        lambda: Histogram("h", bounds=(1.0, 2.0)),
    ])
    def test_record_round_trip(self, make):
        instrument = make()
        if isinstance(instrument, Counter):
            instrument.inc(7)
        elif isinstance(instrument, Gauge):
            instrument.set(1.25)
        elif isinstance(instrument, TimeSeries):
            instrument.append(0.5, 1.0)
            instrument.append(1.0, 2.0)
        else:
            instrument.observe(1.5)
        record = json.loads(json.dumps(instrument.to_record()))
        restored = type(instrument).from_record(record)
        assert restored == instrument
        assert restored.to_record() == instrument.to_record()


# ----------------------------------------------------------------------
# Hub


class TestHub:
    def test_get_or_create_and_kind_conflict(self):
        hub = TelemetryHub()
        counter = hub.counter("x")
        assert hub.counter("x") is counter
        with pytest.raises(TypeError):
            hub.gauge("x")

    def test_mapping_probe_feeds_suffixed_series(self):
        hub = TelemetryHub()
        hub.add_probe("fg", lambda: {"group1": 3.0, "group2": 5.0})
        hub.sample(now=1.0)
        hub.sample(now=2.0)
        assert hub.get("fg.group1").values == [3.0, 3.0]
        assert hub.get("fg.group2").values == [5.0, 5.0]

    def test_none_probe_value_skips_tick(self):
        hub = TelemetryHub()
        ticks = iter([None, 4.0])
        hub.add_probe("rate", lambda: next(ticks))
        hub.sample(now=1.0)
        hub.sample(now=2.0)
        assert hub.get("rate").values == [4.0]

    def test_drive_samples_once_per_interval(self):
        sim = Simulator()
        hub = TelemetryHub(TelemetryConfig(enabled=True, sample_interval_s=1.0))
        hub.add_probe("depth", lambda: float(sim.queue_depth))
        drive_with_observers(sim, 5.0, [
            (hub.config.sample_interval_s, lambda: hub.sample(sim.now)),
        ])
        hub.finalize(sim)
        # 4 in-run boundaries (1..4 s) + the closing sample at finalize.
        assert hub.samples_taken == 5
        assert sim.now == 5.0

    def test_finalize_publishes_recorder_health(self):
        sim = Simulator()
        hub = TelemetryHub(TelemetryConfig(enabled=True, max_trace_entries=1))
        hub.record_event(0.0, "a")
        hub.record_event(0.1, "b")  # over the bound: dropped
        hub.finalize(sim)
        assert hub.get("trace.entries").value == 1
        assert hub.get("trace.dropped").value == 1

    def test_config_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            TelemetryConfig(sample_interval_s=0.0)


# ----------------------------------------------------------------------
# Manifest + export


def small_populated_hub() -> TelemetryHub:
    hub = TelemetryHub(TelemetryConfig(enabled=True))
    hub.counter("frames", unit="frames").inc(10)
    hub.gauge("depth").set(2)
    series = hub.time_series("fg", unit="nodes")
    series.append(1.0, 3.0)
    series.append(2.0, 4.0)
    hub.histogram("df", bounds=(0.5, 1.0)).observe(0.7)
    hub.record_event(0.5, "fg_size", group=1, size=3)
    return hub


class TestExport:
    def test_round_trip_is_lossless(self, tmp_path):
        hub = small_populated_hub()
        manifest = build_manifest(
            "spp", TINY, seed=3, wall_time_s=1.5, sim_duration_s=15.0,
            events_executed=1234, extra={"num_nodes": 10},
        )
        path = tmp_path / trace_filename(manifest)
        write_trace(str(path), hub, manifest)

        trace = read_trace(str(path))
        assert trace.manifest == manifest
        assert trace.manifest.extra == {"num_nodes": 10}
        assert trace.instruments == hub.instruments()
        assert [e.tag for e in trace.events] == ["fg_size"]
        assert trace.events[0].data == {"group": 1, "size": 3}
        assert trace.events_dropped == 0
        assert trace.label == "spp/seed=3"

    def test_dropped_events_reach_the_export(self, tmp_path):
        hub = TelemetryHub(TelemetryConfig(enabled=True, max_trace_entries=1))
        hub.record_event(0.0, "a")
        hub.record_event(0.1, "b")
        manifest = build_manifest("odmrp", TINY, seed=1)
        path = tmp_path / "t.jsonl"
        write_trace(str(path), hub, manifest)
        trace = read_trace(str(path))
        assert trace.events_dropped == 1
        assert len(trace.events) == 1

    def test_reader_rejects_non_manifest_head(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"type": "event", "time": 0.0}) + "\n")
        with pytest.raises(TraceFormatError):
            read_trace(str(path))

    def test_reader_rejects_unknown_format_version(self, tmp_path):
        manifest = build_manifest("spp", TINY, seed=1)
        record = manifest.to_record()
        record["format"] = TRACE_FORMAT_VERSION + 1
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(TraceFormatError):
            read_trace(str(path))

    def test_reader_rejects_unknown_record_type(self, tmp_path):
        manifest = build_manifest("spp", TINY, seed=1)
        record = manifest.to_record()
        record["format"] = TRACE_FORMAT_VERSION
        path = tmp_path / "odd.jsonl"
        path.write_text(
            json.dumps(record) + "\n" + json.dumps({"type": "mystery"}) + "\n"
        )
        with pytest.raises(TraceFormatError):
            read_trace(str(path))

    def test_manifest_config_hash_tracks_config_changes(self):
        base = build_manifest("spp", TINY, seed=1)
        changed = build_manifest(
            "spp", tiny_config(duration_s=16.0), seed=1
        )
        assert base.config_hash != changed.config_hash
        assert base.config_hash == config_digest(TINY)

    def test_canonicalize_is_shared_with_the_cache_key(self):
        # The cache key and the manifest hash must reduce configs the
        # same way, so a config edit invalidates both in lockstep.
        spec = RunSpec("spp", TINY, 1)
        key_a = spec.cache_key()
        assert canonicalize(TINY) == canonicalize(tiny_config())
        spec_b = RunSpec("spp", tiny_config(
            telemetry=TelemetryConfig(enabled=True)), 1)
        assert spec_b.cache_key() != key_a


# ----------------------------------------------------------------------
# End-to-end wiring


@pytest.fixture(scope="module")
def telemetry_run(tmp_path_factory):
    export_dir = str(tmp_path_factory.mktemp("traces"))
    config = tiny_config(
        telemetry=TelemetryConfig(enabled=True, export_dir=export_dir)
    )
    return run_protocol("spp", config)


class TestEndToEnd:
    def test_disabled_run_matches_seed_exactly(self, telemetry_run):
        baseline = run_protocol("spp", tiny_config())
        assert baseline.telemetry_path is None
        # Everything except the artifact path must be bit-identical.
        assert dataclasses.replace(telemetry_run, telemetry_path=None) \
            == baseline
        assert telemetry_run.counters == baseline.counters

    def test_artifact_is_emitted_and_summarizable(self, telemetry_run):
        assert telemetry_run.telemetry_path is not None
        trace = read_trace(telemetry_run.telemetry_path)
        assert trace.manifest.protocol == "spp"
        assert trace.manifest.extra["num_nodes"] == 10
        assert trace.manifest.events_executed > 0
        assert trace.manifest.wall_time_s > 0
        delivered = trace.instrument("sink.delivered_packets")
        assert delivered.value == telemetry_run.delivered_packets
        series = trace.instrument("engine.event_rate")
        assert len(series) > 0

        text = summarize_trace(trace)
        assert "spp seed=1" in text
        assert "engine.event_rate" in text
        assert "sink.delivered_packets" in text

    def test_diff_of_a_trace_with_itself_is_flat(self, telemetry_run):
        trace = read_trace(telemetry_run.telemetry_path)
        text = diff_traces(trace, trace)
        assert "configs differ" not in text
        assert "only in" not in text

    def test_default_telemetry_is_off(self):
        config = SimulationScenarioConfig()
        assert config.telemetry.enabled is False


# ----------------------------------------------------------------------
# CLI


class TestCli:
    def test_version_flag(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_telemetry_dir_flag_parsed(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["fig2-sim", "--telemetry-dir", "/tmp/traces"]
        )
        assert args.telemetry_dir == "/tmp/traces"

    def test_summarize_and_diff_commands(self, telemetry_run, capsys):
        from repro.cli import main

        path = telemetry_run.telemetry_path
        assert main(["telemetry", "summarize", path]) == 0
        out = capsys.readouterr().out
        assert "engine.event_rate" in out

        assert main(["telemetry", "diff", path, path]) == 0
        out = capsys.readouterr().out
        assert "instrument" in out

    def test_summarize_reports_bad_files(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.jsonl"
        bad.write_text("{}\n")
        assert main(["telemetry", "summarize", str(bad)]) == 1
        assert "ERROR" in capsys.readouterr().err
