"""Tests for the parallel experiment runner and its result cache.

The contract under test: a (protocol, config, seed) triple produces an
identical :class:`RunResult` whether executed inline, on worker
processes, or replayed from the on-disk cache -- and a crashing run annotates
itself instead of killing the sweep.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import replace

import pytest

from repro.experiments.executors import SweepExecutor
from repro.experiments.parallel import (
    RunSpec,
    cache_load,
    cache_store,
    sweep_specs,
    sweep_stale_cache_tmps,
)
from repro.experiments.results import RunResult, aggregate_runs
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import SimulationScenarioConfig
from repro.experiments.spec import ExperimentSpec

#: Smallest config that still exercises MAC, fading, probing, and ODMRP.
TINY = SimulationScenarioConfig(
    num_nodes=8,
    area_width_m=450.0,
    area_height_m=450.0,
    num_groups=1,
    members_per_group=3,
    duration_s=12.0,
    warmup_s=4.0,
    topology_seed=1,
)


def _results(specs, **settings):
    return [o.result for o in SweepExecutor(**settings).execute(specs)]


class TestRunSpec:
    def test_cache_key_is_stable_and_seed_sensitive(self):
        a1 = RunSpec("spp", TINY, 1).cache_key()
        a2 = RunSpec("spp", TINY, 1).cache_key()
        b = RunSpec("spp", TINY, 2).cache_key()
        c = RunSpec("etx", TINY, 1).cache_key()
        assert a1 == a2
        assert len({a1, b, c}) == 3

    def test_cache_key_tracks_config_fields(self):
        base = RunSpec("spp", TINY, 1).cache_key()
        tweaked = RunSpec("spp", replace(TINY, rate_pps=21.0), 1).cache_key()
        nested = RunSpec("spp", TINY.with_probing_rate(5.0), 1).cache_key()
        assert base != tweaked
        assert base != nested

    def test_cache_key_ignores_embedded_topology_seed(self):
        """The spec seed wins over whatever seed the config carries."""
        a = RunSpec("spp", replace(TINY, topology_seed=7), 3).cache_key()
        b = RunSpec("spp", replace(TINY, topology_seed=9), 3).cache_key()
        assert a == b


class TestDeterminismAcrossExecutionModes:
    """Satellite: identical RunResult serially, in a pool of 2, and from
    the warm disk cache."""

    def test_serial_pool_and_cache_agree(self, tmp_path):
        specs = sweep_specs(TINY, ("odmrp", "spp"), (1,))
        serial = _results(specs, jobs=1)
        pooled = _results(specs, jobs=2, use_cache=True,
                          cache_dir=str(tmp_path))
        cached = _results(specs, jobs=1, use_cache=True,
                          cache_dir=str(tmp_path))
        assert serial == pooled
        assert serial == cached
        assert all(run.error is None for run in serial)
        assert serial[0].delivered_packets > 0

    def test_cached_pass_does_not_recompute(self, tmp_path):
        specs = sweep_specs(TINY, ("odmrp",), (1,))
        executor = SweepExecutor(jobs=1, use_cache=True,
                                 cache_dir=str(tmp_path))
        first = executor.execute(specs)
        second = executor.execute(specs)
        assert not first[0].from_cache
        assert second[0].from_cache
        assert first[0].result == second[0].result

    def test_run_experiment_parallel_matches_serial(self, tmp_path):
        spec = ExperimentSpec(
            protocols=("odmrp", "spp"), seeds=(1, 2), config=TINY
        )
        serial = run_experiment(spec)
        pooled = run_experiment(
            replace(spec, jobs=2, use_cache=True), cache_dir=str(tmp_path)
        )
        assert serial == pooled


class TestFailureContainment:
    def test_bad_spec_yields_error_annotated_result_inline(self):
        specs = [
            RunSpec("odmrp", TINY, 1),
            RunSpec("not-a-protocol", TINY, 1),
        ]
        results = _results(specs, jobs=1)
        assert results[0].error is None
        assert results[1].error is not None
        assert "not-a-protocol" in results[1].error
        assert results[1].delivered_packets == 0

    def test_bad_spec_yields_error_annotated_result_in_pool(self):
        specs = [
            RunSpec("not-a-protocol", TINY, 1),
            RunSpec("odmrp", TINY, 1),
        ]
        results = _results(specs, jobs=2)
        assert results[0].error is not None
        assert results[1].error is None
        assert results[1].delivered_packets > 0

    def test_errored_runs_are_never_cached(self, tmp_path):
        spec = RunSpec("not-a-protocol", TINY, 1)
        _results([spec], jobs=1, use_cache=True, cache_dir=str(tmp_path))
        assert cache_load(str(tmp_path), spec.cache_key()) is None

    def test_aggregate_skips_errored_runs(self):
        good = RunResult(
            protocol="spp", topology_seed=1, duration_s=10.0,
            offered_packets=10, expected_deliveries=20,
            delivered_packets=10, delivered_bytes=5120,
            mean_delay_s=0.01, probe_bytes=100.0,
        )
        bad = replace(good, topology_seed=2, delivered_packets=0,
                      delivered_bytes=0, error="boom")
        aggregates = aggregate_runs([good, bad])
        assert aggregates["spp"].runs == 1
        assert aggregates["spp"].mean_delivery_ratio == pytest.approx(0.5)


class TestCachePlumbing:
    def test_round_trip_preserves_every_field(self, tmp_path):
        spec = RunSpec("spp", TINY, 1)
        [outcome] = SweepExecutor(jobs=1).execute([spec])
        cache_store(str(tmp_path), spec.cache_key(), outcome.result)
        loaded = cache_load(str(tmp_path), spec.cache_key())
        assert loaded == outcome.result
        assert loaded.counters == outcome.result.counters

    def test_corrupt_cache_entry_is_a_miss_and_quarantined(self, tmp_path):
        spec = RunSpec("spp", TINY, 1)
        path = tmp_path / f"{spec.cache_key()}.json"
        path.write_text("{not json")
        assert cache_load(str(tmp_path), spec.cache_key()) is None
        # The damaged artifact is moved aside, never silently re-read.
        assert not path.exists()
        assert (tmp_path / f"{spec.cache_key()}.json.corrupt").exists()

    def test_truncated_cache_entry_recovers_on_restore(self, tmp_path):
        """Regression: a truncated artifact (torn write) must behave as
        a miss, and the slot must accept the recomputed result."""
        spec = RunSpec("spp", TINY, 1)
        result = _tiny_result(spec)
        cache_store(str(tmp_path), spec.cache_key(), result)
        path = tmp_path / f"{spec.cache_key()}.json"
        content = path.read_text()
        path.write_text(content[: len(content) // 2])
        assert cache_load(str(tmp_path), spec.cache_key()) is None
        cache_store(str(tmp_path), spec.cache_key(), result)
        assert cache_load(str(tmp_path), spec.cache_key()) == result

    @pytest.mark.parametrize("payload", [
        '"a json string, not an object"',
        '{"schema": 4, "wrong_field": 1}',
    ])
    def test_schema_mismatch_is_quarantined(self, tmp_path, payload):
        spec = RunSpec("spp", TINY, 1)
        path = tmp_path / f"{spec.cache_key()}.json"
        path.write_text(payload)
        assert cache_load(str(tmp_path), spec.cache_key()) is None
        assert (tmp_path / f"{spec.cache_key()}.json.corrupt").exists()

    def test_cache_store_cleans_temp_file_on_error(self, tmp_path,
                                                   monkeypatch):
        import json as json_module

        import repro.experiments.parallel as parallel_module

        def explode(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(parallel_module.json, "dump", explode)
        spec = RunSpec("spp", TINY, 1)
        with pytest.raises(OSError, match="disk full"):
            cache_store(str(tmp_path), spec.cache_key(), _tiny_result(spec))
        monkeypatch.setattr(parallel_module.json, "dump",
                            json_module.dump)
        assert list(tmp_path.iterdir()) == []  # no orphaned temp

    def test_sweep_stale_cache_tmps(self, tmp_path, dead_pid):
        spec = RunSpec("spp", TINY, 1)
        cache_store(str(tmp_path), spec.cache_key(), _tiny_result(spec))
        entry = tmp_path / f"{spec.cache_key()}.json"
        orphan = tmp_path / f"{spec.cache_key()}.json.tmp.{dead_pid}"
        orphan.write_text("{torn")
        assert sweep_stale_cache_tmps(str(tmp_path)) == 1
        assert not orphan.exists()
        assert entry.exists()  # real entries are untouched
        assert sweep_stale_cache_tmps(str(tmp_path)) == 0
        assert sweep_stale_cache_tmps(str(tmp_path / "missing")) == 0

    def test_sweep_spares_a_live_writers_temp(self, tmp_path, monkeypatch):
        """Another process's stale-temp sweep that lands between this
        process's fsync and ``os.replace`` leaves the in-flight temp
        alone, so the store completes."""
        spec = RunSpec("spp", TINY, 1)
        real_replace = os.replace

        def replace_after_a_concurrent_sweep(src, dst):
            sweeper = multiprocessing.get_context().Process(
                target=sweep_stale_cache_tmps, args=(str(tmp_path),),
            )
            sweeper.start()
            sweeper.join()
            assert sweeper.exitcode == 0
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_after_a_concurrent_sweep)
        cache_store(str(tmp_path), spec.cache_key(), _tiny_result(spec))
        assert cache_load(str(tmp_path), spec.cache_key()) \
            == _tiny_result(spec)

    def test_sweep_specs_order_is_seed_major(self):
        specs = sweep_specs(TINY, ("a", "b"), (1, 2))
        assert [(s.seed, s.protocol) for s in specs] == [
            (1, "a"), (1, "b"), (2, "a"), (2, "b"),
        ]


def _tiny_result(spec: RunSpec) -> RunResult:
    return RunResult(
        protocol=spec.protocol, topology_seed=spec.seed, duration_s=1.0,
        offered_packets=10, expected_deliveries=10, delivered_packets=9,
        delivered_bytes=4608, mean_delay_s=0.01, probe_bytes=12.0,
    )


class TestInterruptedPoolShutdown:
    """A KeyboardInterrupt escaping the collection loop must put down
    live workers -- no orphaned simulations grinding on after Ctrl-C."""

    def test_keyboard_interrupt_terminates_pool_workers(
        self, process_starts
    ):
        import time

        started = process_starts

        def interrupt_immediately(protocol: str, seed: int) -> None:
            raise KeyboardInterrupt

        specs = sweep_specs(TINY, ("odmrp",), (1, 2, 3, 4))
        with pytest.raises(KeyboardInterrupt):
            SweepExecutor(jobs=2).execute(
                specs, progress=interrupt_immediately
            )
        assert started
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and any(
            proc.is_alive() for proc in started
        ):
            time.sleep(0.05)
        assert not any(proc.is_alive() for proc in started)
