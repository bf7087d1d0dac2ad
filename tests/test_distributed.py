"""Tests for the ``dir://`` distributed sweep backend.

The contract under test: the shared sweep directory is a correct work
queue (leases are exclusive, expire with their holder's heartbeat, and
are reclaimed by exactly one rescuer); workers drain it to a journal
that doubles as the completion ledger (every run lands exactly once,
transient failures are re-dispatched fleet-wide, deterministic
failures quarantine); and the coordinator returns outcomes in spec
order, bit-identical to the local backends.  The kill-a-live-worker
scenario lives in the chaos harness (``repro chaos`` / ``pytest -m
chaos``); here workers are cooperative and fast.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time

import pytest

from repro.experiments.distributed import (
    BACKEND_ENV,
    WORKER_ID_ENV,
    DirExecutor,
    DistributedSweepError,
    IncrementalAggregator,
    LeaseConfig,
    LeaseQueue,
    SweepDir,
    WorkerStats,
    drain_worker,
    load_sweep,
    publish_sweep,
    record_is_final,
)
from repro.experiments.parallel import (
    RunSpec,
    cache_shard_dir,
    cache_store,
)
from repro.experiments.resilience import (
    ATTEMPT_ENV,
    FailureKind,
    JournalRecord,
    SweepJournal,
)
from repro.experiments.results import RunResult
from repro.experiments.scenarios import SimulationScenarioConfig

CFG = SimulationScenarioConfig(
    num_nodes=4, duration_s=1.0, warmup_s=0.1, topology_seed=1
)

#: Queue knobs tuned for sub-second tests (never used where a live
#: holder could be falsely expired mid-run).
FAST_LEASE = LeaseConfig(
    lease_timeout_s=0.25, heartbeat_interval_s=0.1, poll_interval_s=0.05
)

#: Generous knobs for multi-worker drains: a live worker's lease must
#: never expire under CI scheduling jitter.
SAFE_LEASE = LeaseConfig(
    lease_timeout_s=30.0, heartbeat_interval_s=0.2, poll_interval_s=0.05
)

MARK_DIR_ENV = "REPRO_TEST_MARK_DIR"


@pytest.fixture(autouse=True)
def _restore_worker_env():
    """drain_worker stamps provenance env vars; keep tests hermetic."""
    saved = {
        name: os.environ.get(name)
        for name in (WORKER_ID_ENV, BACKEND_ENV)
    }
    yield
    for name, value in saved.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value


def _quick_result(spec: RunSpec, delivered: int = 5) -> RunResult:
    return RunResult(
        protocol=spec.protocol.lower(), topology_seed=spec.seed,
        duration_s=1.0, offered_packets=10, expected_deliveries=10,
        delivered_packets=delivered, delivered_bytes=delivered * 512,
        mean_delay_s=0.01, probe_bytes=1.0,
    )


def _specs(n: int = 2, protocol: str = "odmrp"):
    return [RunSpec(protocol, CFG, seed) for seed in range(1, n + 1)]


def _attempt() -> int:
    return int(os.environ.get(ATTEMPT_ENV, "0"))


# -- fake workers (module-level: must survive the process boundary) ----


def ok_worker(spec):
    return _quick_result(spec), 0.01


def flaky_memory_worker(spec):
    if _attempt() == 0:
        raise MemoryError("transient allocation failure")
    return _quick_result(spec), 0.01


def value_error_worker(spec):
    raise ValueError("deterministic model bug")


def never_worker(spec):
    raise AssertionError("this spec should have replayed, not re-run")


def marking_worker(spec):
    """Exactly-once probe: O_EXCL-create one marker per run key.

    A second execution of the same key cannot create the marker and
    leaves a ``.dup`` tombstone the test asserts against.
    """
    mark_dir = os.environ[MARK_DIR_ENV]
    key = spec.cache_key()
    try:
        fd = os.open(
            os.path.join(mark_dir, f"{key}.marker"),
            os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644,
        )
        os.close(fd)
    except FileExistsError:
        with open(os.path.join(mark_dir, f"{key}.dup.{os.getpid()}"),
                  "w", encoding="utf-8"):
            pass
    time.sleep(0.02)  # let the other workers into the scramble
    return _quick_result(spec), 0.02


def _stress_worker_main(root: str, worker_id: str) -> None:
    drain_worker(
        root, worker_id=worker_id, lease=SAFE_LEASE,
        worker_fn=marking_worker, use_cache=False,
    )


class TestLeaseConfig:
    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError, match="lease_timeout_s"):
            LeaseConfig(lease_timeout_s=0.0)

    def test_rejects_heartbeat_at_or_above_timeout(self):
        with pytest.raises(ValueError, match="heartbeat_interval_s"):
            LeaseConfig(lease_timeout_s=1.0, heartbeat_interval_s=1.0)

    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError, match="max_retries"):
            LeaseConfig(max_retries=-1)


class TestLeaseQueue:
    def _queue(self, tmp_path, worker_id, config=FAST_LEASE):
        sweep = SweepDir(str(tmp_path)).ensure()
        return LeaseQueue(sweep, config, worker_id)

    def test_claim_is_exclusive(self, tmp_path):
        a = self._queue(tmp_path, "a")
        b = self._queue(tmp_path, "b")
        held = a.try_claim("k1", attempt=0, index=0)
        assert held is not None and held.key == "k1"
        assert b.try_claim("k1", attempt=0, index=0) is None
        assert a.stats.claimed == 1 and b.stats.claimed == 0

    def test_release_frees_the_slot(self, tmp_path):
        a = self._queue(tmp_path, "a")
        b = self._queue(tmp_path, "b")
        a.release(a.try_claim("k1", 0, 0))
        assert b.try_claim("k1", 0, 0) is not None

    def test_distinct_keys_are_independent(self, tmp_path):
        a = self._queue(tmp_path, "a")
        assert a.try_claim("k1", 0, 0) is not None
        assert a.try_claim("k2", 0, 1) is not None

    def test_expired_lease_is_reclaimed(self, tmp_path):
        a = self._queue(tmp_path, "a")
        b = self._queue(tmp_path, "b")
        assert a.try_claim("k1", 0, 0) is not None
        time.sleep(0.4)  # past FAST_LEASE.lease_timeout_s, no renewals
        held = b.try_claim("k1", attempt=1, index=0)
        assert held is not None and held.attempt == 1
        assert b.stats.expired == 1 and b.stats.reclaimed == 1
        # The carcass moved into stale/, it did not vanish.
        assert len(os.listdir(b.sweep.stale_dir)) == 1

    def test_renewed_lease_stays_live(self, tmp_path):
        a = self._queue(tmp_path, "a")
        b = self._queue(tmp_path, "b")
        held = a.try_claim("k1", 0, 0)
        for _ in range(5):
            time.sleep(0.1)
            assert a.renew(held)
        # Renewals kept the heartbeat fresh the whole 0.5 s.
        assert b.try_claim("k1", 0, 0) is None
        assert a.stats.renewed == 5

    def test_renew_detects_takeover(self, tmp_path):
        a = self._queue(tmp_path, "a")
        b = self._queue(tmp_path, "b")
        held_a = a.try_claim("k1", 0, 0)
        time.sleep(0.4)
        assert b.try_claim("k1", 1, 0) is not None
        # a stalled past the timeout and lost the lease: renew must say
        # so, and must not clobber b's claim.
        assert not a.renew(held_a)
        assert b.renew(b.try_claim("k1", 1, 0) or _held(b, "k1"))

    def test_unreadable_lease_expires_by_mtime(self, tmp_path):
        # A claimant killed between O_EXCL create and the first write
        # leaves an empty lease; mtime aging must unwedge the queue.
        b = self._queue(tmp_path, "b")
        path = b.sweep.lease_path("k1")
        with open(path, "w", encoding="utf-8"):
            pass
        old = time.time() - 60.0
        os.utime(path, (old, old))
        assert b.try_claim("k1", 0, 0) is not None


def _held(queue, key):
    """Fetch the live lease object for an assertion helper."""
    from repro.experiments.distributed import Lease

    return Lease(key=key, path=queue.sweep.lease_path(key), attempt=1,
                 index=0)


class TestRecordIsFinal:
    def _record(self, ok=True, attempts=1, failure_kind=None, error=None):
        result = {"error": error} if error else None
        return JournalRecord(
            key="k", protocol="odmrp", seed=1,
            status="ok" if ok else "failed", attempts=attempts,
            elapsed_s=0.1, failure_kind=failure_kind, result=result,
        )

    def test_success_is_final(self):
        assert record_is_final(self._record(ok=True), max_retries=2)

    def test_deterministic_failure_is_final(self):
        record = self._record(
            ok=False, failure_kind=FailureKind.EXCEPTION.value
        )
        assert record_is_final(record, max_retries=2)

    def test_transient_failure_awaits_redispatch(self):
        record = self._record(
            ok=False, attempts=1, failure_kind=FailureKind.TIMEOUT.value
        )
        assert not record_is_final(record, max_retries=2)

    def test_transient_failure_finalizes_when_budget_exhausts(self):
        record = self._record(
            ok=False, attempts=3, failure_kind=FailureKind.TIMEOUT.value
        )
        assert record_is_final(record, max_retries=2)

    def test_unknown_kind_classifies_from_the_error_text(self):
        record = self._record(
            ok=False, attempts=1, failure_kind=None,
            error="OOM: worker killed by SIGKILL",
        )
        assert not record_is_final(record, max_retries=1)
        assert record_is_final(record, max_retries=0)


class TestSweepManifest:
    def test_round_trip(self, tmp_path):
        sweep = SweepDir(str(tmp_path)).ensure()
        specs = _specs(3)
        publish_sweep(sweep, specs)
        assert load_sweep(sweep) == specs

    def test_unpublished_sweep_is_none(self, tmp_path):
        assert load_sweep(SweepDir(str(tmp_path)).ensure()) is None

    def _tamper(self, sweep, mutate):
        with open(sweep.sweep_path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        mutate(data)
        with open(sweep.sweep_path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)

    def test_schema_mismatch_fails_loudly(self, tmp_path):
        sweep = SweepDir(str(tmp_path)).ensure()
        publish_sweep(sweep, _specs(1))
        self._tamper(sweep, lambda d: d.update(schema=999))
        with pytest.raises(DistributedSweepError, match="schema"):
            load_sweep(sweep)

    def test_cache_schema_skew_fails_loudly(self, tmp_path):
        sweep = SweepDir(str(tmp_path)).ensure()
        publish_sweep(sweep, _specs(1))
        self._tamper(sweep, lambda d: d.update(cache_schema=-1))
        with pytest.raises(DistributedSweepError, match="cache schema"):
            load_sweep(sweep)

    def test_key_skew_fails_loudly(self, tmp_path):
        # A worker whose code hashes runs differently than the
        # publisher must refuse to drain.
        sweep = SweepDir(str(tmp_path)).ensure()
        publish_sweep(sweep, _specs(1))
        self._tamper(
            sweep, lambda d: d["runs"][0].update(key="f" * 64)
        )
        with pytest.raises(DistributedSweepError, match="version skew"):
            load_sweep(sweep)

    def test_unreadable_manifest_fails_loudly(self, tmp_path):
        sweep = SweepDir(str(tmp_path)).ensure()
        with open(sweep.sweep_path, "w", encoding="utf-8") as handle:
            handle.write("{torn")
        with pytest.raises(DistributedSweepError, match="unreadable"):
            load_sweep(sweep)


class TestIncrementalAggregator:
    def test_results_land_in_spec_order(self):
        specs = _specs(3)
        agg = IncrementalAggregator(specs)
        for spec in reversed(specs):  # arrival order != spec order
            assert agg.add(spec.cache_key(), _quick_result(spec))
        assert agg.done and agg.landed == 3
        assert agg.results() == [_quick_result(spec) for spec in specs]

    def test_duplicates_and_strangers_are_rejected(self):
        specs = _specs(1)
        agg = IncrementalAggregator(specs)
        key = specs[0].cache_key()
        assert agg.add(key, _quick_result(specs[0]))
        assert not agg.add(key, _quick_result(specs[0]))
        assert not agg.add("nope", _quick_result(specs[0]))
        assert agg.landed == 1

    def test_aggregates_match_serial_aggregation(self):
        from repro.experiments.results import aggregate_runs

        specs = _specs(2)
        agg = IncrementalAggregator(specs)
        for spec in specs:
            agg.add(spec.cache_key(), _quick_result(spec))
        assert agg.aggregates() == aggregate_runs(
            [_quick_result(spec) for spec in specs]
        )


class TestDrainWorker:
    def test_single_worker_drains_the_sweep(self, tmp_path):
        root = str(tmp_path)
        sweep = SweepDir(root).ensure()
        specs = _specs(3)
        publish_sweep(sweep, specs)
        stats = drain_worker(
            root, worker_id="w0", lease=SAFE_LEASE, worker_fn=ok_worker,
        )
        assert stats.completed == 3 and stats.failed == 0
        assert stats.claimed == 3
        records = SweepJournal.replay(sweep.journal_path)
        assert len(records) == 3
        assert all(record.ok for record in records.values())
        assert all(
            record.worker == "w0" for record in records.values()
        )
        # No leases linger, the stats snapshot and telemetry landed.
        assert not any(
            name.endswith(".lease")
            for name in os.listdir(sweep.leases_dir)
        )
        saved = json.load(open(
            os.path.join(sweep.workers_dir, "w0.json"), encoding="utf-8"
        ))
        assert saved["completed"] == 3
        assert os.path.exists(
            os.path.join(sweep.telemetry_dir, "worker-w0.jsonl")
        )

    def test_cache_hit_journals_without_executing(self, tmp_path):
        root = str(tmp_path)
        sweep = SweepDir(root).ensure()
        [spec] = _specs(1)
        publish_sweep(sweep, [spec])
        key = spec.cache_key()
        cache_store(
            cache_shard_dir(sweep.cache_dir, key), key,
            _quick_result(spec),
        )
        stats = drain_worker(
            root, worker_id="w0", lease=SAFE_LEASE,
            worker_fn=never_worker,  # a miss would blow up
        )
        assert stats.cache_hits == 1 and stats.completed == 0
        record = SweepJournal.replay(sweep.journal_path)[key]
        assert record.ok and record.cached
        assert record.to_run_result() == _quick_result(spec)

    def test_executed_results_populate_the_shared_cache(self, tmp_path):
        root = str(tmp_path)
        sweep = SweepDir(root).ensure()
        [spec] = _specs(1)
        publish_sweep(sweep, [spec])
        drain_worker(root, worker_id="w0", lease=SAFE_LEASE,
                     worker_fn=ok_worker)
        from repro.experiments.parallel import cache_load

        shard = cache_shard_dir(sweep.cache_dir, spec.cache_key())
        assert cache_load(shard, spec.cache_key()) == _quick_result(spec)

    def test_max_runs_bounds_the_drain(self, tmp_path):
        root = str(tmp_path)
        sweep = SweepDir(root).ensure()
        publish_sweep(sweep, _specs(3))
        stats = drain_worker(
            root, worker_id="w0", lease=SAFE_LEASE, worker_fn=ok_worker,
            max_runs=1,
        )
        assert stats.completed == 1
        assert len(SweepJournal.replay(sweep.journal_path)) == 1

    def test_missing_sweep_times_out_loudly(self, tmp_path):
        with pytest.raises(DistributedSweepError, match="no sweep"):
            drain_worker(
                str(tmp_path), worker_id="w0", lease=FAST_LEASE,
                wait_for_sweep_s=0.2,
            )

    def test_transient_failure_is_redispatched(self, tmp_path):
        """A MemoryError on attempt 0 journals a non-final failure; the
        same drain loop claims the run again and retries to success."""
        root = str(tmp_path)
        sweep = SweepDir(root).ensure()
        [spec] = _specs(1)
        publish_sweep(sweep, [spec])
        stats = drain_worker(
            root, worker_id="w0", lease=SAFE_LEASE,
            worker_fn=flaky_memory_worker, use_cache=False,
        )
        assert stats.failed == 1 and stats.completed == 1
        record = SweepJournal.replay(sweep.journal_path)[spec.cache_key()]
        assert record.ok and record.attempts == 2

    def test_deterministic_failure_quarantines(self, tmp_path):
        root = str(tmp_path)
        sweep = SweepDir(root).ensure()
        [spec] = _specs(1)
        publish_sweep(sweep, [spec])
        stats = drain_worker(
            root, worker_id="w0", lease=SAFE_LEASE,
            worker_fn=value_error_worker, use_cache=False,
        )
        # One dispatch, not max_retries+1: EXCEPTION never retries.
        assert stats.failed == 1 and stats.completed == 0
        record = SweepJournal.replay(sweep.journal_path)[spec.cache_key()]
        assert not record.ok and record.attempts == 1
        assert record.failure_kind == FailureKind.EXCEPTION.value
        assert record_is_final(record, SAFE_LEASE.max_retries)

    def test_worker_sets_provenance_env(self, tmp_path):
        root = str(tmp_path)
        sweep = SweepDir(root).ensure()
        publish_sweep(sweep, _specs(1))
        drain_worker(root, worker_id="w7", lease=SAFE_LEASE,
                     worker_fn=ok_worker)
        assert os.environ[WORKER_ID_ENV] == "w7"
        assert os.environ[BACKEND_ENV] == sweep.uri()


class TestMultiWorkerStress:
    def test_four_workers_execute_every_run_exactly_once(self, tmp_path):
        """Satellite: N workers scrambling over one queue must neither
        drop nor double-execute a run."""
        root = str(tmp_path / "shared")
        mark_dir = str(tmp_path / "marks")
        os.makedirs(mark_dir)
        sweep = SweepDir(root).ensure()
        specs = _specs(12)
        publish_sweep(sweep, specs)
        os.environ[MARK_DIR_ENV] = mark_dir
        ctx = multiprocessing.get_context()
        workers = [
            ctx.Process(target=_stress_worker_main,
                        args=(root, f"stress-w{number}"))
            for number in range(4)
        ]
        try:
            for proc in workers:
                proc.start()
            for proc in workers:
                proc.join(120.0)
        finally:
            os.environ.pop(MARK_DIR_ENV, None)
            for proc in workers:
                if proc.is_alive():
                    proc.kill()
                    proc.join(5.0)
        assert all(proc.exitcode == 0 for proc in workers)
        markers = sorted(os.listdir(mark_dir))
        dups = [name for name in markers if ".dup." in name]
        assert not dups, f"double-executed runs: {dups}"
        assert len(markers) == len(specs)
        records = SweepJournal.replay(sweep.journal_path)
        assert len(records) == len(specs)
        assert all(record.ok for record in records.values())
        assert not any(
            name.endswith(".lease")
            for name in os.listdir(sweep.leases_dir)
        )


class TestDirExecutor:
    def test_end_to_end_two_workers(self, tmp_path):
        root = str(tmp_path / "shared")
        specs = _specs(6)
        seen = []
        executor = DirExecutor(
            root, workers=2, lease=SAFE_LEASE, worker_fn=ok_worker,
            use_cache=False,
        )
        outcomes = executor.execute(
            specs,
            progress=lambda protocol, seed: seen.append(seed),
        )
        assert [o.spec for o in outcomes] == specs
        assert [o.result for o in outcomes] == [
            _quick_result(spec) for spec in specs
        ]
        assert sorted(seen) == [spec.seed for spec in specs]
        # Clean completion compacts the shared journal: one surviving
        # line per run.
        with open(SweepDir(root).journal_path, "rb") as handle:
            lines = [line for line in handle if line.strip()]
        assert len(lines) == len(specs)

    def test_resume_replays_without_executing(self, tmp_path):
        root = str(tmp_path / "shared")
        specs = _specs(3)
        first = DirExecutor(
            root, workers=1, lease=SAFE_LEASE, worker_fn=ok_worker,
            use_cache=False,
        ).execute(specs)
        resumed = DirExecutor(
            root, workers=1, lease=SAFE_LEASE, worker_fn=never_worker,
            use_cache=False, resume=True,
        ).execute(specs)
        assert all(o.from_journal for o in resumed)
        assert [o.result for o in resumed] == [
            o.result for o in first
        ]

    def test_fresh_sweep_rotates_an_overlapping_journal(self, tmp_path):
        root = str(tmp_path / "shared")
        specs = _specs(2)
        DirExecutor(root, workers=1, lease=SAFE_LEASE,
                    worker_fn=ok_worker, use_cache=False).execute(specs)
        DirExecutor(root, workers=1, lease=SAFE_LEASE,
                    worker_fn=ok_worker, use_cache=False).execute(specs)
        journal = SweepDir(root).journal_path
        assert os.path.exists(f"{journal}.old1")
        assert len(SweepJournal.replay(journal)) == len(specs)

    def test_disjoint_journal_records_survive_a_fresh_sweep(
        self, tmp_path
    ):
        # Sibling sub-sweeps (e.g. per-mobility-model grids) share one
        # root sequentially; publishing the second must not rotate away
        # the first's records.
        root = str(tmp_path / "shared")
        DirExecutor(root, workers=1, lease=SAFE_LEASE,
                    worker_fn=ok_worker, use_cache=False).execute(
            _specs(2, protocol="odmrp"))
        DirExecutor(root, workers=1, lease=SAFE_LEASE,
                    worker_fn=ok_worker, use_cache=False).execute(
            _specs(2, protocol="spp"))
        journal = SweepDir(root).journal_path
        assert not os.path.exists(f"{journal}.old1")
        assert len(SweepJournal.replay(journal)) == 4

    def test_quarantined_failure_surfaces_in_outcomes(self, tmp_path):
        root = str(tmp_path / "shared")
        [spec] = _specs(1)
        [outcome] = DirExecutor(
            root, workers=1, lease=SAFE_LEASE,
            worker_fn=value_error_worker, use_cache=False,
        ).execute([spec])
        assert outcome.failure_kind is FailureKind.EXCEPTION
        assert outcome.attempts == 1
        assert "deterministic model bug" in outcome.result.error

    def test_all_workers_dead_fails_instead_of_hanging(self, tmp_path):
        root = str(tmp_path / "shared")
        executor = DirExecutor(
            root, workers=2, lease=FAST_LEASE, worker_fn=ok_worker,
        )
        executor.submit(_specs(2))
        # Corrupt the manifest schema after publication: every spawned
        # worker dies on load, and the coordinator must notice rather
        # than poll forever.
        sweep = SweepDir(root)
        with open(sweep.sweep_path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        data["schema"] = 999
        with open(sweep.sweep_path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        with pytest.raises(DistributedSweepError, match="exited"):
            executor.collect()
        executor.close()

    def test_submit_twice_is_an_error(self, tmp_path):
        executor = DirExecutor(str(tmp_path / "shared"), workers=1)
        executor.submit(_specs(1))
        with pytest.raises(RuntimeError, match="already"):
            executor.submit(_specs(1))

    def test_collect_before_submit_is_an_error(self, tmp_path):
        with pytest.raises(RuntimeError, match="before submit"):
            DirExecutor(str(tmp_path / "shared")).collect()


class TestDistributedRealRuns:
    """The dir:// backend must not perturb real simulation results."""

    TINY = SimulationScenarioConfig(
        num_nodes=6, area_width_m=400.0, area_height_m=400.0,
        num_groups=1, members_per_group=3, duration_s=4.0, warmup_s=1.0,
        topology_seed=1,
    )

    def test_distributed_matches_serial(self, tmp_path):
        from repro.experiments.parallel import execute_runs

        specs = [RunSpec("odmrp", self.TINY, 1)]
        serial = execute_runs(specs, jobs=1)
        outcomes = DirExecutor(
            str(tmp_path / "shared"), workers=1, lease=SAFE_LEASE,
        ).execute(specs)
        assert [o.result for o in outcomes] == serial
        assert outcomes[0].result.error is None
