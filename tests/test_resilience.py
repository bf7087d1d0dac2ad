"""Tests for the resilient sweep executor.

The contract under test: runs execute inline (one job, no timeout) or
on persistent supervised worker processes with a wall-clock timeout;
every path classifies failures alike; transient failures (timeouts, worker
crashes, OOM) retry with backoff while deterministic failures
quarantine immediately; every finished run lands in a durable journal
that ``resume`` replays; and a SIGINT drains the sweep without
orphaning workers or corrupting the journal.

Most tests use tiny *fake* workers (the ``worker=`` hook) so the
supervision machinery is exercised in milliseconds; the end-to-end
chaos suite against real simulations lives in ``test_chaos.py``.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.experiments.executors import SweepExecutor
from repro.experiments.parallel import RunSpec
from repro.experiments.report import render_report
from repro.experiments.resilience import (
    ATTEMPT_ENV,
    FailureKind,
    JournalRecord,
    ResilienceConfig,
    RetryPolicy,
    SweepJournal,
    classify_failure,
)
from repro.experiments.results import RunResult, aggregate_runs
from repro.experiments.scenarios import SimulationScenarioConfig

CFG = SimulationScenarioConfig(
    num_nodes=4, duration_s=1.0, warmup_s=0.1, topology_seed=1
)

#: Fast supervision knobs: sub-second timeout, near-instant backoff.
FAST = ResilienceConfig(
    run_timeout_s=0.6,
    retry=RetryPolicy(max_retries=1, backoff_base_s=0.01,
                      backoff_max_s=0.05),
    kill_grace_s=0.5,
    poll_interval_s=0.02,
)


def _quick_result(spec: RunSpec, delivered: int = 5) -> RunResult:
    return RunResult(
        protocol=spec.protocol.lower(), topology_seed=spec.seed,
        duration_s=1.0, offered_packets=10, expected_deliveries=10,
        delivered_packets=delivered, delivered_bytes=delivered * 512,
        mean_delay_s=0.01, probe_bytes=1.0,
    )


def _attempt() -> int:
    return int(os.environ.get(ATTEMPT_ENV, "0"))


# -- fake workers (module-level: must survive the process boundary) ----


def ok_worker(spec):
    return _quick_result(spec), 0.01


def hang_worker(spec):
    time.sleep(60.0)
    return _quick_result(spec), 60.0


def flaky_hang_worker(spec):
    if _attempt() == 0:
        time.sleep(60.0)
    return _quick_result(spec), 0.01


def flaky_crash_worker(spec):
    if _attempt() == 0:
        os.kill(os.getpid(), signal.SIGABRT)
    return _quick_result(spec), 0.01


def sigkill_worker(spec):
    os.kill(os.getpid(), signal.SIGKILL)


def flaky_memory_worker(spec):
    if _attempt() == 0:
        raise MemoryError("transient allocation failure")
    return _quick_result(spec), 0.01


def value_error_worker(spec):
    raise ValueError("deterministic model bug")


def invariant_worker(spec):
    from repro.validation.invariants import InvariantViolation

    raise InvariantViolation("channel-conservation", "ledger drifted",
                             time=1.0, protocol=spec.protocol,
                             seed=spec.seed)


def never_worker(spec):
    raise AssertionError("this spec should have replayed, not re-run")


# Slow enough that the other worker is still busy when seed 1's worker
# is lost, so the sweep needs a replacement to make progress.


def seed_one_crash_worker(spec):
    if spec.seed == 1 and _attempt() == 0:
        os.kill(os.getpid(), signal.SIGABRT)
    time.sleep(0.2)
    return _quick_result(spec), 0.2


def seed_one_hang_worker(spec):
    if spec.seed == 1 and _attempt() == 0:
        time.sleep(60.0)
    time.sleep(0.2)
    return _quick_result(spec), 0.2


def _specs(n: int = 1, protocol: str = "odmrp"):
    return [RunSpec(protocol, CFG, seed) for seed in range(1, n + 1)]


def _run(specs, worker, journal, resilience=FAST, **kwargs):
    return SweepExecutor(
        jobs=kwargs.pop("jobs", 1), resilience=resilience,
        journal_path=journal, worker=worker, **kwargs,
    ).execute(specs)


class TestFailureClassification:
    """Satellite: one classification assertion per FailureKind."""

    def test_timeout_prefix(self):
        kind = classify_failure("TIMEOUT: run exceeded the 5.0s budget")
        assert kind is FailureKind.TIMEOUT

    def test_worker_crash_prefix_and_legacy_pool_text(self):
        assert classify_failure(
            "WORKER_CRASH: worker process exited with code -6"
        ) is FailureKind.WORKER_CRASH
        legacy = (
            "Traceback ...\nBrokenProcessPool: A process in the "
            "process pool was terminated abruptly"
        )
        assert classify_failure(legacy) is FailureKind.WORKER_CRASH

    def test_oom_from_prefix_and_from_traceback(self):
        assert classify_failure("OOM: worker killed by SIGKILL") \
            is FailureKind.OOM
        trace = "Traceback ...\nMemoryError: allocation failed"
        assert classify_failure(trace) is FailureKind.OOM

    def test_invariant_from_traceback(self):
        trace = (
            "Traceback ...\nrepro.validation.invariants."
            "InvariantViolation: [channel-conservation] ledger drifted"
        )
        assert classify_failure(trace) is FailureKind.INVARIANT

    def test_exception_is_the_fallback(self):
        trace = "Traceback ...\nValueError: bad metric"
        assert classify_failure(trace) is FailureKind.EXCEPTION

    def test_success_is_none(self):
        assert classify_failure(None) is None
        assert classify_failure("") is None


class TestRetryPolicy:
    """Satellite: retry/no-retry policy per FailureKind."""

    @pytest.mark.parametrize("kind, retries", [
        (FailureKind.TIMEOUT, True),
        (FailureKind.WORKER_CRASH, True),
        (FailureKind.OOM, True),
        (FailureKind.INVARIANT, False),
        (FailureKind.EXCEPTION, False),
    ])
    def test_transient_kinds_retry_deterministic_kinds_do_not(
        self, kind, retries
    ):
        policy = RetryPolicy(max_retries=3)
        assert policy.should_retry(kind, attempt=0) is retries

    def test_budget_is_bounded(self):
        policy = RetryPolicy(max_retries=2)
        assert policy.should_retry(FailureKind.TIMEOUT, attempt=1)
        assert not policy.should_retry(FailureKind.TIMEOUT, attempt=2)

    def test_backoff_grows_is_capped_and_is_deterministic(self):
        policy = RetryPolicy(backoff_base_s=0.5, backoff_max_s=4.0)
        waits = [policy.backoff_s("key", attempt) for attempt in range(6)]
        assert waits == [policy.backoff_s("key", a) for a in range(6)]
        assert waits[0] >= 0.5
        assert all(wait <= 4.0 * 1.25 for wait in waits)
        assert waits[2] > waits[0]
        # Jitter depends on the key, so herds of retries spread out.
        assert policy.backoff_s("key", 0) != policy.backoff_s("other", 0)


class TestSupervisedFailures:
    def test_timeout_is_killed_and_quarantined(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        no_retry = ResilienceConfig(
            run_timeout_s=0.3,
            retry=RetryPolicy(max_retries=0),
            kill_grace_s=0.3, poll_interval_s=0.02,
        )
        start = time.monotonic()
        [outcome] = _run(_specs(), hang_worker, journal,
                         resilience=no_retry)
        assert time.monotonic() - start < 10.0  # killed, not waited out
        assert outcome.failure_kind is FailureKind.TIMEOUT
        assert outcome.attempts == 1
        assert outcome.result.error.startswith("TIMEOUT")

    def test_timeout_retries_to_success(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        [outcome] = _run(_specs(), flaky_hang_worker, journal)
        assert outcome.result.error is None
        assert outcome.attempts == 2
        assert outcome.result == _quick_result(outcome.spec)

    def test_worker_crash_retries_to_success(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        [outcome] = _run(_specs(), flaky_crash_worker, journal)
        assert outcome.result.error is None
        assert outcome.attempts == 2

    def test_sigkill_classifies_as_oom_and_exhausts(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        [outcome] = _run(_specs(), sigkill_worker, journal)
        assert outcome.failure_kind is FailureKind.OOM
        assert outcome.attempts == 2  # retried once, then quarantined
        assert outcome.result.error.startswith("OOM")

    def test_memory_error_is_oom_and_retryable(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        [outcome] = _run(_specs(), flaky_memory_worker, journal)
        assert outcome.result.error is None
        assert outcome.attempts == 2

    def test_plain_exception_is_not_retried(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        [outcome] = _run(_specs(), value_error_worker, journal)
        assert outcome.failure_kind is FailureKind.EXCEPTION
        assert outcome.attempts == 1
        assert "deterministic model bug" in outcome.result.error

    def test_invariant_violation_is_not_retried(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        [outcome] = _run(_specs(), invariant_worker, journal)
        assert outcome.failure_kind is FailureKind.INVARIANT
        assert outcome.attempts == 1

    def test_quarantined_run_does_not_block_the_rest(self, tmp_path):
        """Graceful degradation: the sweep completes around a failure."""
        specs = [RunSpec("odmrp", CFG, 1), RunSpec("spp", CFG, 1),
                 RunSpec("etx", CFG, 1)]
        mixed = SweepExecutor(
            jobs=2, resilience=FAST,
            journal_path=str(tmp_path / "mixed.jsonl"),
            worker=ok_if_not_spp_worker,
        ).execute(specs)
        assert [o.result.error is None for o in mixed] == [
            True, False, True
        ]
        assert mixed[1].failure_kind is FailureKind.EXCEPTION


class TestPersistentWorkers:
    def test_workers_serve_many_runs(self, tmp_path, process_starts):
        """A jobs=2 sweep of 6 runs starts at most 2 child processes."""
        specs = _specs(6)
        outcomes = _run(specs, ok_worker, str(tmp_path / "j.jsonl"),
                        jobs=2)
        assert [o.result for o in outcomes] == [
            _quick_result(spec) for spec in specs
        ]
        assert 1 <= len(process_starts) <= 2
        assert not any(proc.is_alive() for proc in process_starts)

    @pytest.mark.parametrize(
        "worker", [seed_one_crash_worker, seed_one_hang_worker]
    )
    def test_lost_worker_is_replaced(self, tmp_path, process_starts, worker):
        """A worker killed mid-run or put down on timeout is replaced
        once; its run retries and every other run completes unchanged."""
        journal = str(tmp_path / "j.jsonl")
        specs = _specs(6)
        outcomes = _run(specs, worker, journal, jobs=2)
        assert [o.result for o in outcomes] == [
            _quick_result(spec) for spec in specs
        ]
        assert [o.attempts for o in outcomes] == [2, 1, 1, 1, 1, 1]
        assert len(process_starts) == 3
        assert process_starts[0].exitcode != 0  # seed 1's lost worker
        assert not any(proc.is_alive() for proc in process_starts)

    def test_inline_exception_is_classified(self, process_starts):
        """One job and no timeout runs inline, through the same
        classification as worker runs."""
        [outcome] = SweepExecutor(
            jobs=1, worker=value_error_worker
        ).execute(_specs(1))
        assert process_starts == []
        assert outcome.failure_kind is FailureKind.EXCEPTION
        assert outcome.result.error.startswith("EXCEPTION: ")
        assert "deterministic model bug" in outcome.result.error

    def test_inline_real_failure_is_classified(self, process_starts):
        [outcome] = SweepExecutor(jobs=1).execute(
            [RunSpec("not-a-protocol", CFG, 1)]
        )
        assert process_starts == []
        assert outcome.failure_kind is FailureKind.EXCEPTION
        assert outcome.result.error.startswith("EXCEPTION: ")


def ok_if_not_spp_worker(spec):
    if spec.protocol == "spp":
        raise ValueError("spp is cursed today")
    return _quick_result(spec), 0.01


class TestTaxonomySurfacesInAggregatesAndReport:
    """Satellite: AggregateResult.failed_runs/failure_kinds + the
    report's data-quality note reflect each FailureKind."""

    @pytest.mark.parametrize("kind", list(FailureKind))
    def test_kind_lands_in_aggregate_and_report(self, kind):
        good = _quick_result(RunSpec("odmrp", CFG, 1))
        bad = _quick_result(RunSpec("odmrp", CFG, 2), delivered=0)
        bad.delivered_bytes = 0
        bad.error = f"{kind.name}: synthesized failure for the test"
        aggregates = aggregate_runs([good, bad])
        agg = aggregates["odmrp"]
        assert agg.failed_runs == 1
        assert agg.failure_kinds == {kind.value: 1}
        report = render_report([good, bad], title="taxonomy")
        assert "Data-quality note" in report
        assert "quarantined" in report
        assert f"1 {kind.value}" in report

    def test_all_runs_failed_still_renders_the_hole(self):
        bad = _quick_result(RunSpec("odmrp", CFG, 1), delivered=0)
        bad.delivered_bytes = 0
        bad.error = "TIMEOUT: everything is on fire"
        ok = _quick_result(RunSpec("spp", CFG, 1))
        report = render_report([bad, ok], title="degraded")
        assert "1 timeout" in report
        aggregates = aggregate_runs([bad, ok])
        assert aggregates["odmrp"].runs == 0
        assert aggregates["odmrp"].failure_kinds == {"timeout": 1}


class TestJournal:
    def test_round_trip_last_record_wins(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        spec = RunSpec("odmrp", CFG, 1)
        failed = _quick_result(spec, delivered=0)
        failed.delivered_bytes = 0
        failed.error = "TIMEOUT: first try"
        with SweepJournal(path) as journal:
            journal.record(spec, failed, attempts=1, elapsed_s=0.5,
                           failure_kind=FailureKind.TIMEOUT)
            journal.record(spec, _quick_result(spec), attempts=2,
                           elapsed_s=0.7)
        records = SweepJournal.replay(path)
        assert len(records) == 1
        record = records[spec.cache_key()]
        assert record.ok and record.attempts == 2
        assert record.to_run_result() == _quick_result(spec)

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        spec = RunSpec("odmrp", CFG, 1)
        with SweepJournal(path) as journal:
            journal.record(spec, _quick_result(spec), attempts=1,
                           elapsed_s=0.1)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"schema": 1, "key": "abc", "trunc')
        records = SweepJournal.replay(path)
        assert list(records) == [spec.cache_key()]

    def test_unknown_schema_records_are_ignored(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"schema": 999, "key": "x"}) + "\n")
        assert SweepJournal.replay(path) == {}

    def test_missing_journal_is_empty(self, tmp_path):
        assert SweepJournal.replay(str(tmp_path / "nope.jsonl")) == {}

    def test_journal_record_schema_drift_returns_none(self):
        record = JournalRecord(
            key="k", protocol="odmrp", seed=1, status="ok", attempts=1,
            elapsed_s=0.1, failure_kind=None,
            result={"not_a_runresult_field": 1},
        )
        assert record.to_run_result() is None


class TestJournalCompaction:
    def _failed(self, spec):
        result = _quick_result(spec, delivered=0)
        result.delivered_bytes = 0
        result.error = "TIMEOUT: first try"
        return result

    def test_compact_keeps_only_surviving_records(self, tmp_path):
        """Regression: a journal with retries plus a torn trailing line
        compacts to exactly the surviving record per key."""
        path = str(tmp_path / "journal.jsonl")
        specs = _specs(2)
        with SweepJournal(path) as journal:
            journal.record(specs[0], self._failed(specs[0]), attempts=1,
                           elapsed_s=0.5,
                           failure_kind=FailureKind.TIMEOUT)
            journal.record(specs[0], _quick_result(specs[0]),
                           attempts=2, elapsed_s=0.7)
            journal.record(specs[1], _quick_result(specs[1]),
                           attempts=1, elapsed_s=0.3)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"schema": 1, "key": "abc", "trunc')
        before = SweepJournal.replay(path)
        dropped = SweepJournal.compact(path)
        assert dropped == 2  # the superseded attempt + the torn line
        with open(path, "rb") as handle:
            lines = [line for line in handle if line.strip()]
        assert len(lines) == 2
        # Replay semantics are unchanged, byte-for-byte.
        assert SweepJournal.replay(path) == before
        assert SweepJournal.replay(path)[specs[0].cache_key()].attempts \
            == 2

    def test_compact_with_nothing_to_drop_leaves_the_file_alone(
        self, tmp_path
    ):
        path = str(tmp_path / "journal.jsonl")
        [spec] = _specs(1)
        with SweepJournal(path) as journal:
            journal.record(spec, _quick_result(spec), attempts=1,
                           elapsed_s=0.1)
        with open(path, "rb") as handle:
            before = handle.read()
        assert SweepJournal.compact(path) == 0
        with open(path, "rb") as handle:
            assert handle.read() == before

    def test_compact_missing_journal_is_a_noop(self, tmp_path):
        assert SweepJournal.compact(str(tmp_path / "nope.jsonl")) == 0

    def test_killed_compaction_orphan_is_swept(self, tmp_path):
        """A compaction SIGKILLed mid-rewrite leaves
        ``<journal>.tmp.<pid>`` behind; the next journaled sweep removes
        it, and the journal still replays."""
        journal = str(tmp_path / "journal.jsonl")
        specs = _specs(2)
        _run(specs[:1], ok_worker, journal)
        orphan = journal + ".tmp.99999"
        with open(orphan, "wb") as handle:
            handle.write(b'{"schema": 1, "key": "half')
        outcomes = _run(specs, ok_worker, journal, resume=True)
        assert not os.path.exists(orphan)
        assert [o.from_journal for o in outcomes] == [True, False]
        assert set(SweepJournal.replay(journal)) == {
            spec.cache_key() for spec in specs
        }

    def _preseed_superseded(self, journal, spec):
        """A failed earlier attempt that a fresh record will shadow."""
        with SweepJournal(journal) as handle:
            handle.record(spec, self._failed(spec), attempts=1,
                          elapsed_s=0.5,
                          failure_kind=FailureKind.TIMEOUT)

    def test_clean_completion_autocompacts(self, tmp_path):
        """On clean completion the executor compacts the journal:
        superseded records (here a pre-seeded failed attempt) are
        dropped, leaving one line per run."""
        journal = str(tmp_path / "journal.jsonl")
        specs = _specs(2)
        self._preseed_superseded(journal, specs[0])
        outcomes = _run(specs, ok_worker, journal)
        assert all(o.result.error is None for o in outcomes)
        with open(journal, "rb") as handle:
            lines = [line for line in handle if line.strip()]
        assert len(lines) == len(specs)
        assert SweepJournal.replay(journal)[specs[0].cache_key()].ok

    def test_interrupted_sweep_does_not_compact(self, tmp_path):
        """A drained-on-SIGINT journal keeps its full history; only a
        *completed* sweep compacts."""
        journal = str(tmp_path / "journal.jsonl")
        specs = _specs(3)
        self._preseed_superseded(journal, specs[0])
        completions = {"count": 0}

        def interrupt_after_first(protocol: str, seed: int) -> None:
            completions["count"] += 1
            if completions["count"] == 1:
                os.kill(os.getpid(), signal.SIGINT)

        with pytest.raises(KeyboardInterrupt):
            SweepExecutor(
                jobs=1, resilience=FAST, journal_path=journal,
                worker=ok_worker,
            ).execute(specs, progress=interrupt_after_first)
        # The superseded pre-seeded line survives the interrupt.
        with open(journal, "rb") as handle:
            lines = [line for line in handle if line.strip()]
        records = SweepJournal.replay(journal)
        assert len(lines) > len(records)


class TestResume:
    def test_resume_replays_completed_and_runs_the_rest(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        specs = _specs(3)
        first = _run(specs[:2], ok_worker, journal, jobs=2)
        assert all(o.result.error is None for o in first)
        resumed = SweepExecutor(
            jobs=2, resilience=FAST, journal_path=journal,
            resume=True, worker=ok_worker,
        ).execute(specs)
        assert [o.from_journal for o in resumed] == [True, True, False]
        assert [o.result for o in resumed] == [
            _quick_result(spec) for spec in specs
        ]

    def test_resume_never_reexecutes_journaled_runs(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        specs = _specs(2)
        _run(specs, ok_worker, journal, jobs=2)
        resumed = SweepExecutor(
            jobs=2, resilience=FAST, journal_path=journal,
            resume=True, worker=never_worker,
        ).execute(specs)
        assert all(o.from_journal for o in resumed)

    def test_resume_redispatches_failed_runs(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        specs = _specs(1)
        no_retry = ResilienceConfig(
            run_timeout_s=None, retry=RetryPolicy(max_retries=0),
        )
        [quarantined] = _run(specs, value_error_worker, journal,
                             resilience=no_retry)
        assert quarantined.result.error is not None
        [outcome] = SweepExecutor(
            resilience=FAST, journal_path=journal, resume=True,
            worker=ok_worker,
        ).execute(specs)
        assert not outcome.from_journal
        assert outcome.result.error is None
        # The journal's last record for the key is now the success.
        record = SweepJournal.replay(journal)[specs[0].cache_key()]
        assert record.ok


class TestSignalDraining:
    def test_sigint_drains_journals_and_raises(self, tmp_path):
        """Satellite: a SIGINT mid-sweep terminates children, leaves a
        consistent journal, and the sweep resumes to the full result."""
        journal = str(tmp_path / "journal.jsonl")
        specs = _specs(4)
        completions = {"count": 0}

        def interrupt_after_first(protocol: str, seed: int) -> None:
            completions["count"] += 1
            if completions["count"] == 1:
                os.kill(os.getpid(), signal.SIGINT)

        with pytest.raises(KeyboardInterrupt):
            SweepExecutor(
                jobs=1, resilience=FAST, journal_path=journal,
                worker=ok_worker,
            ).execute(specs, progress=interrupt_after_first)
        # No orphaned supervised workers linger.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and any(
            p.is_alive() for p in multiprocessing.active_children()
        ):
            time.sleep(0.05)
        assert not multiprocessing.active_children()
        # The journal replays cleanly and is partial, not torn.
        records = SweepJournal.replay(journal)
        assert 1 <= len(records) < len(specs)
        assert all(record.ok for record in records.values())
        # Resume finishes the sweep with identical results.
        resumed = SweepExecutor(
            jobs=2, resilience=FAST, journal_path=journal,
            resume=True, worker=ok_worker,
        ).execute(specs)
        assert [o.result for o in resumed] == [
            _quick_result(spec) for spec in specs
        ]
        assert sum(1 for o in resumed if o.from_journal) == len(records)

    def test_inline_sigint_stops_with_a_consistent_journal(
        self, tmp_path, process_starts
    ):
        journal = str(tmp_path / "journal.jsonl")
        specs = _specs(3)
        completions = {"count": 0}

        def interrupt_after_first(protocol: str, seed: int) -> None:
            completions["count"] += 1
            if completions["count"] == 1:
                os.kill(os.getpid(), signal.SIGINT)

        with pytest.raises(KeyboardInterrupt, match="1/3"):
            SweepExecutor(
                jobs=1, journal_path=journal, worker=ok_worker,
            ).execute(specs, progress=interrupt_after_first)
        assert process_starts == []
        records = SweepJournal.replay(journal)
        assert list(records) == [specs[0].cache_key()]
        assert records[specs[0].cache_key()].ok

    def test_signal_handlers_are_restored(self, tmp_path):
        before_int = signal.getsignal(signal.SIGINT)
        before_term = signal.getsignal(signal.SIGTERM)
        _run(_specs(1), ok_worker, str(tmp_path / "journal.jsonl"))
        assert signal.getsignal(signal.SIGINT) is before_int
        assert signal.getsignal(signal.SIGTERM) is before_term


class TestResilientRealRuns:
    """The supervisor must not perturb real simulation results."""

    TINY = SimulationScenarioConfig(
        num_nodes=6, area_width_m=400.0, area_height_m=400.0,
        num_groups=1, members_per_group=3, duration_s=6.0, warmup_s=2.0,
        topology_seed=1,
    )

    def test_supervised_run_matches_plain_executor(self, tmp_path):
        specs = [RunSpec("odmrp", self.TINY, 1)]
        plain = SweepExecutor(jobs=1).execute(specs)
        supervised = SweepExecutor(
            jobs=1,
            resilience=ResilienceConfig(run_timeout_s=120.0),
            journal_path=str(tmp_path / "journal.jsonl"),
        ).execute(specs)
        assert [o.result for o in supervised] == [o.result for o in plain]
        assert supervised[0].result.error is None

    def test_run_experiment_routes_through_supervisor(self, tmp_path):
        from repro.experiments.runner import run_experiment
        from repro.experiments.spec import ExperimentSpec

        spec = ExperimentSpec(protocols=("odmrp",), seeds=(1,),
                              config=self.TINY)
        plain = run_experiment(spec)
        resilient = run_experiment(
            dataclasses.replace(spec, run_timeout_s=120.0, max_retries=1),
            journal_path=str(tmp_path / "journal.jsonl"),
        )
        assert resilient == plain


class TestSpecResilienceKnobs:
    def test_round_trip_preserves_resilience_fields(self):
        from repro.experiments.spec import ExperimentSpec

        spec = ExperimentSpec(
            name="resilient", protocols=("odmrp",), seeds=(1,),
            run_timeout_s=300.0, max_retries=3,
        )
        for text, loader in (
            (spec.to_json(), ExperimentSpec.from_json),
            (spec.to_toml(), ExperimentSpec.from_toml),
        ):
            loaded = loader(text)
            assert loaded.run_timeout_s == 300.0
            assert loaded.max_retries == 3

    def test_unset_knobs_are_omitted_on_write(self):
        from repro.experiments.spec import ExperimentSpec

        data = ExperimentSpec(protocols=("odmrp",)).to_dict()
        assert "run_timeout_s" not in data
        assert "max_retries" not in data

    def test_validate_rejects_bad_knobs(self):
        from repro.experiments.spec import ExperimentSpec, SpecError

        with pytest.raises(SpecError):
            ExperimentSpec(protocols=("odmrp",),
                           run_timeout_s=-1.0).validate()
        with pytest.raises(SpecError):
            ExperimentSpec(protocols=("odmrp",),
                           max_retries=-2).validate()

    def test_describe_mentions_resilience(self):
        from repro.experiments.spec import ExperimentSpec

        text = ExperimentSpec(
            protocols=("odmrp",), run_timeout_s=60.0, max_retries=2
        ).describe()
        assert "resilience:" in text
        assert "run-timeout=60s" in text
