"""Tests for the resilient sweep executor.

The contract under test: runs execute inline (one job, no timeout) or
on persistent supervised worker processes with a wall-clock timeout;
every path classifies failures alike; every failed run is quarantined
after its one dispatch while the rest of the sweep completes; every
run a resumable sweep finishes is stored in the result cache, which
``resume`` replays, re-dispatching the failures -- also when two
sweeps share one cache dir; and a SIGINT drains the sweep without
orphaning workers, with every finished run stored.

Most tests use tiny *fake* workers (the ``worker=`` hook) so the
supervision machinery is exercised in milliseconds;
:class:`TestResilientRealRuns` drives real simulations.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import signal
import time

import pytest

from repro.experiments import parallel
from repro.experiments.executors import SweepExecutor
from repro.experiments.parallel import RunSpec
from repro.experiments.report import render_report
from repro.experiments.resilience import (
    FailureKind,
    ResilienceConfig,
    _Worker,
    classify_failure,
)
from repro.experiments.results import RunResult, aggregate_runs
from repro.experiments.scenarios import SimulationScenarioConfig
from repro.experiments.spec import ExperimentSpec

CFG = SimulationScenarioConfig(
    num_nodes=4, duration_s=1.0, warmup_s=0.1, topology_seed=1
)

#: Fast supervision knobs: a sub-second timeout.
FAST = ResilienceConfig(
    run_timeout_s=0.6,
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


@pytest.fixture
def dispatches(monkeypatch):
    """``(protocol, seed)`` of every run handed to a supervised worker,
    in dispatch order (recorded in the parent)."""
    seen = []
    original = _Worker.dispatch

    def recording_dispatch(self, spec, index, run_timeout_s):
        seen.append((spec.protocol, spec.seed))
        original(self, spec, index, run_timeout_s)

    monkeypatch.setattr(_Worker, "dispatch", recording_dispatch)
    return seen


# -- fake workers (module-level: must survive the process boundary) ----


def ok_worker(spec):
    return _quick_result(spec), 0.01


def hang_worker(spec):
    time.sleep(60.0)
    return _quick_result(spec), 60.0


def crash_worker(spec):
    os.kill(os.getpid(), signal.SIGABRT)


def sigkill_worker(spec):
    os.kill(os.getpid(), signal.SIGKILL)


def memory_worker(spec):
    raise MemoryError("allocation failure")


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
# is lost, so the sweep needs a replacement to make progress.  Seed 1
# fails on every dispatch.


def seed_one_crash_worker(spec):
    if spec.seed == 1:
        os.kill(os.getpid(), signal.SIGABRT)
    time.sleep(0.2)
    return _quick_result(spec), 0.2


def seed_one_hang_worker(spec):
    if spec.seed == 1:
        time.sleep(60.0)
    time.sleep(0.2)
    return _quick_result(spec), 0.2


def _specs(n: int = 1, protocol: str = "odmrp"):
    return [RunSpec(protocol, CFG, seed) for seed in range(1, n + 1)]


def _run(specs, worker, resilience=FAST, **kwargs):
    return SweepExecutor(
        jobs=kwargs.pop("jobs", 1), resilience=resilience, worker=worker,
        **kwargs,
    ).execute(specs)


def _stored(cache_dir, specs):
    """The specs whose results ``cache_dir`` holds, in spec order."""
    return [
        spec for spec in specs
        if parallel.cache_load(cache_dir, spec.cache_key()) is not None
    ]


class TestFailureClassification:
    """Satellite: one classification assertion per FailureKind."""

    def test_timeout_prefix(self):
        kind = classify_failure("TIMEOUT: run exceeded the 5.0s budget")
        assert kind is FailureKind.TIMEOUT

    def test_worker_crash_prefix(self):
        assert classify_failure(
            "WORKER_CRASH: worker process exited with code -6"
        ) is FailureKind.WORKER_CRASH

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


class TestSupervisedFailures:
    """Every failure kind is quarantined after the run's one dispatch."""

    def test_timeout_is_killed_and_quarantined(self, dispatches):
        quick_timeout = ResilienceConfig(
            run_timeout_s=0.3, kill_grace_s=0.3, poll_interval_s=0.02,
        )
        start = time.monotonic()
        [outcome] = _run(_specs(), hang_worker, resilience=quick_timeout)
        assert time.monotonic() - start < 10.0  # killed, not waited out
        assert outcome.failure_kind is FailureKind.TIMEOUT
        assert outcome.result.error.startswith("TIMEOUT")
        assert dispatches == [("odmrp", 1)]

    def test_hang_on_every_dispatch_is_quarantined_once(
        self, dispatches
    ):
        """A run that would hang however often it ran times out once, is
        quarantined, and the rest of the sweep completes; aggregation
        and the report both show the failure."""
        specs = _specs(3) + [RunSpec("spp", CFG, 2)]
        outcomes = _run(specs, seed_one_hang_worker, jobs=2)
        victim = outcomes[0]
        assert victim.failure_kind is FailureKind.TIMEOUT
        assert victim.result.error.startswith("TIMEOUT")
        assert [o.result for o in outcomes[1:]] == [
            _quick_result(spec) for spec in specs[1:]
        ]
        assert dispatches.count(("odmrp", 1)) == 1
        assert len(dispatches) == len(specs)
        results = [outcome.result for outcome in outcomes]
        aggregates = aggregate_runs(results)
        assert aggregates["odmrp"].failed_runs == 1
        assert aggregates["odmrp"].failure_kinds == {"timeout": 1}
        assert aggregates["spp"].failed_runs == 0
        report = render_report(results, title="quarantine")
        assert "quarantined" in report and "1 timeout" in report

    def test_worker_crash_is_quarantined_on_first_failure(
        self, dispatches
    ):
        [outcome] = _run(_specs(), crash_worker)
        assert outcome.failure_kind is FailureKind.WORKER_CRASH
        assert outcome.result.error.startswith("WORKER_CRASH")
        assert dispatches == [("odmrp", 1)]

    def test_sigkill_classifies_as_oom_and_quarantines(
        self, dispatches
    ):
        [outcome] = _run(_specs(), sigkill_worker)
        assert outcome.failure_kind is FailureKind.OOM
        assert outcome.result.error.startswith("OOM")
        assert dispatches == [("odmrp", 1)]

    def test_memory_error_is_oom_and_quarantined(self, dispatches):
        [outcome] = _run(_specs(), memory_worker)
        assert outcome.failure_kind is FailureKind.OOM
        assert "allocation failure" in outcome.result.error
        assert dispatches == [("odmrp", 1)]

    def test_plain_exception_is_not_retried(self, dispatches):
        [outcome] = _run(_specs(), value_error_worker)
        assert outcome.failure_kind is FailureKind.EXCEPTION
        assert "deterministic model bug" in outcome.result.error
        assert dispatches == [("odmrp", 1)]

    def test_invariant_violation_is_not_retried(self, dispatches):
        [outcome] = _run(_specs(), invariant_worker)
        assert outcome.failure_kind is FailureKind.INVARIANT
        assert dispatches == [("odmrp", 1)]

    def test_quarantined_run_does_not_block_the_rest(self):
        """Graceful degradation: the sweep completes around a failure."""
        specs = [RunSpec("odmrp", CFG, 1), RunSpec("spp", CFG, 1),
                 RunSpec("etx", CFG, 1)]
        mixed = SweepExecutor(
            jobs=2, resilience=FAST, worker=ok_if_not_spp_worker,
        ).execute(specs)
        assert [o.result.error is None for o in mixed] == [
            True, False, True
        ]
        assert mixed[1].failure_kind is FailureKind.EXCEPTION


class TestPersistentWorkers:
    def test_workers_serve_many_runs(self, process_starts):
        """A jobs=2 sweep of 6 runs starts at most 2 child processes."""
        specs = _specs(6)
        outcomes = _run(specs, ok_worker, jobs=2)
        assert [o.result for o in outcomes] == [
            _quick_result(spec) for spec in specs
        ]
        assert 1 <= len(process_starts) <= 2
        assert not any(proc.is_alive() for proc in process_starts)

    @pytest.mark.parametrize(
        "worker", [seed_one_crash_worker, seed_one_hang_worker]
    )
    def test_lost_worker_is_replaced(
        self, process_starts, dispatches, worker
    ):
        """A worker killed mid-run or put down on timeout is replaced
        once; its run is quarantined and every other run completes
        unchanged."""
        specs = _specs(6)
        outcomes = _run(specs, worker, jobs=2)
        assert outcomes[0].failure_kind is (
            FailureKind.WORKER_CRASH if worker is seed_one_crash_worker
            else FailureKind.TIMEOUT
        )
        assert [o.result for o in outcomes[1:]] == [
            _quick_result(spec) for spec in specs[1:]
        ]
        assert len(dispatches) == len(specs)
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


class TestResume:
    def test_resume_replays_completed_and_runs_the_rest(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        specs = _specs(3)
        first = _run(specs[:2], ok_worker, jobs=2, cache_dir=cache_dir)
        assert all(o.result.error is None for o in first)
        resumed = _run(
            specs, ok_worker, jobs=2, cache_dir=cache_dir, resume=True,
        )
        assert [o.from_cache for o in resumed] == [True, True, False]
        assert [o.result for o in resumed] == [
            _quick_result(spec) for spec in specs
        ]

    def test_resume_never_reexecutes_journaled_runs(self, tmp_path):
        """Runs an earlier resumable pass stored replay from the cache,
        even without ``use_cache``: the worker is never called."""
        cache_dir = str(tmp_path / "cache")
        specs = _specs(2)
        _run(specs, ok_worker, jobs=2, cache_dir=cache_dir)
        resumed = _run(
            specs, never_worker, jobs=2, cache_dir=cache_dir, resume=True,
        )
        assert all(o.from_cache for o in resumed)
        assert [o.result for o in resumed] == [
            _quick_result(spec) for spec in specs
        ]

    def test_resume_redispatches_failed_runs(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        specs = _specs(1)
        [quarantined] = _run(specs, value_error_worker, cache_dir=cache_dir,
                             resume=True, resilience=ResilienceConfig())
        assert quarantined.result.error is not None
        assert _stored(cache_dir, specs) == []  # failures are not stored
        [outcome] = _run(specs, ok_worker, cache_dir=cache_dir, resume=True)
        assert not outcome.from_cache
        assert outcome.result.error is None
        assert _stored(cache_dir, specs) == specs

    def test_sweeps_sharing_a_cache_dir_keep_each_others_runs(self, tmp_path):
        """Sweep A finishes while sweep B is mid-run on the same cache
        dir; B's runs stored before and after A finished all replay on
        B's resume, so the resume executes nothing."""
        cache_dir = str(tmp_path / "cache")

        def sweep(worker, resume=False, timeout=False):
            spec = ExperimentSpec(
                run_timeout_s=FAST.run_timeout_s if timeout else None,
            )
            return dataclasses.replace(
                SweepExecutor.for_spec(spec, cache_dir=cache_dir,
                                       resume=resume),
                resilience=FAST if timeout else ResilienceConfig(),
                worker=worker,
            )

        specs_a = _specs(1, protocol="etx")
        specs_b = _specs(2)
        # A's run failed once, so A's resume re-runs it and finishes.
        sweep(value_error_worker, resume=True).execute(specs_a)
        finished = []

        def finish_a_after_b_stores_one(protocol: str, seed: int) -> None:
            finished.append((protocol, seed))
            if len(finished) == 1:
                [outcome] = sweep(ok_worker, resume=True).execute(specs_a)
                assert outcome.result.error is None

        sweep(ok_worker, timeout=True).execute(
            specs_b, progress=finish_a_after_b_stores_one,
        )
        assert finished == [("odmrp", 1), ("odmrp", 2)]
        executed = []
        resumed = sweep(never_worker, resume=True, timeout=True).execute(
            specs_b, progress=lambda *run: executed.append(run),
        )
        assert executed == []
        assert [o.result for o in resumed] == [
            _quick_result(spec) for spec in specs_b
        ]
        assert _stored(cache_dir, specs_a + specs_b) == specs_a + specs_b


class TestSignalDraining:
    def test_sigint_drains_journals_and_raises(self, tmp_path):
        """Satellite: a SIGINT mid-sweep terminates children, leaves
        every finished run stored, and the sweep resumes to the full
        result."""
        cache_dir = str(tmp_path / "cache")
        specs = _specs(4)
        completions = {"count": 0}

        def interrupt_after_first(protocol: str, seed: int) -> None:
            completions["count"] += 1
            if completions["count"] == 1:
                os.kill(os.getpid(), signal.SIGINT)

        with pytest.raises(KeyboardInterrupt):
            SweepExecutor(
                jobs=1, resilience=FAST, cache_dir=cache_dir,
                worker=ok_worker,
            ).execute(specs, progress=interrupt_after_first)
        # No orphaned supervised workers linger.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and any(
            p.is_alive() for p in multiprocessing.active_children()
        ):
            time.sleep(0.05)
        assert not multiprocessing.active_children()
        # The stored runs load cleanly and are partial.
        stored = _stored(cache_dir, specs)
        assert 1 <= len(stored) < len(specs)
        # Resume finishes the sweep with identical results.
        resumed = SweepExecutor(
            jobs=2, resilience=FAST, cache_dir=cache_dir,
            resume=True, worker=ok_worker,
        ).execute(specs)
        assert [o.result for o in resumed] == [
            _quick_result(spec) for spec in specs
        ]
        assert [o.spec for o in resumed if o.from_cache] == stored

    def test_inline_sigint_stops_with_a_consistent_journal(
        self, tmp_path, process_starts
    ):
        cache_dir = str(tmp_path / "cache")
        specs = _specs(3)
        completions = {"count": 0}

        def interrupt_after_first(protocol: str, seed: int) -> None:
            completions["count"] += 1
            if completions["count"] == 1:
                os.kill(os.getpid(), signal.SIGINT)

        with pytest.raises(KeyboardInterrupt, match="1/3"):
            SweepExecutor(
                jobs=1, cache_dir=cache_dir, resume=True, worker=ok_worker,
            ).execute(specs, progress=interrupt_after_first)
        assert process_starts == []
        assert _stored(cache_dir, specs) == specs[:1]

    def test_signal_handlers_are_restored(self):
        before_int = signal.getsignal(signal.SIGINT)
        before_term = signal.getsignal(signal.SIGTERM)
        _run(_specs(1), ok_worker)
        assert signal.getsignal(signal.SIGINT) is before_int
        assert signal.getsignal(signal.SIGTERM) is before_term


class TestResilientRealRuns:
    """The supervisor must not perturb real simulation results."""

    TINY = SimulationScenarioConfig(
        num_nodes=6, area_width_m=400.0, area_height_m=400.0,
        num_groups=1, members_per_group=3, duration_s=6.0, warmup_s=2.0,
        topology_seed=1,
    )

    def test_supervised_run_matches_plain_executor(self):
        specs = [RunSpec("odmrp", self.TINY, 1)]
        plain = SweepExecutor(jobs=1).execute(specs)
        supervised = SweepExecutor(
            jobs=1, resilience=ResilienceConfig(run_timeout_s=120.0),
        ).execute(specs)
        assert [o.result for o in supervised] == [o.result for o in plain]
        assert supervised[0].result.error is None

    def test_corrupt_cache_entries_recompute_bit_identically(
        self, tmp_path, dead_pid
    ):
        """A truncated and a garbled cache entry are moved to
        ``.corrupt`` and recomputed to the clean sweep's results; a
        killed store's orphaned ``.tmp.<pid>`` file is removed."""
        cache_dir = str(tmp_path / "cache")
        specs = [RunSpec(protocol, self.TINY, 1)
                 for protocol in ("odmrp", "spp")]
        baseline = SweepExecutor(jobs=1).execute(specs)
        paths = []
        for spec, outcome in zip(specs, baseline):
            parallel.cache_store(cache_dir, spec.cache_key(), outcome.result)
            paths.append(parallel._cache_path(cache_dir, spec.cache_key()))
        with open(paths[0], "r", encoding="utf-8") as handle:
            text = handle.read()
        with open(paths[0], "w", encoding="utf-8") as handle:
            handle.write(text[: len(text) // 2])
        with open(paths[1], "w", encoding="utf-8") as handle:
            handle.write("{not json")
        orphan = paths[0] + f".tmp.{dead_pid}"
        with open(orphan, "w", encoding="utf-8") as handle:
            handle.write('{"half": "written')
        rebuilt = SweepExecutor(
            jobs=2, use_cache=True, cache_dir=cache_dir, resume=True,
        ).execute(specs)
        assert [o.result for o in rebuilt] == [o.result for o in baseline]
        assert not any(o.from_cache for o in rebuilt)
        assert all(os.path.exists(path + ".corrupt") for path in paths)
        assert not os.path.exists(orphan)

    def test_run_experiment_routes_through_supervisor(self, tmp_path):
        from repro.experiments.runner import run_experiment
        spec = ExperimentSpec(protocols=("odmrp",), seeds=(1,),
                              config=self.TINY)
        plain = run_experiment(spec)
        resilient = run_experiment(
            dataclasses.replace(spec, run_timeout_s=120.0),
            cache_dir=str(tmp_path / "cache"),
        )
        assert resilient == plain


class TestSpecResilienceKnobs:
    def test_round_trip_preserves_resilience_fields(self):
        spec = ExperimentSpec(
            name="resilient", protocols=("odmrp",), seeds=(1,),
            run_timeout_s=300.0,
        )
        for text, loader in (
            (spec.to_json(), ExperimentSpec.from_json),
            (spec.to_toml(), ExperimentSpec.from_toml),
        ):
            loaded = loader(text)
            assert loaded.run_timeout_s == 300.0

    def test_unset_knobs_are_omitted_on_write(self):
        data = ExperimentSpec(protocols=("odmrp",)).to_dict()
        assert "run_timeout_s" not in data

    def test_validate_rejects_bad_knobs(self):
        from repro.experiments.spec import SpecError

        with pytest.raises(SpecError):
            ExperimentSpec(protocols=("odmrp",),
                           run_timeout_s=-1.0).validate()

    def test_describe_mentions_resilience(self):
        text = ExperimentSpec(
            protocols=("odmrp",), run_timeout_s=60.0
        ).describe()
        assert "resilience:" in text
        assert "run-timeout=60s" in text
