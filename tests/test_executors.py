"""Tests for the sweep executor.

The contract under test: :class:`SweepExecutor` runs every sweep
through the one engine, inline for one job without a timeout and on
workers otherwise, journaling exactly when the journal rule says so.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.executors import SweepExecutor, create_executor
from repro.experiments.parallel import RunSpec
from repro.experiments.resilience import (
    ResilienceConfig,
    RetryPolicy,
    execute_runs_detailed,
)
from repro.experiments.results import RunResult
from repro.experiments.scenarios import SimulationScenarioConfig

CFG = SimulationScenarioConfig(
    num_nodes=4, duration_s=1.0, warmup_s=0.1, topology_seed=1
)


def _quick_result(spec: RunSpec) -> RunResult:
    return RunResult(
        protocol=spec.protocol.lower(), topology_seed=spec.seed,
        duration_s=1.0, offered_packets=10, expected_deliveries=10,
        delivered_packets=5, delivered_bytes=5 * 512,
        mean_delay_s=0.01, probe_bytes=1.0,
    )


def ok_worker(spec):
    return _quick_result(spec), 0.01


def pid_worker(spec):
    """Reports the process the run executed in."""
    result = _quick_result(spec)
    result.counters = {"pid": os.getpid()}
    return result, 0.01


def _ran_inline(executor) -> bool:
    [outcome] = executor.execute([RunSpec("odmrp", CFG, 1)])
    assert outcome.result.error is None
    return outcome.result.counters["pid"] == os.getpid()


class TestCreateExecutorRouting:
    def test_default_is_plain_local_pool(self, tmp_path):
        """No knob: one job runs inline, with no journal."""
        executor = create_executor(
            cache_dir=str(tmp_path), worker_fn=pid_worker
        )
        assert executor.journal_path is None
        assert _ran_inline(executor)
        assert list(tmp_path.iterdir()) == []
        assert create_executor(jobs=2).jobs == 2

    @pytest.mark.parametrize("kwargs", [
        {"run_timeout_s": 30.0},
        {"max_retries": 1},
        {"resume": True},
        {"journal_path": "j.jsonl"},
        {"worker_fn": ok_worker},
    ])
    def test_any_resilience_knob_selects_the_supervisor(
        self, kwargs, tmp_path
    ):
        """The dispatch rule: one job runs inline unless a timeout needs
        a worker to kill.  The journal rule: an explicit path, or the
        default one when resume, a timeout or a retry budget is set."""
        kwargs = dict(kwargs)
        if "journal_path" in kwargs:
            kwargs["journal_path"] = str(tmp_path / kwargs["journal_path"])
        kwargs["worker_fn"] = pid_worker
        executor = create_executor(cache_dir=str(tmp_path), **kwargs)
        assert _ran_inline(executor) is ("run_timeout_s" not in kwargs)
        journaled = set(kwargs) & {
            "run_timeout_s", "max_retries", "resume", "journal_path"
        }
        if journaled:
            assert os.path.exists(executor.journal_path)
        else:
            assert executor.journal_path is None

    def test_retry_budget_reaches_the_resilience_config(self):
        executor = create_executor(run_timeout_s=12.0, max_retries=5)
        assert executor.resilience.run_timeout_s == 12.0
        assert executor.resilience.retry.max_retries == 5
        assert create_executor().resilience.retry == RetryPolicy()


class TestSweepExecutor:
    def test_plain_path_matches_execute_runs_detailed(self):
        tiny = SimulationScenarioConfig(
            num_nodes=6, area_width_m=400.0, area_height_m=400.0,
            num_groups=1, members_per_group=3, duration_s=4.0,
            warmup_s=1.0, topology_seed=1,
        )
        specs = [RunSpec("odmrp", tiny, 1)]
        direct = execute_runs_detailed(specs, jobs=1)
        routed = SweepExecutor(jobs=1).execute(specs)
        assert [o.result for o in routed] == [o.result for o in direct]
        assert routed[0].result.error is None

    def test_resilient_path_supervises(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        specs = [RunSpec("odmrp", CFG, 1), RunSpec("odmrp", CFG, 2)]
        executor = SweepExecutor(
            jobs=2, resilience=ResilienceConfig(run_timeout_s=30.0),
            journal_path=journal, worker=ok_worker,
        )
        outcomes = executor.execute(specs)
        assert [o.result for o in outcomes] == [
            _quick_result(spec) for spec in specs
        ]
        from repro.experiments.resilience import SweepJournal

        assert len(SweepJournal.replay(journal)) == len(specs)

    def test_progress_fires_per_run(self):
        seen = []
        executor = SweepExecutor(jobs=1, worker=ok_worker)
        executor.execute(
            [RunSpec("odmrp", CFG, 1), RunSpec("spp", CFG, 2)],
            progress=lambda protocol, seed: seen.append((protocol, seed)),
        )
        assert sorted(seen) == [("odmrp", 1), ("spp", 2)]
