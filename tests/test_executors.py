"""Tests for the sweep executor.

The contract under test: :class:`SweepExecutor` runs every sweep
through its one engine, inline for one job without a timeout and on
workers otherwise, reading and writing the result cache exactly when
:meth:`SweepExecutor.execute`'s rule says so -- and it keeps the names
the end-to-end benchmark harness imports and patches.
"""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro.experiments import parallel, runner
from repro.experiments.executors import SweepExecutor
from repro.experiments.parallel import RunSpec
from repro.experiments.resilience import ResilienceConfig
from repro.experiments.results import RunResult
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import SimulationScenarioConfig
from repro.experiments.spec import ExperimentSpec

CFG = SimulationScenarioConfig(
    num_nodes=4, duration_s=1.0, warmup_s=0.1, topology_seed=1
)

#: Smallest connectable mesh: real runs in well under a second.
TINY = SimulationScenarioConfig(
    num_nodes=6, area_width_m=400.0, area_height_m=400.0,
    num_groups=1, members_per_group=3, duration_s=4.0,
    warmup_s=1.0, topology_seed=1,
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


class TestForSpecRouting:
    def test_default_is_plain_local_pool(self, tmp_path):
        """No knob: one job runs inline and stores nothing."""
        executor = dataclasses.replace(
            SweepExecutor.for_spec(ExperimentSpec(), cache_dir=str(tmp_path)),
            worker=pid_worker,
        )
        assert _ran_inline(executor)
        assert list(tmp_path.iterdir()) == []
        assert SweepExecutor.for_spec(ExperimentSpec(jobs=2)).jobs == 2

    @pytest.mark.parametrize("spec_fields, kwargs", [
        ({"run_timeout_s": 30.0}, {}),
        ({}, {"resume": True}),
        ({}, {}),
    ])
    def test_any_resilience_knob_selects_the_supervisor(
        self, spec_fields, kwargs, tmp_path
    ):
        """The dispatch rule: one job runs inline unless a timeout needs
        a worker to kill.  The storage rule: a resumable sweep (resume
        or a timeout set) stores its runs in the cache without
        ``use_cache``; a plain one stores nothing."""
        executor = dataclasses.replace(
            SweepExecutor.for_spec(
                ExperimentSpec(**spec_fields), cache_dir=str(tmp_path),
                **kwargs,
            ),
            worker=pid_worker,
        )
        assert _ran_inline(executor) is ("run_timeout_s" not in spec_fields)
        stored = [path.name for path in tmp_path.iterdir()]
        assert stored == (
            [f"{RunSpec('odmrp', CFG, 1).cache_key()}.json"]
            if spec_fields or kwargs else []
        )

    def test_timeout_reaches_the_resilience_config(self):
        executor = SweepExecutor.for_spec(ExperimentSpec(run_timeout_s=12.0))
        assert executor.resilience.run_timeout_s == 12.0
        assert SweepExecutor.for_spec(
            ExperimentSpec()
        ).resilience == ResilienceConfig()


class TestSweepExecutor:
    def test_resilient_path_supervises(self, tmp_path):
        specs = [RunSpec("odmrp", CFG, 1), RunSpec("odmrp", CFG, 2)]
        executor = SweepExecutor(
            jobs=2, resilience=ResilienceConfig(run_timeout_s=30.0),
            cache_dir=str(tmp_path), worker=ok_worker,
        )
        outcomes = executor.execute(specs)
        assert [o.result for o in outcomes] == [
            _quick_result(spec) for spec in specs
        ]
        assert [
            parallel.cache_load(str(tmp_path), spec.cache_key())
            for spec in specs
        ] == [o.result for o in outcomes]

    def test_progress_fires_per_run(self):
        seen = []
        executor = SweepExecutor(jobs=1, worker=ok_worker)
        executor.execute(
            [RunSpec("odmrp", CFG, 1), RunSpec("spp", CFG, 2)],
            progress=lambda protocol, seed: seen.append((protocol, seed)),
        )
        assert sorted(seen) == [("odmrp", 1), ("spp", 2)]


class TestFrozenContract:
    """What ``benchmarks/e2e`` imports and patches must stay put."""

    def test_execute_is_defined_on_the_class(self):
        assert "execute" in vars(SweepExecutor)

    def test_grid_sweep_calls_execute_once(self, monkeypatch):
        batches = []
        execute = SweepExecutor.execute

        def counting(executor, specs, progress=None):
            batches.append(len(specs))
            return execute(executor, specs, progress=progress)

        monkeypatch.setattr(SweepExecutor, "execute", counting)
        runs = run_experiment(ExperimentSpec(
            protocols=("odmrp", "spp"), seeds=(1, 2), config=TINY,
        ))
        assert batches == [4]
        assert len(runs) == 4
        assert all(type(run) is RunResult for run in runs)
        assert all(run.error is None for run in runs)

    def test_runs_go_through_module_globals(self, monkeypatch, tmp_path):
        """Build and collect through ``runner``, cache I/O through
        ``parallel``: the attributes the harness patches."""
        calls = []
        for module, name in (
            (runner, "build_simulation_scenario"),
            (runner, "collect_result"),
            (parallel, "cache_load"),
            (parallel, "cache_store"),
        ):
            original = getattr(module, name)

            def traced(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, traced)
        [run] = run_experiment(
            ExperimentSpec(
                protocols=("odmrp",), seeds=(1,), use_cache=True,
                config=TINY,
            ),
            cache_dir=str(tmp_path),
        )
        assert run.error is None
        assert calls == [
            "cache_load", "build_simulation_scenario", "collect_result",
            "cache_store",
        ]
