"""Tests for the chaos harness (:mod:`repro.experiments.chaos`).

The plan/injection plumbing is cheap and runs in tier-1.  The full
fault-storm harness drives real simulations through kills, hangs and
cache corruption, so it is opt-in: ``pytest -m chaos`` (CI runs it as a
dedicated bounded job) or ``repro chaos --quick`` from the CLI.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.chaos import (
    CHAOS_ACTIONS,
    CHAOS_PLAN_ENV,
    ChaosFault,
    ChaosPlan,
    active_plan,
    chaos_config,
    corrupt_cache_entry,
    maybe_inject_fault,
    run_chaos,
)
from repro.experiments.parallel import RunSpec, cache_load, cache_store
from repro.experiments.results import RunResult
from repro.experiments.scenarios import SimulationScenarioConfig

CFG = SimulationScenarioConfig(num_nodes=4, duration_s=1.0, warmup_s=0.1)


class TestChaosPlan:
    def test_round_trip(self, tmp_path):
        plan = ChaosPlan(faults=(
            ChaosFault("odmrp", 1, "crash"),
            ChaosFault("spp", 2, "hang", attempt=None, hang_s=9.0),
        ))
        path = plan.save(str(tmp_path / "plan.json"))
        loaded = ChaosPlan.load(path)
        assert loaded == plan

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos action"):
            ChaosFault("odmrp", 1, "set-on-fire")

    def test_fault_matching_by_attempt(self):
        first_only = ChaosFault("odmrp", 1, "crash", attempt=0)
        every = ChaosFault("odmrp", 1, "crash", attempt=None)
        assert first_only.matches("ODMRP", 1, 0)
        assert not first_only.matches("odmrp", 1, 1)
        assert every.matches("odmrp", 1, 3)
        assert not every.matches("odmrp", 2, 0)

    def test_plan_returns_first_matching_fault(self):
        plan = ChaosPlan(faults=(
            ChaosFault("odmrp", 1, "crash"),
            ChaosFault("odmrp", 1, "hang"),
        ))
        fault = plan.fault_for("odmrp", 1, 0)
        assert fault is not None and fault.action == "crash"
        assert plan.fault_for("spp", 1, 0) is None

    def test_all_actions_constructible(self):
        for action in CHAOS_ACTIONS:
            ChaosFault("odmrp", 1, action)


class TestPlanArming:
    def test_active_plan_sets_and_restores_env(self, tmp_path):
        plan = ChaosPlan(faults=(ChaosFault("odmrp", 1, "exception"),))
        before = os.environ.get(CHAOS_PLAN_ENV)
        with active_plan(plan, str(tmp_path)) as path:
            assert os.environ[CHAOS_PLAN_ENV] == path
            assert ChaosPlan.load(path) == plan
        assert os.environ.get(CHAOS_PLAN_ENV) == before

    def test_injection_noop_without_plan(self, monkeypatch):
        monkeypatch.delenv(CHAOS_PLAN_ENV, raising=False)
        maybe_inject_fault(RunSpec("odmrp", CFG, 1), attempt=0)

    def test_injection_noop_with_unreadable_plan(self, monkeypatch,
                                                 tmp_path):
        bad = tmp_path / "plan.json"
        bad.write_text("{torn", encoding="utf-8")
        monkeypatch.setenv(CHAOS_PLAN_ENV, str(bad))
        maybe_inject_fault(RunSpec("odmrp", CFG, 1), attempt=0)

    def test_exception_fault_raises_in_process(self, monkeypatch,
                                               tmp_path):
        from repro.experiments.chaos import ChaosError

        plan = ChaosPlan(faults=(ChaosFault("odmrp", 1, "exception"),))
        with active_plan(plan, str(tmp_path)):
            with pytest.raises(ChaosError):
                maybe_inject_fault(RunSpec("odmrp", CFG, 1), attempt=0)
            # Wrong attempt / wrong spec: untouched.
            maybe_inject_fault(RunSpec("odmrp", CFG, 1), attempt=1)
            maybe_inject_fault(RunSpec("spp", CFG, 1), attempt=0)


class TestCacheCorruption:
    def _result(self, spec: RunSpec) -> RunResult:
        return RunResult(
            protocol=spec.protocol, topology_seed=spec.seed,
            duration_s=1.0, offered_packets=1, expected_deliveries=1,
            delivered_packets=1, delivered_bytes=512,
            mean_delay_s=0.01, probe_bytes=1.0,
        )

    def test_corrupt_missing_entry_returns_false(self, tmp_path):
        assert not corrupt_cache_entry(
            str(tmp_path), RunSpec("odmrp", CFG, 1)
        )

    @pytest.mark.parametrize("mode", ["truncate", "garbage"])
    def test_corrupted_entry_becomes_a_miss(self, tmp_path, mode):
        cache_dir = str(tmp_path)
        spec = RunSpec("odmrp", CFG, 1)
        cache_store(cache_dir, spec.cache_key(), self._result(spec))
        assert cache_load(cache_dir, spec.cache_key()) is not None
        assert corrupt_cache_entry(cache_dir, spec, mode=mode)
        assert cache_load(cache_dir, spec.cache_key()) is None


def test_chaos_config_is_tiny():
    quick = chaos_config(quick=True)
    full = chaos_config(quick=False)
    assert quick.num_nodes <= 8
    assert quick.duration_s < full.duration_s


@pytest.mark.chaos
def test_chaos_harness_quick(tmp_path):
    """End-to-end: inject kills/hangs/corruption against real runs and
    assert the supervisor recovers, quarantines, and -- through the
    oracle's interrupt + resume path, once per sweep kind -- resumes
    bit-identically.  ~15 s; excluded from the default run."""
    report = run_chaos(quick=True, jobs=2, work_dir=str(tmp_path))
    assert report.ok, "\n" + report.render()
    names = {check.name for check in report.checks}
    assert {
        "baseline-clean", "chaos-recovered", "chaos-identical",
        "quarantine-surfaces", "cache-corruption-recovers",
        "interrupt-drains", "resume-identical",
        "adaptive-interrupt-drains", "adaptive-resume-identical",
        "adaptive-plan-journaled",
    } <= names
    assert len(report.checks) == 13
