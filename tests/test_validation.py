"""The repro.validation subsystem: invariant monitors + fuzz oracle.

Three layers of evidence:

1. Clean runs of every paper protocol pass the full monitor suite, and
   attaching the suite does not change a run's measured results.
2. Deliberately injected bugs (power leaks, a broken metric algebra,
   immortal forwarding state, a double-counting sink, shared RNG
   streams, an upstream cycle) are each caught by the matching monitor,
   with a replayable violation report.
3. The differential oracle runs the sweep a spec declares (grid or
   adaptive plan) and holds its runs and plan to
   bit-identity across the serial, pooled, cached, interrupt-and-resume,
   forced-backend and telemetry-enabled paths; the fuzz tier
   (``pytest -m fuzz``) feeds it random scenarios of every kind.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments.runner import run_protocol
from repro.experiments.scenarios import (
    PROTOCOL_NAMES,
    SimulationScenarioConfig,
    build_simulation_scenario,
)
from repro.experiments.spec import ExperimentSpec
from repro.net.channel import WirelessChannel
from repro.net.node import Node
from repro.odmrp.state import ForwardingGroupState, QueryRoundState
from repro.traffic.sink import MulticastSink
from repro.validation.fuzzing import (
    default_validation_spec,
    differential_check,
    random_spec,
    run_with_invariants,
    write_replay_spec,
)
from repro.validation.invariants import (
    InvariantViolation,
    ValidationConfig,
    build_suite,
    monitor_names,
)
from repro.validation.monitors import _find_cycle


def mini_config(**overrides) -> SimulationScenarioConfig:
    defaults = dict(
        num_nodes=10,
        area_width_m=500.0,
        area_height_m=500.0,
        num_groups=1,
        members_per_group=3,
        duration_s=10.0,
        warmup_s=3.0,
        topology_seed=2,
        validation=ValidationConfig(enabled=True, check_interval_s=1.0),
    )
    defaults.update(overrides)
    return SimulationScenarioConfig(**defaults)


def run_validated(protocol: str, **overrides):
    scenario = build_simulation_scenario(protocol, mini_config(**overrides))
    scenario.run()
    return scenario


class TestSuitePlumbing:
    def test_all_builtin_monitors_registered(self):
        assert set(monitor_names()) >= {
            "channel-conservation",
            "data-provenance",
            "metric-accumulation",
            "forwarding-state",
            "rng-isolation",
        }

    def test_unknown_monitor_name_rejected(self):
        scenario = build_simulation_scenario(
            "odmrp", mini_config(validation=ValidationConfig())
        )
        with pytest.raises(ValueError, match="unknown invariant monitor"):
            build_suite(
                ValidationConfig(enabled=True, monitors=("no-such",)),
                scenario,
            )

    def test_check_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            ValidationConfig(enabled=True, check_interval_s=0.0)

    def test_disabled_config_builds_no_suite(self):
        scenario = build_simulation_scenario(
            "odmrp", mini_config(validation=ValidationConfig())
        )
        assert scenario.validation is None

    def test_violation_report_carries_replay_triple(self):
        violation = InvariantViolation(
            "channel-conservation",
            "leaked 3 mW",
            time=12.5,
            node_id=4,
            protocol="spp",
            seed=7,
            config=SimulationScenarioConfig(),
        )
        assert violation.replay[0] == "spp"
        assert violation.replay[2] == 7
        text = violation.report()
        assert "[channel-conservation]" in text
        assert "t=12.5" in text
        assert "node=4" in text
        assert "protocol='spp'" in text
        assert "topology_seed=7" in text


class TestCleanRunsPassMonitors:
    @pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
    def test_paper_protocol_passes_full_suite(self, protocol):
        scenario = run_validated(protocol)
        assert scenario.validation is not None
        # Interval checks plus the closing sweep all ran violation-free.
        assert scenario.validation.checks_run >= 10

    def test_maodv_tree_state_passes(self):
        scenario = run_validated("maodv-etx")
        assert scenario.validation.checks_run >= 10

    def test_monitored_run_measures_identically(self):
        """Attaching the suite must not change the physics or results."""
        protocol = "spp"
        baseline = run_protocol(
            protocol, mini_config(validation=ValidationConfig())
        )
        monitored = run_protocol(protocol, mini_config())
        assert baseline == monitored

    def test_monitors_pass_under_faults(self):
        from repro.experiments.faults import FaultPlan, OutageWindow

        scenario = run_validated(
            "odmrp",
            faults=FaultPlan(outages=(OutageWindow(1, 4.0, 6.0),)),
        )
        assert scenario.validation.checks_run >= 10


class TestInjectedBugsAreCaught:
    @staticmethod
    def _inject_power_leak(monkeypatch):
        """Make ``_end_transmission`` skip every 3rd receiver's withdrawal.

        Returns the receiver counter, so a replay can restart the leak
        from the same receiver.
        """
        original = WirelessChannel._end_transmission
        calls = {"n": 0}

        def leaky(self, tx):
            kept = []
            for pair in zip(tx.touched, tx.powers):
                calls["n"] += 1
                if calls["n"] % 3:
                    kept.append(pair)
                # else: "forget" to remove this contribution
            tx.touched = [receiver for receiver, _ in kept]
            tx.powers = [power_mw for _, power_mw in kept]
            original(self, tx)

        monkeypatch.setattr(WirelessChannel, "_end_transmission", leaky)
        return calls

    def test_power_leak_caught_by_channel_conservation(self, monkeypatch):
        """Dropping every 3rd power removal leaves an audible ghost."""
        self._inject_power_leak(monkeypatch)
        with pytest.raises(InvariantViolation) as excinfo:
            run_validated("odmrp")
        violation = excinfo.value
        assert violation.invariant == "channel-conservation"
        assert violation.protocol == "odmrp"
        assert violation.seed == 2
        assert violation.config is not None

    def test_power_leak_violation_replays(self, monkeypatch, tmp_path):
        """The violation's (protocol, config, seed) triple reproduces it."""
        calls = self._inject_power_leak(monkeypatch)
        with pytest.raises(InvariantViolation) as excinfo:
            run_validated("odmrp")
        first = excinfo.value

        spec_path = str(tmp_path / "replay.json")
        write_replay_spec(first, spec_path)
        replay_spec = ExperimentSpec.load(spec_path)
        assert replay_spec.protocols == (first.protocol,)
        assert replay_spec.seeds == (first.seed,)

        # Re-running the replay spec (bug still injected) re-raises the
        # same violation at the same simulated time.
        calls["n"] = 0
        with pytest.raises(InvariantViolation) as again:
            run_with_invariants(replay_spec)
        assert again.value.invariant == first.invariant
        assert again.value.time == first.time
        assert again.value.node_id == first.node_id

    def test_on_air_count_leak_caught(self, monkeypatch):
        """A frame end that forgets to decrement on-air counts."""
        original = WirelessChannel._end_transmission

        def uncounted(self, tx):
            original(self, tx)
            for receiver_id in tx.touched[::3]:
                self.ledger.on_air[receiver_id] += 1

        monkeypatch.setattr(WirelessChannel, "_end_transmission", uncounted)
        with pytest.raises(InvariantViolation) as excinfo:
            run_validated("odmrp")
        assert excinfo.value.invariant == "channel-conservation"
        assert "on the air" in str(excinfo.value)

    def test_wrong_ledger_power_caught(self, monkeypatch):
        """A wrong power written straight into the ledger's column."""
        from repro.validation.monitors import ChannelConservationMonitor

        original = ChannelConservationMonitor.check

        def poke_then_check(self, now):
            if now >= 5.0:
                self.scenario.network.channel.ledger.power_mw[4] += 1e-6
            original(self, now)

        monkeypatch.setattr(
            ChannelConservationMonitor, "check", poke_then_check
        )
        with pytest.raises(InvariantViolation) as excinfo:
            run_validated("odmrp")
        assert excinfo.value.invariant == "channel-conservation"
        assert excinfo.value.node_id == 4
        assert "power ledger sums to" in str(excinfo.value)

    def test_stale_sense_state_caught(self, monkeypatch):
        """Radio-state changes that never refresh the cached sense state."""
        monkeypatch.setattr(Node, "_update_sense_state", lambda self: None)
        with pytest.raises(InvariantViolation) as excinfo:
            run_validated("odmrp")
        assert excinfo.value.invariant == "channel-conservation"
        assert "carrier-sense" in str(excinfo.value)

    def test_broken_metric_algebra_caught(self, monkeypatch):
        """SPP that accumulates additively contradicts its declaration."""
        from repro.core.metrics import SppMetric

        monkeypatch.setattr(
            SppMetric, "combine", lambda self, path, link: path + link
        )
        with pytest.raises(InvariantViolation) as excinfo:
            run_validated("spp")
        assert excinfo.value.invariant == "metric-accumulation"

    def test_immortal_forwarding_group_caught(self, monkeypatch):
        """FG entries refreshed far beyond FG_TIMEOUT violate soft state."""
        original = ForwardingGroupState.refresh

        def immortal(self, group_id, until):
            original(self, group_id, until + 30.0)

        monkeypatch.setattr(ForwardingGroupState, "refresh", immortal)
        with pytest.raises(InvariantViolation) as excinfo:
            run_validated("odmrp")
        assert excinfo.value.invariant == "forwarding-state"

    def test_double_counting_sink_caught(self, monkeypatch):
        """A sink that books each delivery twice breaks conservation."""
        original = MulticastSink.on_deliver

        def double(self, packet, payload, receiver_id):
            original(self, packet, payload, receiver_id)
            self.total_packets += 1

        monkeypatch.setattr(MulticastSink, "on_deliver", double)
        with pytest.raises(InvariantViolation) as excinfo:
            run_validated("odmrp")
        assert excinfo.value.invariant == "data-provenance"

    def test_upstream_cycle_caught(self):
        """A fabricated A->B->A upstream round trips the acyclicity check."""
        scenario = build_simulation_scenario("odmrp", mini_config())

        def fake_round(upstream):
            return QueryRoundState(
                group_id=1, source_id=0, sequence=1, first_rx_time=0.0,
                best_cost=1.0, best_upstream=upstream, best_hop_count=1,
                alpha_deadline=0.0,
            )

        scenario.routers[1]._rounds[(1, 0, 1)] = fake_round(upstream=2)
        scenario.routers[2]._rounds[(1, 0, 1)] = fake_round(upstream=1)
        with pytest.raises(InvariantViolation) as excinfo:
            scenario.validation.check()
        assert excinfo.value.invariant == "forwarding-state"
        assert "cycle" in excinfo.value.message

    def test_shared_rng_stream_caught(self):
        """A stream object leaked between two live runs is flagged."""
        a = build_simulation_scenario("odmrp", mini_config(topology_seed=2))
        b = build_simulation_scenario("odmrp", mini_config(topology_seed=3))
        a.validation.check()
        b.validation.check()
        # Splice one of run A's stream objects into run B's registry.
        b.network.sim.rng._streams["mac.backoff"] = (
            a.network.sim.rng.stream("mac.backoff")
        )
        a.validation.check()  # refresh A's view of its own streams
        with pytest.raises(InvariantViolation) as excinfo:
            b.validation.check()
        assert excinfo.value.invariant == "rng-isolation"
        assert "shared" in excinfo.value.message

    def test_foreign_stream_name_caught(self):
        scenario = build_simulation_scenario("odmrp", mini_config())
        scenario.network.sim.rng.stream("definitely.not.a.subsystem")
        with pytest.raises(InvariantViolation) as excinfo:
            scenario.validation.check()
        assert excinfo.value.invariant == "rng-isolation"

    def test_find_cycle_helper(self):
        assert _find_cycle({1: 2, 2: 3}) is None
        cycle = _find_cycle({1: 2, 2: 3, 3: 1, 4: 1})
        assert cycle is not None and set(cycle) == {1, 2, 3}
        self_loop = _find_cycle({5: 5})
        assert self_loop == [5]


class TestDifferentialOracle:
    def test_default_spec_is_runnable(self):
        spec = default_validation_spec()
        spec.validate()
        assert spec.total_runs == 3

    def test_random_specs_are_deterministic_and_distinct(self):
        a = random_spec(0)
        b = random_spec(0)
        assert a == b
        assert random_spec(1, master_seed=9) != random_spec(1, master_seed=8)
        for index in range(8):
            random_spec(index).validate()

    def test_differential_check_flags_a_divergent_result(self, tmp_path):
        """The oracle actually bites: a post-hoc result edit is reported."""
        import repro.validation.fuzzing as fuzzing

        spec = dataclasses.replace(
            random_spec(0), protocols=("odmrp",), seeds=(1,)
        )
        real_difference = fuzzing._difference
        tampered = {"done": False}

        def tamper(label, oracle, candidate):
            plan, runs = candidate
            if not tampered["done"] and runs:
                tampered["done"] = True
                runs = [
                    dataclasses.replace(
                        runs[0], delivered_packets=runs[0].delivered_packets + 1,
                    )
                ] + list(runs[1:])
            return real_difference(label, oracle, (plan, runs))

        fuzzing._difference = tamper
        try:
            errors = differential_check(spec, jobs=2, work_dir=str(tmp_path))
        finally:
            fuzzing._difference = real_difference
        assert errors and "delivered_packets" in errors[0]

    def test_unavailable_kernel_skips_only_compiled(
        self, monkeypatch, no_kernel
    ):
        """Without the compiled kernel the oracle still runs the
        pure-Python pass, and its warning names the compiled pass it
        could not run and why."""
        import repro.validation.fuzzing as fuzzing

        labels = []
        real_difference = fuzzing._difference

        def spy(label, oracle, candidate):
            labels.append(label)
            return real_difference(label, oracle, candidate)

        monkeypatch.setattr(fuzzing, "_difference", spy)
        spec = dataclasses.replace(
            random_spec(0), protocols=("odmrp",), seeds=(1,)
        )
        with pytest.warns(RuntimeWarning, match="no compiled .*/bin/false"):
            errors = differential_check(spec, jobs=1)
        assert errors == []
        assert labels == ["jobs=1", "phy-python"]

    def _planner_spec(self, **planner):
        return ExperimentSpec(
            name="oracle-planner", protocols=("odmrp", "spp"), seeds=(1, 2),
            config=SimulationScenarioConfig(
                num_nodes=6, area_width_m=400.0, area_height_m=400.0,
                num_groups=1, members_per_group=3, duration_s=6.0,
                warmup_s=2.0, topology_seed=1,
            ),
            **planner,
        )

    def test_oracle_writes_only_under_its_work_dir(
        self, tmp_path, monkeypatch
    ):
        """A spec's own cache and timeout settings would journal and
        cache under the default cache dir; every path clears them."""
        from repro.experiments.adaptive import AdaptiveConfig

        default_cache = tmp_path / "default-cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(default_cache))
        spec = dataclasses.replace(
            self._planner_spec(adaptive=AdaptiveConfig(max_seeds=2)),
            use_cache=True, run_timeout_s=60.0,
        )
        work_dir = tmp_path / "work"
        work_dir.mkdir()
        assert differential_check(spec, jobs=2, work_dir=str(work_dir)) == []
        assert not default_cache.exists()

    def test_adaptive_oracle_runs_the_declared_plan(
        self, tmp_path, monkeypatch
    ):
        """The oracle's plan is the spec's own, and a path whose plan
        diverges from it is reported by name."""
        import repro.validation.fuzzing as fuzzing
        from repro.experiments.adaptive import (
            AdaptiveConfig,
            run_adaptive_experiment,
        )

        spec = self._planner_spec(adaptive=AdaptiveConfig(
            target_half_width=0.01, batch_size=2, min_seeds=2, max_seeds=3,
        ))
        real_sweep = fuzzing._sweep
        plans = []

        def tamper(path, **execution):
            (kind, plan, records), runs = real_sweep(path, **execution)
            plans.append(plan)
            if len(plans) == 2:  # the pooled path
                plan = {**plan, "total_runs": -1}
            return (kind, plan, records), runs

        monkeypatch.setattr(fuzzing, "_sweep", tamper)
        errors = differential_check(spec, jobs=2, work_dir=str(tmp_path))
        assert plans[0] == run_adaptive_experiment(spec).plan_dict()
        assert errors == ["jobs=2: plan diverged in key(s) ['total_runs']"]


@pytest.mark.fuzz
class TestFuzzTier:
    """Bounded differential + invariant fuzzing (run with ``-m fuzz``)."""

    @pytest.mark.parametrize("index", range(3))
    def test_differential_paths_agree(self, index, tmp_path):
        spec = random_spec(index)
        errors = differential_check(spec, jobs=2, work_dir=str(tmp_path))
        assert errors == [], "\n".join(errors)

    @pytest.mark.parametrize("index", range(3, 5))
    def test_random_scenarios_pass_invariants(self, index):
        results = run_with_invariants(random_spec(index))
        assert len(results) == random_spec(index).total_runs

    def test_paper_mini_sweep_passes_invariants(self):
        results = run_with_invariants(default_validation_spec())
        assert all(result.error is None for result in results)
