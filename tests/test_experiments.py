"""Tests for scenario builders, the runner, results, and figure entry points."""

from __future__ import annotations

import dataclasses
import gc
import weakref

import pytest

from repro.experiments.figures import (
    PAPER_TABLE1_OVERHEAD_PCT,
    figure1_metx_vs_spp,
    figure3_etx_vs_spp,
    lossy_link_data_share,
)
from repro.experiments.results import (
    RunResult,
    aggregate_runs,
    normalized_metric_table,
)
from repro.experiments.runner import collect_result, run_experiment, run_protocol
from repro.experiments.spec import ExperimentSpec
from repro.experiments.scenarios import (
    PROTOCOL_NAMES,
    SimulationScenarioConfig,
    build_simulation_scenario,
)

#: Small-but-meaningful scale for scenario integration tests.
SMALL = SimulationScenarioConfig(
    num_nodes=16,
    area_width_m=700.0,
    area_height_m=700.0,
    members_per_group=3,
    num_groups=1,
    duration_s=45.0,
    warmup_s=15.0,
    topology_seed=4,
)


class TestScenarioBuilder:
    def test_same_seed_same_topology_across_protocols(self):
        a = build_simulation_scenario("odmrp", SMALL)
        b = build_simulation_scenario("spp", SMALL)
        assert a.positions == b.positions
        assert a.groups == b.groups

    def test_different_seed_different_topology(self):
        from dataclasses import replace

        a = build_simulation_scenario("odmrp", SMALL)
        b = build_simulation_scenario(
            "odmrp", replace(SMALL, topology_seed=5)
        )
        assert a.positions != b.positions

    def test_baseline_has_no_probing(self):
        scenario = build_simulation_scenario("odmrp", SMALL)
        assert scenario.probing is None
        assert scenario.metric is None

    def test_metric_variant_has_matching_prober(self):
        scenario = build_simulation_scenario("pp", SMALL)
        assert scenario.metric is not None
        assert scenario.metric.name == "pp"
        assert scenario.probing is not None

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            build_simulation_scenario("dsdv", SMALL)

    def test_with_probing_rate_copies(self):
        boosted = SMALL.with_probing_rate(5.0)
        assert boosted.probing.rate_multiplier == 5.0
        assert SMALL.probing.rate_multiplier == 1.0
        assert boosted.num_nodes == SMALL.num_nodes


class TestRunner:
    def test_run_protocol_produces_consistent_result(self):
        result = run_protocol("spp", SMALL)
        assert result.protocol == "spp"
        assert result.offered_packets > 0
        assert result.expected_deliveries == (
            result.offered_packets * SMALL.members_per_group
        )
        assert 0 < result.delivered_packets <= result.expected_deliveries
        assert result.delivered_bytes == result.delivered_packets * 512
        assert result.probe_bytes > 0
        assert result.mean_delay_s is not None and result.mean_delay_s > 0
        assert result.throughput_bps == pytest.approx(
            result.delivered_bytes * 8 / SMALL.duration_s
        )

    def test_baseline_has_zero_probe_bytes(self):
        result = run_protocol("odmrp", SMALL)
        assert result.probe_bytes == 0.0

    def test_run_experiment_runs_grid(self):
        runs = run_experiment(ExperimentSpec(
            protocols=("odmrp", "spp"), seeds=(4, 5), config=SMALL
        ))
        assert len(runs) == 4
        assert {run.protocol for run in runs} == {"odmrp", "spp"}
        assert {run.topology_seed for run in runs} == {4, 5}

    def test_determinism_same_config_same_result(self):
        a = run_protocol("spp", SMALL)
        b = run_protocol("spp", SMALL)
        assert a.delivered_packets == b.delivered_packets
        assert a.mean_delay_s == b.mean_delay_s


class TestCollectResultAccounting:
    """Pin the exact counter accounting of ``collect_result``.

    Channel counters are summed whole while node counters pass a prefix
    filter -- two different code paths that must never overlap (that
    would double-count) and whose key set must not drift silently under
    refactors.  A fixed-seed 3-node run makes every value exact.
    """

    TINY3 = SimulationScenarioConfig(
        num_nodes=3,
        area_width_m=300.0,
        area_height_m=300.0,
        num_groups=1,
        members_per_group=2,
        sources_per_group=1,
        duration_s=20.0,
        warmup_s=5.0,
        topology_seed=3,
    )

    @pytest.fixture(scope="class")
    def tiny_scenario(self):
        scenario = build_simulation_scenario("spp", self.TINY3)
        scenario.run()
        return scenario

    def test_channel_and_node_counter_names_are_disjoint(self, tiny_scenario):
        """The precondition for summing both sources into one dict."""
        node_names = set()
        for node in tiny_scenario.network.nodes:
            node_names.update(node.counters.as_dict())
        channel_names = set(
            tiny_scenario.network.channel.counters.as_dict()
        )
        assert node_names & channel_names == set()
        # Node counters must not sneak into the channel's namespace,
        # where the whole-set merge would double-count them.
        assert not any(name.startswith("channel.") for name in node_names)

    def test_exact_counter_key_set(self, tiny_scenario):
        result = collect_result(tiny_scenario)
        assert set(result.counters) == {
            "channel.tx.data",
            "channel.tx.join_query",
            "channel.tx.join_reply",
            "channel.tx.probe",
            "odmrp.data_delivered",
            "odmrp.data_delivered_bytes",
            "odmrp.data_duplicate",
            "odmrp.data_forwarded",
            "odmrp.data_originated",
            "odmrp.data_rx_from.1",
            "odmrp.data_rx_from.2",
            "odmrp.fg_refreshed",
            "odmrp.query_duplicate_dropped",
            "odmrp.query_forwarded",
            "odmrp.query_improved",
            "odmrp.query_originated",
            "odmrp.reply_sent",
            "odmrp.route_established",
            "phy.rx_ok",
            "tx.data.bytes",
            "tx.data.packets",
            "tx.join_query.bytes",
            "tx.join_query.packets",
            "tx.join_reply.bytes",
            "tx.join_reply.packets",
            "tx.probe.bytes",
            "tx.probe.packets",
        }

    def test_counters_match_their_sources_exactly(self, tiny_scenario):
        result = collect_result(tiny_scenario)
        channel_counters = tiny_scenario.network.channel.counters.as_dict()
        for name, value in result.counters.items():
            node_sum = sum(
                node.counters.get(name)
                for node in tiny_scenario.network.nodes
            )
            expected = node_sum + channel_counters.get(name, 0.0)
            assert value == expected, name

    def test_pinned_values_for_fixed_seed(self, tiny_scenario):
        result = collect_result(tiny_scenario)
        # Every MAC-queued frame crosses the channel exactly once.
        assert result.counters["channel.tx.data"] == (
            result.counters["tx.data.packets"]
        )
        assert result.counters["channel.tx.data"] == 540.0
        assert result.counters["phy.rx_ok"] == 886.0
        assert result.counters["odmrp.data_delivered"] == 599.0
        assert result.delivered_packets == 599
        assert result.offered_packets == 300


class TestCollectReleasesTheScenario:
    """``collect_result`` breaks the finished run's reference cycles."""

    @pytest.mark.parametrize("protocol", ["odmrp", "spp"])
    def test_collected_scenario_is_freed_by_reference_counting(self, protocol):
        """With the cyclic collector off, dropping a collected scenario
        frees its nodes, MACs, routers, neighbor tables and channel; a
        second collect reads the same result."""
        config = dataclasses.replace(SMALL, duration_s=20.0, warmup_s=5.0)
        gc.collect()
        gc.disable()
        try:
            scenario = build_simulation_scenario(protocol, config)
            scenario.run()
            node = scenario.network.nodes[0]
            owned = [node, node.mac, scenario.network.channel,
                     scenario.routers[node.node_id]]
            if scenario.probing is not None:
                owned.append(scenario.probing.tables[node.node_id])
            watched = [weakref.ref(obj) for obj in owned]
            result = collect_result(scenario)
            assert collect_result(scenario) == result
            del scenario, node, owned
            assert [ref() for ref in watched] == [None] * len(watched)
        finally:
            gc.enable()


class TestResults:
    def make_run(self, protocol, seed=1, delivered=100, expected=200,
                 delay=0.01, probe_bytes=500.0):
        return RunResult(
            protocol=protocol,
            topology_seed=seed,
            duration_s=10.0,
            offered_packets=expected // 2,
            expected_deliveries=expected,
            delivered_packets=delivered,
            delivered_bytes=delivered * 512,
            mean_delay_s=delay,
            probe_bytes=probe_bytes,
        )

    def test_derived_properties(self):
        run = self.make_run("spp")
        assert run.packet_delivery_ratio == 0.5
        assert run.throughput_bps == 100 * 512 * 8 / 10.0
        assert run.probe_overhead_pct == pytest.approx(
            100 * 500.0 / (100 * 512)
        )

    def test_zero_delivery_overhead_is_infinite(self):
        run = self.make_run("spp", delivered=0)
        assert run.probe_overhead_pct == float("inf")

    def test_aggregate_means(self):
        runs = [
            self.make_run("spp", seed=1, delivered=100),
            self.make_run("spp", seed=2, delivered=200),
            self.make_run("odmrp", seed=1, delivered=100, probe_bytes=0.0),
        ]
        aggregates = aggregate_runs(runs)
        assert aggregates["spp"].runs == 2
        assert aggregates["spp"].mean_delivery_ratio == pytest.approx(0.75)
        assert aggregates["odmrp"].runs == 1

    def test_normalized_table(self):
        runs = [
            self.make_run("odmrp", delivered=100),
            self.make_run("spp", delivered=150),
        ]
        table = normalized_metric_table(aggregate_runs(runs), "throughput")
        assert table["odmrp"] == 1.0
        assert table["spp"] == pytest.approx(1.5)

    def test_unknown_column_rejected(self):
        runs = [self.make_run("odmrp")]
        with pytest.raises(ValueError):
            normalized_metric_table(aggregate_runs(runs), "jitter")

    def test_failed_runs_are_tallied_not_averaged(self):
        from dataclasses import replace

        good = self.make_run("spp", seed=1, delivered=100)
        bad = replace(good, topology_seed=2, delivered_packets=0,
                      delivered_bytes=0, error="boom")
        aggregates = aggregate_runs([good, bad])
        assert aggregates["spp"].runs == 1
        assert aggregates["spp"].failed_runs == 1
        assert aggregates["spp"].mean_delivery_ratio == pytest.approx(0.5)

    def test_all_failed_protocol_still_appears(self):
        from dataclasses import replace

        bad = replace(self.make_run("etx"), delivered_packets=0,
                      delivered_bytes=0, error="boom")
        aggregates = aggregate_runs([self.make_run("spp"), bad])
        assert aggregates["etx"].runs == 0
        assert aggregates["etx"].failed_runs == 1
        assert aggregates["etx"].mean_throughput_bps == 0.0
        assert aggregates["etx"].mean_delay_s is None

    def test_zero_delivery_runs_are_counted(self):
        runs = [
            self.make_run("spp", seed=1, delivered=100),
            self.make_run("spp", seed=2, delivered=0, delay=None),
        ]
        aggregates = aggregate_runs(runs)
        assert aggregates["spp"].runs == 2
        assert aggregates["spp"].zero_delivery_runs == 1
        assert aggregates["spp"].failed_runs == 0


class TestAnalyticFigures:
    def test_figure1_matches_paper_exactly(self):
        result = figure1_metx_vs_spp()
        for key, value in result.paper.items():
            assert result.measured[key] == pytest.approx(value, abs=1e-9), key

    def test_figure3_matches_paper(self):
        result = figure3_etx_vs_spp()
        assert result.measured["etx_abcd"] == pytest.approx(3.75)
        assert result.measured["etx_aed"] == pytest.approx(3.611, abs=0.001)
        assert result.measured["spp_abcd"] == pytest.approx(0.512)
        assert result.measured["spp_aed"] == pytest.approx(0.36)

    def test_table1_paper_ordering_constant(self):
        """The reference data preserves the paper's overhead ordering."""
        order = sorted(
            PAPER_TABLE1_OVERHEAD_PCT, key=PAPER_TABLE1_OVERHEAD_PCT.get
        )
        assert order == ["spp", "metx", "etx", "pp", "ett"]

    def test_lossy_link_data_share(self):
        tree = [(2, 5, 1.0), (2, 10, 0.5), (10, 5, 0.5)]
        share = lossy_link_data_share(tree)
        assert share == pytest.approx(0.5)
        assert lossy_link_data_share([]) == 0.0


class TestEndToEndShape:
    def test_spp_beats_baseline_on_small_scenario(self):
        """The headline claim at reduced scale: SPP delivers more than
        original ODMRP summed over a few topologies.  (A single tiny
        topology is a coin flip -- with slow fading the channel is nearly
        static over 45 s -- so this aggregates three.)"""
        runs = run_experiment(ExperimentSpec(
            protocols=("odmrp", "spp"), seeds=(4, 5, 6), config=SMALL
        ))
        totals = {"odmrp": 0, "spp": 0}
        for run in runs:
            totals[run.protocol] += run.delivered_packets
        assert totals["spp"] > totals["odmrp"]
