"""Failure-injection tests: radio outages and ODMRP's soft-state repair."""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments.faults import (
    FailureInjector,
    FaultPlan,
    FlappingSpec,
    OutageWindow,
)
from repro.experiments.scenarios import (
    SimulationScenarioConfig,
    build_simulation_scenario,
)
from repro.net.packet import Packet, PacketKind
from repro.sim.process import PeriodicTask
from tests.conftest import link, make_loss_network
from tests.test_odmrp import build_routers


class TestNodeActiveFlag:
    def test_down_node_receives_nothing(self):
        network = make_loss_network(2, {link(0, 1): 0.0})
        heard = []
        network.nodes[1].register_handler(
            PacketKind.DATA, lambda p, s, pw: heard.append(p.uid)
        )
        network.nodes[1].set_active(False)
        network.nodes[0].send_broadcast(Packet(PacketKind.DATA, 0, 100, 0.0))
        network.run(1.0)
        assert heard == []

    def test_down_node_sends_nothing(self):
        network = make_loss_network(2, {link(0, 1): 0.0})
        heard = []
        network.nodes[1].register_handler(
            PacketKind.DATA, lambda p, s, pw: heard.append(p.uid)
        )
        network.nodes[0].set_active(False)
        network.nodes[0].send_broadcast(Packet(PacketKind.DATA, 0, 100, 0.0))
        network.run(1.0)
        assert heard == []
        assert network.channel.counters.get("channel.tx_dropped_node_down") == 1

    def test_mac_keeps_cycling_while_down(self):
        """Frames queued during an outage drain instead of wedging the MAC."""
        network = make_loss_network(2, {link(0, 1): 0.0})
        heard = []
        network.nodes[1].register_handler(
            PacketKind.DATA, lambda p, s, pw: heard.append(p.payload)
        )
        network.nodes[0].set_active(False)
        for i in range(3):
            network.nodes[0].send_broadcast(
                Packet(PacketKind.DATA, 0, 100, 0.0, payload=i)
            )
        network.sim.schedule(0.5, network.nodes[0].set_active, True)
        network.sim.schedule(
            1.0,
            lambda: network.nodes[0].send_broadcast(
                Packet(PacketKind.DATA, 0, 100, 0.0, payload="after")
            ),
        )
        network.run(2.0)
        assert heard == ["after"]

    def test_down_kills_inflight_reception(self):
        network = make_loss_network(2, {link(0, 1): 0.0})
        heard = []
        network.nodes[1].register_handler(
            PacketKind.DATA, lambda p, s, pw: heard.append(p.uid)
        )
        # A 1500 B frame takes ~6 ms; take the receiver down mid-flight.
        network.nodes[0].send_broadcast(Packet(PacketKind.DATA, 0, 1500, 0.0))
        network.sim.schedule(0.003, network.nodes[1].set_active, False)
        network.run(1.0)
        assert heard == []

    def test_recovery_restores_connectivity(self):
        network = make_loss_network(2, {link(0, 1): 0.0})
        heard = []
        network.nodes[1].register_handler(
            PacketKind.DATA, lambda p, s, pw: heard.append(p.uid)
        )
        network.nodes[1].set_active(False)
        network.nodes[1].set_active(True)
        network.nodes[0].send_broadcast(Packet(PacketKind.DATA, 0, 100, 0.0))
        network.run(1.0)
        assert len(heard) == 1

    def test_set_active_idempotent(self):
        network = make_loss_network(2, {link(0, 1): 0.0})
        node = network.nodes[0]
        node.set_active(True)  # already up: no event counted
        assert node.counters.get("node.up_events") == 0
        node.set_active(False)
        node.set_active(False)
        assert node.counters.get("node.down_events") == 1


class TestFailureInjector:
    def test_outage_window_validation(self):
        with pytest.raises(ValueError):
            OutageWindow(node_id=0, start_s=2.0, end_s=1.0)

    def test_scheduled_outage_applies_and_recovers(self):
        network = make_loss_network(2, {link(0, 1): 0.0})
        injector = FailureInjector(network.sim)
        injector.schedule_outage(network.nodes[1], 1.0, 2.0)
        network.run(1.5)
        assert not network.nodes[1].active
        network.run(2.5)
        assert network.nodes[1].active
        assert injector.total_downtime_s(1) == pytest.approx(1.0)

    def test_flapping_counts_and_bounds(self):
        network = make_loss_network(2, {link(0, 1): 0.0})
        injector = FailureInjector(network.sim)
        count = injector.schedule_flapping(
            network.nodes[0], start_s=0.0, period_s=10.0,
            down_fraction=0.3, until_s=35.0,
        )
        assert count == 4
        assert injector.total_downtime_s(0) == pytest.approx(3 * 3.0 + 3.0)

    def test_flapping_validation(self):
        network = make_loss_network(2, {link(0, 1): 0.0})
        injector = FailureInjector(network.sim)
        with pytest.raises(ValueError):
            injector.schedule_flapping(network.nodes[0], 0.0, 10.0, 1.5, 20.0)
        with pytest.raises(ValueError):
            injector.schedule_flapping(network.nodes[0], 0.0, 0.0, 0.5, 20.0)

    def test_overlapping_windows_count_downtime_once(self):
        """Regression: overlapping outages double-counted downtime.

        Two outages of [1, 4] and [3, 6] keep the node down for 5 s, not
        7 s -- a node that is already down cannot go "more down".  The
        naive per-window sum reported 7.
        """
        network = make_loss_network(2, {link(0, 1): 0.0})
        injector = FailureInjector(network.sim)
        injector.schedule_outage(network.nodes[1], 1.0, 4.0)
        injector.schedule_outage(network.nodes[1], 3.0, 6.0)
        assert injector.total_downtime_s(1) == pytest.approx(5.0)

    def test_flapping_overlapping_an_outage_counts_once(self):
        """Flapping windows nested inside a long outage add nothing."""
        network = make_loss_network(2, {link(0, 1): 0.0})
        injector = FailureInjector(network.sim)
        injector.schedule_outage(network.nodes[0], 0.0, 30.0)
        # Down-phases at [0, 3], [10, 13], [20, 23]: all inside [0, 30].
        injector.schedule_flapping(
            network.nodes[0], start_s=0.0, period_s=10.0,
            down_fraction=0.3, until_s=25.0,
        )
        assert injector.total_downtime_s(0) == pytest.approx(30.0)
        # A window poking past the outage extends it by the overhang only.
        injector.schedule_outage(network.nodes[0], 28.0, 33.0)
        assert injector.total_downtime_s(0) == pytest.approx(33.0)

    def test_identical_windows_count_once(self):
        network = make_loss_network(2, {link(0, 1): 0.0})
        injector = FailureInjector(network.sim)
        injector.schedule_outage(network.nodes[1], 2.0, 5.0)
        injector.schedule_outage(network.nodes[1], 2.0, 5.0)
        assert injector.total_downtime_s(1) == pytest.approx(3.0)


class TestFaultPlan:
    def test_empty_plan_is_empty(self):
        assert FaultPlan().is_empty()
        assert not FaultPlan(outages=(OutageWindow(0, 1.0, 2.0),)).is_empty()

    def test_validate_for_rejects_unknown_nodes(self):
        plan = FaultPlan(outages=(OutageWindow(5, 1.0, 2.0),))
        plan.validate_for(6)
        with pytest.raises(ValueError):
            plan.validate_for(5)
        flap = FaultPlan(flapping=(FlappingSpec(9, 0.0, 10.0, 0.3, 20.0),))
        with pytest.raises(ValueError):
            flap.validate_for(9)

    def test_apply_schedules_against_the_injector(self):
        network = make_loss_network(2, {link(0, 1): 0.0})
        injector = FailureInjector(network.sim)
        plan = FaultPlan(
            outages=(OutageWindow(1, 1.0, 2.0),),
            flapping=(FlappingSpec(0, 0.0, 10.0, 0.3, 15.0),),
        )
        plan.apply(injector, {n.node_id: n for n in network.nodes})
        assert injector.total_downtime_s(1) == pytest.approx(1.0)
        assert injector.total_downtime_s(0) == pytest.approx(6.0)
        network.run(1.5)
        assert not network.nodes[1].active


class TestSourceSilencingRejection:
    """A plan keeping a source down for the whole traffic interval is
    rejected by the scenario builder, not measured as zero delivery."""

    CONFIG = SimulationScenarioConfig(
        num_nodes=8,
        area_width_m=500.0,
        area_height_m=500.0,
        num_groups=1,
        members_per_group=4,
        duration_s=8.0,
        warmup_s=2.0,
        topology_seed=1,
    )

    def _source(self) -> int:
        scenario = build_simulation_scenario("odmrp", self.CONFIG)
        return next(source for _gid, source in scenario.groups.all_sources())

    def _build(self, *outages: OutageWindow) -> None:
        build_simulation_scenario("odmrp", dataclasses.replace(
            self.CONFIG, faults=FaultPlan(outages=outages),
        ))

    def test_full_coverage_rejected(self):
        with pytest.raises(ValueError, match="source"):
            self._build(OutageWindow(self._source(), 0.0, 8.0))

    def test_partial_coverage_accepted(self):
        self._build(OutageWindow(self._source(), 2.0, 5.0))

    def test_other_nodes_may_be_down_throughout(self):
        source = self._source()
        victim = next(node for node in range(8) if node != source)
        self._build(OutageWindow(victim, 0.0, 8.0))


class TestOdmrpRepair:
    def test_route_repairs_around_failed_forwarder(self):
        """A diamond with a dead relay: the refresh flood rebuilds the
        forwarding group through the surviving relay."""
        losses = {
            link(0, 1): 0.0, link(1, 3): 0.0,
            link(0, 2): 0.0, link(2, 3): 0.0,
            link(1, 2): 0.0,
        }
        network = make_loss_network(4, losses, seed=3)
        deliveries = []
        routers = build_routers(network, deliveries=deliveries)
        routers[3].join_group(1)
        routers[0].start_source(1)
        network.run(2.0)
        task = PeriodicTask(network.sim, 0.05, lambda: routers[0].send_data(1))
        task.start()
        # Find which relay carries the data, then kill it.
        network.run(8.0)
        before = len(deliveries)
        assert before > 0
        used_relay = max(
            (1, 2),
            key=lambda i: network.nodes[i].counters.get("odmrp.data_forwarded"),
        )
        injector = FailureInjector(network.sim)
        injector.schedule_outage(
            network.nodes[used_relay], 8.5, 60.0
        )
        network.run(60.0)
        task.stop()
        after = len(deliveries)
        # ~51 s of 20 pkt/s traffic with one relay dead: the soft-state
        # refresh must re-route most of it through the other relay.
        recovered = after - before
        assert recovered > 0.6 * 51 * 20

    def test_source_outage_stops_and_resumes_traffic(self):
        network = make_loss_network(3, {link(0, 1): 0.0, link(1, 2): 0.0})
        deliveries = []
        routers = build_routers(network, deliveries=deliveries)
        routers[2].join_group(1)
        routers[0].start_source(1)
        network.run(2.0)
        task = PeriodicTask(network.sim, 0.1, lambda: routers[0].send_data(1))
        task.start()
        injector = FailureInjector(network.sim)
        injector.schedule_outage(network.nodes[0], 5.0, 15.0)
        network.run(5.5)
        during_start = len(deliveries)
        network.run(14.5)
        during_end = len(deliveries)
        assert during_end == during_start  # nothing delivered while down
        network.run(40.0)
        task.stop()
        assert len(deliveries) > during_end  # resumed after recovery
