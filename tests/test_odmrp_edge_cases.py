"""ODMRP edge cases: multiple groups, membership churn, odd inputs."""

from __future__ import annotations

import random

import pytest

from repro.core.metrics import SppMetric
from repro.odmrp.config import OdmrpConfig
from repro.sim.process import PeriodicTask
from repro.testbed.linkmodel import LinkProfile, TimeVaryingLoss
from tests.conftest import link, make_loss_network
from tests.test_odmrp import build_routers


class TestMultipleGroups:
    def test_two_groups_share_forwarders_independently(self):
        """A node forwards for the groups whose replies named it, and
        data of each group reaches only that group's members."""
        losses = {link(0, 1): 0.0, link(1, 2): 0.0, link(1, 3): 0.0}
        network = make_loss_network(4, losses)
        deliveries = []
        routers = build_routers(network, deliveries=deliveries)
        routers[2].join_group(1)
        routers[3].join_group(2)
        routers[0].start_source(1)
        routers[0].start_source(2)
        network.run(2.0)
        assert routers[1].is_forwarder(1)
        assert routers[1].is_forwarder(2)
        routers[0].send_data(1)
        routers[0].send_data(2)
        network.run(4.0)
        by_receiver = {}
        for receiver, source, seq in deliveries:
            by_receiver.setdefault(receiver, 0)
            by_receiver[receiver] += 1
        assert by_receiver == {2: 1, 3: 1}

    def test_node_in_two_groups_delivers_both(self):
        losses = {link(0, 1): 0.0, link(2, 1): 0.0}
        network = make_loss_network(3, losses)
        deliveries = []
        routers = build_routers(network, deliveries=deliveries)
        routers[1].join_group(1)
        routers[1].join_group(2)
        routers[0].start_source(1)
        routers[2].start_source(2)
        network.run(2.0)
        # Stagger the sends: the two sources are hidden terminals, and
        # simultaneous data frames would simply collide at the member.
        routers[0].send_data(1)
        network.sim.schedule(0.1, lambda: routers[2].send_data(2))
        network.run(4.0)
        sources_seen = {source for _r, source, _q in deliveries}
        assert sources_seen == {0, 2}


class TestMembershipChurn:
    def test_leave_group_stops_delivery(self):
        network = make_loss_network(2, {link(0, 1): 0.0})
        deliveries = []
        routers = build_routers(network, deliveries=deliveries)
        routers[1].join_group(1)
        routers[0].start_source(1)
        network.run(1.0)
        routers[0].send_data(1)
        network.run(2.0)
        assert len(deliveries) == 1
        routers[1].leave_group(1)
        routers[0].send_data(1)
        network.run(4.0)
        assert len(deliveries) == 1  # no delivery after leaving

    def test_late_join_picks_up_next_refresh(self):
        network = make_loss_network(3, {link(0, 1): 0.0, link(1, 2): 0.0})
        deliveries = []
        config = OdmrpConfig(refresh_interval_s=1.0, fg_timeout_s=3.0)
        routers = build_routers(network, config=config,
                                deliveries=deliveries)
        routers[0].start_source(1)
        network.run(2.0)
        # Nobody listening yet; now node 2 joins mid-run.
        routers[2].join_group(1)
        network.run(4.0)  # one more refresh round passes
        task = PeriodicTask(network.sim, 0.1, lambda: routers[0].send_data(1))
        task.start()
        network.run(8.0)
        task.stop()
        assert len(deliveries) > 20

    def test_leave_is_idempotent(self):
        network = make_loss_network(2, {link(0, 1): 0.0})
        routers = build_routers(network)
        routers[1].leave_group(99)  # never joined: no error
        routers[1].join_group(1)
        routers[1].leave_group(1)
        routers[1].leave_group(1)
        assert 1 not in routers[1].member_groups


class TestSourceLifecycle:
    def test_stop_source_is_idempotent(self):
        network = make_loss_network(2, {link(0, 1): 0.0})
        routers = build_routers(network)
        routers[0].start_source(1)
        routers[0].stop_source(1)
        routers[0].stop_source(1)
        network.run(10.0)
        first_burst = network.nodes[0].counters.get("odmrp.query_originated")
        network.run(20.0)
        assert network.nodes[0].counters.get(
            "odmrp.query_originated"
        ) == first_burst

    def test_start_source_twice_keeps_one_refresh_task(self):
        network = make_loss_network(2, {link(0, 1): 0.0})
        config = OdmrpConfig(refresh_interval_s=1.0, fg_timeout_s=3.0)
        routers = build_routers(network, config=config)
        routers[0].start_source(1)
        routers[0].start_source(1)
        network.run(10.3)
        queries = network.nodes[0].counters.get("odmrp.query_originated")
        # One task at ~1 Hz for 10 s, not two.
        assert queries <= 12

    def test_source_can_also_be_member_of_other_group(self):
        network = make_loss_network(2, {link(0, 1): 0.0})
        deliveries = []
        routers = build_routers(network, deliveries=deliveries)
        routers[0].start_source(1)
        routers[0].join_group(2)
        routers[1].join_group(1)
        routers[1].start_source(2)
        network.run(2.0)
        routers[0].send_data(1)
        routers[1].send_data(2)
        network.run(4.0)
        receivers = {receiver for receiver, _s, _q in deliveries}
        assert receivers == {0, 1}


class TestRouteRepair:
    def test_route_repairs_around_a_faded_out_relay(self):
        """A diamond whose data-carrying relay loses both links: the
        refresh flood rebuilds the forwarding group through the other
        relay."""
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
        network.run(8.0)
        before = len(deliveries)
        assert before > 0
        used = max(
            (1, 2),
            key=lambda i: network.nodes[i].counters.get("odmrp.data_forwarded"),
        )
        dead = LinkProfile(loss=TimeVaryingLoss(1.0, 1.0, random.Random(0)))
        for peer in (0, 3):
            network.channel.profiles[link(used, peer)] = dead
        network.run(60.0)
        task.stop()
        # ~52 s of 20 pkt/s traffic with one relay cut off: the
        # soft-state refresh must re-route most of it through the other.
        assert len(deliveries) - before > 0.6 * 52 * 20


class TestQueryRoundHousekeeping:
    def test_old_rounds_pruned(self):
        network = make_loss_network(2, {link(0, 1): 0.0})
        config = OdmrpConfig(refresh_interval_s=0.5, fg_timeout_s=1.5)
        routers = build_routers(network, config=config)
        routers[1].join_group(1)
        routers[0].start_source(1)
        network.run(30.0)  # ~60 refresh rounds
        # The receiver keeps only a handful of recent rounds.
        assert len(routers[1]._rounds) <= 6

    def test_metric_router_survives_unknown_neighbor_query(self):
        """A query from a neighbor never probed costs worst-case, not a
        crash (fresh node, estimator not warmed up)."""
        network = make_loss_network(2, {link(0, 1): 0.0})
        routers = build_routers(network, metric=SppMetric())
        routers[1].join_group(1)
        # Source starts immediately -- no probe warmup at all.
        routers[0].start_source(1)
        network.run(1.0)
        # The query was processed (round state exists), with zero-df cost.
        assert routers[1].current_upstream(0) == 0
