"""Tests for ODMRP state, the original protocol, and the metric variants."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.metrics import EtxMetric, MetxMetric, SppMetric
from repro.odmrp.config import OdmrpConfig
from repro.odmrp.messages import JoinQueryPayload
from repro.odmrp.protocol import OdmrpRouter
from repro.odmrp.state import DuplicateCache, ForwardingGroupState, SequenceRecord
from repro.probing.broadcast_probe import BroadcastProbeAgent
from repro.probing.neighbor_table import NeighborTable
from tests.conftest import link, make_chain_network, make_loss_network


class TestDuplicateCache:
    def test_first_is_new_second_is_duplicate(self):
        cache = DuplicateCache()
        assert cache.check_and_add(("a", 1))
        assert not cache.check_and_add(("a", 1))

    def test_fifo_eviction(self):
        cache = DuplicateCache(max_entries=2)
        cache.check_and_add(1)
        cache.check_and_add(2)
        cache.check_and_add(3)  # evicts 1
        assert 1 not in cache
        assert 2 in cache and 3 in cache
        assert len(cache) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            DuplicateCache(max_entries=0)


class TestSequenceRecord:
    def test_first_is_new_second_is_duplicate(self):
        record = SequenceRecord()
        assert record.first_sighting(1, 7, 3)
        assert not record.first_sighting(1, 7, 3)
        assert record.first_sighting(2, 7, 3)  # another group's flow
        assert record.first_sighting(1, 8, 3)  # another source's flow
        assert record.check_and_add((1, 7, 0))
        assert not record.check_and_add((1, 7, 0))
        assert (1, 7, 3) in record and (1, 7, 2) not in record
        assert (1, 7, 99) not in record and (5, 5, 5) not in record

    @pytest.mark.parametrize("sequence", [-1, 1.0, "3", True])
    def test_rejects_non_index_sequences(self, sequence):
        record = SequenceRecord()
        with pytest.raises(ValueError):
            record.first_sighting(1, 1, sequence)
        assert (1, 1, 0) not in record

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.integers(0, 2), st.integers(0, 3), st.integers(0, 300)
    ), max_size=400))
    def test_agrees_with_a_set(self, keys):
        """Random streams with duplicates and reordering: every verdict
        and membership answer equals a plain set's."""
        record, seen = SequenceRecord(), set()
        for key in keys:
            assert record.check_and_add(key) == (key not in seen)
            seen.add(key)
        for key in keys + [(g, s, q + 1) for g, s, q in keys]:
            assert (key in record) == (key in seen)


class TestForwardingGroupState:
    def test_refresh_and_expiry(self):
        fg = ForwardingGroupState()
        fg.refresh(1, until=10.0)
        assert fg.is_active(1, 5.0)
        assert not fg.is_active(1, 10.0)
        assert not fg.is_active(2, 5.0)

    def test_refresh_never_shortens(self):
        fg = ForwardingGroupState()
        fg.refresh(1, until=10.0)
        fg.refresh(1, until=7.0)
        assert fg.expiry_of(1) == 10.0

    def test_active_groups(self):
        fg = ForwardingGroupState()
        fg.refresh(2, until=10.0)
        fg.refresh(1, until=10.0)
        fg.refresh(3, until=1.0)
        assert fg.active_groups(5.0) == [1, 2]


class TestOdmrpConfig:
    def test_alpha_must_be_below_delta(self):
        with pytest.raises(ValueError):
            OdmrpConfig(delta_s=0.02, alpha_s=0.03)
        with pytest.raises(ValueError):
            OdmrpConfig(delta_s=0.02, alpha_s=0.02)

    def test_fg_timeout_must_cover_refresh(self):
        with pytest.raises(ValueError):
            OdmrpConfig(refresh_interval_s=3.0, fg_timeout_s=2.0)

    def test_reply_size_grows_with_entries(self):
        config = OdmrpConfig()
        assert config.reply_size_bytes(2) == (
            config.reply_base_size_bytes + 2 * config.reply_entry_size_bytes
        )


def build_routers(network, metric=None, config=None, deliveries=None):
    """Attach ODMRP (and probing when a metric is used) to every node."""
    config = config or OdmrpConfig()
    routers = {}
    tables = {}
    agents = []
    if metric is not None:
        for node in network.nodes:
            tables[node.node_id] = NeighborTable(
                network.sim, node, window_intervals=20
            )
            agent = BroadcastProbeAgent(network.sim, node, interval_s=2.0)
            agent.start()
            agents.append(agent)

    def on_deliver(packet, payload, receiver_id):
        if deliveries is not None:
            deliveries.append((receiver_id, payload.source_id, payload.sequence))

    for node in network.nodes:
        routers[node.node_id] = OdmrpRouter(
            network.sim,
            node,
            config=config,
            metric=metric,
            neighbor_table=tables.get(node.node_id),
            on_deliver=on_deliver,
        )
    return routers


class TestOriginalOdmrp:
    def test_chain_delivery_end_to_end(self):
        """Query floods down a clean 4-hop chain, the reply builds the
        forwarding group, and data flows to the member."""
        network = make_loss_network(
            5,
            {link(i, i + 1): 0.0 for i in range(4)},
        )
        deliveries = []
        routers = build_routers(network, deliveries=deliveries)
        routers[4].join_group(1)
        routers[0].start_source(1)
        network.run(2.0)  # let a query round and replies finish
        # Pace packets so the multi-hop broadcast pipeline can drain:
        # back-to-back broadcasts on a chain self-collide (hidden
        # terminals two hops apart), which is real behaviour, not a bug.
        for i in range(50):
            network.sim.schedule(
                i * 0.025, lambda: routers[0].send_data(1)
            )
        network.run(6.0)
        received = [seq for (r, s, seq) in deliveries if r == 4]
        assert len(received) >= 45
        # Intermediate nodes became forwarders; the member did not need to.
        for hop in (1, 2, 3):
            assert routers[hop].is_forwarder(1)

    def test_source_is_not_its_own_receiver(self):
        network = make_loss_network(2, {link(0, 1): 0.0})
        deliveries = []
        routers = build_routers(network, deliveries=deliveries)
        routers[1].join_group(1)
        routers[0].start_source(1)
        network.run(1.0)
        routers[0].send_data(1)
        network.run(2.0)
        assert all(receiver != 0 for receiver, _s, _q in deliveries)

    def test_duplicate_data_not_delivered_twice(self):
        """Two forwarding paths deliver each packet exactly once.

        The relays are linked so they carrier-sense each other and
        serialize (otherwise their simultaneous forwards would simply
        collide at the member -- the hidden-terminal case is covered in
        the MAC tests)."""
        losses = {
            link(0, 1): 0.0, link(1, 3): 0.0,
            link(0, 2): 0.0, link(2, 3): 0.0,
            link(1, 2): 0.0,
        }
        network = make_loss_network(4, losses)
        deliveries = []
        routers = build_routers(network, deliveries=deliveries)
        routers[3].join_group(1)
        routers[0].start_source(1)
        network.run(2.0)
        routers[0].send_data(1)
        network.run(4.0)
        member_deliveries = [d for d in deliveries if d[0] == 3]
        assert len(member_deliveries) == 1

    def test_forwarding_group_expires_without_refresh(self):
        network = make_loss_network(3, {link(0, 1): 0.0, link(1, 2): 0.0})
        routers = build_routers(network)
        routers[2].join_group(1)
        routers[0].start_source(1)
        network.run(2.0)
        assert routers[1].is_forwarder(1)
        routers[0].stop_source(1)
        config = routers[1].config
        network.run(network.sim.now + config.fg_timeout_s + 1.0)
        assert not routers[1].is_forwarder(1)

    def test_send_data_requires_source_role(self):
        network = make_loss_network(2, {link(0, 1): 0.0})
        routers = build_routers(network)
        with pytest.raises(ValueError):
            routers[0].send_data(1)

    def test_metric_requires_neighbor_table(self):
        network = make_loss_network(2, {link(0, 1): 0.0})
        with pytest.raises(ValueError):
            OdmrpRouter(
                network.sim, network.nodes[0], metric=SppMetric()
            )

    def test_original_drops_duplicate_queries(self):
        losses = {
            link(0, 1): 0.0, link(1, 3): 0.0,
            link(0, 2): 0.0, link(2, 3): 0.0,
            link(1, 2): 0.0,
        }
        network = make_loss_network(4, losses)
        routers = build_routers(network)
        routers[3].join_group(1)
        routers[0].start_source(1)
        network.run(2.5)
        # Node 3 hears the query twice (via 1 and 2) every round but
        # forwards/replies only once per round.
        dropped = network.nodes[3].counters.get(
            "odmrp.query_duplicate_dropped"
        )
        assert dropped >= 1


class TestMetricOdmrp:
    def figure3_network(self, seed=11):
        """Figure 3 as a live network: A=0, B=1, C=2, D=3, E=4."""
        losses = {
            link(0, 1): 0.2,  # A-B df 0.8
            link(1, 2): 0.2,  # B-C df 0.8
            link(2, 3): 0.2,  # C-D df 0.8
            link(0, 4): 0.1,  # A-E df 0.9
            link(4, 3): 0.6,  # E-D df 0.4
        }
        return make_loss_network(5, losses, seed=seed)

    def run_figure3(self, metric, seed=11):
        network = self.figure3_network(seed)
        deliveries = []
        routers = build_routers(network, metric=metric, deliveries=deliveries)
        routers[3].join_group(1)
        network.run(60.0)  # probe warmup
        routers[0].start_source(1)
        network.run(62.0)
        # Send CBR data for ~30 s.
        from repro.sim.process import PeriodicTask

        task = PeriodicTask(
            network.sim, 0.05, lambda: routers[0].send_data(1)
        )
        task.start()
        network.run(95.0)
        task.stop()
        member_node = network.nodes[3]
        via_c = member_node.counters.get("odmrp.data_rx_from.2")
        via_e = member_node.counters.get("odmrp.data_rx_from.4")
        delivered = len([d for d in deliveries if d[0] == 3])
        return via_c, via_e, delivered

    def test_spp_routes_around_the_lossy_link(self):
        via_c, via_e, _ = self.run_figure3(SppMetric())
        assert via_c > via_e

    def test_spp_beats_etx_on_figure3(self):
        _, _, spp_delivered = self.run_figure3(SppMetric())
        _, _, etx_delivered = self.run_figure3(EtxMetric())
        # SPP prefers the 0.512 path, ETX the 0.36 one (Figure 3).
        assert spp_delivered > etx_delivered

    def test_member_waits_delta_before_reply(self):
        """With a metric, the JOIN REPLY leaves delta after the query."""
        network = make_loss_network(2, {link(0, 1): 0.0})
        config = OdmrpConfig(delta_s=0.5, alpha_s=0.3)
        routers = build_routers(network, metric=SppMetric(), config=config)
        routers[1].join_group(1)
        network.run(10.0)  # probing warmup
        start = network.sim.now
        routers[0].start_source(1)
        # Find when the member's reply goes out.
        network.run(start + 0.4)
        assert network.nodes[1].counters.get("odmrp.reply_sent") == 0
        network.run(start + 1.2)
        assert network.nodes[1].counters.get("odmrp.reply_sent") >= 1

    def test_improved_duplicate_forwarded_within_alpha(self):
        """A relay re-forwards a query when a better-cost duplicate
        arrives inside the alpha window."""
        network = make_loss_network(
            3, {link(0, 1): 0.0, link(1, 2): 0.0}
        )
        config = OdmrpConfig(delta_s=0.5, alpha_s=0.3)
        routers = build_routers(network, metric=SppMetric(), config=config)
        network.run(10.0)
        relay = routers[1]
        payload_poor = JoinQueryPayload(
            group_id=1, source_id=0, sequence=1, prev_hop=0,
            hop_count=0, path_cost=0.2,
        )
        payload_good = JoinQueryPayload(
            group_id=1, source_id=0, sequence=1, prev_hop=0,
            hop_count=0, path_cost=0.9,
        )
        from repro.net.packet import Packet, PacketKind

        relay._on_join_query(
            Packet(PacketKind.JOIN_QUERY, 0, 36, 0.0, payload_poor), 0, 1.0
        )
        relay._on_join_query(
            Packet(PacketKind.JOIN_QUERY, 0, 36, 0.0, payload_good), 0, 1.0
        )
        network.run(network.sim.now + 1.0)
        assert network.nodes[1].counters.get("odmrp.query_improved") == 1
        assert network.nodes[1].counters.get("odmrp.query_forwarded") >= 1

    def test_original_vs_spp_on_lossy_shortcut(self):
        """A 1-hop 60%-lossy shortcut vs a clean 2-hop path: original
        ODMRP leans on the shortcut, SPP avoids it."""
        losses = {
            link(0, 2): 0.6,  # the tempting lossy shortcut
            link(0, 1): 0.02,
            link(1, 2): 0.02,
        }
        results = {}
        for name, metric in (("odmrp", None), ("spp", SppMetric())):
            network = make_loss_network(3, losses, seed=13)
            deliveries = []
            # A tight forwarding-group timeout keeps only the current
            # round's path alive, so the route *choice* (not ODMRP's mesh
            # redundancy) determines throughput.
            config = OdmrpConfig(refresh_interval_s=3.0, fg_timeout_s=3.0)
            routers = build_routers(
                network, metric=metric, config=config,
                deliveries=deliveries,
            )
            routers[2].join_group(1)
            network.run(40.0)
            routers[0].start_source(1)
            from repro.sim.process import PeriodicTask

            task = PeriodicTask(
                network.sim, 0.05, lambda: routers[0].send_data(1)
            )
            task.start()
            network.run(100.0)
            task.stop()
            results[name] = len(deliveries)
        assert results["spp"] > results["odmrp"] * 1.2


class TestIntrospection:
    def test_current_upstream_tracks_newest_round(self):
        network = make_loss_network(3, {link(0, 1): 0.0, link(1, 2): 0.0})
        routers = build_routers(network)
        routers[2].join_group(1)
        routers[0].start_source(1)
        network.run(5.0)
        assert routers[2].current_upstream(0) == 1
        assert routers[1].current_upstream(0) == 0
        assert routers[2].current_upstream(99) is None
