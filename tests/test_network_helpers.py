"""Tests for Network assembly helpers and channel diagnostics."""

from __future__ import annotations

import math
import random

import pytest

from repro.net.network import Network, NetworkConfig
from repro.net.packet import Packet, PacketKind
from repro.net.topology import chain_topology
from repro.phy.fading import CorrelatedRayleighFading, NoFading
from repro.phy.radio import mw_to_dbm
from tests.conftest import make_chain_network


class TestNetworkAssembly:
    def test_radio_calibrated_to_nominal_range(self):
        network = make_chain_network(2, 100.0)
        params = network.radio_params
        at_range = network.channel.propagation.rx_power_mw(
            params.tx_power_mw, network.config.nominal_range_m
        )
        assert mw_to_dbm(at_range) == pytest.approx(
            params.rx_threshold_dbm, abs=1e-6
        )

    def test_custom_radio_params_respected(self):
        from repro.testbed.linkmodel import testbed_radio_params

        params = testbed_radio_params()
        network = Network(
            chain_topology(2, 100.0), radio_params=params
        )
        assert network.radio_params is params
        assert network.nodes[0].params is params

    def test_counter_helpers(self):
        network = make_chain_network(3, 100.0)
        network.nodes[0].send_broadcast(Packet(PacketKind.DATA, 0, 100, 0.0))
        network.nodes[1].send_broadcast(Packet(PacketKind.DATA, 1, 200, 0.0))
        network.run(1.0)
        assert network.total_counter("tx.data.packets") == 2
        assert network.total_counter("tx.data.bytes") == 300
        assert network.total_counter_prefix("tx.data.") == 302  # pkts+bytes

    def test_fading_selection(self):
        default = NetworkConfig()
        assert isinstance(default.build_fading(), CorrelatedRayleighFading)
        iid = NetworkConfig(fading_coherence_time_s=0.0)
        from repro.phy.fading import RayleighFading

        assert isinstance(iid.build_fading(), RayleighFading)
        clean = NetworkConfig(rayleigh_fading=False)
        assert isinstance(clean.build_fading(), NoFading)


def _link_gains(model, times, rng, links=1):
    """Each frame's gains of one fan-out of ``links`` links, stepped at
    ``times`` as the channel steps a sender's fan-out."""
    states = model.link_states(links)
    last_t = math.nan
    frames = []
    for now in times:
        frames.append(model.sample_link_gains(links, states, last_t, now, rng))
        last_t = now
    return frames


class TestCorrelatedFading:
    def test_marginal_mean_is_one(self):
        model = CorrelatedRayleighFading(coherence_time_s=1.0)
        rng = random.Random(3)
        samples = [
            gain
            for gains in _link_gains(model, [t * 0.5 for t in range(20000)], rng)
            for gain in gains
        ]
        assert sum(samples) / len(samples) == pytest.approx(1.0, abs=0.05)

    def test_short_gaps_are_correlated_long_gaps_are_not(self):
        model = CorrelatedRayleighFading(coherence_time_s=10.0)
        rng = random.Random(4)
        # Sample pairs separated by 0.1 s (correlated) vs 1000 s (fresh).
        def correlation(gap):
            pairs = []
            t = 0.0
            for _ in range(4000):
                (a,), (b,) = _link_gains(model, [t, t + gap], rng)
                pairs.append((a, b))
                t += gap + 1000.0
            mean_a = sum(a for a, _ in pairs) / len(pairs)
            mean_b = sum(b for _, b in pairs) / len(pairs)
            cov = sum((a - mean_a) * (b - mean_b) for a, b in pairs) / len(pairs)
            var = sum((a - mean_a) ** 2 for a, _ in pairs) / len(pairs)
            return cov / var

        assert correlation(0.1) > 0.8
        assert abs(correlation(1000.0)) < 0.15

    def test_independent_links_independent_states(self):
        model = CorrelatedRayleighFading(coherence_time_s=5.0)
        rng = random.Random(5)
        (gain_ab, gain_ba), = _link_gains(model, [0.0], rng, links=2)
        # Each link is its own process (drawn separately).
        assert gain_ab != gain_ba

    def test_validation(self):
        with pytest.raises(ValueError):
            CorrelatedRayleighFading(coherence_time_s=0.0)


class TestReceptionDiagnostics:
    def test_connectivity_map_symmetric_for_identical_radios(self):
        network = make_chain_network(4, 200.0)
        conn = network.channel.connectivity_map()
        for node, neighbors in conn.items():
            for other in neighbors:
                assert node in conn[other]

    def test_audible_neighbors_superset_of_decodable(self):
        network = make_chain_network(4, 200.0)
        conn = network.channel.connectivity_map()
        for node in network.nodes:
            audible = {
                n.node_id
                for n, _p in network.channel.audible_neighbors(node.node_id)
            }
            assert set(conn[node.node_id]) <= audible
