"""The batched PHY fan-out, bit-identical to the per-link loop.

Each transmission makes one fading call for all of its audible links
(:meth:`FadingModel.sample_link_gains`) and one inlined pass over its
receivers at each end of the frame.  Both are speed-only changes, so
these tests pin them to the per-link formulation:

* every stochastic model's batch returns the floats, and leaves the
  stream where, one ``sample_link_gain`` call per link would -- under
  reused and fresh receiver lists, repeated times and late first
  touches, and interleaved with per-link calls;
* models the batch cannot mirror (subclasses, a half-drawn gaussian)
  fall back to the per-link default;
* whole runs of the six paper protocols are equal with and without the
  batch;
* a frame's receivers split into ``touched`` (power) and ``decoding``
  (pending reception), and only the latter are decided;
* a carrier-sense flip reaches a MAC only when it acts on it: a busy
  flip cancels a pending backoff, an idle flip restarts a deferring
  MAC, and an idle MAC gets no call.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.experiments.runner import run_protocol
from repro.experiments.scenarios import (
    PROTOCOL_NAMES,
    SimulationScenarioConfig,
)
from repro.mac.csma import BROADCAST_ID
from repro.net.network import Network, NetworkConfig
from repro.net.packet import Packet, PacketKind
from repro.net.topology import chain_topology
from repro.phy.fading import (
    CorrelatedRayleighFading,
    RayleighFading,
    RicianFading,
)
from tests.conftest import make_chain_network

MODELS = [
    RayleighFading,
    lambda: RicianFading(k_factor=3.0),
    lambda: CorrelatedRayleighFading(coherence_time_s=10.0),
    lambda: CorrelatedRayleighFading(coherence_time_s=0.25),
]

FULL = [1, 2, 3, 4, 5, 6]

#: (now, receiver ids) batches.  ``FULL`` is the same list object each
#: time, as the channel passes it; the literals are fresh lists, as the
#: channel builds when some receivers are down.
BATCHES = [
    [(0.0, FULL), (1.0, FULL), (1.0, FULL), (4.5, FULL)],
    [(0.0, [1, 2, 3]), (2.0, FULL), (2.0, [6, 1]), (3.0, FULL),
     (3.5, [2])],
    [(10.0, [5]), (10.5, FULL), (11.0, FULL), (40.0, [4, 5])],
]


def per_link(fading, seed, batches):
    rng = random.Random(seed)
    gains = [
        [fading.sample_link_gain((0, rid), now, rng) for rid in ids]
        for now, ids in batches
    ]
    return gains, rng.random()


def batched(fading, seed, batches):
    rng = random.Random(seed)
    gains = [fading.sample_link_gains(0, ids, now, rng) for now, ids in batches]
    return gains, rng.random()


class TestSampleLinkGains:
    @pytest.mark.parametrize("make_fading", MODELS)
    @pytest.mark.parametrize("batches", BATCHES)
    @pytest.mark.parametrize("seed", [1, 99])
    def test_bit_identical_to_per_link(self, make_fading, batches, seed):
        assert batched(make_fading(), seed, batches) == per_link(
            make_fading(), seed, batches
        )

    def test_interleaved_with_per_link_calls(self):
        """A link started per-link after its row was cached is resumed,
        not restarted, by the next batch."""
        ids = [1, 2, 3]
        reference = CorrelatedRayleighFading(coherence_time_s=2.0)
        fading = CorrelatedRayleighFading(coherence_time_s=2.0)
        ref_rng, rng = random.Random(5), random.Random(5)
        expected = [reference.sample_link_gain((0, 1), 0.0, ref_rng)]
        got = fading.sample_link_gains(0, ids[:1], 0.0, rng)
        # Cache a row with links 2 and 3 unsampled ...
        expected += [
            reference.sample_link_gain((0, rid), 1.0, ref_rng)
            for rid in ids
        ]
        got += fading.sample_link_gains(0, ids, 1.0, rng)
        # ... then touch link 3 per link, and batch the same row again.
        expected.append(reference.sample_link_gain((0, 3), 1.5, ref_rng))
        got.append(fading.sample_link_gain((0, 3), 1.5, rng))
        expected += [
            reference.sample_link_gain((0, rid), 2.0, ref_rng)
            for rid in ids
        ]
        got += fading.sample_link_gains(0, ids, 2.0, rng)
        assert got == expected
        assert rng.random() == ref_rng.random()

    def test_subclass_math_is_not_inlined(self):
        class Halved(CorrelatedRayleighFading):
            def sample_link_gain(self, link_key, now, rng):
                return 0.5 * super().sample_link_gain(link_key, now, rng)

        batches = BATCHES[1]
        assert batched(Halved(1.0), 3, batches) == per_link(
            Halved(1.0), 3, batches
        )

    @pytest.mark.parametrize("make_fading", MODELS)
    def test_half_drawn_gaussian_falls_back(self, make_fading):
        """A stream left with a cached gaussian mate (a lone ``gauss``
        call elsewhere) is consumed exactly as the per-link path would."""
        def run(sample):
            rng = random.Random(11)
            rng.gauss(0.0, 1.0)
            fading = make_fading()
            return [sample(fading, rng, now) for now in (0.0, 0.5)], rng.random()

        assert run(
            lambda fading, rng, now: fading.sample_link_gains(0, FULL, now, rng)
        ) == run(
            lambda fading, rng, now: [
                fading.sample_link_gain((0, rid), now, rng) for rid in FULL
            ]
        )


class PerLinkCorrelated(CorrelatedRayleighFading):
    """The stock model behind a replaced per-link entry point, so the
    channel's one batch call falls back to one call per link."""

    def sample_link_gain(self, link_key, now, rng):
        return super().sample_link_gain(link_key, now, rng)


RUN_CONFIG = SimulationScenarioConfig(
    num_nodes=12,
    area_width_m=600.0,
    area_height_m=600.0,
    num_groups=1,
    members_per_group=4,
    rate_pps=10.0,
    duration_s=10.0,
    warmup_s=3.0,
)


def with_fading(config, fading):
    return dataclasses.replace(
        config,
        network=dataclasses.replace(config.network, fading=fading),
    )


class TestRunParity:
    @pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
    def test_batched_run_equals_per_link_run(self, protocol):
        coherence = RUN_CONFIG.network.fading_coherence_time_s
        batched_run = run_protocol(
            protocol,
            with_fading(RUN_CONFIG, CorrelatedRayleighFading(coherence)),
        )
        per_link_run = run_protocol(
            protocol, with_fading(RUN_CONFIG, PerLinkCorrelated(coherence))
        )
        assert batched_run.error is None
        assert batched_run.delivered_packets > 0
        assert batched_run == per_link_run

    def test_one_fading_call_per_transmission(self):
        network = Network(
            chain_topology(5, 150.0), seed=3,
            config=NetworkConfig(phy_backend="scalar"),
        )
        channel = network.channel
        calls = {"batch": 0, "link": 0}
        batch, link = channel.fading.sample_link_gains, channel.fading.sample_link_gain

        def counted_batch(*args):
            calls["batch"] += 1
            return batch(*args)

        def counted_link(*args):
            calls["link"] += 1
            return link(*args)

        channel.fading.sample_link_gains = counted_batch
        channel.fading.sample_link_gain = counted_link
        for node in network.nodes:
            for k in range(4):
                network.sim.schedule(
                    0.05 * k + 0.003 * node.node_id,
                    lambda n=node: n.send_broadcast(
                        Packet(PacketKind.DATA, n.node_id, 200, n.sim.now)
                    ),
                )
        network.run(1.0)
        frames = channel.counters.total("channel.tx.")
        assert frames == 20
        assert calls == {"batch": frames, "link": 0}


class TestReceiverBookkeeping:
    def test_only_decodable_receivers_are_decided(self):
        """At 200 m spacing node 0's frame is decodable at node 1 only,
        yet sensed out to node 2: both get power, one gets a reception."""
        network = make_chain_network(4, 200.0)
        nodes = network.nodes
        tx = network.channel.begin_transmission(
            nodes[0], Packet(PacketKind.DATA, 0, 300, 0.0), BROADCAST_ID,
            0.002, notify_sender=False,
        )
        assert [n.node_id for n in tx.touched][:2] == [1, 2]
        assert tx.decoding == [nodes[1]]
        assert set(nodes[1].pending_receptions) == {tx}
        assert not nodes[2].pending_receptions
        assert nodes[2].power_ledger() == {tx: nodes[2].current_power_mw}
        network.run(0.1)
        assert nodes[1].counters.get("phy.rx_ok") == 1
        for node in nodes:
            assert not node.pending_receptions
            assert node.current_power_mw == 0.0
            assert node.power_ledger() == {}

    def test_transmitting_receiver_gets_power_but_no_reception(self):
        network = make_chain_network(2, 100.0)
        a, b = network.nodes
        channel = network.channel
        own = channel.begin_transmission(
            b, Packet(PacketKind.DATA, 1, 1500, 0.0), BROADCAST_ID, 0.006,
            notify_sender=False,
        )
        tx = channel.begin_transmission(
            a, Packet(PacketKind.DATA, 0, 100, 0.0), BROADCAST_ID, 0.001,
            notify_sender=False,
        )
        assert own.decoding == [a]
        assert tx.touched == [b] and tx.decoding == []
        assert tx in b.power_ledger()
        # ``a`` started transmitting while decoding ``own``: half duplex.
        network.run(0.1)
        assert a.counters.get("phy.rx_failed_half_duplex") == 1

    def test_new_reception_starts_with_concurrent_interference(self):
        network = make_chain_network(3, 200.0)
        left, middle, right = network.nodes
        channel = network.channel
        first = channel.begin_transmission(
            left, Packet(PacketKind.DATA, 0, 1500, 0.0), BROADCAST_ID, 0.006,
            notify_sender=False,
        )
        reception = middle.pending_receptions[first]
        assert reception.peak_interference_mw == 0.0
        second = channel.begin_transmission(
            right, Packet(PacketKind.DATA, 2, 1500, 0.0), BROADCAST_ID,
            0.006, notify_sender=False,
        )
        ledger = middle.power_ledger()
        assert reception.peak_interference_mw == pytest.approx(ledger[second])
        late = middle.pending_receptions[second]
        assert late.peak_interference_mw == pytest.approx(ledger[first])
        network.run(0.1)
        assert middle.counters.get("phy.rx_failed_collision") == 2


def _spy_medium_state(mac):
    """Record every ``on_medium_state`` call that reaches ``mac``."""
    calls = []
    original = mac.on_medium_state

    def spy(busy):
        calls.append(busy)
        original(busy)

    mac.on_medium_state = spy
    return calls


def _frame(network, sender, duration_s):
    return network.channel.begin_transmission(
        sender, Packet(PacketKind.DATA, sender.node_id, 100, network.sim.now),
        BROADCAST_ID, duration_s, notify_sender=False,
    )


class TestGatedSenseNotification:
    """Carrier-sense flips reach the MAC only when it acts on them."""

    def test_frame_over_threshold_cancels_pending_backoff(self):
        # 300 m spacing: a neighbour's frame alone trips carrier sense at
        # node 0; node 2's, 600 m out, is audible but stays below it.
        network = make_chain_network(3, 300.0)
        node, near, far = network.nodes
        threshold = node.params.carrier_sense_threshold_mw
        calls = _spy_medium_state(node.mac)
        node.send_broadcast(Packet(PacketKind.DATA, 0, 100, 0.0))
        assert node.mac.awaited_sense is True  # backoff pending
        handle = node.mac._backoff_handle

        quiet = _frame(network, far, 0.01)
        assert node.on_air_count == 1
        assert 0.0 < node.current_power_mw < threshold
        assert calls == [] and not node.sensed_busy
        assert not handle.cancelled

        loud = _frame(network, near, 0.01)
        assert quiet.touched[0] is node and loud.touched[0] is node
        assert node.current_power_mw >= threshold
        assert calls == [True]
        assert node.sensed_busy and node.medium_busy
        assert handle.cancelled
        assert node.mac.awaited_sense is False  # now deferring

    def test_deferring_mac_contends_when_last_frame_ends(self):
        network = make_chain_network(3, 300.0)
        left, node, right = network.nodes
        calls = _spy_medium_state(node.mac)
        _frame(network, left, 0.002)
        _frame(network, right, 0.004)
        assert calls == []  # idle MAC: the busy flip is skipped
        node.send_broadcast(Packet(PacketKind.DATA, 1, 100, 0.0))
        assert node.mac.awaited_sense is False  # deferring: medium busy
        backoffs = node.mac.backoffs

        network.sim.run(until=0.003)
        assert node.on_air_count == 1 and node.sensed_busy
        assert calls == []  # still busy: the right frame alone trips it

        network.sim.run(until=0.004 + 1e-7)
        assert node.on_air_count == 0 and node.current_power_mw == 0.0
        assert calls == [False]
        assert node.mac.awaited_sense is True  # contending again
        assert node.mac.backoffs == backoffs + 1

    def test_idle_mac_gets_no_call(self):
        network = make_chain_network(3, 300.0)
        left, node, right = network.nodes
        calls = _spy_medium_state(node.mac)
        _frame(network, left, 0.002)
        assert node.sensed_busy
        _frame(network, right, 0.001)
        network.sim.run(until=0.0015)
        assert node.sensed_busy
        network.sim.run(until=0.01)
        assert not node.sensed_busy and not node.medium_busy
        assert node.mac.awaited_sense is None
        assert calls == []
