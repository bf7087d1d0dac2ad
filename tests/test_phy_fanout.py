"""The batched PHY fan-out, bit-identical to the per-link loop.

Each transmission draws all of its audible links' fading at once and
makes one inlined pass over its receivers at each end of the frame: on
the pure-Python passes every frame makes one
:meth:`FadingModel.sample_link_gains` call first.  On the compiled
kernel, with correlated Rayleigh fading, a sender whose links were last
updated at one time -- or never, on its first frame -- draws each
link's AR(1) step inside the frame-start pass
(:meth:`CorrelatedRayleighFading.uniform_row`), and any other frame
makes the batch call.  All of it is speed-only, so these tests pin it
to the per-link formulation:

* every stochastic model's batch returns the floats, and leaves the
  stream where, one ``sample_link_gain`` call per link would -- under
  reused and fresh receiver lists, repeated times and late first
  touches, and interleaved with per-link calls;
* the correlated model's compact link state (one flat ``array('d')``
  per sender) gives the per-link results under any mix of per-link,
  subset, full-row and fused-row updates, and carries each link's state
  by receiver id when its row is rebuilt around another list;
* models the batch cannot mirror (subclasses, a half-drawn gaussian)
  fall back to the per-link default;
* whole runs of the six paper protocols are equal with and without the
  batch and the fused draw, also under faults (filtered frames) and
  per-link calls mid-run, on both paths; the Python path makes one
  batch call per frame, and on the kernel a plain paper run takes the
  fused draw for every frame, a sender's first included;
* a frame's receivers split into ``touched`` (power) and ``decoding``
  (pending reception), and only the latter are decided;
* a carrier-sense flip reaches a MAC only when it acts on it: a busy
  flip cancels a pending backoff, an idle flip restarts a deferring
  MAC, and an idle MAC gets no call;
* each node's PHY state is a row of the channel's ledger: the node's
  views equal the ledger's columns at every invariant-monitor check on
  both paths, an unregistered node reads as an idle radio, and a run
  without the compiled kernel reproduces the fault goldens.
"""

from __future__ import annotations

import dataclasses
import math
import random
from array import array

import pytest

from repro.experiments.faults import FaultPlan, FlappingSpec, OutageWindow
from repro.experiments.runner import collect_result, run_protocol
from repro.experiments.scenarios import (
    PROTOCOL_NAMES,
    SimulationScenarioConfig,
    build_simulation_scenario,
)
from repro.mac.csma import BROADCAST_ID
from repro.net.channel import ChannelError, WirelessChannel
from repro.net.network import Network
from repro.net.node import Node
from repro.net.packet import Packet, PacketKind
from repro.net.topology import Position, chain_topology
from repro.phy.fading import (
    TWOPI,
    CorrelatedRayleighFading,
    RayleighFading,
    RicianFading,
)
from repro.sim.engine import Simulator
from repro.validation.invariants import ValidationConfig
from repro.validation.monitors import ChannelConservationMonitor
from tests.conftest import (
    KERNEL_UNAVAILABLE,
    make_chain_network,
    phy_path,
    requires_kernel,
)
from tests.test_golden_fault_mobility import CASES, GOLDEN, result_digest

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


def fused_update(row, ids, now, rng):
    """The update ``uniform_row`` documents, applied to ``ids``' triples."""
    states, rho, innovation = row
    gains = []
    for i in range(0, 3 * len(ids), 3):
        x2pi = rng.random() * TWOPI
        g2rad = math.sqrt(-2.0 * math.log(1.0 - rng.random()))
        real = rho * states[i + 1] + (0.0 + (math.cos(x2pi) * g2rad) * innovation)
        imag = rho * states[i + 2] + (0.0 + (math.sin(x2pi) * g2rad) * innovation)
        states[i:i + 3] = array("d", (now, real, imag))
        gains.append(real * real + imag * imag)
    return gains


class TestUniformRow:
    def test_offered_only_for_a_uniform_cached_row(self):
        fading = CorrelatedRayleighFading(coherence_time_s=2.0)
        rng = random.Random(4)
        # A sender's first frame: zeroed states, rho 0, innovation
        # sqrt(0.5), so the update is a fresh link's draw.
        states, rho, innovation = fading.uniform_row(0, FULL, 0.0, rng)
        assert (rho, innovation) == (0.0, math.sqrt(0.5))
        assert isinstance(states, array) and len(states) == 3 * len(FULL)
        assert list(states[1::3]) == list(states[2::3]) == [0.0] * len(FULL)
        fused_update((states, rho, innovation), FULL, 0.0, rng)
        assert fading.uniform_row(0, FULL, 0.0, rng) is None  # rho == 1
        # Another list object rebuilds the row around it: one batch
        # call, then the fused pass again.
        other = list(FULL)
        assert fading.uniform_row(0, other, 0.5, rng) is None
        fading.sample_link_gains(0, other, 0.5, rng)
        states, rho, innovation = fading.uniform_row(0, other, 1.0, rng)
        assert rho == math.exp(-0.25) and innovation > 0.0
        assert list(states[0::3]) == [0.5] * len(FULL)
        fused_update((states, rho, innovation), other, 1.0, rng)
        fading.sample_link_gain((0, 3), 1.2, rng)
        assert fading.uniform_row(0, other, 1.5, rng) is None
        fading.sample_link_gains(0, other, 1.5, rng)
        fading.sample_link_gain((1, 3), 1.6, rng)  # another sender's link
        fading.sample_link_gain((0, 99), 1.6, rng)  # not in the row's list
        assert fading.uniform_row(0, other, 2.0, rng) is not None
        fading.sample_link_gains(0, [1, 2], 2.5, rng)  # a subset
        assert fading.uniform_row(0, other, 3.0, rng) is None
        rng.gauss(0.0, 1.0)
        fading.sample_link_gains(0, other, 3.5, rng)
        assert fading.uniform_row(0, other, 4.0, rng) is None  # half-drawn
        # A sender whose links were sampled another way first has no
        # uniform time until one batch call over its list.
        fading.sample_link_gain((2, 1), 0.0, random.Random(1))
        assert fading.uniform_row(2, FULL, 1.0, random.Random(1)) is None

    def test_documented_update_equals_per_link_draws(self):
        reference = CorrelatedRayleighFading(coherence_time_s=1.0)
        fading = CorrelatedRayleighFading(coherence_time_s=1.0)
        ref_rng, rng = random.Random(9), random.Random(9)
        expected, got = [], []
        for now in (0.0, 0.3, 0.7, 2.0):
            expected += [
                reference.sample_link_gain((0, rid), now, ref_rng)
                for rid in FULL
            ]
            row = fading.uniform_row(0, FULL, now, rng)
            if row is None:
                got += fading.sample_link_gains(0, FULL, now, rng)
                continue
            got += fused_update(row, FULL, now, rng)
        assert got == expected
        assert rng.random() == ref_rng.random()


class TestCompactLinkState:
    """One flat ``array('d')`` per sender, against a per-link reference."""

    @pytest.mark.parametrize("seed", range(6))
    def test_mixed_calls_equal_per_link_reference(self, seed):
        """Random interleavings of every entry point: per-link calls
        (links inside and outside the row), subsets in any order, the
        full row, the fused row, and a rebuild around another list."""
        plan = random.Random(seed)
        fading = CorrelatedRayleighFading(coherence_time_s=0.5)
        reference = CorrelatedRayleighFading(coherence_time_s=0.5)
        rng, ref_rng = random.Random(seed), random.Random(seed)
        rows = {0: list(FULL), 1: [0, 2, 4, 6]}
        got, expected = [], []
        now = 0.0
        for _ in range(60):
            now += plan.choice((0.0, 0.05, 0.3, 1.0))
            sender = plan.choice((0, 1))
            ids = rows[sender]
            kind = plan.choice(("link", "subset", "full", "fused", "rekey"))
            if kind == "link":
                rid = plan.choice(ids + [7, 8])
                ids = [rid]
                got.append(fading.sample_link_gain((sender, rid), now, rng))
            elif kind == "subset":
                ids = plan.sample(ids, plan.randint(1, len(ids)))
                got += fading.sample_link_gains(sender, ids, now, rng)
            elif kind == "full":
                got += fading.sample_link_gains(sender, ids, now, rng)
            else:
                if kind == "rekey":
                    # Reordered, with link 9 joining or leaving.
                    ids = rows[sender] = (
                        [rid for rid in reversed(ids) if rid != 9]
                        + ([] if 9 in ids else [9])
                    )
                row = fading.uniform_row(sender, ids, now, rng)
                if row is None:
                    got += fading.sample_link_gains(sender, ids, now, rng)
                else:
                    got += fused_update(row, ids, now, rng)
            expected += [
                reference.sample_link_gain((sender, rid), now, ref_rng)
                for rid in ids
            ]
        assert got == expected
        assert rng.random() == ref_rng.random()

    def test_rebuilt_row_carries_state_by_receiver_id(self):
        """A row rebuilt around a new list (a re-finalize) keeps every
        link's triple, the dropped ones included, in the new order."""
        fading = CorrelatedRayleighFading(coherence_time_s=5.0)
        rng = random.Random(3)
        ids = [1, 2, 3, 4]
        fading.sample_link_gains(0, [1, 3], 1.0, rng)
        before = {
            rid: tuple(fading._links[0].state[3 * k:3 * k + 3])
            for k, rid in enumerate(fading._links[0].rids)
        }
        assert sorted(before) == [1, 3]
        assert fading.uniform_row(0, ids, 2.0, rng) is None
        row = fading._links[0]
        assert row.key is ids and row.rids == ids
        triples = [tuple(row.state[i:i + 3]) for i in range(0, 12, 3)]
        assert triples[0] == before[1] and triples[2] == before[3]
        assert all(math.isnan(t) for t, _re, _im in (triples[1], triples[3]))
        new_ids = [3, 5]
        assert fading.uniform_row(0, new_ids, 2.0, rng) is None
        row = fading._links[0]
        assert row.rids[:2] == new_ids and sorted(row.rids[2:]) == [1, 2, 4]
        assert tuple(row.state[0:3]) == before[3]
        assert tuple(row.state[3 * row.rids.index(1):][:3]) == before[1]


class PerLinkCorrelated(CorrelatedRayleighFading):
    """The stock model behind a replaced per-link entry point, so the
    channel's one batch call falls back to one call per link."""

    def sample_link_gain(self, link_key, now, rng):
        return super().sample_link_gain(link_key, now, rng)


#: Each case is a ``SimulationScenarioConfig`` field override.
PARITY_CASES = {
    "faults": FaultPlan(
        outages=(OutageWindow(node_id=2, start_s=3.0, end_s=5.0),),
        flapping=(FlappingSpec(node_id=5, start_s=2.0, period_s=2.0,
                               down_fraction=0.4, until_s=7.0),),
    ),
}

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
    """Runs on the pure-Python passes; :class:`TestCompiledRunParity`
    repeats every case on the compiled kernel."""

    BACKEND = "scalar"

    def run(self, protocol, config):
        with phy_path(self.BACKEND):
            return run_protocol(protocol, config)

    @pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
    def test_batched_run_equals_per_link_run(self, protocol):
        coherence = RUN_CONFIG.network.fading_coherence_time_s
        batched_run = self.run(
            protocol,
            with_fading(RUN_CONFIG, CorrelatedRayleighFading(coherence)),
        )
        per_link_run = self.run(
            protocol,
            with_fading(RUN_CONFIG, PerLinkCorrelated(coherence)),
        )
        assert batched_run.error is None
        assert batched_run.delivered_packets > 0
        assert batched_run == per_link_run

    @pytest.mark.parametrize("case", ["faults"])
    def test_fused_run_equals_per_link_run(self, case):
        """Down receivers filter a frame (``sel``), which hands it back
        to the batch call, and the run stays equal to the per-link
        one."""
        config = dataclasses.replace(RUN_CONFIG, **{case: PARITY_CASES[case]})
        coherence = config.network.fading_coherence_time_s
        fused = self.run(
            "spp", with_fading(config, CorrelatedRayleighFading(coherence))
        )
        per_link = self.run(
            "spp", with_fading(config, PerLinkCorrelated(coherence))
        )
        assert fused.error is None
        assert fused.delivered_packets > 0
        assert fused == per_link

    def test_per_link_calls_mid_run_leave_the_run_unchanged(self):
        """A ``sample_link_gain`` call between frames resumes its link
        exactly: on the kernel it clears its sender's row time, so that
        sender's next frame takes the batch call and no other frame
        does; the Python path makes the batch call every frame."""
        coherence = RUN_CONFIG.network.fading_coherence_time_s
        results, batch_calls, frames = [], [], []
        for fading in (
            CorrelatedRayleighFading(coherence),
            PerLinkCorrelated(coherence),
        ):
            with phy_path(self.BACKEND):
                scenario = build_simulation_scenario(
                    "odmrp", with_fading(RUN_CONFIG, fading)
                )
            channel = scenario.network.channel
            calls = _count_calls(fading, "sample_link_gains")

            def touch(sender_id):
                rid = channel.audible_neighbors(sender_id)[0][0].node_id
                fading.sample_link_gain(
                    (sender_id, rid), channel.sim.now, channel._fading_rng
                )

            for k in range(40):
                channel.sim.schedule(0.25 * k + 0.1, touch, k % 12)
            scenario.network.sim.run(until=RUN_CONFIG.duration_s)
            results.append(collect_result(scenario))
            batch_calls.append(calls[0])
            frames.append(channel.counters.total("channel.tx."))
        assert results[0].error is None
        assert results[0] == results[1]
        self.assert_touched_batches(batch_calls[0], frames[0])

    def assert_touched_batches(self, batch_calls, frames):
        assert batch_calls == frames > 0

    def test_two_fading_draws_per_audible_receiver(self):
        """The Python path draws each frame in one batch call: two
        ``random()`` draws per audible receiver, no per-link call."""
        with phy_path(self.BACKEND):
            network = Network(chain_topology(5, 150.0), seed=3)
        channel = network.channel
        assert not channel.compiled
        batch_calls = _count_calls(channel.fading, "sample_link_gains")
        link_calls = _count_calls(channel.fading, "sample_link_gain")
        draws = _count_calls(channel._fading_rng, "random")
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
        audible = sum(
            4 * len(channel.audible_neighbors(node.node_id))
            for node in network.nodes
        )
        assert draws[0] == 2 * audible
        assert link_calls[0] == 0
        assert batch_calls[0] == frames


@requires_kernel
class TestCompiledRunParity(TestRunParity):
    """Every :class:`TestRunParity` case on the compiled kernel, and the
    fused draw the kernel takes where a sender's links share one
    last-update time."""

    BACKEND = "compiled"

    def assert_touched_batches(self, batch_calls, frames):
        # Every touch sends its sender back through one batch call.
        assert 0 < batch_calls <= 40

    def test_plain_paper_run_takes_the_fused_pass(self):
        """On a static paper-density mesh a sender's receiver list never
        changes, so every frame -- a sender's first included -- is drawn
        inside the frame-start pass: no batch call at all."""
        config = SimulationScenarioConfig(duration_s=6.0, warmup_s=2.0)
        scenario = build_simulation_scenario("spp", config)
        channel = scenario.network.channel
        assert channel.compiled
        senders = []
        batch = channel.fading.sample_link_gains

        def counted_batch(sender_id, *args):
            senders.append(sender_id)
            return batch(sender_id, *args)

        channel.fading.sample_link_gains = counted_batch
        scenario.network.sim.run(until=config.duration_s)
        frames = channel.counters.total("channel.tx.")
        assert frames > 20 * config.num_nodes
        assert senders == []

    def test_first_frame_takes_the_fused_pass(self):
        """A fresh sender's frame draws each link's first state inside
        the pass: no batch call, two draws a receiver, and the powers a
        per-link draw gives."""
        network = Network(chain_topology(4, 150.0), seed=7)
        channel = network.channel
        assert channel.compiled
        reference = random.Random()
        reference.setstate(channel._fading_rng.getstate())
        batch_calls = _count_calls(channel.fading, "sample_link_gains")
        sender = network.nodes[1]
        tx = channel.begin_transmission(
            sender, Packet(PacketKind.DATA, 1, 100, 0.0), BROADCAST_ID,
            0.001, notify_sender=False,
        )
        assert batch_calls[0] == 0
        per_link = CorrelatedRayleighFading(
            channel.fading.coherence_time_s
        )
        audible = channel.audible_neighbors(sender.node_id)
        assert tx.touched == [receiver.node_id for receiver, _ in audible]
        assert tx.powers == [
            mean_mw * per_link.sample_link_gain(
                (1, receiver.node_id), 0.0, reference
            )
            for receiver, mean_mw in audible
        ]
        assert channel._fading_rng.getstate() == reference.getstate()

    def test_two_fading_draws_per_audible_receiver(self):
        """The kernel draws in C, where no Python ``random()`` call can
        be counted: the stream must end where a clone of it advanced by
        two draws per audible receiver ends."""
        network = Network(chain_topology(5, 150.0), seed=3)
        channel = network.channel
        clone = random.Random()
        clone.setstate(channel._fading_rng.getstate())
        batch_calls = _count_calls(channel.fading, "sample_link_gains")
        link_calls = _count_calls(channel.fading, "sample_link_gain")
        for node in network.nodes:
            for k in range(4):
                network.sim.schedule(
                    0.05 * k + 0.003 * node.node_id,
                    lambda n=node: n.send_broadcast(
                        Packet(PacketKind.DATA, n.node_id, 200, n.sim.now)
                    ),
                )
        network.run(1.0)
        assert channel.counters.total("channel.tx.") == 20
        audible = sum(
            4 * len(channel.audible_neighbors(node.node_id))
            for node in network.nodes
        )
        for _ in range(2 * audible):
            clone.random()
        assert channel._fading_rng.getstate() == clone.getstate()
        assert network.sim.rng.stream("phy.fading") is channel._fading_rng
        assert link_calls[0] == 0
        assert batch_calls[0] == 0


def _count_calls(owner, attr):
    """Count calls of ``owner.attr`` (patched on the instance)."""
    count = [0]
    original = getattr(owner, attr)

    def counted(*args):
        count[0] += 1
        return original(*args)

    setattr(owner, attr, counted)
    return count


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
        assert tx.touched[:2] == [1, 2]
        assert tx.decoding == [1]
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
        assert own.decoding == [a.node_id]
        assert tx.touched == [b.node_id] and tx.decoding == []
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
        row = middle.pending_receptions[first]
        assert row == [middle.power_ledger()[first], 0.0]
        second = channel.begin_transmission(
            right, Packet(PacketKind.DATA, 2, 1500, 0.0), BROADCAST_ID,
            0.006, notify_sender=False,
        )
        ledger = middle.power_ledger()
        assert row[1] == pytest.approx(ledger[second])
        late = middle.pending_receptions[second]
        assert late == [ledger[second], pytest.approx(ledger[first])]
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
        assert quiet.touched[0] == loud.touched[0] == node.node_id
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


class TestLedgerViews:
    @pytest.mark.parametrize("backend", ["scalar", "compiled"])
    def test_views_equal_the_ledger_at_every_monitor_check(
        self, backend, monkeypatch
    ):
        if backend == "compiled" and KERNEL_UNAVAILABLE is not None:
            pytest.skip(KERNEL_UNAVAILABLE)
        checked = []
        original = ChannelConservationMonitor.check

        def check(monitor, now):
            network = monitor.scenario.network
            ledger = network.channel.ledger
            assert ledger.nodes == network.nodes
            for node_id, node in enumerate(network.nodes):
                assert node.node_id == node_id
                assert node.current_power_mw == ledger.power_mw[node_id]
                assert node.on_air_count == ledger.on_air[node_id]
                assert node.sensed_busy is ledger.busy[node_id]
                assert node.transmitting is ledger.transmitting[node_id]
                assert node.pending_receptions is ledger.pending[node_id]
                assert node.mac is ledger.macs[node_id]
                assert ledger.sense_mw[node_id] == (
                    node.params.carrier_sense_threshold_mw
                )
            checked.append(now)
            original(monitor, now)

        monkeypatch.setattr(ChannelConservationMonitor, "check", check)
        config = SimulationScenarioConfig(
            num_nodes=12, area_width_m=600.0, area_height_m=600.0,
            num_groups=1, members_per_group=4, duration_s=8.0,
            warmup_s=2.0, topology_seed=5,
            faults=FaultPlan(outages=(OutageWindow(2, 3.0, 5.0),)),
            validation=ValidationConfig(
                enabled=True, check_interval_s=0.5,
                monitors=("channel-conservation",),
            ),
        )
        with phy_path(backend):
            scenario = build_simulation_scenario("spp", config)
        assert scenario.network.channel.compiled is (backend == "compiled")
        scenario.run()
        assert len(checked) >= 16

    def test_unregistered_node_reads_as_an_idle_radio(self):
        node = Node(0, Position(0.0, 0.0), Simulator(seed=1))
        assert node.current_power_mw == 0.0 and node.on_air_count == 0
        assert not node.transmitting and not node.sensed_busy
        assert not node.medium_busy
        node.set_active(False)  # no ledger row to update
        with pytest.raises(RuntimeError, match="not registered"):
            node.phy_begin_own_tx()

    def test_node_ids_must_be_dense(self):
        sim = Simulator(seed=1)
        with pytest.raises(ChannelError, match="dense"):
            WirelessChannel(sim).register_node(
                Node(1, Position(0.0, 0.0), sim)
            )

    @pytest.mark.parametrize("protocol", ["odmrp", "spp"])
    def test_no_kernel_run_matches_the_fault_golden(self, protocol, no_kernel):
        """Without a compiler the channel runs the pure-Python ledger
        passes and reproduces the scalar fault golden bit for bit."""
        assert no_kernel.load() is None
        scenario = build_simulation_scenario(
            protocol, CASES["faults-30-scalar"]
        )
        assert not scenario.network.channel.compiled
        scenario.run()
        result = collect_result(scenario)
        assert result_digest(result) == GOLDEN["faults-30-scalar"][protocol]
