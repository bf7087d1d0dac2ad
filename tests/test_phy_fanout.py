"""The batched PHY fan-out, bit-identical to the per-link loop.

Each transmission draws all of its audible links' fading at once and
makes one inlined pass over its receivers at each end of the frame.
The links' fading state lives in the sender's fan-out: on the
pure-Python passes every frame makes one
:meth:`FadingModel.sample_link_gains` call over it; on the compiled
kernel, with correlated Rayleigh fading, every frame -- a sender's first
included -- draws each link's AR(1) step inside the frame-start pass.
All of it is speed-only, so these tests pin it to the per-link
formulation, :class:`PerLinkReference` (one ``rng.gauss`` AR(1) process
per directed link):

* every model's batch returns the floats, and leaves the stream where,
  one per-link draw per link would -- over several fan-outs, repeated
  times (a zero step, which still draws) and late first frames;
* whole runs of the six paper protocols are equal with the batch (or
  the fused draw) and with the per-link reference, on both paths; the
  Python path makes one batch call per frame, and on the kernel a plain
  paper run takes the fused draw for every frame, a sender's first
  included;
* one fading model instance shared by runs carries nothing from one
  run into the next, inline or pooled;
* a frame's receivers split into ``touched`` (power) and ``decoding``
  (pending reception), and only the latter are decided;
* a carrier-sense flip reaches a MAC only when it acts on it: a busy
  flip cancels a pending backoff, an idle flip restarts a deferring
  MAC, and an idle MAC gets no call;
* each node's PHY state is a row of the channel's ledger: the node's
  views equal the ledger's columns at every invariant-monitor check on
  both paths, an unregistered node reads as an idle radio, and a run
  without the compiled kernel reproduces the Python-PHY goldens.
"""

from __future__ import annotations

import dataclasses
import math
import random

import pytest

from repro.experiments.runner import collect_result, run_experiment, run_protocol
from repro.experiments.scenarios import (
    PROTOCOL_NAMES,
    SimulationScenarioConfig,
    build_simulation_scenario,
)
from repro.experiments.spec import ExperimentSpec
from repro.mac.csma import BROADCAST_ID, CsmaMac
from repro.net import network as network_module
from repro.net.channel import ChannelError, WirelessChannel
from repro.net.network import Network
from repro.net.node import Node
from repro.net.packet import Packet, PacketKind
from repro.net.topology import Position, chain_topology
from repro.phy.fading import (
    CorrelatedRayleighFading,
    NoFading,
    RayleighFading,
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
from tests.test_golden_python_phy import CASES, GOLDEN, result_digest


class PerLinkReference:
    """Correlated Rayleigh fading the per-link way: one AR(1) process per
    directed link, keyed by ``(sender, receiver)`` and stepped with
    ``rng.gauss`` from that link's own last-update time.  A zero step
    still draws its pair, as ``gauss(0.0, 0.0)`` does."""

    def __init__(self, coherence_time_s):
        self.coherence_time_s = coherence_time_s
        self.links = {}

    def gain(self, link, now, rng):
        sigma = math.sqrt(0.5)
        state = self.links.get(link)
        if state is None:
            real = rng.gauss(0.0, sigma)
            imag = rng.gauss(0.0, sigma)
        else:
            t, real, imag = state
            rho = math.exp(-(now - t) / self.coherence_time_s)
            innovation = sigma * math.sqrt(max(0.0, 1.0 - rho * rho))
            real = rho * real + rng.gauss(0.0, innovation)
            imag = rho * imag + rng.gauss(0.0, innovation)
        self.links[link] = (now, real, imag)
        return real * real + imag * imag


class PerLinkChannel(WirelessChannel):
    """A channel whose frames draw every link through
    :class:`PerLinkReference`, on the channel's own fading stream."""

    def __init__(self, sim, propagation=None, fading=None):
        super().__init__(sim, propagation, fading)
        self.reference = PerLinkReference(fading.coherence_time_s)

    def _sampled_power(self, sender, receiver, mean_mw):
        return mean_mw * self.reference.gain(
            (sender.node_id, receiver.node_id), self.sim.now,
            self._fading_rng,
        )


MODELS = [
    RayleighFading,
    lambda: NoFading(),
    lambda: CorrelatedRayleighFading(coherence_time_s=10.0),
    lambda: CorrelatedRayleighFading(coherence_time_s=0.25),
]

#: Each sender's receivers, fixed as a finalized channel's fan-outs are.
FANOUTS = {0: [1, 2, 3, 4, 5, 6], 1: [0, 2, 4, 6], 2: [5]}

#: (now, sender) frames: repeated times (a zero step) and fan-outs whose
#: first frame comes late.
BATCHES = [
    [(0.0, 0), (1.0, 0), (1.0, 0), (4.5, 0)],
    [(0.0, 1), (2.0, 0), (2.0, 1), (3.0, 0), (3.5, 2)],
    [(10.0, 2), (10.5, 0), (11.0, 0), (40.0, 1), (40.0, 1)],
]


def per_link(fading, seed, batches):
    rng = random.Random(seed)
    if isinstance(fading, CorrelatedRayleighFading):
        draw = PerLinkReference(fading.coherence_time_s).gain
    else:
        draw = fading.sample_link_gain
    gains = [
        [draw((sender, rid), now, rng) for rid in FANOUTS[sender]]
        for now, sender in batches
    ]
    return gains, rng.random()


def batched(fading, seed, batches):
    """The frames as the channel draws them: one batch per frame over
    the sender's states, then the sender's time set to the frame's."""
    rng = random.Random(seed)
    states = {
        sender: fading.link_states(len(ids)) for sender, ids in FANOUTS.items()
    }
    times = dict.fromkeys(FANOUTS, math.nan)
    gains = []
    for now, sender in batches:
        gains.append(fading.sample_link_gains(
            len(FANOUTS[sender]), states[sender], times[sender], now, rng
        ))
        times[sender] = now
    return gains, rng.random()


class TestSampleLinkGains:
    @pytest.mark.parametrize("make_fading", MODELS)
    @pytest.mark.parametrize("batches", BATCHES)
    @pytest.mark.parametrize("seed", [1, 99])
    def test_bit_identical_to_per_link(self, make_fading, batches, seed):
        assert batched(make_fading(), seed, batches) == per_link(
            make_fading(), seed, batches
        )


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

    BACKEND = "python"

    def run(self, protocol, config):
        with phy_path(self.BACKEND):
            return run_protocol(protocol, config)

    @pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
    def test_batched_run_equals_per_link_run(self, protocol, monkeypatch):
        config = with_fading(RUN_CONFIG, CorrelatedRayleighFading(
            RUN_CONFIG.network.fading_coherence_time_s
        ))
        batched_run = self.run(protocol, config)
        monkeypatch.setattr(network_module, "WirelessChannel", PerLinkChannel)
        per_link_run = self.run(protocol, config)
        assert batched_run.error is None
        assert batched_run.delivered_packets > 0
        assert batched_run == per_link_run

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
    fused draw the kernel takes for every frame."""

    BACKEND = "kernel"

    def test_plain_paper_run_takes_the_fused_pass(self):
        """On a static paper-density mesh every frame -- a sender's
        first included -- is drawn inside the frame-start pass: no batch
        call at all."""
        config = SimulationScenarioConfig(duration_s=6.0, warmup_s=2.0)
        scenario = build_simulation_scenario("spp", config)
        channel = scenario.network.channel
        assert channel.compiled
        batch_calls = _count_calls(channel.fading, "sample_link_gains")
        scenario.network.sim.run(until=config.duration_s)
        frames = channel.counters.total("channel.tx.")
        assert frames > 20 * config.num_nodes
        assert batch_calls[0] == 0

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
        per_link = PerLinkReference(channel.fading.coherence_time_s)
        audible = channel.audible_neighbors(sender.node_id)
        assert tx.touched == [receiver.node_id for receiver, _ in audible]
        assert tx.powers == [
            mean_mw * per_link.gain((1, receiver.node_id), 0.0, reference)
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


class TestSharedFadingInstance:
    def test_one_instance_serves_inline_and_pooled_runs_alike(self):
        """One ``CorrelatedRayleighFading`` in the config, run by odmrp
        and then spp in one process: each result equals a run on a fresh
        instance and the ``jobs=2`` sweep, where every run unpickles its
        own copy.  A model that kept link state would hand odmrp's links
        to spp, with their times in spp's future."""
        coherence = RUN_CONFIG.network.fading_coherence_time_s
        spec = ExperimentSpec(
            name="shared-fading",
            description="one fading model instance across runs",
            protocols=("odmrp", "spp"),
            seeds=(1,),
            config=with_fading(RUN_CONFIG, CorrelatedRayleighFading(coherence)),
            jobs=1,
        )
        inline = run_experiment(spec)
        fresh = [
            run_protocol(protocol, with_fading(
                RUN_CONFIG, CorrelatedRayleighFading(coherence)
            ))
            for protocol in spec.protocols
        ]
        pooled = run_experiment(dataclasses.replace(spec, jobs=2))
        assert all(result.error is None for result in inline)
        assert inline == fresh == pooled


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


def _at_every_monitor_check(backend, monkeypatch, inspect):
    """Run a small spp scenario on ``backend`` calling ``inspect(network)``
    at each channel-conservation check; the number of checks."""
    if backend == "kernel" and KERNEL_UNAVAILABLE is not None:
        pytest.skip(KERNEL_UNAVAILABLE)
    checked = []
    original = ChannelConservationMonitor.check

    def check(monitor, now):
        inspect(monitor.scenario.network)
        checked.append(now)
        original(monitor, now)

    monkeypatch.setattr(ChannelConservationMonitor, "check", check)
    config = SimulationScenarioConfig(
        num_nodes=12, area_width_m=600.0, area_height_m=600.0,
        num_groups=1, members_per_group=4, duration_s=8.0,
        warmup_s=2.0, topology_seed=5,
        validation=ValidationConfig(
            enabled=True, check_interval_s=0.5,
            monitors=("channel-conservation",),
        ),
    )
    with phy_path(backend):
        scenario = build_simulation_scenario("spp", config)
    assert scenario.network.channel.compiled is (backend == "kernel")
    scenario.run()
    return len(checked)


class TestLedgerViews:
    @pytest.mark.parametrize("backend", ["python", "kernel"])
    def test_views_equal_the_ledger_at_every_monitor_check(
        self, backend, monkeypatch
    ):
        def inspect(network):
            ledger = network.channel.ledger
            assert ledger.nodes == network.nodes
            for node_id, node in enumerate(network.nodes):
                assert node.node_id == node_id
                assert node.current_power_mw == ledger.power_mw[node_id]
                assert node.on_air_count == ledger.on_air[node_id]
                assert node.sensed_busy is bool(ledger.busy[node_id])
                assert node.transmitting is bool(ledger.transmitting[node_id])
                assert node.pending_receptions is ledger.pending[node_id]
                assert node.mac is ledger.macs[node_id]
                assert node.counters.counts is ledger.counts[node_id]
                assert ledger.sense_mw[node_id] == (
                    node.params.carrier_sense_threshold_mw
                )

        assert _at_every_monitor_check(backend, monkeypatch, inspect) >= 16

    @pytest.mark.parametrize("backend", ["python", "kernel"])
    def test_flag_views_and_sense_flips_are_bool(self, backend, monkeypatch):
        """The flag columns store 0/1; ``transmitting``, ``sensed_busy``
        and ``medium_busy`` still read as ``bool``, and every carrier-sense
        flip reaches the MAC as ``True`` or ``False``."""
        seen = set()
        flips = []
        on_medium_state = CsmaMac.on_medium_state

        def recording(mac, busy):
            flips.append(busy)
            return on_medium_state(mac, busy)

        monkeypatch.setattr(CsmaMac, "on_medium_state", recording)

        def inspect(network):
            for node in network.nodes:
                for view in ("transmitting", "sensed_busy", "medium_busy"):
                    value = getattr(node, view)
                    assert type(value) is bool, (view, value)
                    seen.add((view, value))

        assert _at_every_monitor_check(backend, monkeypatch, inspect) >= 16
        assert {value for _, value in seen} == {False, True}
        assert flips and {type(busy) for busy in flips} == {bool}
        assert set(flips) == {False, True}

    def test_unregistered_node_reads_as_an_idle_radio(self):
        node = Node(0, Position(0.0, 0.0), Simulator(seed=1))
        assert node.current_power_mw == 0.0 and node.on_air_count == 0
        assert not node.transmitting and not node.sensed_busy
        assert not node.medium_busy
        with pytest.raises(RuntimeError, match="not registered"):
            node.phy_begin_own_tx()

    def test_node_ids_must_be_dense(self):
        sim = Simulator(seed=1)
        with pytest.raises(ChannelError, match="dense"):
            WirelessChannel(sim).register_node(
                Node(1, Position(0.0, 0.0), sim)
            )

    @pytest.mark.parametrize("protocol", ["odmrp", "spp"])
    def test_no_kernel_run_matches_the_python_phy_golden(
        self, protocol, no_kernel
    ):
        """Without a compiler the channel runs the pure-Python ledger
        passes and reproduces the Python-PHY golden bit for bit."""
        assert no_kernel.load() is None
        scenario = build_simulation_scenario(
            protocol, CASES["static-30-python"]
        )
        assert not scenario.network.channel.compiled
        scenario.run()
        result = collect_result(scenario)
        assert result_digest(result) == GOLDEN["static-30-python"][protocol]
