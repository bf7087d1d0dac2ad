"""The shared wireless broadcast medium.

Every transmission is visible to every node whose *mean* received power
clears an audibility cutoff (precomputed by ``finalize()`` for the
static layout).
For each audible node the channel samples one fading realization, feeds
the power into that node's carrier-sense and interference bookkeeping,
and registers a pending reception -- a ``[signal_mw,
peak_interference_mw]`` row in that node's ``pending_receptions`` -- if
the faded power is decodable.  At end of transmission each pending
reception is decided by the receiver's SINR rule.

Subclasses can override :meth:`_sampled_power` to replace the
pathloss-times-fading model; the testbed emulation uses this to drive the
same MAC with empirically measured link loss rates.

These paths keep large meshes and long runs fast without changing results:

* ``finalize()`` prunes its audibility scan through a
  :class:`~repro.net.topology.SpatialGridIndex` when the propagation
  model can bound its reach analytically, turning the O(N^2) pairing
  into one exact power test per node inside each sender's reach.
* Each sender's audible receivers are stored once, as a
  :class:`_FanOut`: packed columns of receiver ids and mean powers,
  next to its links' fading state and the time of its last frame.
* ``begin_transmission`` steps a whole frame's fading in one call to
  the fading model's ``sample_link_gains`` over that state, then makes
  one pass over the receivers.
* Per-node PHY state (power, on-air count, carrier sense, half duplex,
  sense threshold, MAC, pending receptions, counter dict, the decision
  rule's constants) lives in the channel's :class:`PhyLedger`, columns
  indexed by node id; the numeric ones are packed arrays, which the
  Python passes update by subscript and the compiled kernel as raw C
  memory through buffers it holds for one call.
  :class:`~repro.net.node.Node` exposes its row as views.
* Wherever the compiled kernel (:mod:`repro.phy.kernel`) loads,
  ``finalize()`` hands it the ``phy.fading`` stream, and the whole
  frame end -- withdrawal, decisions, tallies and the calls to
  ``Node.deliver`` -- runs in C over those columns, with the results of
  the Python passes.  With correlated Rayleigh fading every frame also
  starts in C: the channel takes the step's ``rho`` and innovation from
  the model and the kernel draws each link's AR(1) step inside its
  receiver pass.  Decisions stay in Python (``_decide``) when any node's
  reception model is not the
  stock :class:`~repro.phy.reception.ReceptionModel`: a subclass, or a
  ``decide`` wrapped at class level before ``finalize()``, still sees
  every decision.  The choice is per channel, never per sender: the
  kernel owns the stream from its first draw.
"""

from __future__ import annotations

import math
from array import array
from typing import Any, Dict, List, Optional, Tuple

from repro.net import topology
from repro.net.node import Node
from repro.net.packet import Packet
from repro.phy.fading import CorrelatedRayleighFading, FadingModel, NoFading
from repro.phy.propagation import PropagationModel, TwoRayGroundPropagation
from repro.phy.reception import ReceptionModel
from repro.sim.engine import Simulator
from repro.sim.events import EventPriority
from repro.sim.trace import CounterSet

#: The stock decision rule, as imported: the compiled kernel applies it
#: in C on a channel whose every node's model still resolves to it.
_STOCK_DECIDE = ReceptionModel.decide

class Transmission:
    """One frame in flight."""

    __slots__ = ("sender_id", "packet", "dest_id", "start_time", "end_time",
                 "touched", "powers", "decoding", "notify_sender", "sender")

    def __init__(
        self,
        sender: Node,
        packet: Packet,
        dest_id: int,
        start_time: float,
        end_time: float,
        notify_sender: bool,
    ) -> None:
        self.sender = sender
        self.sender_id = sender.node_id
        self.packet = packet
        self.dest_id = dest_id
        self.start_time = start_time
        self.end_time = end_time
        self.notify_sender = notify_sender
        #: Ids of the receivers holding a power contribution from this
        #: frame; when no receiver is left out, the fan-out's own
        #: ``receiver_ids`` list (never mutated).
        self.touched: List[int] = []
        #: Each touched receiver's faded power (same order): the frame's
        #: share of that receiver's ``current_power_mw``.
        self.powers: List[float] = []
        #: Ids of the subset (same order) holding a pending reception
        #: of it.
        self.decoding: List[int] = []


class ChannelError(RuntimeError):
    """Raised on physically impossible requests (double transmission)."""


class _FanOut:
    """One sender's audible receivers and the fading state of its links.

    Element ``k`` of ``receiver_ids`` and ``mean_mw`` is receiver ``k``,
    in registration order: its node id, and its mean received power in
    an ``array('d')``, which the compiled kernel reads through the
    buffer protocol.  ``states`` is the fading model's state of the same
    links (:meth:`~repro.phy.fading.FadingModel.link_states`), allocated
    once both columns are complete, and ``time`` the start of the
    sender's last frame, NaN before its first: every frame steps all of
    a sender's links, so one time serves them all.  A receiver's decode
    threshold is a per-node value: the frame start reads it from the
    ledger's ``rx_thr_mw`` column.
    """

    __slots__ = ("receiver_ids", "mean_mw", "states", "time")

    def __init__(self) -> None:
        self.receiver_ids: List[int] = []
        self.mean_mw = array("d")
        self.states = array("d")
        self.time = math.nan


class PhyLedger:
    """Every node's PHY state as columns indexed by node id.

    The numeric columns are packed: ``array('d')`` for the powers and
    thresholds, ``array('l')`` for the on-air counts, ``array('b')`` for
    the two flags, which read back as ``0``/``1`` (the node views return
    ``bool``).  ``macs``, ``pending``, ``nodes`` and ``counts`` are
    lists of objects.  The channel's Python passes read and write the
    columns by subscript; the compiled kernel takes ``columns``, holds
    each packed column's buffer for the length of one call and reads and
    writes its rows as C values.  Each :class:`~repro.net.node.Node`
    reads its row through views.  A column is never replaced, only
    written in place, so ``columns`` and any local binding stay valid.
    ``pending`` holds each node's own ``pending_receptions`` dict and
    ``counts`` its ``counters.counts`` dict, which the frame end's fate
    tallies index directly.
    """

    __slots__ = ("power_mw", "on_air", "busy", "transmitting", "sense_mw",
                 "macs", "pending", "nodes", "rx_thr_mw", "noise_mw",
                 "sinr_linear", "counts", "columns")

    def __init__(self) -> None:
        #: Summed faded power of the frames on the air at each node.
        self.power_mw = array("d")
        #: How many frames each ``power_mw`` entry holds.
        self.on_air = array("l")
        #: Cached carrier-sense state (0/1), always equal to
        #: ``medium_busy``.
        self.busy = array("b")
        #: Half duplex (0/1): the node's own frame is on the air.
        self.transmitting = array("b")
        #: Carrier-sense threshold of each node's radio.
        self.sense_mw = array("d")
        self.macs: List[Any] = []
        #: Each node's pending receptions: transmission -> ``[signal_mw,
        #: peak_interference_mw]``.
        self.pending: List[Dict[Any, List[float]]] = []
        self.nodes: List[Node] = []
        #: The stock decision rule's constants per node (receive
        #: threshold, noise, linear SINR threshold), taken from each
        #: node's reception model by :meth:`take_rules`.  A frame whose
        #: faded power reaches ``rx_thr_mw`` starts a pending reception.
        self.rx_thr_mw = array("d")
        self.noise_mw = array("d")
        self.sinr_linear = array("d")
        #: Each node's counter dict (``node.counters.counts``).
        self.counts: List[Dict[str, float]] = []
        #: The columns in the order the compiled kernel takes them.
        self.columns = (self.power_mw, self.on_air, self.busy,
                        self.transmitting, self.sense_mw, self.macs,
                        self.pending, self.nodes, self.rx_thr_mw,
                        self.noise_mw, self.sinr_linear, self.counts)

    def add(self, node: Node) -> None:
        """Give ``node`` the next row, as an idle radio."""
        if node.node_id != len(self.nodes):
            raise ChannelError(
                f"node ids must be dense in registration order: expected "
                f"{len(self.nodes)}, got {node.node_id}"
            )
        self.power_mw.append(0.0)
        self.on_air.append(0)
        self.busy.append(False)
        self.transmitting.append(False)
        self.sense_mw.append(node.params.carrier_sense_threshold_mw)
        self.macs.append(node.mac)
        self.pending.append(node.pending_receptions)
        self.nodes.append(node)
        self.counts.append(node.counters.counts)
        node._ledger = self

    def take_rules(self) -> None:
        """Copy every node's decision constants into the rule columns."""
        params = [node.reception_model.params for node in self.nodes]
        self.rx_thr_mw[:] = array("d", [p.rx_threshold_mw for p in params])
        self.noise_mw[:] = array("d", [p.noise_mw for p in params])
        self.sinr_linear[:] = array(
            "d", [p.sinr_threshold_linear for p in params]
        )


class WirelessChannel:
    """Shared medium connecting a set of static nodes."""

    #: No backend batches fading through a sampler object any more; the
    #: attribute stays for ``benchmarks/e2e/ledger.py``, whose ``--trace``
    #: mode reads it to wrap such a sampler's ``gains`` when present.
    _vector_sampler = None

    def __init__(
        self,
        sim: Simulator,
        propagation: Optional[PropagationModel] = None,
        fading: Optional[FadingModel] = None,
        audible_margin_db: float = 10.0,
    ) -> None:
        self.sim = sim
        self.propagation = propagation or TwoRayGroundPropagation()
        self.fading = fading or NoFading()
        self.audible_margin_linear = 10.0 ** (audible_margin_db / 10.0)
        #: Per-node PHY state; ``nodes`` is its node column.
        self.ledger = PhyLedger()
        self.nodes: List[Node] = self.ledger.nodes
        self.counters = CounterSet()
        #: sender id -> that sender's audible receivers.
        self._fanout: Dict[int, _FanOut] = {}
        self._fading_rng = sim.rng.stream("phy.fading")
        self._finalized = False
        self._connectivity_cache: Optional[Dict[int, List[int]]] = None
        self._tx_counter_names: Dict[Any, str] = {}
        #: Transmissions currently on the air, in start order (a dict
        #: used as an ordered set); node power ledgers are rebuilt from
        #: their ``touched``/``powers`` columns.
        self._in_flight: Dict[Transmission, None] = {}
        #: True when a subclass replaced ``_sampled_power``: frames then
        #: take their powers from it, link by link.
        self._custom_power = False
        #: True when the kernel's ``frame_start`` draws each frame's
        #: correlated Rayleigh step inside its receiver pass.
        self._fused_start = False
        #: The compiled kernel module once ``finalize()`` loaded it (it
        #: then owns ``_fading_rng``), else ``None``.
        self._kernel = None
        #: True when the kernel's ``frame_end`` decides the receptions:
        #: compiled, and every node's model decides by the stock rule.
        self._decide_in_kernel = False

    # ------------------------------------------------------------------
    # Construction

    def register_node(self, node: Node) -> None:
        if self._finalized:
            raise ChannelError("cannot add nodes after finalize()")
        self.ledger.add(node)
        node.channel = self

    def finalize(self) -> None:
        """Precompute each sender's fan-out for the static layout.

        Every audible (sender, receiver) pair is appended straight into
        the sender's :class:`_FanOut`: the receiver's id and its mean
        power, one ``mean_rx_power_mw`` call per tested pair; then the
        fading model allocates the state of the sender's links.

        ``finalize()`` runs once: a second call raises
        :class:`ChannelError`, as registering a node after it does.  It
        picks the reception path for the channel's life: the compiled
        kernel when :func:`repro.phy.kernel.load` returns it, else the
        pure-Python passes.

        On meshes of :data:`~repro.net.topology.GRID_AUTO_NODES` or
        more, the O(N^2) pairing scan is pruned through a throwaway
        :class:`~repro.net.topology.SpatialGridIndex` with cells of half the propagation
        model's analytic reach: its in-disk query yields a superset of
        each sender's audible nodes (sorted by node index, i.e.
        registration order), so the power test runs about once per
        audible pair, and the exact per-pair power test decides
        audibility just as in the brute scan -- the resulting fan-outs
        are bit-identical.
        """
        if self._finalized:
            raise ChannelError("finalize() runs once: the layout is static")
        nodes = self.nodes
        grid: Optional[topology.SpatialGridIndex] = None
        if len(nodes) >= topology.GRID_AUTO_NODES:
            reach = self._max_audible_range_m()
            if reach is not None:
                # Half-reach cells keep the scanned box near the disk.
                grid = topology.SpatialGridIndex(
                    [node.position for node in nodes], cell_size_m=reach / 2.0
                )
        cutoffs = [
            node.params.carrier_sense_threshold_mw / self.audible_margin_linear
            for node in nodes
        ]
        mean_rx_power_mw = self.mean_rx_power_mw
        link_states = self.fading.link_states
        for index, sender in enumerate(nodes):
            fan = self._fanout[sender.node_id] = _FanOut()
            ids_append = fan.receiver_ids.append
            means_append = fan.mean_mw.append
            pool = (
                nodes
                if grid is None
                else [nodes[j] for j in grid.candidates_in_disk(index, reach)]
            )
            for receiver in pool:
                if receiver is sender:
                    continue
                mean_mw = mean_rx_power_mw(sender, receiver)
                rid = receiver.node_id
                if mean_mw >= cutoffs[rid]:
                    ids_append(rid)
                    means_append(mean_mw)
            fan.states = link_states(len(fan.receiver_ids))
        self._use_compiled()
        self._custom_power = (
            type(self)._sampled_power is not WirelessChannel._sampled_power
        )
        self._fused_start = (
            self._kernel is not None and not self._custom_power
            and isinstance(self.fading, CorrelatedRayleighFading)
        )
        self.ledger.take_rules()
        self._decide_in_kernel = self._kernel is not None and all(
            type(node.reception_model).decide is _STOCK_DECIDE
            for node in nodes
        )
        self._finalized = True

    def _max_audible_range_m(self) -> Optional[float]:
        """Worst-case audibility radius, or ``None`` if unbounded.

        Uses the loudest transmitter against the most sensitive cutoff,
        so *every* audible pair in the mesh is within the returned
        distance of each other; the grid query over this radius is a
        strict superset of each sender's fan-out.
        """
        if not self.nodes:
            return None
        cutoff = (
            min(n.params.carrier_sense_threshold_mw for n in self.nodes)
            / self.audible_margin_linear
        )
        if cutoff <= 0.0:
            return None
        max_tx = max(n.params.tx_power_mw for n in self.nodes)
        max_gain = max(n.params.antenna_gain for n in self.nodes)
        return self.propagation.max_range_for_power(
            max_tx, cutoff, max_gain, max_gain
        )

    def _use_compiled(self) -> None:
        """Hand the ``phy.fading`` stream to the compiled kernel.

        The kernel continues the stream's exact state, and the channel,
        the fading model and the simulator's registry all draw from the
        kernel's generator from here on.  If the kernel cannot load,
        nothing changes and the channel runs the Python passes.
        """
        from repro.phy import kernel

        module = kernel.load()
        if module is None:
            return
        self._fading_rng = kernel.KernelRandom.continuing(self._fading_rng)
        self.sim.rng.replace("phy.fading", self._fading_rng)
        self._kernel = module

    @property
    def compiled(self) -> bool:
        """True once ``finalize()`` handed this channel to the kernel."""
        return self._kernel is not None

    @property
    def transmissions_in_flight(self) -> int:
        """Frames on the air; ledgers and receptions drain when it is 0."""
        return len(self._in_flight)

    def in_flight(self) -> List[Transmission]:
        """The transmissions on the air, in start order (a copy)."""
        return list(self._in_flight)

    def mean_rx_power_mw(self, sender: Node, receiver: Node) -> float:
        """Mean (un-faded) received power for the sender->receiver link:
        open-space path loss over the endpoints' distance."""
        return self.propagation.rx_power_mw(
            sender.params.tx_power_mw,
            sender.position.distance_to(receiver.position),
            sender.params.antenna_gain,
            receiver.params.antenna_gain,
        )

    def audible_neighbors(self, node_id: int) -> List[Tuple[Node, float]]:
        """(neighbor, mean power) pairs audible from ``node_id``."""
        fan = self._fanout[node_id]
        nodes = self.nodes
        return [
            (nodes[rid], mean_mw)
            for rid, mean_mw in zip(fan.receiver_ids, fan.mean_mw)
        ]

    # ------------------------------------------------------------------
    # Transmission lifecycle (called by the MAC)

    def begin_transmission(
        self,
        sender: Node,
        packet: Packet,
        dest_id: int,
        duration_s: float,
        notify_sender: bool = True,
    ) -> Optional[Transmission]:
        if not self._finalized:
            raise ChannelError("channel not finalized; call finalize() first")
        if sender.transmitting:
            if notify_sender:
                raise ChannelError(
                    f"node {sender.node_id} attempted concurrent transmissions"
                )
            # Control frame (ACK) collided with own ongoing tx: drop.
            self.counters.add("channel.ack_dropped_half_duplex")
            return None
        now = self.sim.now
        end_time = now + duration_s
        tx = Transmission(sender, packet, dest_id, now, end_time,
                          notify_sender)
        kind = packet.kind
        counter_name = self._tx_counter_names.get(kind)
        if counter_name is None:
            counter_name = f"channel.tx.{kind.value}"
            self._tx_counter_names[kind] = counter_name
        self.counters.counts[counter_name] += 1.0
        self._in_flight[tx] = None
        sender.phy_begin_own_tx()
        fan = self._fanout[sender.node_id]
        if self._fused_start:
            rho, innovation = self.fading.coefficients(fan.time, now)
            fan.time = now
            self._kernel.frame_start(
                self._fading_rng.stream, tx, fan.receiver_ids, fan.mean_mw,
                fan.states, rho, innovation, self.ledger.columns,
            )
        else:
            self._batched_start(tx, fan)
        self.sim.schedule(
            duration_s, self._end_transmission, tx, priority=EventPriority.PHY
        )
        return tx

    def _batched_start(self, tx: Transmission, fan: _FanOut) -> None:
        """The frame start with the fading drawn in one call first.

        Then each receiver's bookkeeping for the arriving frame, inlined
        on the ledger's columns: add its power, raise the peak
        interference of every pending reception (the total minus that
        reception's own signal), flip carrier sense idle -> busy (power
        only rises here), and -- when the power reaches the receiver's
        ``rx_thr_mw`` and it is not transmitting -- start a pending
        reception, a ``[signal_mw, peak_interference_mw]`` row whose
        initial interference is every other audible frame.  The kernel's
        ``frame_start`` runs this loop in C with each link's AR(1) step
        drawn inside it.
        """
        receiver_ids = fan.receiver_ids
        means = fan.mean_mw
        if self._custom_power:
            nodes = self.nodes
            powers = [
                self._sampled_power(tx.sender, nodes[rid], mean)
                for rid, mean in zip(receiver_ids, means)
            ]
        else:
            now = tx.start_time
            gains = self.fading.sample_link_gains(
                len(receiver_ids), fan.states, fan.time, now, self._fading_rng
            )
            fan.time = now
            powers = [mean * gain for mean, gain in zip(means, gains)]
        if powers and min(powers) <= 0.0:
            # Only a custom power model silences a link outright.
            keep = [k for k, power_mw in enumerate(powers) if power_mw > 0.0]
            receiver_ids = [receiver_ids[k] for k in keep]
            powers = [powers[k] for k in keep]
        tx.touched = receiver_ids
        tx.powers = powers
        ledger = self.ledger
        power = ledger.power_mw
        on_air = ledger.on_air
        busy = ledger.busy
        transmitting = ledger.transmitting
        sense = ledger.sense_mw
        decode = ledger.rx_thr_mw
        macs = ledger.macs
        pending_of = ledger.pending
        decoding_append = tx.decoding.append
        for rid, power_mw in zip(receiver_ids, powers):
            total = power[rid] + power_mw
            power[rid] = total
            on_air[rid] += 1
            pending = pending_of[rid]
            if pending:
                for row in pending.values():
                    level = total - row[0]
                    if level > row[1]:
                        row[1] = level
            if not busy[rid] and total >= sense[rid]:
                busy[rid] = True
                mac = macs[rid]
                if mac.awaited_sense is True:
                    mac.on_medium_state(True)
            if power_mw >= decode[rid] and not transmitting[rid]:
                level = total - power_mw
                pending[tx] = [power_mw, level if level > 0.0 else 0.0]
                decoding_append(rid)

    def _withdraw(self, touched: List[int], powers: List[float]) -> None:
        """Take a finished frame's power off its receivers' ledger rows.

        The compiled kernel's ``frame_end`` starts with this loop in C.
        """
        ledger = self.ledger
        power = ledger.power_mw
        on_air = ledger.on_air
        busy = ledger.busy
        transmitting = ledger.transmitting
        sense = ledger.sense_mw
        macs = ledger.macs
        for rid, power_mw in zip(touched, powers):
            count = on_air[rid] - 1
            on_air[rid] = count
            if count:
                total = power[rid] - power_mw
                if total < 0.0:  # guard against float drift
                    total = 0.0
            else:
                total = 0.0
            power[rid] = total
            if busy[rid] and not transmitting[rid] and total < sense[rid]:
                busy[rid] = False
                mac = macs[rid]
                if mac.awaited_sense is False:
                    mac.on_medium_state(False)

    def _sampled_power(
        self, sender: Node, receiver: Node, mean_mw: float
    ) -> float:
        """A subclass's power for this packet on this link.

        Overriding it replaces pathloss-times-fading (the testbed's
        :class:`~repro.testbed.linkmodel.EmpiricalChannel` does): each
        frame start then calls it once per audible receiver, in fan-out
        order, instead of the fading model.  The base channel never
        calls it.
        """
        raise NotImplementedError

    def _end_transmission(self, tx: Transmission) -> None:
        del self._in_flight[tx]
        tx.sender.phy_end_own_tx()
        # Every power withdrawal (and the carrier-sense flips it causes)
        # precedes every decision, so MAC backoffs are drawn before any
        # delivery's upper-layer sends.  Power only falls here, so the
        # only possible flip is busy -> idle.
        if self._kernel is not None:
            self._kernel.frame_end(
                tx, self.ledger.columns, self._decide_in_kernel
            )
        else:
            self._withdraw(tx.touched, tx.powers)
        if not self._decide_in_kernel:
            self._decide(tx)
        if tx.notify_sender:
            tx.sender.mac.on_tx_complete()

    def _decide(self, tx: Transmission) -> None:
        """Decide a finished frame's pending receptions, in order.

        Each row is popped just before its decision, so a frame that a
        delivery upcall starts still raises the interference of the
        receivers after it.  A zeroed signal (the receiver transmitted
        mid-frame) is a half-duplex loss and is not decided; any other
        rejected reception is a collision (a
        reception starts only at a decodable power, so its signal never
        falls short of the receive threshold on its own).  The compiled kernel's ``frame_end`` runs this loop in
        C for the stock rule.
        """
        nodes = self.nodes
        pending_of = self.ledger.pending
        counts_of = self.ledger.counts
        packet = tx.packet
        sender_id = tx.sender_id
        dest_id = tx.dest_id
        for rid in tx.decoding:
            signal_mw, interference_mw = pending_of[rid].pop(tx)
            receiver = nodes[rid]
            tally = counts_of[rid]
            if signal_mw <= 0.0:
                tally["phy.rx_failed_half_duplex"] += 1.0
            elif receiver.reception_model.decide(signal_mw, interference_mw):
                tally["phy.rx_ok"] += 1.0
                receiver.deliver(packet, sender_id, dest_id, signal_mw)
            else:
                tally["phy.rx_failed_collision"] += 1.0

    # ------------------------------------------------------------------
    # Diagnostics

    def telemetry_snapshot(self) -> Dict[str, float]:
        """Cumulative channel counters (tx per kind, drops) by name.

        Pull-based accessor for the telemetry sampler; the transmission
        path only touches its existing ``CounterSet``.
        """
        return self.counters.as_dict()

    def connectivity_map(self) -> Dict[int, List[int]]:
        """node -> neighbors whose mean power clears the receive threshold.

        Memoized after :meth:`finalize`: the layout is static, so the
        scan happens once no matter how often benches poll it; callers
        must treat the returned mapping as read-only.
        """
        if self._connectivity_cache is None:
            decode = self.ledger.rx_thr_mw
            self._connectivity_cache = {
                sender_id: [
                    rid
                    for rid, mean_mw in zip(fan.receiver_ids, fan.mean_mw)
                    if mean_mw >= decode[rid]
                ]
                for sender_id, fan in self._fanout.items()
            }
        return self._connectivity_cache
