"""A mesh router node: radio state, MAC, and protocol dispatch.

The node's PHY-side state lives in its channel's
:class:`~repro.net.channel.PhyLedger`, a set of per-node columns
indexed by node id, so the channel's frame passes update it by
subscript, never by attribute lookup; the numeric columns are packed
arrays, which the compiled kernel reads and writes as C memory.  The
node reads its own row through views:

* ``current_power_mw``, the summed faded power of every transmission
  audible here, and ``on_air_count``, how many frames that sum holds
  (each :class:`~repro.net.channel.Transmission` keeps its own
  per-receiver powers, so nothing stores a per-frame ledger),
* ``transmitting``, the half-duplex flag, and
* ``sensed_busy``, the cached carrier-sense state, always equal to
  :attr:`Node.medium_busy`; both are stored as ``0``/``1`` in
  ``array('b')`` columns and read back as ``bool``.

The views are read-only: the channel's passes and the node's own
radio-state methods write the columns.  A node not yet registered with
a channel reads as an idle radio.  The frames this node may decode stay
in the node's own ``pending_receptions`` dict, which the ledger holds
by reference: each maps its transmission to a ``[signal_mw,
peak_interference_mw]`` row (see :mod:`repro.phy.reception`).  The
node's own transmission kills a reception by zeroing its signal, which
the frame end tallies as a half-duplex loss.

The channel updates that state in place, in one pass over a frame's
receivers at each edge of the frame.  Power only rises when a frame
starts and only falls when it ends, so a start can only flip a receiver
idle -> busy and an end busy -> idle.  A flip is passed to the MAC only
when the MAC waits for it (:attr:`CsmaMac.awaited_sense
<repro.mac.csma.CsmaMac.awaited_sense>`); every other notification
would be a no-op.  The node's own transmission goes through
:meth:`Node._update_sense_state` with the same gate.

Protocols register per-:class:`~repro.net.packet.PacketKind` handlers and
send through :meth:`send_broadcast` / :meth:`send_unicast`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.mac.csma import BROADCAST_ID, CsmaMac
from repro.net.packet import Packet, PacketKind
from repro.net.topology import Position
from repro.phy.radio import RadioParams
from repro.phy.reception import ReceptionModel
from repro.sim.engine import Simulator
from repro.sim.trace import CounterSet

PacketHandler = Callable[[Packet, int, float], Any]

#: kind -> (packets counter, bytes counter) names, per direction, so the
#: per-frame paths never format a counter name.
_TX_COUNTERS = {
    kind: (f"tx.{kind.value}.packets", f"tx.{kind.value}.bytes")
    for kind in PacketKind
}
_RX_COUNTERS = {
    kind: (f"rx.{kind.value}.packets", f"rx.{kind.value}.bytes")
    for kind in PacketKind
}


class Node:
    """One static mesh router."""

    def __init__(
        self,
        node_id: int,
        position: Position,
        sim: Simulator,
        params: Optional[RadioParams] = None,
        mac: Optional[CsmaMac] = None,
    ) -> None:
        self.node_id = node_id
        self.position = position
        self.sim = sim
        self.params = params or RadioParams()
        self.reception_model = ReceptionModel(self.params)
        self.mac = mac or CsmaMac(sim)
        self.mac.node = self
        self.channel: Any = None  # set when registered with a channel
        #: The channel's PHY ledger holding this node's row (at index
        #: ``node_id``), set on registration.
        self._ledger: Any = None
        self.counters = CounterSet()

        self.pending_receptions: Dict[Any, List[float]] = {}

        # Protocol dispatch
        self._handlers: Dict[PacketKind, PacketHandler] = {}

    # ------------------------------------------------------------------
    # Upper-layer API

    def register_handler(self, kind: PacketKind, handler: PacketHandler) -> None:
        """Route received packets of ``kind`` to ``handler(packet, sender, rx_mw)``."""
        if kind in self._handlers:
            raise ValueError(
                f"node {self.node_id} already has a handler for {kind}"
            )
        self._handlers[kind] = handler

    def wrap_handler(
        self,
        kind: PacketKind,
        wrap: Callable[[PacketHandler], PacketHandler],
    ) -> None:
        """Replace the handler for ``kind`` with ``wrap(current_handler)``.

        Observability hook: the validation monitors use this to observe
        every delivered packet of a kind without the node or router
        knowing they are being watched.  The wrapper must call through to
        the original handler to preserve behaviour.
        """
        handler = self._handlers.get(kind)
        if handler is None:
            raise ValueError(
                f"node {self.node_id} has no handler for {kind} to wrap"
            )
        self._handlers[kind] = wrap(handler)

    def power_ledger(self) -> Dict[Any, float]:
        """Per-transmission audible-power contributions, rebuilt.

        Conservation audit hook, read off the channel's in-flight
        transmissions (O(frames in flight x their receivers), so for
        validation and tests only): the entries must always sum to
        ``current_power_mw`` (within float drift), number
        ``on_air_count``, and drain to nothing once the channel reports
        no transmission in flight.
        """
        if self.channel is None:
            return {}
        node_id = self.node_id
        return {
            tx: power_mw
            for tx in self.channel.in_flight()
            for receiver_id, power_mw in zip(tx.touched, tx.powers)
            if receiver_id == node_id
        }

    def send_broadcast(
        self, packet: Packet, on_done: Optional[Callable[[bool], Any]] = None
    ) -> bool:
        """Queue a link-layer broadcast (one attempt, no ACK)."""
        packets, size = _TX_COUNTERS[packet.kind]
        counts = self.counters.counts
        counts[packets] += 1.0
        counts[size] += packet.size_bytes
        return self.mac.enqueue(packet, BROADCAST_ID, on_done)

    def send_unicast(
        self,
        packet: Packet,
        dest_id: int,
        on_done: Optional[Callable[[bool], Any]] = None,
    ) -> bool:
        """Queue a link-layer unicast (ACKed, retried)."""
        packets, size = _TX_COUNTERS[packet.kind]
        counts = self.counters.counts
        counts[packets] += 1.0
        counts[size] += packet.size_bytes
        return self.mac.enqueue(packet, dest_id, on_done)

    def release(self) -> None:
        """Unlink the node from its MAC and channel after a finished run.

        Drops the references that tie every node, its MAC and the
        channel into reference cycles, and the pending receptions.  The
        counters and the MAC's tallies stay readable.
        """
        self.mac.node = None
        self.channel = None
        self._ledger = None
        self.pending_receptions.clear()

    # ------------------------------------------------------------------
    # PHY-side interface (views over the channel's ledger)

    def _registered_ledger(self) -> Any:
        ledger = self._ledger
        if ledger is None:
            raise RuntimeError(
                f"node {self.node_id} is not registered with a channel"
            )
        return ledger

    @property
    def current_power_mw(self) -> float:
        """Summed faded power of the frames on the air here."""
        ledger = self._ledger
        return 0.0 if ledger is None else ledger.power_mw[self.node_id]

    @property
    def on_air_count(self) -> int:
        """Transmissions whose power ``current_power_mw`` holds."""
        ledger = self._ledger
        return 0 if ledger is None else ledger.on_air[self.node_id]

    @property
    def transmitting(self) -> bool:
        """Half duplex: True while the node's own frame is on the air."""
        ledger = self._ledger
        return ledger is not None and ledger.transmitting[self.node_id] != 0

    @property
    def sensed_busy(self) -> bool:
        """The cached carrier-sense state (audit hook).

        Kept in step with :attr:`medium_busy` by the channel's frame
        passes and :meth:`_update_sense_state`; the two must always
        agree.
        """
        ledger = self._ledger
        return ledger is not None and ledger.busy[self.node_id] != 0

    @property
    def medium_busy(self) -> bool:
        """Carrier-sense state: own transmission or enough foreign energy."""
        ledger = self._ledger
        if ledger is None:
            return False
        node_id = self.node_id
        return ledger.transmitting[node_id] != 0 or (
            self.reception_model.can_sense(ledger.power_mw[node_id])
        )

    def phy_begin_own_tx(self) -> None:
        """Half duplex: starting to transmit kills any in-flight receptions."""
        self._registered_ledger().transmitting[self.node_id] = True
        for row in self.pending_receptions.values():
            row[0] = 0.0
        self._update_sense_state()

    def phy_end_own_tx(self) -> None:
        self._registered_ledger().transmitting[self.node_id] = False
        self._update_sense_state()

    def _update_sense_state(self) -> None:
        # Own-transmission edges; the channel's frame passes inline this.
        ledger = self._ledger
        if ledger is None:
            return  # an unregistered radio is idle and senses nothing
        node_id = self.node_id
        busy = ledger.transmitting[node_id] != 0 or (
            self.reception_model.can_sense(ledger.power_mw[node_id])
        )
        if busy != ledger.busy[node_id]:
            ledger.busy[node_id] = busy
            mac = self.mac
            if mac.awaited_sense == busy:
                mac.on_medium_state(busy)

    # ------------------------------------------------------------------
    # Delivery

    def deliver(
        self, packet: Packet, sender_id: int, dest_id: int, rx_power_mw: float
    ) -> None:
        """A frame was successfully decoded; dispatch it."""
        counts = self.counters.counts
        if dest_id != BROADCAST_ID and dest_id != self.node_id:
            counts["phy.rx_overheard"] += 1.0
            return
        packets, size = _RX_COUNTERS[packet.kind]
        counts[packets] += 1.0
        counts[size] += packet.size_bytes
        if packet.kind is PacketKind.ACK:
            if packet.payload.acked_sender == self.node_id:
                self.mac.on_ack(packet.payload.acked_uid)
            return
        if dest_id == self.node_id:
            self.mac.handle_received_data(packet, sender_id, dest_id)
        handler = self._handlers.get(packet.kind)
        if handler is not None:
            handler(packet, sender_id, rx_power_mw)
        else:
            counts["rx.unhandled"] += 1.0

    def distance_to(self, other: "Node") -> float:
        return self.position.distance_to(other.position)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.node_id} @({self.position.x:.0f},{self.position.y:.0f})>"
