"""A mesh router node: radio state, MAC, and protocol dispatch.

The node holds the PHY-side state of its position on the shared channel:

* ``current_power_mw``, the summed faded power of every transmission
  audible here, and ``on_air_count``, how many frames that sum holds
  (each :class:`~repro.net.channel.Transmission` keeps its own
  per-receiver powers, so the node stores no per-frame ledger),
* the pending :class:`~repro.phy.reception.Reception` objects for frames
  this node may decode, and
* ``_last_busy``, the carrier-sense state, always equal to
  :attr:`Node.medium_busy`.

The channel updates that state in place, in one pass over a frame's
receivers at each edge of the frame.  Power only rises when a frame
starts and only falls when it ends, so a start can only flip a receiver
idle -> busy and an end busy -> idle.  A flip is passed to the MAC only
when the MAC waits for it (:attr:`CsmaMac.awaited_sense
<repro.mac.csma.CsmaMac.awaited_sense>`); every other notification
would be a no-op.  Radio-state changes (own transmission, power
failure) go through :meth:`Node._update_sense_state` with the same
gate.

Protocols register per-:class:`~repro.net.packet.PacketKind` handlers and
send through :meth:`send_broadcast` / :meth:`send_unicast`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.mac.csma import BROADCAST_ID, CsmaMac
from repro.net.packet import Packet, PacketKind
from repro.net.topology import Position
from repro.phy.radio import RadioParams
from repro.phy.reception import Reception, ReceptionModel
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
    """One mesh router (static by default; movable via set_position)."""

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
        self.counters = CounterSet()

        # PHY state
        self.transmitting = False
        self.current_power_mw = 0.0
        #: Transmissions whose power ``current_power_mw`` holds.
        self.on_air_count = 0
        self.pending_receptions: Dict[Any, Reception] = {}
        self._last_busy = False
        #: Radio power state; a "failed" node neither sends nor receives.
        self.active = True

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
        return {
            tx: power_mw
            for tx in self.channel.in_flight()
            for receiver, power_mw in zip(tx.touched, tx.powers)
            if receiver is self
        }

    def send_broadcast(
        self, packet: Packet, on_done: Optional[Callable[[bool], Any]] = None
    ) -> bool:
        """Queue a link-layer broadcast (one attempt, no ACK)."""
        packets, size = _TX_COUNTERS[packet.kind]
        self.counters.add(packets)
        self.counters.add(size, packet.size_bytes)
        return self.mac.enqueue(packet, BROADCAST_ID, on_done)

    def send_unicast(
        self,
        packet: Packet,
        dest_id: int,
        on_done: Optional[Callable[[bool], Any]] = None,
    ) -> bool:
        """Queue a link-layer unicast (ACKed, retried)."""
        packets, size = _TX_COUNTERS[packet.kind]
        self.counters.add(packets)
        self.counters.add(size, packet.size_bytes)
        return self.mac.enqueue(packet, dest_id, on_done)

    def set_position(self, position: Position) -> None:
        """Move the node (mobility).

        The one legal way to change a position after network assembly:
        it keeps the channel's spatial grid in sync via an O(1)
        re-bucket.  Derived radio state (audible sets, connectivity
        map, vectorized batch arrays) is *not* recomputed here -- after
        a batch of moves, call ``channel.invalidate_topology()`` once,
        which is how :class:`~repro.mobility.driver.MobilityDriver`
        amortizes one re-derivation over a whole tick.
        """
        if position == self.position:
            return
        self.position = position
        if self.channel is not None:
            self.channel.note_position_change(self)

    def set_active(self, active: bool) -> None:
        """Turn the radio on or off (failure injection).

        Going down kills any in-flight receptions (their signal is gone
        for the decoder) and silently drops frames the MAC tries to send;
        protocol state above the radio survives, as it would across a
        radio reset.
        """
        if active == self.active:
            return
        self.active = active
        if self.channel is not None:
            self.channel.note_active_change(active)
        if not active:
            self.counters.add("node.down_events")
            for reception in self.pending_receptions.values():
                reception.signal_mw = 0.0
        else:
            self.counters.add("node.up_events")
        self._update_sense_state()

    # ------------------------------------------------------------------
    # PHY-side interface (called by the channel)

    @property
    def medium_busy(self) -> bool:
        """Carrier-sense state: own transmission or enough foreign energy."""
        return self.transmitting or self.reception_model.can_sense(
            self.current_power_mw
        )

    def phy_begin_own_tx(self) -> None:
        """Half duplex: starting to transmit kills any in-flight receptions."""
        self.transmitting = True
        for reception in self.pending_receptions.values():
            reception.signal_mw = 0.0
        self._update_sense_state()

    def phy_end_own_tx(self) -> None:
        self.transmitting = False
        self._update_sense_state()

    @property
    def sensed_busy(self) -> bool:
        """The cached carrier-sense state (audit hook).

        Kept in step with :attr:`medium_busy` by the channel's frame
        passes and :meth:`_update_sense_state`; the two must always
        agree.
        """
        return self._last_busy

    def _update_sense_state(self) -> None:
        # Radio-state changes; the channel's frame passes inline this.
        busy = self.transmitting or self.reception_model.can_sense(
            self.current_power_mw
        )
        if busy != self._last_busy:
            self._last_busy = busy
            mac = self.mac
            if mac.awaited_sense == busy:
                mac.on_medium_state(busy)

    # ------------------------------------------------------------------
    # Delivery

    def deliver(
        self, packet: Packet, sender_id: int, dest_id: int, rx_power_mw: float
    ) -> None:
        """A frame was successfully decoded; dispatch it."""
        if dest_id != BROADCAST_ID and dest_id != self.node_id:
            self.counters.add("phy.rx_overheard")
            return
        packets, size = _RX_COUNTERS[packet.kind]
        self.counters.add(packets)
        self.counters.add(size, packet.size_bytes)
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
            self.counters.add("rx.unhandled")

    def distance_to(self, other: "Node") -> float:
        return self.position.distance_to(other.position)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.node_id} @({self.position.x:.0f},{self.position.y:.0f})>"
