"""A mesh router node: radio state, MAC, and protocol dispatch.

The node owns the PHY-side bookkeeping for the shared channel:

* the set of transmissions currently audible at this position and their
  fading-sampled powers (``current_power_mw`` is their sum),
* the pending :class:`~repro.phy.reception.Reception` objects for frames
  this node may decode, and
* the carrier-sense state it reports to its MAC.

The channel drives it with one call per (frame, receiver) at each end of
the frame: :meth:`Node.phy_frame_begins` when the frame starts and
:meth:`Node.phy_remove_power` when it ends, plus
:meth:`Node.phy_finish_reception` for the receivers it started decoding.

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
        self._power_contributions: Dict[Any, float] = {}
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
        """Per-transmission audible-power contributions (a copy).

        Conservation audit hook: the entries must always sum to
        ``current_power_mw`` (within float drift) and must drain to
        nothing once the channel reports no transmission in flight.
        """
        return dict(self._power_contributions)

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

    def phy_frame_begins(
        self, transmission: Any, power_mw: float, decodable: bool
    ) -> bool:
        """A transmission became audible here at the given faded power.

        All of this node's bookkeeping for one arriving frame, in one
        call: add its power, raise the peak interference of every
        pending reception, report a carrier-sense flip to the MAC, and
        -- when the channel found the power ``decodable`` and this radio
        is not transmitting -- start a pending reception, whose initial
        interference is every other audible frame.  Returns whether a
        reception started; the channel finishes exactly those.
        """
        contributions = self._power_contributions
        contributions[transmission] = power_mw
        total = self.current_power_mw + power_mw
        self.current_power_mw = total
        pending = self.pending_receptions
        if pending:
            for other, reception in pending.items():
                reception.note_interference(
                    total - contributions.get(other, 0.0)
                )
        # Inlined _update_sense_state (this runs once per receiver-frame).
        busy = self.transmitting or (
            total >= self.params.carrier_sense_threshold_mw
        )
        if busy != self._last_busy:
            self._last_busy = busy
            self.mac.on_medium_state(busy)
        if not decodable or self.transmitting:
            return False
        reception = Reception(
            transmission, self.node_id, power_mw,
            transmission.start_time, transmission.end_time,
        )
        pending[transmission] = reception
        reception.note_interference(self.current_power_mw - power_mw)
        return True

    def phy_remove_power(self, transmission: Any) -> None:
        """An audible transmission ended; withdraw its power."""
        contributions = self._power_contributions
        power = contributions.pop(transmission, 0.0)
        if contributions:
            total = self.current_power_mw - power
            if total < 0.0:  # guard against float drift
                total = 0.0
        else:
            total = 0.0
        self.current_power_mw = total
        busy = self.transmitting or (
            total >= self.params.carrier_sense_threshold_mw
        )
        if busy != self._last_busy:
            self._last_busy = busy
            self.mac.on_medium_state(busy)

    def phy_begin_own_tx(self) -> None:
        """Half duplex: starting to transmit kills any in-flight receptions."""
        self.transmitting = True
        for reception in self.pending_receptions.values():
            reception.signal_mw = 0.0
        self._update_sense_state()

    def phy_end_own_tx(self) -> None:
        self.transmitting = False
        self._update_sense_state()

    def phy_finish_reception(
        self, transmission: Any, dest_id: int
    ) -> None:
        """Decide a pending reception and deliver on success."""
        reception = self.pending_receptions.pop(transmission, None)
        if reception is None:
            return
        if reception.signal_mw <= 0.0:
            self.counters.add("phy.rx_failed_half_duplex")
            return
        if self.reception_model.decide(reception):
            self.counters.add("phy.rx_ok")
            self.deliver(transmission.packet, transmission.sender_id, dest_id,
                         reception.signal_mw)
        elif reception.signal_mw < self.params.rx_threshold_mw:
            self.counters.add("phy.rx_failed_weak")
        else:
            self.counters.add("phy.rx_failed_collision")

    def _update_sense_state(self) -> None:
        # Radio-state changes; the per-frame power paths inline this.
        busy = self.transmitting or self.reception_model.can_sense(
            self.current_power_mw
        )
        if busy != self._last_busy:
            self._last_busy = busy
            self.mac.on_medium_state(busy)

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
