"""CSMA/CA medium access with 802.11 broadcast/unicast semantics.

Model summary (one level above bit-accurate, matching the abstraction the
paper's GloMoSim study runs at):

* Carrier sense + DIFS + uniform random backoff before every transmission.
* If the medium turns busy during backoff, the attempt defers and redraws
  its backoff when the medium next goes idle.  (Real 802.11 freezes and
  resumes the counter; redrawing is a standard simulator simplification
  that preserves contention behaviour at these loads.)
* Broadcast frames: a single attempt, no RTS/CTS, no ACK -- the property
  the paper's multicast metrics are designed around.
* Unicast frames: receiver returns an ACK one SIFS after the data frame;
  the sender retries with binary-exponential backoff up to the retry
  limit.  Unicast exists so tests can demonstrate the unicast/broadcast
  reliability asymmetry; the multicast protocols use broadcast only.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Optional

from repro.mac.frames import (
    ACK_FRAME_BYTES,
    FrameTimings,
    ack_airtime_s,
    frame_airtime_s,
)
from repro.net.packet import Packet, PacketKind
from repro.sim.engine import Simulator
from repro.sim.events import EventHandle, EventPriority

BROADCAST_ID = -1


@dataclass
class MacConfig:
    """MAC tuning knobs."""

    timings: FrameTimings = field(default_factory=FrameTimings)
    queue_limit: int = 100
    ack_timeout_slack_s: float = 50e-6


@dataclass
class _OutgoingFrame:
    packet: Packet
    dest_id: int
    on_done: Optional[Callable[[bool], Any]]
    retries: int = 0
    cw: int = 0


@dataclass
class AckPayload:
    """Payload of a link-layer ACK: which data packet it acknowledges."""

    acked_uid: int
    acked_sender: int


class CsmaMac:
    """One node's MAC entity.  Attach to a node before use."""

    def __init__(self, sim: Simulator, config: Optional[MacConfig] = None) -> None:
        self.sim = sim
        self.config = config or MacConfig()
        self.node: Any = None  # set by Node.attach_mac
        self._queue: Deque[_OutgoingFrame] = deque()
        self._current: Optional[_OutgoingFrame] = None
        self._backoff_handle: Optional[EventHandle] = None
        self._ack_timer: Optional[EventHandle] = None
        #: The carrier-sense state this MAC waits for: ``True`` while a
        #: backoff is pending (the medium going busy cancels it),
        #: ``False`` while it defers (the medium going idle restarts
        #: contention), ``None`` otherwise.  :meth:`on_medium_state`
        #: acts on a flip to ``busy`` only when ``awaited_sense is
        #: busy``, so the PHY skips every other notification.
        self.awaited_sense: Optional[bool] = None
        self._rng = sim.rng.stream("mac.backoff")
        # Statistics
        self.frames_sent = 0
        self.frames_dropped_queue = 0
        self.frames_dropped_retry = 0
        self.retransmissions = 0
        self.backoffs = 0

    # ------------------------------------------------------------------
    # Upper-layer interface

    def enqueue(
        self,
        packet: Packet,
        dest_id: int = BROADCAST_ID,
        on_done: Optional[Callable[[bool], Any]] = None,
    ) -> bool:
        """Queue a frame for transmission.

        ``on_done(success)`` fires when the frame leaves the MAC: for
        broadcast, success means it was put on the air; for unicast, that
        an ACK arrived within the retry limit.
        Returns False (and drops) when the queue is full.
        """
        if len(self._queue) >= self.config.queue_limit:
            self.frames_dropped_queue += 1
            if on_done is not None:
                on_done(False)
            return False
        cw = self.config.timings.cw_min
        self._queue.append(_OutgoingFrame(packet, dest_id, on_done, cw=cw))
        self._maybe_start()
        return True

    @property
    def queue_length(self) -> int:
        backlog = len(self._queue)
        return backlog + (1 if self._current is not None else 0)

    def telemetry_snapshot(self) -> Dict[str, float]:
        """Cumulative MAC statistics for the telemetry sampler.

        Pull-based: the sampler calls this between simulation chunks, so
        the transmit path pays nothing for observability.
        """
        return {
            "frames_sent": self.frames_sent,
            "frames_dropped_queue": self.frames_dropped_queue,
            "frames_dropped_retry": self.frames_dropped_retry,
            "retransmissions": self.retransmissions,
            "backoffs": self.backoffs,
            "queue_length": self.queue_length,
        }

    # ------------------------------------------------------------------
    # Channel notifications (via the owning node)

    def on_medium_state(self, busy: bool) -> None:
        """The node's carrier-sense state flipped to ``busy``.

        A no-op unless ``awaited_sense is busy``; the PHY checks that
        first and skips the call otherwise.
        """
        if busy:
            if self._backoff_handle is not None:
                self._backoff_handle.cancel()
                self._backoff_handle = None
                self.awaited_sense = False
        elif self.awaited_sense is False:
            self.awaited_sense = None
            self._contend()

    def on_tx_complete(self) -> None:
        """Called by the channel when this node's transmission ends."""
        frame = self._current
        if frame is None:
            return
        self.frames_sent += 1
        if frame.dest_id == BROADCAST_ID:
            self._finish(True)
            return
        # Unicast: wait for the ACK.
        timeout = (
            self.config.timings.sifs_s
            + ack_airtime_s(self.node.params.data_rate_bps,
                            self.node.params.preamble_duration_s)
            + self.config.ack_timeout_slack_s
        )
        self._ack_timer = self.sim.schedule(
            timeout, self._on_ack_timeout, priority=EventPriority.MAC
        )

    def on_ack(self, acked_uid: int) -> None:
        """ACK arrived for the outstanding unicast frame."""
        frame = self._current
        if frame is None or frame.packet.uid != acked_uid:
            return
        if self._ack_timer is not None:
            self._ack_timer.cancel()
            self._ack_timer = None
        self._finish(True)

    def handle_received_data(self, packet: Packet, sender_id: int, dest_id: int) -> None:
        """Receiver-side unicast: schedule the ACK one SIFS later.

        ACKs bypass CSMA contention, per 802.11 (SIFS < DIFS guarantees
        the ACK wins the medium).
        """
        if dest_id != self.node.node_id or packet.kind == PacketKind.ACK:
            return
        ack = Packet(
            kind=PacketKind.ACK,
            origin=self.node.node_id,
            size_bytes=ACK_FRAME_BYTES,
            created_at=self.sim.now,
            payload=AckPayload(acked_uid=packet.uid, acked_sender=sender_id),
        )
        self.sim.schedule(
            self.config.timings.sifs_s,
            self._send_immediate,
            ack,
            sender_id,
            priority=EventPriority.MAC,
        )

    # ------------------------------------------------------------------
    # Internal state machine

    def _maybe_start(self) -> None:
        if self._current is not None or not self._queue:
            return
        self._current = self._queue.popleft()
        self._contend()

    def _contend(self) -> None:
        if self._current is None:
            return
        if self.node.medium_busy:
            self.awaited_sense = False
            return
        timings = self.config.timings
        slots = self._rng.randrange(self._current.cw)
        self.backoffs += 1
        delay = timings.difs_s + slots * timings.slot_time_s
        self._backoff_handle = self.sim.schedule(
            delay, self._backoff_done, priority=EventPriority.MAC
        )
        self.awaited_sense = True

    def _backoff_done(self) -> None:
        self._backoff_handle = None
        self.awaited_sense = None
        if self._current is None:
            return
        if self.node.medium_busy:
            self.awaited_sense = False
            return
        frame = self._current
        airtime = frame_airtime_s(
            frame.packet.size_bytes,
            self.node.params.data_rate_bps,
            self.node.params.preamble_duration_s,
        )
        self.node.channel.begin_transmission(
            self.node, frame.packet, frame.dest_id, airtime
        )

    def _send_immediate(self, packet: Packet, dest_id: int) -> None:
        """Put a control frame on the air without contention (ACK path)."""
        airtime = ack_airtime_s(
            self.node.params.data_rate_bps, self.node.params.preamble_duration_s
        )
        self.node.channel.begin_transmission(self.node, packet, dest_id, airtime,
                                             notify_sender=False)

    def _on_ack_timeout(self) -> None:
        self._ack_timer = None
        frame = self._current
        if frame is None:
            return
        frame.retries += 1
        if frame.retries > self.config.timings.retry_limit:
            self.frames_dropped_retry += 1
            self._finish(False)
            return
        self.retransmissions += 1
        frame.cw = min(frame.cw * 2, self.config.timings.cw_max)
        self._contend()

    def _finish(self, success: bool) -> None:
        frame = self._current
        self._current = None
        if frame is not None and frame.on_done is not None:
            frame.on_done(success)
        self._maybe_start()
