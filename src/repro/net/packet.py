"""Packet model.

A :class:`Packet` is the unit handed to the MAC layer.  Protocol-specific
contents live in ``payload`` (a small dataclass defined by the owning
protocol); the fields here are what the PHY/MAC and the statistics
pipeline need: size, kind, originator, and creation time.

Packet kinds also drive the overhead accounting for Table 1: probe bytes
are everything with kind ``PROBE``/``PROBE_PAIR_*``, data bytes are kind
``DATA``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Optional


class PacketKind(Enum):
    """Classes of traffic, used for dispatch and byte accounting."""

    DATA = "data"
    PROBE = "probe"  # single broadcast probe (ETX / METX / SPP)
    PROBE_PAIR_SMALL = "probe_pair_small"  # packet-pair probes (PP / ETT)
    PROBE_PAIR_LARGE = "probe_pair_large"
    JOIN_QUERY = "join_query"
    JOIN_REPLY = "join_reply"
    MAODV_RREQ = "maodv_rreq"
    MAODV_RREP = "maodv_rrep"
    MAODV_GRPH = "maodv_grph"  # group hello
    PING = "ping"
    ACK = "ack"

    # Identity hash in C: ``Enum.__hash__`` is Python code, and per-kind
    # dict lookups run it several times per frame.  Members compare by
    # identity and the default hash of their string value is already
    # randomized per process, so no result can depend on it.
    __hash__ = object.__hash__

    @property
    def is_probe(self) -> bool:
        return self in (
            PacketKind.PROBE,
            PacketKind.PROBE_PAIR_SMALL,
            PacketKind.PROBE_PAIR_LARGE,
        )

    @property
    def is_control(self) -> bool:
        return self in (
            PacketKind.JOIN_QUERY,
            PacketKind.JOIN_REPLY,
            PacketKind.MAODV_RREQ,
            PacketKind.MAODV_RREP,
            PacketKind.MAODV_GRPH,
        )


_packet_uids = itertools.count(1)


@dataclass
class Packet:
    """One network-layer packet.

    ``origin`` is the node that *created* the packet; the transmitting
    node of any given hop is carried by the MAC delivery callback, not the
    packet, since a packet is re-broadcast unchanged by forwarders.
    """

    kind: PacketKind
    origin: int
    size_bytes: int
    created_at: float
    payload: Any = None
    uid: int = field(default_factory=lambda: next(_packet_uids))

    def copy_for_forwarding(self, payload: Optional[Any] = None) -> "Packet":
        """A forwarding copy sharing uid/origin/creation time.

        ODMRP forwards JOIN QUERY packets with updated cost fields; the
        uid is preserved so duplicate detection keys on the original
        flood, not on each hop's copy.
        """
        return Packet(
            kind=self.kind,
            origin=self.origin,
            size_bytes=self.size_bytes,
            created_at=self.created_at,
            payload=self.payload if payload is None else payload,
            uid=self.uid,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Packet #{self.uid} {self.kind.value} origin={self.origin} "
            f"{self.size_bytes}B t={self.created_at:.3f}>"
        )
