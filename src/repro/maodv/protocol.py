"""A tree-based multicast router built on the ODMRP machinery.

The route-discovery plumbing (periodic source floods, cost accumulation,
delta-delayed member replies, alpha-windowed duplicate forwarding) is
inherited unchanged from :class:`~repro.odmrp.protocol.OdmrpRouter`; what
changes is the forwarding state a JOIN REPLY leaves behind:

* state is keyed by (group, source) -- one tree per source, not one
  forwarding group per group;
* a reply for a newer flood round *replaces* the older tree membership
  rather than extending it, so stale branches stop forwarding at the
  next round instead of lingering for the FG timeout;
* data is forwarded only by nodes on the current tree of its source.

The result has far less path redundancy than ODMRP -- the property that
makes metrics matter even with many sources per group (Section 4.3).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.net.packet import Packet
from repro.odmrp.messages import DataPayload, JoinReplyPayload
from repro.odmrp.protocol import RX_FROM_NAMES, OdmrpRouter


class MaodvRouter(OdmrpRouter):
    """Tree-based multicast with optional link-quality metrics."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # (group, source) -> (tree sequence, expiry time)
        self._tree: Dict[Tuple[int, int], Tuple[int, float]] = {}

    # ------------------------------------------------------------------
    # Forwarding-state construction (replaces the FG rules)

    def _on_join_reply(
        self, packet: Packet, sender_id: int, rx_power_mw: float
    ) -> None:
        payload: JoinReplyPayload = packet.payload
        now = self.sim.now
        for entry in payload.entries:
            if entry.next_hop != self.node.node_id:
                continue
            key = (payload.group_id, entry.source_id)
            current = self._tree.get(key)
            if current is None or entry.sequence >= current[0]:
                # Newer (or same-round) tree membership replaces the old.
                self._tree[key] = (
                    entry.sequence,
                    now + self._tree_lifetime_s(),
                )
                self.node.counters.add("maodv.tree_joined")
            if entry.source_id == self.node.node_id:
                self.node.counters.add("odmrp.route_established")
                continue
            reply_key = (payload.group_id, entry.source_id, entry.sequence)
            if not self._replied.check_and_add(reply_key):
                continue
            state = self._rounds.get(
                (payload.group_id, entry.source_id, entry.sequence)
            )
            if state is None:
                self.node.counters.add("odmrp.reply_no_route")
                continue
            delay = self._rng.uniform(0.0, self.config.reply_jitter_s)
            self.sim.schedule(delay, self._send_reply, state)

    def _tree_lifetime_s(self) -> float:
        """Tree state survives 1.5 refresh rounds: enough to bridge one
        lost flood, short enough to avoid ODMRP-style mesh buildup."""
        return 1.5 * self.config.refresh_interval_s

    def _on_tree(self, group_id: int, source_id: int) -> bool:
        entry = self._tree.get((group_id, source_id))
        return entry is not None and entry[1] > self.sim.now

    # ------------------------------------------------------------------
    # Data forwarding (per-source tree instead of per-group FG)

    def _on_data(self, packet: Packet, sender_id: int, rx_power_mw: float) -> None:
        payload: DataPayload = packet.payload
        counts = self.node.counters.counts
        if not self._data_cache.first_sighting(
            payload.group_id, payload.source_id, payload.sequence
        ):
            counts["odmrp.data_duplicate"] += 1.0
            return
        counts[RX_FROM_NAMES[sender_id]] += 1.0
        if payload.group_id in self.member_groups:
            counts["odmrp.data_delivered"] += 1.0
            counts["odmrp.data_delivered_bytes"] += packet.size_bytes
            if self.on_deliver is not None:
                self.on_deliver(packet, payload, self.node.node_id)
        if self._on_tree(payload.group_id, payload.source_id):
            counts["odmrp.data_forwarded"] += 1.0
            self.node.send_broadcast(packet.copy_for_forwarding())

    # ------------------------------------------------------------------
    # Introspection

    def is_forwarder_for_source(self, group_id: int, source_id: int) -> bool:
        return self._on_tree(group_id, source_id)

    def would_forward_data(self, group_id: int, source_id: int) -> bool:
        """MAODV forwards only on the live tree of the packet's source."""
        return self._on_tree(group_id, source_id)

    def tree_expiries(self) -> Dict[Tuple[int, int], Tuple[int, float]]:
        """(group, source) -> (tree sequence, expiry time); a copy.

        Validation hook: tree lifetimes must never exceed
        ``1.5 * refresh_interval_s`` from the moment they were granted.
        """
        return dict(self._tree)

    def active_tree_count(self) -> int:
        """How many (group, source) trees this node currently forwards for.

        Telemetry hook: the sampler counts tree membership across nodes to
        plot tree size and churn over time.
        """
        now = self.sim.now
        return sum(1 for _, expiry in self._tree.values() if expiry > now)
