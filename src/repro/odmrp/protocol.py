"""The ODMRP router, original and metric-enhanced.

One :class:`OdmrpRouter` is attached to each node.  Constructing it with
``metric=None`` gives the paper's baseline ("ODMRP"): first-arriving JOIN
QUERY wins, members reply immediately, duplicates are dropped.
Constructing it with a :class:`~repro.core.metrics.RouteMetric` and a
:class:`~repro.probing.neighbor_table.NeighborTable` gives the enhanced
variant of Section 3.1 ("ODMRP_ETX", "ODMRP_SPP", ...):

* every hop charges the arriving JOIN QUERY with the cost of the link it
  arrived on (looked up in the NEIGHBOR_TABLE) before rebroadcasting;
* a member waits ``delta`` after the first query of a flood round,
  accumulating duplicates, and replies along the best-cost one;
* an intermediate node re-forwards a duplicate only when it improves on
  the best cost forwarded so far, and only within ``alpha < delta`` of
  first reception.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.metrics import RouteMetric
from repro.net.node import Node
from repro.net.packet import Packet, PacketKind
from repro.odmrp.config import OdmrpConfig
from repro.odmrp.messages import (
    DataPayload,
    JoinQueryPayload,
    JoinReplyEntry,
    JoinReplyPayload,
)
from repro.odmrp.state import (
    DuplicateCache,
    ForwardingGroupState,
    QueryRoundState,
    SequenceRecord,
)
from repro.probing.neighbor_table import NeighborTable
from repro.sim.engine import Simulator
from repro.sim.events import EventPriority
from repro.sim.process import PeriodicTask

#: ``on_deliver(packet, payload, receiver_id)`` fires at each member delivery.
DeliverCallback = Callable[[Packet, DataPayload, int], Any]


class _RxFromNames(dict):
    """sender id -> ``"odmrp.data_rx_from.<id>"``, formatted once each."""

    def __missing__(self, sender_id: int) -> str:
        name = self[sender_id] = f"odmrp.data_rx_from.{sender_id}"
        return name


#: The per-sender first-copy counter names ``_on_data`` increments.
RX_FROM_NAMES = _RxFromNames()


class _SourceState:
    __slots__ = ("group_id", "query_sequence", "data_sequence", "refresh_task")

    def __init__(self, group_id: int, refresh_task: PeriodicTask) -> None:
        self.group_id = group_id
        self.query_sequence = 0
        self.data_sequence = 0
        self.refresh_task = refresh_task


class OdmrpRouter:
    """ODMRP state machine for one node."""

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        config: Optional[OdmrpConfig] = None,
        metric: Optional[RouteMetric] = None,
        neighbor_table: Optional[NeighborTable] = None,
        on_deliver: Optional[DeliverCallback] = None,
    ) -> None:
        if metric is not None and neighbor_table is None:
            raise ValueError(
                "metric-enhanced ODMRP needs a NeighborTable for link costs"
            )
        self.sim = sim
        self.node = node
        self.config = config or OdmrpConfig()
        self.metric = metric
        self.neighbor_table = neighbor_table
        self.on_deliver = on_deliver
        self._rng: random.Random = sim.rng.stream(f"odmrp.{node.node_id}")

        self.member_groups: set[int] = set()
        self._sources: Dict[int, _SourceState] = {}
        # Keyed by (group, source, sequence): a node can source
        # several groups, each with its own flood-round numbering.
        self._rounds: Dict[Tuple[int, int, int], QueryRoundState] = {}
        self._replied: DuplicateCache = DuplicateCache()
        self._data_cache = SequenceRecord()
        self.forwarding_groups = ForwardingGroupState()

        node.register_handler(PacketKind.JOIN_QUERY, self._on_join_query)
        node.register_handler(PacketKind.JOIN_REPLY, self._on_join_reply)
        node.register_handler(PacketKind.DATA, self._on_data)

    # ------------------------------------------------------------------
    # Application interface

    def join_group(self, group_id: int) -> None:
        """Become a receiver member of ``group_id``."""
        self.member_groups.add(group_id)

    def leave_group(self, group_id: int) -> None:
        self.member_groups.discard(group_id)

    def start_source(self, group_id: int) -> None:
        """Begin periodic JOIN QUERY floods for ``group_id``."""
        if group_id in self._sources:
            return
        task = PeriodicTask(
            self.sim,
            self.config.refresh_interval_s,
            lambda: self._send_query(group_id),
            jitter=0.05,
            rng=self._rng,
            priority=EventPriority.ROUTING,
        )
        self._sources[group_id] = _SourceState(group_id, task)
        task.start(initial_delay=self._rng.uniform(0.0, 0.05))

    def stop_source(self, group_id: int) -> None:
        state = self._sources.pop(group_id, None)
        if state is not None:
            state.refresh_task.stop()

    def send_data(self, group_id: int, size_bytes: int = 512) -> int:
        """Originate one multicast data packet; returns its sequence."""
        source = self._sources.get(group_id)
        if source is None:
            raise ValueError(
                f"node {self.node.node_id} is not a source for group {group_id}"
            )
        source.data_sequence += 1
        payload = DataPayload(
            group_id=group_id,
            source_id=self.node.node_id,
            sequence=source.data_sequence,
        )
        packet = Packet(
            kind=PacketKind.DATA,
            origin=self.node.node_id,
            size_bytes=size_bytes,
            created_at=self.sim.now,
            payload=payload,
        )
        self._data_cache.first_sighting(
            group_id, self.node.node_id, source.data_sequence
        )
        self.node.counters.add("odmrp.data_originated")
        self.node.send_broadcast(packet)
        return source.data_sequence

    # ------------------------------------------------------------------
    # JOIN QUERY handling

    def _send_query(self, group_id: int) -> None:
        source = self._sources[group_id]
        source.query_sequence += 1
        payload = JoinQueryPayload(
            group_id=group_id,
            source_id=self.node.node_id,
            sequence=source.query_sequence,
            prev_hop=self.node.node_id,
            hop_count=0,
            path_cost=(
                self.metric.initial_cost() if self.metric is not None else 0.0
            ),
        )
        self.node.counters.add("odmrp.query_originated")
        self._broadcast_query(payload)

    def _broadcast_query(self, payload: JoinQueryPayload) -> None:
        packet = Packet(
            kind=PacketKind.JOIN_QUERY,
            origin=payload.source_id,
            size_bytes=self.config.query_size_bytes,
            created_at=self.sim.now,
            payload=payload,
        )
        self.node.send_broadcast(packet)

    def _on_join_query(
        self, packet: Packet, sender_id: int, rx_power_mw: float
    ) -> None:
        payload: JoinQueryPayload = packet.payload
        if payload.source_id == self.node.node_id:
            return
        now = self.sim.now
        new_cost = self._charge_last_link(payload, sender_id)
        key = (payload.group_id, payload.source_id, payload.sequence)
        state = self._rounds.get(key)
        if state is None:
            state = QueryRoundState(
                group_id=payload.group_id,
                source_id=payload.source_id,
                sequence=payload.sequence,
                first_rx_time=now,
                best_cost=new_cost,
                best_upstream=sender_id,
                best_hop_count=payload.hop_count + 1,
                alpha_deadline=now + self.config.alpha_s,
            )
            self._rounds[key] = state
            self._prune_rounds(
                payload.group_id, payload.source_id, payload.sequence
            )
            if payload.group_id in self.member_groups:
                self._arm_member_reply(state)
            self._consider_query_forward(state)
            return
        if self.metric is None:
            self.node.counters.add("odmrp.query_duplicate_dropped")
            return
        if self.metric.is_better(new_cost, state.best_cost):
            state.best_cost = new_cost
            state.best_upstream = sender_id
            state.best_hop_count = payload.hop_count + 1
            self.node.counters.add("odmrp.query_improved")
            if now <= state.alpha_deadline:
                self._consider_query_forward(state)
        else:
            self.node.counters.add("odmrp.query_duplicate_dropped")

    def _charge_last_link(
        self, payload: JoinQueryPayload, sender_id: int
    ) -> float:
        """Path cost including the link the query just crossed."""
        if self.metric is None:
            return float(payload.hop_count + 1)
        assert self.neighbor_table is not None
        link_cost = self.neighbor_table.link_cost(sender_id, self.metric)
        return self.metric.combine(payload.path_cost, link_cost)

    def _consider_query_forward(self, state: QueryRoundState) -> None:
        if state.forward_pending:
            return  # the pending send will pick up the latest best cost
        if state.last_forwarded_cost is not None:
            if self.metric is None:
                return  # original ODMRP forwards only the first query
            if not self.metric.is_better(
                state.best_cost, state.last_forwarded_cost
            ):
                return
        state.forward_pending = True
        delay = self._rng.uniform(0.0, self.config.query_jitter_s)
        self.sim.schedule(
            delay, self._forward_query, state, priority=EventPriority.ROUTING
        )

    def _forward_query(self, state: QueryRoundState) -> None:
        state.forward_pending = False
        if state.last_forwarded_cost is not None and self.metric is not None:
            if not self.metric.is_better(
                state.best_cost, state.last_forwarded_cost
            ):
                return
        state.last_forwarded_cost = state.best_cost
        payload = JoinQueryPayload(
            group_id=state.group_id,
            source_id=state.source_id,
            sequence=state.sequence,
            prev_hop=self.node.node_id,
            hop_count=state.best_hop_count,
            path_cost=state.best_cost,
        )
        self.node.counters.add("odmrp.query_forwarded")
        self._broadcast_query(payload)

    def _prune_rounds(
        self, group_id: int, source_id: int, sequence: int
    ) -> None:
        """Drop round state older than a few refresh rounds for a flow."""
        horizon = sequence - 4
        if horizon <= 0:
            return
        stale = [
            key
            for key in self._rounds
            if key[0] == group_id and key[1] == source_id
            and key[2] <= horizon
        ]
        for key in stale:
            del self._rounds[key]

    # ------------------------------------------------------------------
    # JOIN REPLY handling

    def _arm_member_reply(self, state: QueryRoundState) -> None:
        state.reply_pending = True
        if self.metric is None:
            # Original ODMRP answers the first query straight away.
            delay = self._rng.uniform(0.0, self.config.reply_jitter_s)
        else:
            # Wait delta to accumulate duplicate queries (Section 3.1).
            delay = self.config.delta_s
        self.sim.schedule(
            delay, self._member_reply, state, priority=EventPriority.ROUTING
        )

    def _member_reply(self, state: QueryRoundState) -> None:
        state.reply_pending = False
        key = (state.group_id, state.source_id, state.sequence)
        if not self._replied.check_and_add(key):
            return
        state.replied = True
        self._send_reply(state)

    def _send_reply(self, state: QueryRoundState) -> None:
        entry = JoinReplyEntry(
            source_id=state.source_id,
            sequence=state.sequence,
            next_hop=state.best_upstream,
        )
        payload = JoinReplyPayload(
            group_id=state.group_id,
            sender_id=self.node.node_id,
            entries=(entry,),
        )
        packet = Packet(
            kind=PacketKind.JOIN_REPLY,
            origin=self.node.node_id,
            size_bytes=self.config.reply_size_bytes(1),
            created_at=self.sim.now,
            payload=payload,
        )
        self.node.counters.add("odmrp.reply_sent")
        self.node.send_broadcast(packet)

    def _on_join_reply(
        self, packet: Packet, sender_id: int, rx_power_mw: float
    ) -> None:
        payload: JoinReplyPayload = packet.payload
        now = self.sim.now
        for entry in payload.entries:
            if entry.next_hop != self.node.node_id:
                continue
            self.forwarding_groups.refresh(
                payload.group_id, now + self.config.fg_timeout_s
            )
            self.node.counters.add("odmrp.fg_refreshed")
            if entry.source_id == self.node.node_id:
                # The reply chain reached the source; the route is complete.
                self.node.counters.add("odmrp.route_established")
                continue
            key = (payload.group_id, entry.source_id, entry.sequence)
            if not self._replied.check_and_add(key):
                continue
            state = self._rounds.get(
                (payload.group_id, entry.source_id, entry.sequence)
            )
            if state is None:
                self.node.counters.add("odmrp.reply_no_route")
                continue
            delay = self._rng.uniform(0.0, self.config.reply_jitter_s)
            self.sim.schedule(
                delay, self._send_reply, state, priority=EventPriority.ROUTING
            )

    # ------------------------------------------------------------------
    # Data handling

    def _on_data(self, packet: Packet, sender_id: int, rx_power_mw: float) -> None:
        payload: DataPayload = packet.payload
        counts = self.node.counters.counts
        if not self._data_cache.first_sighting(
            payload.group_id, payload.source_id, payload.sequence
        ):
            counts["odmrp.data_duplicate"] += 1.0
            return
        # Which link actually carried this packet first -- the raw material
        # for the Figure 5 "heavily used links" tree extraction.
        counts[RX_FROM_NAMES[sender_id]] += 1.0
        if payload.group_id in self.member_groups:
            counts["odmrp.data_delivered"] += 1.0
            counts["odmrp.data_delivered_bytes"] += packet.size_bytes
            if self.on_deliver is not None:
                self.on_deliver(packet, payload, self.node.node_id)
        if self.forwarding_groups.is_active(payload.group_id, self.sim.now):
            counts["odmrp.data_forwarded"] += 1.0
            self.node.send_broadcast(packet.copy_for_forwarding())

    # ------------------------------------------------------------------
    # Introspection (tests, Figure 5 tree extraction)

    def active_forwarding_groups(self) -> list[int]:
        """Group ids this node currently forwards for (telemetry hook)."""
        return self.forwarding_groups.active_groups(self.sim.now)

    def telemetry_snapshot(self) -> Dict[str, float]:
        """Cumulative routing-state sizes for the telemetry sampler."""
        return {
            "member_groups": float(len(self.member_groups)),
            "active_forwarding_groups": float(
                len(self.active_forwarding_groups())
            ),
            "query_rounds_tracked": float(len(self._rounds)),
        }

    def current_upstream(self, source_id: int) -> Optional[int]:
        """Best upstream toward ``source_id`` in the newest known round."""
        newest: Optional[QueryRoundState] = None
        for (_group, src, _seq), state in self._rounds.items():
            if src != source_id:
                continue
            if newest is None or state.sequence > newest.sequence:
                newest = state
        return newest.best_upstream if newest is not None else None

    def is_forwarder(self, group_id: int) -> bool:
        return self.forwarding_groups.is_active(group_id, self.sim.now)

    # ------------------------------------------------------------------
    # Validation hooks (read-only; used by repro.validation monitors)

    def seen_data(self, group_id: int, source_id: int, sequence: int) -> bool:
        """Whether this node has already accepted the identified packet."""
        return (group_id, source_id, sequence) in self._data_cache

    def would_forward_data(self, group_id: int, source_id: int) -> bool:
        """The forwarding decision `_on_data` would take right now.

        ODMRP forwards for any active forwarding group of the packet's
        group; the source id is ignored (mesh, not tree).  MAODV
        overrides this with its per-(group, source) tree membership.
        """
        return self.forwarding_groups.is_active(group_id, self.sim.now)

    def round_upstreams(self) -> Dict[Tuple[int, int, int], int]:
        """(group, source, sequence) -> current best upstream node id."""
        return {
            key: state.best_upstream for key, state in self._rounds.items()
        }

    def fg_expiries(self) -> Dict[int, float]:
        """group -> forwarding-group expiry time (all groups ever seen)."""
        return self.forwarding_groups.expiries()
