"""The built-in invariant monitors.

Each monitor watches one conservation property the paper's numbers rest
on.  They observe through read-only accessors (power ledgers, state
snapshots) and handler wrappers (:meth:`Node.wrap_handler`), never by
scheduling events, so an enabled suite perturbs nothing but wall time.

Registered names:

``channel-conservation``
    Power ledgers sum to ``current_power_mw`` and number
    ``on_air_count``; each node's cached carrier-sense state equals
    ``medium_busy``; pending receptions never outlive their end time;
    everything drains exactly when the channel reports zero
    transmissions in flight (and at quiescence).
``data-provenance``
    Every DATA reception traces back to its source or to a node that was
    a legitimate forwarder (active FG / on-tree) when it accepted the
    packet; sink totals equal the summed per-node delivery counters.
``metric-accumulation``
    The path cost carried by every JOIN QUERY equals the metric's
    declared algebra (sum / product / METX recursion) recomputed from
    the per-link costs actually observed along the path.
``forwarding-state``
    FG and tree expiries never exceed their configured lifetimes, and
    per-round best-upstream pointers stay acyclic.
``rng-isolation``
    A run's RNG streams derive from its own topology seed, carry only
    known subsystem names, and are never shared with another live run.
"""

from __future__ import annotations

import math
import weakref
from collections import defaultdict
from typing import Dict, Optional, Set, Tuple

from repro.core.accumulation import compose
from repro.maodv.protocol import MaodvRouter
from repro.net.packet import PacketKind
from repro.validation.invariants import InvariantMonitor, register_monitor

#: Window of flood rounds the packet-observing monitors keep state for;
#: matches (with slack) the router's own ``_prune_rounds`` horizon of 4.
_SEQ_HORIZON = 8

_TIME_EPS = 1e-9


def _prune_by_sequence(
    table: Dict[Tuple[int, int, int], object],
    max_seq: Dict[Tuple[int, int], int],
    group_id: int,
    source_id: int,
    sequence: int,
) -> None:
    """Drop per-round entries older than the horizon for one flow."""
    flow = (group_id, source_id)
    newest = max_seq.get(flow, 0)
    if sequence <= newest:
        return
    max_seq[flow] = sequence
    horizon = sequence - _SEQ_HORIZON
    if horizon <= 0:
        return
    stale = [
        key for key in table
        if key[0] == group_id and key[1] == source_id and key[2] <= horizon
    ]
    for key in stale:
        del table[key]


@register_monitor
class ChannelConservationMonitor(InvariantMonitor):
    """Channel power/pending-reception ledgers are exact and drain."""

    name = "channel-conservation"

    def check(self, now: float) -> None:
        network = self.scenario.network
        channel = network.channel
        in_flight = channel.transmissions_in_flight
        if in_flight < 0:
            self.fail(
                f"channel counted {in_flight} transmissions in flight "
                "(more ended than began)"
            )
        idle = in_flight == 0
        for node in network.nodes:
            ledger = node.power_ledger()
            total = math.fsum(ledger.values())
            power = node.current_power_mw
            if power < 0.0:
                self.fail(
                    f"negative audible power {power!r} mW",
                    node_id=node.node_id,
                )
            if not math.isclose(total, power, rel_tol=1e-6, abs_tol=1e-9):
                self.fail(
                    f"power ledger sums to {total!r} mW but "
                    f"current_power_mw is {power!r} mW "
                    f"({len(ledger)} contribution(s))",
                    node_id=node.node_id,
                )
            if node.on_air_count != len(ledger):
                self.fail(
                    f"node counts {node.on_air_count} frame(s) on the air "
                    f"but its power ledger holds {len(ledger)}",
                    node_id=node.node_id,
                )
            if node.sensed_busy != node.medium_busy:
                self.fail(
                    f"cached carrier-sense state {node.sensed_busy} "
                    f"disagrees with medium_busy={node.medium_busy}",
                    node_id=node.node_id,
                )
            for reception in node.pending_receptions.values():
                if reception.end_time < now - _TIME_EPS:
                    self.fail(
                        f"pending reception outlived its end time "
                        f"({reception.end_time!r} < now={now!r})",
                        node_id=node.node_id,
                    )
                if reception.transmission not in ledger:
                    self.fail(
                        "pending reception for a transmission with no "
                        "power contribution on this node",
                        node_id=node.node_id,
                    )
            if idle:
                if power != 0.0 or ledger:
                    self.fail(
                        f"channel is idle but {len(ledger)} power "
                        f"contribution(s) ({power!r} mW) did not drain",
                        node_id=node.node_id,
                    )
                if node.pending_receptions:
                    self.fail(
                        f"channel is idle but "
                        f"{len(node.pending_receptions)} pending "
                        "reception(s) did not drain",
                        node_id=node.node_id,
                    )
                if node.transmitting:
                    self.fail(
                        "channel is idle but the node believes it is "
                        "transmitting",
                        node_id=node.node_id,
                    )

    def final_check(self, now: float) -> None:
        sim = self.scenario.network.sim
        if sim.quiescent and self.scenario.network.channel.transmissions_in_flight != 0:
            self.fail(
                "simulator is quiescent but the channel still counts "
                f"{self.scenario.network.channel.transmissions_in_flight} "
                "transmission(s) in flight"
            )
        self.check(now)


@register_monitor
class DataProvenanceMonitor(InvariantMonitor):
    """Every DATA reception traces to the source or a legal forwarder."""

    name = "data-provenance"

    def install(self, scenario, suite) -> None:
        super().install(scenario, suite)
        #: (group, source, seq) -> nodes allowed to have broadcast it.
        self._entitled: Dict[Tuple[int, int, int], Set[int]] = {}
        self._max_seq: Dict[Tuple[int, int], int] = {}
        for router in scenario.routers.values():
            self._hook(router)

    def _hook(self, router) -> None:
        def wrap(orig):
            def checked(packet, sender_id, rx_power_mw):
                self._observe(router, packet, sender_id)
                return orig(packet, sender_id, rx_power_mw)

            return checked

        router.node.wrap_handler(PacketKind.DATA, wrap)

    def _observe(self, router, packet, sender_id: int) -> None:
        payload = packet.payload
        key = (payload.group_id, payload.source_id, payload.sequence)
        entitled = self._entitled.get(key)
        if sender_id != payload.source_id and (
            entitled is None or sender_id not in entitled
        ):
            self.fail(
                f"DATA {payload.group_id}/{payload.source_id}"
                f"#{payload.sequence} heard from node {sender_id}, which "
                "neither originated it nor was a legitimate forwarder "
                "when it accepted it",
                node_id=router.node.node_id,
            )
        # Entitlement is granted at decision time: the router will accept
        # this packet (first copy) and rebroadcast iff its forwarding
        # state says so *right now* -- the same state `_on_data` is about
        # to consult at this same simulated instant.
        if not router.seen_data(*key) and router.would_forward_data(
            payload.group_id, payload.source_id
        ):
            self._entitled.setdefault(key, set()).add(router.node.node_id)
        _prune_by_sequence(
            self._entitled, self._max_seq,
            payload.group_id, payload.source_id, payload.sequence,
        )

    def check(self, now: float) -> None:
        network = self.scenario.network
        sink_total = self.scenario.sink.total_packets
        counted = int(network.total_counter("odmrp.data_delivered"))
        if sink_total != counted:
            self.fail(
                f"sink recorded {sink_total} deliveries but node "
                f"counters sum to {counted}"
            )


@register_monitor
class MetricAccumulationMonitor(InvariantMonitor):
    """JOIN QUERY path costs match the metric's algebra, link by link."""

    name = "metric-accumulation"

    def install(self, scenario, suite) -> None:
        super().install(scenario, suite)
        #: (group, source, seq) -> node -> {advertisable cost: link costs}.
        self._costs: Dict[
            Tuple[int, int, int],
            Dict[int, Dict[float, Tuple[float, ...]]],
        ] = {}
        self._max_seq: Dict[Tuple[int, int], int] = {}
        for router in scenario.routers.values():
            self._hook(router)

    def _hook(self, router) -> None:
        def wrap(orig):
            def checked(packet, sender_id, rx_power_mw):
                self._observe(router, packet, sender_id)
                return orig(packet, sender_id, rx_power_mw)

            return checked

        router.node.wrap_handler(PacketKind.JOIN_QUERY, wrap)

    def _observe(self, router, packet, sender_id: int) -> None:
        payload = packet.payload
        me = router.node.node_id
        if payload.source_id == me:
            return  # the router ignores its own flood
        metric = router.metric
        key = (payload.group_id, payload.source_id, payload.sequence)
        per_node = self._costs.setdefault(key, {})

        if sender_id == payload.source_id:
            initial = 0.0 if metric is None else metric.initial_cost()
            if payload.path_cost != initial or payload.hop_count != 0:
                self.fail(
                    f"JOIN QUERY straight from source {payload.source_id} "
                    f"carries cost={payload.path_cost!r} "
                    f"hops={payload.hop_count}, expected cost={initial!r} "
                    "hops=0",
                    node_id=me,
                )
            links: Tuple[float, ...] = ()
        else:
            recorded = per_node.get(sender_id)
            if recorded is None or payload.path_cost not in recorded:
                self.fail(
                    f"JOIN QUERY from node {sender_id} advertises cost "
                    f"{payload.path_cost!r}, which was never computed at "
                    f"that node for round {key}",
                    node_id=me,
                )
            links = recorded[payload.path_cost]

        if metric is None:
            charged = float(payload.hop_count + 1)
            new_links = links + (1.0,)
            expected = float(len(new_links))
        else:
            quality = router.neighbor_table.link_quality(sender_id)
            link_cost = metric.link_cost(quality)
            charged = metric.combine(payload.path_cost, link_cost)
            new_links = links + (link_cost,)
            expected = compose(metric, new_links)
        if not _cost_close(charged, expected):
            self.fail(
                f"metric {getattr(metric, 'name', 'hop')!r} accumulated "
                f"{charged!r} over per-link costs {new_links!r} but the "
                f"declared algebra recomputes {expected!r}",
                node_id=me,
            )
        per_node.setdefault(me, {})[charged] = new_links
        _prune_by_sequence(
            self._costs, self._max_seq,
            payload.group_id, payload.source_id, payload.sequence,
        )


def _cost_close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


@register_monitor
class ForwardingStateMonitor(InvariantMonitor):
    """FG/tree soft state respects its timeouts; upstreams are acyclic."""

    name = "forwarding-state"

    def check(self, now: float) -> None:
        routers = self.scenario.routers
        rounds: Dict[Tuple[int, int, int], Dict[int, int]] = defaultdict(dict)
        for node_id, router in routers.items():
            fg_limit = router.config.fg_timeout_s
            for group_id, expiry in router.fg_expiries().items():
                if expiry - now > fg_limit + _TIME_EPS:
                    self.fail(
                        f"forwarding group {group_id} expires at "
                        f"{expiry:.6f}s, {expiry - now:.6f}s from now -- "
                        f"beyond FG_TIMEOUT={fg_limit}s",
                        node_id=node_id,
                    )
            if isinstance(router, MaodvRouter):
                tree_limit = 1.5 * router.config.refresh_interval_s
                for (group_id, source_id), (_seq, expiry) in (
                    router.tree_expiries().items()
                ):
                    if expiry - now > tree_limit + _TIME_EPS:
                        self.fail(
                            f"tree ({group_id}, {source_id}) expires "
                            f"{expiry - now:.6f}s from now -- beyond the "
                            f"1.5x refresh lifetime {tree_limit}s",
                            node_id=node_id,
                        )
            for key, upstream in router.round_upstreams().items():
                rounds[key][node_id] = upstream
        for key, upstreams in rounds.items():
            cycle = _find_cycle(upstreams)
            if cycle is not None:
                self.fail(
                    f"best-upstream pointers for flood round {key} form "
                    f"a cycle: {' -> '.join(map(str, cycle + cycle[:1]))}",
                    node_id=cycle[0],
                )


def _find_cycle(upstreams: Dict[int, int]) -> Optional[list]:
    """First cycle in a functional pointer graph, or None.

    The metric-enhanced query round only replaces an upstream on a
    *strict* cost improvement and ``combine`` never improves a path for
    any paper metric, so these graphs must be forests rooted outside the
    tracked set (ultimately at the flood's source).
    """
    settled: Set[int] = set()
    for start in upstreams:
        if start in settled:
            continue
        path: list = []
        index: Dict[int, int] = {}
        node = start
        while node in upstreams and node not in settled:
            if node in index:
                return path[index[node]:]
            index[node] = len(path)
            path.append(node)
            node = upstreams[node]
        settled.update(path)
    return None


#: Stream names a scenario run may legitimately create on its simulator.
ALLOWED_STREAM_PREFIXES = (
    "mac.", "phy.", "odmrp.", "probe.", "cbr.", "testbed.", "mobility.",
)
ALLOWED_STREAM_NAMES = frozenset({"topology", "membership", "traffic"})

#: Live rng-isolation monitors across concurrently existing runs in this
#: process; weak so finished scenarios are collectable.
_LIVE_RNG_MONITORS: "weakref.WeakSet[RngIsolationMonitor]" = weakref.WeakSet()


@register_monitor
class RngIsolationMonitor(InvariantMonitor):
    """Per-run RNG streams never cross protocol/seed boundaries."""

    name = "rng-isolation"

    def install(self, scenario, suite) -> None:
        super().install(scenario, suite)
        self._registry_ref = weakref.ref(scenario.network.sim.rng)
        self._stream_ids: Dict[int, str] = {}
        _LIVE_RNG_MONITORS.add(self)

    def check(self, now: float) -> None:
        scenario = self.scenario
        registry = scenario.network.sim.rng
        if registry.master_seed != scenario.config.topology_seed:
            self.fail(
                f"run RNG master seed {registry.master_seed} != the "
                f"config's topology seed {scenario.config.topology_seed}"
            )
        streams = registry.stream_objects()
        for stream_name in streams:
            if stream_name in ALLOWED_STREAM_NAMES:
                continue
            if not stream_name.startswith(ALLOWED_STREAM_PREFIXES):
                self.fail(
                    f"unexpected RNG stream {stream_name!r} on the run's "
                    "simulator (not a known subsystem namespace)"
                )
        self._stream_ids = {
            id(stream): stream_name
            for stream_name, stream in streams.items()
        }
        for other in list(_LIVE_RNG_MONITORS):
            if other is self:
                continue
            other_registry = other._registry_ref()
            if other_registry is None or other_registry is registry:
                continue
            shared = self._stream_ids.keys() & other._stream_ids.keys()
            if shared:
                names = sorted(self._stream_ids[sid] for sid in shared)
                self.fail(
                    f"RNG stream(s) {names} are shared with another live "
                    "run -- streams must never cross protocol/seed "
                    "boundaries"
                )
