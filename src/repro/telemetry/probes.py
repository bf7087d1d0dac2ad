"""Standard probe set: wires a simulation scenario into a TelemetryHub.

Everything here is *pull-based*: probes read state the engine, MAC,
channel, probing layer, and routers already maintain (via the small
``telemetry_snapshot()`` / accessor hooks on those classes) and are
evaluated only from the hub's sampling chain.  No model code calls into
telemetry, so a run without a hub executes the exact seed instruction
stream.

Installed series (per sample interval, virtual time):

* ``engine.queue_depth``, ``engine.event_rate`` -- event-queue backlog
  and events executed per virtual second.
* ``mac.queue_depth``, ``mac.frame_rate``, ``mac.retransmission_rate``,
  ``phy.collision_rate`` -- aggregated over all nodes.
* ``probing.df.mean``, ``probing.cost.mean`` (+ the ``probing.df``
  histogram; per-link ``probing.df.link.*`` series when
  ``TelemetryConfig.per_link``).
* ``odmrp.fg_size.group<g>`` and ``odmrp.query_fanout`` -- forwarding
  group size per multicast group and JOIN QUERY rebroadcasts per tick.
* ``maodv.tree_nodes``, ``maodv.tree_churn`` -- when the scenario runs
  the tree-based router.

Forwarding-group size *changes* are additionally logged as structured
events (tag ``fg_size``), which is what makes tree churn legible in the
exported trace without diffing series by hand.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.maodv.protocol import MaodvRouter
from repro.telemetry.hub import TelemetryHub

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (scenarios -> here)
    from repro.experiments.scenarios import SimulationScenario


def _delta(fn: Callable[[], float]) -> Callable[[], Optional[float]]:
    """Turn a cumulative reader into a per-tick increment probe.

    The first tick primes the baseline and reports nothing, so rate
    series always describe a full interval.
    """
    last: list = [None]

    def probe() -> Optional[float]:
        current = fn()
        previous, last[0] = last[0], current
        return None if previous is None else current - previous

    return probe


def install_scenario_probes(hub: TelemetryHub, scenario: "SimulationScenario") -> None:
    """Register the standard probe set for one built scenario."""
    sim = scenario.network.sim
    nodes = scenario.network.nodes
    interval = hub.config.sample_interval_s

    # ---- engine --------------------------------------------------------
    hub.add_probe("engine.queue_depth", lambda: float(sim.queue_depth))
    hub.add_probe(
        "engine.event_rate",
        _delta(lambda: float(sim.events_executed) / interval),
        unit="events/s",
    )

    # ---- MAC / PHY -----------------------------------------------------
    def mac_total(key: str) -> float:
        return float(sum(node.mac.telemetry_snapshot()[key] for node in nodes))

    hub.add_probe("mac.queue_depth",
                  lambda: mac_total("queue_length"))
    hub.add_probe("mac.frame_rate",
                  _delta(lambda: mac_total("frames_sent") / interval),
                  unit="frames/s")
    hub.add_probe(
        "mac.retransmission_rate",
        _delta(lambda: mac_total("retransmissions") / interval),
        unit="frames/s",
    )
    hub.add_probe(
        "mac.backoff_rate",
        _delta(lambda: mac_total("backoffs") / interval),
        unit="backoffs/s",
    )
    hub.add_probe(
        "phy.collision_rate",
        _delta(lambda: sum(
            node.counters.get("phy.rx_failed_collision") for node in nodes
        ) / interval),
        unit="losses/s",
    )

    # ---- probing / link quality ---------------------------------------
    if scenario.probing is not None:
        probing = scenario.probing
        metric = scenario.metric
        df_histogram = hub.histogram(
            "probing.df",
            bounds=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
            description="per-link delivery fraction samples",
        )

        def sample_links() -> Optional[Dict[str, float]]:
            total_df = 0.0
            total_cost = 0.0
            links = 0
            per_link: Dict[str, float] = {}
            for node_id, table in probing.tables.items():
                for neighbor_id, quality in table.link_qualities().items():
                    df_histogram.observe(quality.forward_delivery_ratio)
                    total_df += quality.forward_delivery_ratio
                    if metric is not None:
                        total_cost += metric.link_cost(quality)
                    links += 1
                    if hub.config.per_link:
                        per_link[f"link.{neighbor_id}->{node_id}"] = (
                            quality.forward_delivery_ratio
                        )
            if links == 0:
                return None
            summary = {"df.mean": total_df / links,
                       "links_heard": float(links)}
            if metric is not None:
                summary["cost.mean"] = total_cost / links
            summary.update(per_link)
            return summary

        hub.add_probe("probing", sample_links)

    # ---- ODMRP / MAODV -------------------------------------------------
    routers = scenario.routers
    group_ids = [group.group_id for group in scenario.groups.groups]
    last_fg_size: Dict[int, int] = {}

    def fg_sizes() -> Dict[str, float]:
        now = sim.now
        sizes: Dict[str, float] = {}
        for group_id in group_ids:
            size = sum(
                1 for router in routers.values()
                if router.forwarding_groups.is_active(group_id, now)
            )
            sizes[f"group{group_id}"] = float(size)
            if last_fg_size.get(group_id) != size:
                hub.record_event(now, "fg_size", group=group_id, size=size)
                last_fg_size[group_id] = size
        return sizes

    hub.add_probe("odmrp.fg_size", fg_sizes)
    hub.add_probe(
        "odmrp.query_fanout",
        _delta(lambda: sum(
            router.node.counters.get("odmrp.query_forwarded")
            for router in routers.values()
        )),
        unit="rebroadcasts/tick",
    )

    # Tree probes apply when the registry spec resolved a tree-based
    # router (any MaodvRouter subclass); hand-assembled scenarios without
    # a spec fall back to inspecting the router instances directly.
    spec = scenario.spec
    runs_tree_router = (
        issubclass(spec.router, MaodvRouter) if spec is not None
        else any(isinstance(router, MaodvRouter) for router in routers.values())
    )
    if runs_tree_router:
        hub.add_probe(
            "maodv.tree_nodes",
            lambda: float(sum(
                router.active_tree_count() > 0
                for router in routers.values()
                if isinstance(router, MaodvRouter)
            )),
        )
        hub.add_probe(
            "maodv.tree_churn",
            _delta(lambda: sum(
                router.node.counters.get("maodv.tree_joined")
                for router in routers.values()
            )),
            unit="joins/tick",
        )


def finalize_scenario(hub: TelemetryHub, scenario: "SimulationScenario") -> None:
    """Publish end-of-run totals as counters/gauges and close sampling."""
    nodes = scenario.network.nodes
    totals: Dict[str, float] = {}
    for node in nodes:
        for key, value in node.mac.telemetry_snapshot().items():
            if key != "queue_length":
                totals[key] = totals.get(key, 0.0) + value
    for key, value in totals.items():
        hub.counter(f"mac.{key}").inc(value)
    for name, value in scenario.network.channel.telemetry_snapshot().items():
        if not name.startswith("channel."):
            name = f"channel.{name}"
        hub.counter(name).inc(value)
    hub.counter("phy.collisions").inc(
        scenario.network.total_counter("phy.rx_failed_collision")
    )
    hub.counter("sink.delivered_packets").inc(scenario.sink.total_packets)
    hub.counter("sink.delivered_bytes", unit="bytes").inc(
        scenario.sink.total_bytes
    )
    hub.gauge("engine.events_executed").set(scenario.network.sim.events_executed)
    hub.finalize(scenario.network.sim)
