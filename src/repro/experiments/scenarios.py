"""Scenario construction: from a config to a runnable protocol stack.

``build_simulation_scenario`` assembles the paper's Section 4.1 setup for
one protocol variant: 50 static nodes in 1000 m x 1000 m, two-ray
propagation with Rayleigh fading, 250 m nominal range, 2 Mbps channel,
two multicast groups of ten members, CBR 512 B @ 20 pkt/s per source.

The protocol variant is resolved through the protocol registry
(:mod:`repro.protocols`): the spec names the router class, the metric,
and any per-protocol config overrides, so the builder contains no
string dispatch -- registering a new ``ProtocolSpec`` is enough to make
it sweepable here.

The topology and group membership are drawn from the *topology seed
only*, so every protocol variant runs over the identical mesh and
workload -- only the routing behaviour differs, as in the paper's
normalized comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.metrics import RouteMetric
from repro.net.network import Network, NetworkConfig
from repro.net.topology import Position, random_topology
from repro.odmrp.config import OdmrpConfig
from repro.odmrp.protocol import OdmrpRouter
from repro.probing.manager import ProbingConfig, ProbingManager
from repro.protocols import ProtocolSpec, paper_protocol_names, protocol_by_name
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.telemetry.hub import TelemetryConfig, TelemetryHub
from repro.telemetry.probes import finalize_scenario, install_scenario_probes
from repro.traffic.cbr import CbrSource
from repro.traffic.groups import GroupScenario, build_group_scenario
from repro.traffic.sink import MulticastSink
from repro.validation.invariants import (
    InvariantSuite,
    ValidationConfig,
    build_suite,
)

#: The paper's six simulation variants ("odmrp" is the original protocol;
#: the rest are ODMRP_<METRIC>).  Derived from the registry -- kept as a
#: module constant for backward compatibility with existing sweeps.
PROTOCOL_NAMES = paper_protocol_names()


@dataclass
class SimulationScenarioConfig:
    """Everything that defines one simulation run (Section 4.1 defaults)."""

    num_nodes: int = 50
    area_width_m: float = 1000.0
    area_height_m: float = 1000.0
    num_groups: int = 2
    members_per_group: int = 10
    sources_per_group: int = 1
    rate_pps: float = 20.0
    packet_size_bytes: int = 512
    duration_s: float = 400.0
    #: Probing runs from t=0; traffic starts after this warmup so the
    #: first route choices already have link estimates (the paper's 400 s
    #: runs dwarf the 5-10 s probe intervals, so this mirrors steady state).
    warmup_s: float = 30.0
    topology_seed: int = 1
    network: NetworkConfig = field(default_factory=NetworkConfig)
    probing: ProbingConfig = field(default_factory=ProbingConfig)
    odmrp: OdmrpConfig = field(default_factory=OdmrpConfig)
    #: Observability knobs.  Disabled by default: no telemetry hub is
    #: built and the run executes the exact pre-telemetry instruction
    #: stream (see :mod:`repro.telemetry`).
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    #: Runtime invariant monitors (see :mod:`repro.validation`).
    #: Disabled by default: no suite is built and the run executes the
    #: exact pre-validation instruction stream.
    validation: ValidationConfig = field(default_factory=ValidationConfig)

    def with_probing_rate(self, multiplier: float) -> "SimulationScenarioConfig":
        """A copy with the probing rate scaled (overhead experiments)."""
        probing = replace(self.probing, rate_multiplier=multiplier)
        return replace(self, probing=probing)


def macro_flood_config(
    num_nodes: int = 2000,
    duration_s: float = 5.0,
    warmup_s: float = 1.0,
    members_per_group: int = 20,
    rate_pps: float = 5.0,
    topology_seed: int = 1,
) -> SimulationScenarioConfig:
    """A city-scale JOIN QUERY flood scenario at the paper's node density.

    The area is scaled so the density stays at the paper's 50 nodes per
    km^2 (the regime its connectivity and interference figures assume),
    which keeps the per-transmission audible set roughly constant while
    the mesh -- and the number of concurrent flood fronts -- grows with
    ``num_nodes``.  Short durations are intentional: one ODMRP refresh
    interval already floods a JOIN QUERY through all ``num_nodes``
    routers, so most frames are a sender's first: the macro workload for
    the spatial grid index and for the compiled PHY kernel, which draws
    first frames inside its frame-start pass.  Typically run with protocol
    "odmrp" (metric-free, so no probing machinery dilutes the flood).
    """
    side_m = math.sqrt(num_nodes / 50.0) * 1000.0
    return SimulationScenarioConfig(
        num_nodes=num_nodes,
        area_width_m=side_m,
        area_height_m=side_m,
        num_groups=1,
        members_per_group=members_per_group,
        sources_per_group=1,
        rate_pps=rate_pps,
        duration_s=duration_s,
        warmup_s=warmup_s,
        topology_seed=topology_seed,
    )


@dataclass
class SimulationScenario:
    """A fully wired, ready-to-run protocol stack."""

    config: SimulationScenarioConfig
    protocol_name: str
    network: Network
    metric: Optional[RouteMetric]
    probing: Optional[ProbingManager]
    routers: Dict[int, OdmrpRouter]
    sink: MulticastSink
    sources: List[CbrSource]
    groups: GroupScenario
    positions: List[Position]
    #: The run's telemetry hub, or None when telemetry is disabled.
    telemetry: Optional[TelemetryHub] = None
    #: The registry spec this scenario was built from (None only for
    #: hand-assembled scenarios that bypass the registry).
    spec: Optional[ProtocolSpec] = None
    #: The run's invariant-monitor suite, or None when validation is
    #: disabled.
    validation: Optional[InvariantSuite] = None

    def run(self) -> None:
        """Run the full configured duration.

        With telemetry and/or validation enabled the simulation
        advances in interval-sized chunks so the observers can act
        between events; chunking a half-open ``run(until=...)`` loop
        does not reorder events, so every path executes the same
        instruction stream.  Telemetry is registered before validation,
        so both see the same state at a shared boundary.
        """
        sim = self.network.sim
        until = self.config.duration_s
        observers: List[Tuple[float, Callable[[], None]]] = []
        if self.telemetry is not None:
            hub = self.telemetry
            observers.append(
                (
                    self.config.telemetry.sample_interval_s,
                    lambda: hub.sample(sim.now),
                )
            )
        if self.validation is not None:
            observers.append(
                (self.config.validation.check_interval_s, self.validation.check)
            )
        if not observers:
            self.network.run(until)
        else:
            drive_with_observers(sim, until, observers)
        if self.telemetry is not None:
            finalize_scenario(self.telemetry, self)
        if self.validation is not None:
            self.validation.final_check()

    def offered_packets(self) -> int:
        return sum(source.packets_sent for source in self.sources)

    def expected_deliveries(self) -> int:
        """Offered packets weighted by each group's member count."""
        total = 0
        for source in self.sources:
            members = self.groups.expected_deliveries_per_packet(
                source.group_id
            )
            total += source.packets_sent * members
        return total


def drive_with_observers(
    sim: Simulator,
    until: float,
    observers: Sequence[Tuple[float, Callable[[], None]]],
) -> None:
    """Advance ``sim`` to ``until``, firing each observer on its interval.

    The run is chunked at the union of the observers' interval
    boundaries (strictly inside ``(now, until)``; closing observations
    belong to the callers' finalizers).  Chunking a half-open
    ``run(until=...)`` loop never reorders events, and each observer
    sees the boundaries it would see alone, so enabling a second
    observer cannot perturb the first.
    """
    boundaries = [sim.now + interval for interval, _callback in observers]
    while True:
        next_boundary = min(boundaries)
        if not next_boundary < until:
            break
        sim.run(until=next_boundary)
        for index, (interval, callback) in enumerate(observers):
            if boundaries[index] == next_boundary:
                callback()
                boundaries[index] += interval
    sim.run(until=until)


def build_simulation_scenario(
    protocol_name: str,
    config: Optional[SimulationScenarioConfig] = None,
    router_class: Optional[type] = None,
) -> SimulationScenario:
    """Assemble the paper's simulation scenario for one protocol variant.

    ``protocol_name`` is resolved through the protocol registry, which
    supplies the router class, metric, and per-protocol config overrides
    (e.g. ``"spp"`` -> ODMRP_SPP, ``"maodv-etx"`` -> tree-based router on
    ETX).  An explicit ``router_class`` overrides the spec's router --
    the historical escape hatch for running a registered metric binding
    over a different protocol implementation.
    """
    if config is None:
        config = SimulationScenarioConfig()
    spec = protocol_by_name(protocol_name)
    if router_class is not None and router_class is not spec.router:
        spec = replace(spec, router=router_class)

    # Topology and membership depend only on the topology seed, so all
    # protocol variants see the same mesh and workload.
    scenario_rng = RngRegistry(config.topology_seed)
    positions = random_topology(
        config.num_nodes,
        config.area_width_m,
        config.area_height_m,
        rng=scenario_rng.stream("topology"),
        connectivity_range_m=config.network.nominal_range_m,
    )
    groups = build_group_scenario(
        config.num_nodes,
        config.num_groups,
        config.members_per_group,
        config.sources_per_group,
        rng=scenario_rng.stream("membership"),
    )

    network = Network(
        positions, seed=config.topology_seed, config=config.network
    )
    metric = spec.build_metric(
        packet_size_bytes=config.packet_size_bytes,
        default_bandwidth_bps=config.network.data_rate_bps,
    )

    probing: Optional[ProbingManager] = None
    if metric is not None:
        probing = ProbingManager(network, metric, config.probing)
        probing.start()

    protocol_config = spec.protocol_config(config.odmrp)
    sink = MulticastSink(network.sim)
    routers: Dict[int, OdmrpRouter] = {}
    for node in network.nodes:
        table = probing.table(node.node_id) if probing is not None else None
        routers[node.node_id] = spec.router(
            network.sim,
            node,
            config=protocol_config,
            metric=metric,
            neighbor_table=table,
            on_deliver=sink.on_deliver,
        )

    for group_id, member_id in groups.all_members():
        routers[member_id].join_group(group_id)

    sources: List[CbrSource] = []
    for group_id, source_id in groups.all_sources():
        source = CbrSource(
            network.sim,
            routers[source_id],
            group_id,
            rate_pps=config.rate_pps,
            packet_size_bytes=config.packet_size_bytes,
        )
        source.start(at=config.warmup_s, stop_at=config.duration_s)
        sources.append(source)

    scenario = SimulationScenario(
        config=config,
        protocol_name=spec.name,
        network=network,
        metric=metric,
        probing=probing,
        routers=routers,
        sink=sink,
        sources=sources,
        groups=groups,
        positions=positions,
        spec=spec,
    )
    if config.telemetry.enabled:
        scenario.telemetry = TelemetryHub(config.telemetry)
        install_scenario_probes(scenario.telemetry, scenario)
    if config.validation.enabled:
        scenario.validation = build_suite(config.validation, scenario)
    return scenario
