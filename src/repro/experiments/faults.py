"""Failure injection: radio outages for robustness experiments.

The paper's mesh is static and failure-free, but a credible ODMRP
implementation must survive router crashes: the soft-state design
(periodic JOIN QUERY refresh + forwarding-group timeout) is exactly what
repairs routes after an outage.  The test suite uses this module to
verify that property; it is also available for user experiments.

Two layers live here:

* :class:`FailureInjector` -- the imperative scheduler that turns planned
  windows into ``set_active`` events on a live simulator.
* :class:`FaultPlan` (with :class:`OutageWindow` / :class:`FlappingSpec`)
  -- a declarative, serializable fault schedule that rides inside a
  :class:`~repro.experiments.scenarios.SimulationScenarioConfig`, so
  experiment specs (and the differential fuzzer) can sweep over faulty
  scenarios without writing scheduling code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.net.node import Node
from repro.sim.engine import Simulator


def merge_intervals(
    intervals: List[Tuple[float, float]]
) -> List[Tuple[float, float]]:
    """Union of half-open ``(start, end)`` intervals, sorted and disjoint.

    The canonical downtime algebra: a node that is already down cannot
    go "more down" (``Node.set_active`` is idempotent), so every
    downtime quantity in this module is computed on the merged union,
    never the naive per-window sum that double-counts overlaps.
    """
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


@dataclass
class OutageWindow:
    """One planned radio outage."""

    node_id: int
    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise ValueError(f"node id must be >= 0, got {self.node_id}")
        if self.start_s < 0.0:
            raise ValueError(f"outage cannot start before t=0 ({self.start_s})")
        if self.end_s <= self.start_s:
            raise ValueError(
                f"outage must end after it starts ({self.start_s} .. {self.end_s})"
            )


@dataclass
class FlappingSpec:
    """Declarative repeated outages: down for a fraction of every period."""

    node_id: int
    start_s: float
    period_s: float
    down_fraction: float
    until_s: float

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise ValueError(f"node id must be >= 0, got {self.node_id}")
        if not 0.0 < self.down_fraction < 1.0:
            raise ValueError("down fraction must be in (0, 1)")
        if self.period_s <= 0:
            raise ValueError("period must be positive")
        if self.until_s <= self.start_s:
            raise ValueError(
                f"flapping must end after it starts "
                f"({self.start_s} .. {self.until_s})"
            )


@dataclass
class FaultPlan:
    """A serializable fault schedule for one scenario.

    Carried by ``SimulationScenarioConfig.faults``; an empty plan (the
    default) schedules nothing and leaves the run's event stream
    bit-identical to a configuration without the field.
    """

    outages: Tuple[OutageWindow, ...] = ()
    flapping: Tuple[FlappingSpec, ...] = ()

    def __post_init__(self) -> None:
        self.outages = tuple(self.outages)
        self.flapping = tuple(self.flapping)

    def is_empty(self) -> bool:
        return not self.outages and not self.flapping

    def validate_for(self, num_nodes: int) -> "FaultPlan":
        """Check every referenced node exists; returns self for chaining."""
        for spec in (*self.outages, *self.flapping):
            if spec.node_id >= num_nodes:
                raise ValueError(
                    f"fault plan references node {spec.node_id} but the "
                    f"scenario has only {num_nodes} nodes"
                )
        return self

    def apply(self, injector: "FailureInjector", nodes: Dict[int, Node]) -> None:
        """Schedule every planned fault on the injector's simulator."""
        for outage in self.outages:
            injector.schedule_outage(
                nodes[outage.node_id], outage.start_s, outage.end_s
            )
        for flap in self.flapping:
            injector.schedule_flapping(
                nodes[flap.node_id],
                flap.start_s,
                flap.period_s,
                flap.down_fraction,
                flap.until_s,
            )

    def node_intervals(self) -> Dict[int, List[Tuple[float, float]]]:
        """Per-node merged downtime intervals the plan would schedule.

        Flapping specs are expanded into their individual down-phases
        (the exact windows :meth:`FailureInjector.schedule_flapping`
        would produce) before merging, so the result is the plan's full
        downtime footprint without needing a simulator.
        """
        raw: Dict[int, List[Tuple[float, float]]] = {}
        for outage in self.outages:
            raw.setdefault(outage.node_id, []).append(
                (outage.start_s, outage.end_s)
            )
        for flap in self.flapping:
            windows = raw.setdefault(flap.node_id, [])
            start = flap.start_s
            while start < flap.until_s:
                down_end = min(
                    start + flap.down_fraction * flap.period_s, flap.until_s
                )
                windows.append((start, down_end))
                start += flap.period_s
        return {
            node_id: merge_intervals(intervals)
            for node_id, intervals in raw.items()
        }

    def severity_summary(self) -> Dict[str, float]:
        """Compact per-plan severity numbers for reports and journals."""
        per_node = self.node_intervals()
        downtimes = [
            sum(end - start for start, end in intervals)
            for intervals in per_node.values()
        ]
        return {
            "nodes_affected": float(len(per_node)),
            "windows": float(
                sum(len(intervals) for intervals in per_node.values())
            ),
            "total_downtime_s": sum(downtimes),
            "max_node_downtime_s": max(downtimes, default=0.0),
        }

    def covers_interval(
        self, node_id: int, start_s: float, end_s: float
    ) -> bool:
        """True when the merged downtime fully covers ``[start_s, end_s]``."""
        if end_s <= start_s:
            return False
        for low, high in self.node_intervals().get(node_id, []):
            if low <= start_s and high >= end_s:
                return True
        return False

    def assert_source_uptime(
        self, source_ids: List[int], start_s: float, end_s: float
    ) -> "FaultPlan":
        """Reject plans that silence a multicast source for the whole
        traffic interval.

        A source that is down for all of ``[start_s, end_s]`` (the CBR
        interval: warmup to end of run) offers zero packets, so the run
        reports zero delivery that says nothing about the routing
        metric under test -- it would silently drag every aggregate
        down.  Such plans are a configuration error; raises a
        ``ValueError`` naming the node.  Returns self for chaining.
        """
        for source_id in source_ids:
            if self.covers_interval(source_id, start_s, end_s):
                raise ValueError(
                    f"fault plan keeps multicast source node {source_id} "
                    f"down for the entire traffic interval "
                    f"[{start_s:g}, {end_s:g}] s -- the run would offer "
                    "no packets and report zero delivery; shorten the "
                    "outage or pick a different node"
                )
        return self


@dataclass
class FailureInjector:
    """Schedules radio down/up transitions on simulator time."""

    sim: Simulator
    windows: List[OutageWindow] = field(default_factory=list)

    def schedule_outage(self, node: Node, start_s: float, end_s: float) -> None:
        """Take ``node`` down during ``[start_s, end_s)`` (absolute times)."""
        window = OutageWindow(node.node_id, start_s, end_s)
        self.windows.append(window)
        self.sim.schedule_at(start_s, node.set_active, False)
        self.sim.schedule_at(end_s, node.set_active, True)

    def schedule_flapping(
        self,
        node: Node,
        start_s: float,
        period_s: float,
        down_fraction: float,
        until_s: float,
    ) -> int:
        """Repeated outages: down for ``down_fraction`` of every period.

        Returns the number of outages scheduled.  Models a marginal
        router (overheating, flaky power) rather than a clean crash.
        """
        if not 0.0 < down_fraction < 1.0:
            raise ValueError("down fraction must be in (0, 1)")
        if period_s <= 0:
            raise ValueError("period must be positive")
        count = 0
        start = start_s
        while start < until_s:
            down_end = min(start + down_fraction * period_s, until_s)
            self.schedule_outage(node, start, down_end)
            count += 1
            start += period_s
        return count

    def total_downtime_s(self, node_id: int) -> float:
        """Scheduled downtime for one node (diagnostics).

        Overlapping windows are merged before summing: a node that is
        already down cannot go "more down" (``Node.set_active`` is
        idempotent), so the union of the windows -- not their naive sum,
        which double-counts overlaps -- is the planned-downtime quantity.
        """
        merged = merge_intervals(
            [(w.start_s, w.end_s) for w in self.windows if w.node_id == node_id]
        )
        return sum(end - start for start, end in merged)
