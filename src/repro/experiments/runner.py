"""Run protocol variants across topologies and collect results.

Environment knobs (read by the benchmark suite, not by this module) allow
paper-scale runs; the functions here are pure: everything comes in via the
config object.
"""

from __future__ import annotations

import os
import time
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.experiments.results import RunResult
from repro.experiments.scenarios import (
    SimulationScenario,
    SimulationScenarioConfig,
    build_simulation_scenario,
)
from repro.telemetry.export import trace_filename, write_trace
from repro.telemetry.manifest import build_manifest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (spec -> here)
    from repro.experiments.spec import ExperimentSpec

ProgressCallback = Callable[[str, int], None]


def run_protocol(
    protocol_name: str,
    config: Optional[SimulationScenarioConfig] = None,
) -> RunResult:
    """Build, run, and measure one protocol on one topology.

    When the config enables telemetry, the run's JSONL artifact is
    written before results are collected, so even a sweep that dies
    downstream leaves its traces behind.
    """
    scenario = build_simulation_scenario(protocol_name, config)
    start = time.perf_counter()
    scenario.run()
    wall_time_s = time.perf_counter() - start
    telemetry_path = export_run_telemetry(scenario, wall_time_s)
    return collect_result(scenario, telemetry_path=telemetry_path)


def telemetry_export_dir(config: SimulationScenarioConfig) -> str:
    """Where this config's telemetry artifacts land.

    Explicit ``TelemetryConfig.export_dir`` wins; the default is a
    ``telemetry/`` directory next to the cached run results, so one
    sweep's artifacts and cache entries travel together.
    """
    if config.telemetry.export_dir:
        return config.telemetry.export_dir
    from repro.experiments.parallel import resolve_cache_dir

    return os.path.join(resolve_cache_dir(None), "telemetry")


def export_run_telemetry(
    scenario: SimulationScenario, wall_time_s: float
) -> Optional[str]:
    """Write one finished run's manifest + instruments; returns the path."""
    hub = scenario.telemetry
    if hub is None:
        return None
    config = scenario.config
    extra = {
        "num_nodes": config.num_nodes,
        "samples_taken": hub.samples_taken,
        "offered_packets": scenario.offered_packets(),
    }
    if scenario.spec is not None:
        # Provenance for sweep tooling: which registry binding ran.
        extra["protocol_spec"] = scenario.spec.to_record()
    manifest = build_manifest(
        scenario.protocol_name,
        config,
        seed=config.topology_seed,
        wall_time_s=wall_time_s,
        sim_duration_s=config.duration_s,
        events_executed=scenario.network.sim.events_executed,
        family=scenario.spec.family if scenario.spec is not None else "",
        metric=scenario.spec.metric if scenario.spec is not None else None,
        extra=extra,
    )
    path = os.path.join(telemetry_export_dir(config), trace_filename(manifest))
    return write_trace(path, hub, manifest)


def collect_result(
    scenario: SimulationScenario, telemetry_path: Optional[str] = None
) -> RunResult:
    """Extract a :class:`RunResult` from a finished scenario."""
    probe_bytes = (
        scenario.probing.probe_bytes_sent()
        if scenario.probing is not None
        else 0.0
    )
    interesting_prefixes = (
        "odmrp.", "phy.", "tx.", "channel.",
    )
    counters = {}
    for node in scenario.network.nodes:
        for name, value in node.counters.as_dict().items():
            if name.startswith(interesting_prefixes):
                counters[name] = counters.get(name, 0.0) + value
    for name, value in scenario.network.channel.counters.as_dict().items():
        counters[name] = counters.get(name, 0.0) + value
    faults = getattr(scenario.config, "faults", None)
    if faults is not None and not faults.is_empty():
        # Make faulty runs self-describing: the injected-downtime
        # budget rides in the result counters, so reports (and cached
        # or journal-replayed runs) can itemize fault severity without
        # access to the original plan object.  Testbed configs carry
        # no fault plan at all, hence the getattr guard.
        summary = faults.severity_summary()
        counters["faults.injected_downtime_s"] = summary["total_downtime_s"]
        counters["faults.nodes_affected"] = summary["nodes_affected"]
        counters["faults.windows"] = summary["windows"]
    sink = scenario.sink
    seed = getattr(
        scenario.config, "topology_seed", None
    )
    if seed is None:
        seed = getattr(scenario.config, "run_seed", 0)
    return RunResult(
        protocol=scenario.protocol_name,
        topology_seed=seed,
        duration_s=scenario.config.duration_s,
        offered_packets=scenario.offered_packets(),
        expected_deliveries=scenario.expected_deliveries(),
        delivered_packets=sink.total_packets,
        delivered_bytes=sink.total_bytes,
        mean_delay_s=sink.mean_delay_s(),
        probe_bytes=probe_bytes,
        counters=counters,
        telemetry_path=telemetry_path,
    )


def run_experiment(
    spec: "ExperimentSpec",
    progress: Optional[ProgressCallback] = None,
    cache_dir: Optional[str] = None,
    resume: bool = False,
    journal_path: Optional[str] = None,
) -> List[RunResult]:
    """Execute a declarative :class:`~repro.experiments.spec.ExperimentSpec`.

    The spec is validated (every protocol resolved through the registry)
    before any simulation starts; execution then goes through one
    :class:`~repro.experiments.executors.SweepExecutor` built by
    :meth:`~repro.experiments.executors.SweepExecutor.for_spec`, so
    worker fan-out, the result cache, and telemetry export all apply.
    Every run is seed-deterministic, so the returned list is identical
    whatever the job count.  Specs that set ``run_timeout_s`` -- or
    callers passing ``resume=True`` -- journal their runs (see
    :mod:`repro.experiments.resilience`).
    """
    spec.validate()

    from repro.experiments.executors import SweepExecutor
    from repro.experiments.parallel import sweep_specs

    executor = SweepExecutor.for_spec(
        spec, cache_dir=cache_dir, resume=resume, journal_path=journal_path,
    )
    outcomes = executor.execute(
        sweep_specs(spec.config, spec.protocols, spec.seeds),
        progress=progress,
    )
    return [outcome.result for outcome in outcomes]
