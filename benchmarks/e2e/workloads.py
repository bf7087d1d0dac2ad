"""The benchmark's workloads: inputs made from a seed, timed units, checks.

Each workload is a closed loop: it issues one simulation run (or one
sweep call) at a time and the next only after the previous returned.
:meth:`measure` repeats the workload's *unit* until the time budget is
spent and reports the end-to-end metrics over all units; :meth:`trace`
runs a fixed number of units twice, untraced and then traced, and
reports the per-layer ledger.

Every host time below is corrected for core contention (see
``hostspeed.py``): each timed interval is scaled by the host-speed probes
taken on either side of it.

End-to-end metrics (every workload reports each one):

``frames_per_s``
    Simulated frame transmissions per host second after set-up: the run
    and ``collect_result``, with the build left to ``setup_s`` (for the
    sweep: cold sweep plus warm replays).  A speed-only change leaves the
    frame count identical, so this moves exactly with host time; unlike
    raw wall time it does not swing with how much traffic a random
    topology happens to carry.
``frame_us_p50`` / ``frame_us_p90``
    Host microseconds per simulated frame, per sample: the simulation is
    driven in short sim-time chunks and a sample closes once it holds
    ``SAMPLE_FRAMES`` frames (for the sweep: one sample per executed run).
``setup_s``
    Median set-up time: ``build_simulation_scenario`` per unit (for the
    sweep: validating the spec and hashing every run's cache key).
``peak_rss_mb``
    Peak resident memory of the workload process and its pool workers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import median
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.experiments.executors import SweepExecutor
from repro.experiments.parallel import sweep_specs
from repro.experiments.results import RunResult
from repro.experiments.runner import collect_result, run_experiment
from repro.experiments.scenarios import (
    PROTOCOL_NAMES,
    SimulationScenarioConfig,
    build_simulation_scenario,
    macro_flood_config,
)
from repro.experiments.spec import ExperimentSpec

from hostspeed import HostSpeed, pin_to_one_cpu, worker_cpus
from ledger import Ledger, frames_on_air
from tracing import Tracer
from verdicts import percentile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
DIGESTS_PATH = os.path.join(HERE, "digests.json")
GOLDEN_PATH = os.path.join(REPO, "tests", "data", "golden_tiny_sweep.json")

#: Frames per latency sample: enough host time (tens of ms) per sample
#: that clock resolution and per-chunk bookkeeping stay negligible.
SAMPLE_FRAMES = 200

Metrics = Dict[str, Tuple[float, str]]
clock = time.perf_counter


def result_digest(result: RunResult) -> str:
    """sha256 of the canonical JSON of a result, ``telemetry_path`` dropped."""
    record = dataclasses.asdict(result)
    record.pop("telemetry_path")
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def load_digests() -> Dict[str, Dict[str, str]]:
    """workload -> topology seed -> digest of the seed commit's result."""
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)["digests"]


def peak_rss_mb() -> float:
    """Peak RSS of this process or its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def progress(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def frame_samples(intervals: Iterable[Tuple[float, float]], min_frames: float) -> List[float]:
    """Host microseconds per frame over consecutive (seconds, frames)
    intervals, one sample each time at least ``min_frames`` accumulate."""
    samples = []
    seconds = frames = 0.0
    for interval_s, interval_frames in intervals:
        seconds += interval_s
        frames += interval_frames
        if frames >= min_frames:
            samples.append(1e6 * seconds / frames)
            seconds = frames = 0.0
    return samples


@dataclass
class Measurement:
    """What one workload run reports."""

    metrics: Metrics
    attempted: int
    failures: List[str]
    digests: Dict[str, str] = field(default_factory=dict)
    #: Context printed beside the metrics (unit counts, raw wall time).
    extras: Metrics = field(default_factory=dict)


# ----------------------------------------------------------------------
# Simulation workloads (paper-spp, paper-odmrp, city-flood)


@dataclass
class Unit:
    """One finished build -> run -> collect."""

    result: RunResult
    #: Host seconds of build, run chunks and collect, speed-corrected.
    wall_s: float
    #: The same intervals, uncorrected.
    raw_wall_s: float
    #: The build alone, speed-corrected and uncorrected.
    setup_s: float
    raw_setup_s: float
    #: (speed-corrected seconds, frames) of every run chunk, in order.
    chunks: List[Tuple[float, float]]
    events: int

    @property
    def run_s(self) -> float:
        return sum(seconds for seconds, _frames in self.chunks)


def run_unit(
    protocol: str,
    config: SimulationScenarioConfig,
    step_s: float,
    speed: HostSpeed,
    build: Callable = build_simulation_scenario,
    collect: Callable = collect_result,
    tracer: Optional[Tracer] = None,
    window_s: Tuple[float, float] = (0.0, 0.0),
) -> Unit:
    """Build, run in ``step_s`` chunks, and collect one scenario.

    Chunking a half-open ``run(until=...)`` loop never reorders events,
    so this is the run ``run_protocol`` makes (the digests check it).
    Each timed interval is scaled by the mean of the host-speed probes on
    either side of it.  With a ``tracer``, raw spans are recorded while
    sim time is in ``window_s``.
    """
    steps = round(config.duration_s / step_s)
    if abs(steps * step_s - config.duration_s) > 1e-9:
        raise ValueError(f"duration {config.duration_s} is not a multiple of {step_s}")

    def last_probe(fresh: bool = False) -> int:
        """Index of the probe before the next interval (probing if due)."""
        if fresh:
            speed.probe()
        else:
            speed.factor()
        return len(speed.probes) - 1

    def factor(index: int) -> float:
        return (speed.probes[index] + speed.probes[index + 1]) / 2

    build_probe = last_probe(fresh=True)
    start = clock()
    scenario = build(protocol, config)
    built = clock()
    sim = scenario.network.sim
    counters = scenario.network.channel.counters
    last_probe(fresh=True)
    chunks = []  # (raw seconds, frames, probe before)
    frames = 0.0
    for step in range(1, steps + 1):
        probe = last_probe()
        if tracer is not None:
            tracer.recording = window_s[0] <= (step - 1) * step_s < window_s[1]
        until = config.duration_s if step == steps else step * step_s
        before = clock()
        sim.run(until=until)
        elapsed = clock() - before
        total = counters.total("channel.tx.")
        chunks.append((elapsed, total - frames, probe))
        frames = total
    if tracer is not None:
        tracer.recording = False
    collect_probe = last_probe()
    before = clock()
    result = collect(scenario)
    end = clock()
    last_probe(fresh=True)

    raw_setup_s = built - start
    setup_s = raw_setup_s * factor(build_probe)
    corrected = [(elapsed * factor(probe), new_frames) for elapsed, new_frames, probe in chunks]
    wall_s = setup_s + sum(c[0] for c in corrected) + (end - before) * factor(collect_probe)
    raw_wall_s = raw_setup_s + sum(c[0] for c in chunks) + (end - before)
    return Unit(result, wall_s, raw_wall_s, setup_s, raw_setup_s, corrected, sim.events_executed)


@dataclass(frozen=True)
class SimulationWorkload:
    """One protocol on generated topologies; topology seeds N, N+1, ..."""

    name: str
    protocol: str
    make_config: Callable[[int], SimulationScenarioConfig]
    #: Sim-time chunk: short enough that a sample rarely spans more than
    #: ``SAMPLE_FRAMES`` frames, long enough that the chunk loop is cheap.
    step_s: float
    #: Sim-time window whose raw spans the trace writes out.
    window_s: Tuple[float, float]
    #: Units (topologies) the trace runs, untraced and traced.
    trace_units: int
    #: Paper-density 50-node meshes always deliver; the city flood's
    #: short runs may not, so it checks that the flood reached the mesh.
    require_delivery: bool = True
    min_query_frames: int = 0

    def check(self, seed: int, unit: Unit, expected: Optional[str]) -> List[str]:
        """Output problems of one unit (empty when correct)."""
        result = unit.result
        label = f"{self.name}/topology={seed}"
        problems = []
        if result.error is not None:
            problems.append(f"{label}: run failed: {result.error.splitlines()[-1]}")
        if not 0 <= result.delivered_packets <= result.expected_deliveries:
            problems.append(
                f"{label}: delivered {result.delivered_packets} of "
                f"{result.expected_deliveries} expected"
            )
        if self.require_delivery and result.delivered_packets == 0:
            problems.append(f"{label}: delivered nothing")
        if unit.events <= 0 or frames_on_air(result) <= 0:
            problems.append(f"{label}: no events or no frames")
        query_frames = result.counters.get("channel.tx.join_query", 0.0)
        if query_frames < self.min_query_frames:
            problems.append(
                f"{label}: JOIN QUERY flood reached {query_frames:.0f} transmissions, "
                f"fewer than {self.min_query_frames}"
            )
        if expected is not None and result_digest(result) != expected:
            problems.append(f"{label}: result digest differs from the stored one")
        return problems

    def measure(self, seed: int, seconds: float) -> Measurement:
        stored = load_digests().get(self.name, {})
        units: List[Unit] = []
        failures: List[str] = []
        digests: Dict[str, str] = {}
        attempted = 0
        pin_to_one_cpu()
        speed = HostSpeed()
        deadline = clock() + seconds
        for topology_seed in itertools.count(seed):
            attempted += 1
            try:
                unit = run_unit(self.protocol, self.make_config(topology_seed), self.step_s, speed)
            except Exception:  # noqa: BLE001 - a crashed run is a failed operation
                failures.append(f"{self.name}/topology={topology_seed}: {traceback.format_exc()}")
            else:
                units.append(unit)
                digests[str(topology_seed)] = result_digest(unit.result)
                failures += self.check(topology_seed, unit, stored.get(str(topology_seed)))
            if clock() >= deadline:
                break
        if not units:
            return Measurement({}, attempted, failures, digests)
        # The build counts only toward setup_s: a build lasting seconds
        # outlasts the core's speed swings, which the probes on either side
        # of it cannot follow.
        busy_s = sum(unit.wall_s - unit.setup_s for unit in units)
        raw_busy_s = sum(unit.raw_wall_s - unit.raw_setup_s for unit in units)
        frames = sum(frames_on_air(unit.result) for unit in units)
        samples = [
            sample for unit in units for sample in frame_samples(unit.chunks, SAMPLE_FRAMES)
        ]
        metrics: Metrics = {
            "frames_per_s": (frames / busy_s, "1/s"),
            "frame_us_p50": (percentile(samples, 50), "us"),
            "frame_us_p90": (percentile(samples, 90), "us"),
            "setup_s": (median(unit.setup_s for unit in units), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MiB"),
        }
        extras: Metrics = {
            "units": (len(units), "count"),
            "samples": (len(samples), "count"),
            "unit_wall_s": (median(unit.wall_s for unit in units), "s"),
            "raw_frames_per_s": (frames / raw_busy_s, "1/s"),
            "speed_factor": (median(speed.probes), "ratio"),
            "sim_s_per_wall_s": (
                sum(unit.result.duration_s for unit in units)
                / sum(unit.run_s for unit in units),
                "sim-s/s",
            ),
        }
        return Measurement(metrics, attempted, failures, digests, extras)

    def trace(self, seed: int, spans_path: str) -> Measurement:
        stored = load_digests().get(self.name, {})
        tracer = Tracer()
        ledger = Ledger(tracer)
        failures: List[str] = []
        digests: Dict[str, str] = {}
        untraced_s = traced_s = raw_traced_s = 0.0
        pin_to_one_cpu()
        speed = HostSpeed()
        origin = clock()
        for topology_seed in range(seed, seed + self.trace_units):
            config = self.make_config(topology_seed)
            plain = run_unit(self.protocol, config, self.step_s, speed)
            failures += self.check(topology_seed, plain, stored.get(str(topology_seed)))
            ledger.install()
            tracer.run_id = f"{self.name}/topology={topology_seed}"
            try:
                # Raw spans come from one window of the first unit only.
                traced = run_unit(
                    self.protocol, config, self.step_s, speed,
                    build=ledger.build, collect=ledger.collect,
                    tracer=tracer if topology_seed == seed else None, window_s=self.window_s,
                )
            finally:
                ledger.uninstall()
            untraced_s += plain.wall_s
            traced_s += traced.wall_s
            raw_traced_s += traced.raw_wall_s
            digests[str(topology_seed)] = result_digest(traced.result)
            if result_digest(traced.result) != result_digest(plain.result):
                failures.append(f"{tracer.run_id}: traced result differs from untraced")
            progress(
                f"  traced {tracer.run_id}: {plain.raw_wall_s:.2f} s -> {traced.raw_wall_s:.2f} s"
            )
        failures += coverage_problems(self.name, tracer, raw_traced_s)
        tracer.write_spans(spans_path, origin)
        metrics = ledger.metrics(raw_traced_s, traced_s / untraced_s - 1.0)
        return Measurement(metrics, self.trace_units, failures, digests)


def coverage_problems(name: str, tracer: Tracer, traced_s: float) -> List[str]:
    """Summed self times must account for the traced wall time within 5%."""
    covered = tracer.self_seconds()
    if abs(covered - traced_s) > 0.05 * traced_s:
        return [
            f"{name}: span self times cover {covered:.3f} s of "
            f"{traced_s:.3f} s traced wall time"
        ]
    return []


# ----------------------------------------------------------------------
# The sweep workload (tiny-sweep)

#: The golden tiny config of ``tests/data/golden_tiny_sweep.json``.
TINY_CONFIG = dict(
    num_nodes=8,
    area_width_m=450.0,
    area_height_m=450.0,
    num_groups=1,
    members_per_group=3,
    duration_s=12.0,
    warmup_s=4.0,
)
GOLDEN_FIELDS = (
    ("offered", "offered_packets"),
    ("expected", "expected_deliveries"),
    ("delivered_packets", "delivered_packets"),
    ("delivered_bytes", "delivered_bytes"),
    ("mean_delay_s", "mean_delay_s"),
    ("probe_bytes", "probe_bytes"),
)


def golden_mismatches(results: List[RunResult], golden: dict) -> List[str]:
    """Cells of ``results`` that differ from the golden record, by field."""
    by_cell = {(result.protocol, result.topology_seed): result for result in results}
    problems = []
    for expected in golden["runs"]:
        result = by_cell.get((expected["protocol"], expected["seed"]))
        if result is None:
            continue  # the sweep's seed range does not include this cell
        label = f"tiny-sweep/{expected['protocol']}/seed={expected['seed']}"
        for golden_key, attr in GOLDEN_FIELDS:
            if getattr(result, attr) != expected[golden_key]:
                problems.append(
                    f"{label}: {attr} is {getattr(result, attr)!r}, "
                    f"golden {expected[golden_key]!r}"
                )
    return problems


@contextmanager
def captured_outcomes() -> Iterator[list]:
    """Collect the RunOutcomes every sweep executes while the block runs."""
    captured: list = []
    execute = SweepExecutor.execute

    def capturing(executor, specs, progress=None):
        outcomes = execute(executor, specs, progress=progress)
        captured.extend(outcomes)
        return outcomes

    SweepExecutor.execute = capturing
    try:
        yield captured
    finally:
        SweepExecutor.execute = execute


@dataclass
class SweepUnit:
    cold: List[RunResult]
    outcomes: list
    #: Cold sweep plus replays, speed-corrected host seconds.
    wall_s: float
    raw_wall_s: float
    #: Speed factor around the cold sweep (scales per-run times).
    cold_factor: float
    replays_equal: List[bool]


@dataclass(frozen=True)
class SweepWorkload:
    """``run_experiment`` over the tiny config: 6 protocols x many seeds."""

    name: str
    seeds_per_unit: int
    replays: int
    trace_seeds: int
    trace_replays: int

    def spec(self, first_seed: int, seeds: int, jobs: int) -> ExperimentSpec:
        return ExperimentSpec(
            name=self.name,
            protocols=tuple(PROTOCOL_NAMES),
            seeds=tuple(range(first_seed, first_seed + seeds)),
            jobs=jobs,
            use_cache=True,
            config=SimulationScenarioConfig(**TINY_CONFIG),
        )

    def run_unit(
        self, spec: ExperimentSpec, replays: int, scratch: str, speed: HostSpeed
    ) -> SweepUnit:
        """A cold sweep into a fresh cache, then ``replays`` warm replays.

        The host speed is probed before, between and after, and each
        phase is scaled by the mean of the probes around it.
        """
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=scratch)
        try:
            before = speed.probe()
            with captured_outcomes() as outcomes:
                start = clock()
                cold = run_experiment(spec, cache_dir=cache_dir)
                cold_s = clock() - start
            between = speed.probe()
            start = clock()
            equal = [run_experiment(spec, cache_dir=cache_dir) == cold for _ in range(replays)]
            replay_s = clock() - start
            after = speed.probe()
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        cold_factor = (before + between) / 2
        wall_s = cold_s * cold_factor + replay_s * (between + after) / 2
        return SweepUnit(cold, outcomes, wall_s, cold_s + replay_s, cold_factor, equal)

    def check(self, unit: SweepUnit, golden: dict) -> List[str]:
        problems = []
        for result in unit.cold:
            label = f"{self.name}/{result.protocol}/seed={result.topology_seed}"
            if result.error is not None:
                problems.append(f"{label}: run failed: {result.error.splitlines()[-1]}")
            elif not 0 <= result.delivered_packets <= result.expected_deliveries:
                problems.append(f"{label}: delivered more than expected")
            elif frames_on_air(result) <= 0:
                problems.append(f"{label}: no frames")
        problems += golden_mismatches(unit.cold, golden)
        problems += [
            f"{self.name}: warm replay {index} differs from the cold sweep"
            for index, equal in enumerate(unit.replays_equal)
            if not equal
        ]
        return problems

    @staticmethod
    def plan(spec: ExperimentSpec, speed: HostSpeed) -> float:
        """Host time to validate the spec and hash every run's cache key."""
        factor = speed.probe()
        start = clock()
        spec.validate()
        for run in sweep_specs(spec.config, spec.protocols, spec.seeds):
            run.cache_key()
        return (clock() - start) * factor

    def measure(self, seed: int, seconds: float) -> Measurement:
        golden = load_golden()
        jobs = min(2, os.cpu_count() or 1)
        pool_speed = HostSpeed(worker_cpus())
        local_speed = HostSpeed()
        failures: List[str] = []
        units: List[SweepUnit] = []
        setups: List[float] = []
        attempted = 0
        deadline = clock() + seconds
        with scratch_dir() as scratch:
            for index in itertools.count():
                spec = self.spec(seed + index * self.seeds_per_unit, self.seeds_per_unit, jobs)
                setups += [self.plan(spec, local_speed) for _ in range(3)]
                unit = self.run_unit(spec, self.replays, scratch, pool_speed)
                units.append(unit)
                attempted += len(unit.cold) + self.replays
                failures += self.check(unit, golden)
                if clock() >= deadline:
                    break
        samples = [  # one per run
            sample
            for unit in units
            for sample in frame_samples(
                (
                    (outcome.elapsed_s * unit.cold_factor, frames_on_air(outcome.result))
                    for outcome in unit.outcomes
                ),
                min_frames=1,
            )
        ]
        frames = sum(frames_on_air(result) for unit in units for result in unit.cold)
        wall_s = sum(unit.wall_s for unit in units)
        metrics: Metrics = {
            "frames_per_s": (frames / wall_s, "1/s"),
            "frame_us_p50": (percentile(samples, 50), "us"),
            "frame_us_p90": (percentile(samples, 90), "us"),
            "setup_s": (median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MiB"),
        }
        extras: Metrics = {
            "units": (len(units), "count"),
            "samples": (len(samples), "count"),
            "unit_wall_s": (median(unit.wall_s for unit in units), "s"),
            "raw_frames_per_s": (frames / sum(unit.raw_wall_s for unit in units), "1/s"),
            "speed_factor": (median(pool_speed.probes), "ratio"),
            "jobs": (jobs, "count"),
        }
        return Measurement(metrics, attempted, failures, extras=extras)

    def trace(self, seed: int, spans_path: str) -> Measurement:
        """Untraced then traced, both inline (``jobs=1``): a pool worker is
        a fresh process the tracer cannot see."""
        golden = load_golden()
        spec = self.spec(seed, self.trace_seeds, jobs=1)
        pin_to_one_cpu()
        speed = HostSpeed()
        tracer = Tracer()
        ledger = Ledger(tracer, record_runs=1)
        origin = clock()
        with scratch_dir() as scratch:
            plain = self.run_unit(spec, self.trace_replays, scratch, speed)
            ledger.install()
            tracer.run_id = f"{self.name}/seeds={seed}..{seed + self.trace_seeds - 1}"
            try:
                traced = self.run_unit(spec, self.trace_replays, scratch, speed)
            finally:
                ledger.uninstall()
        failures = self.check(plain, golden) + self.check(traced, golden)
        if traced.cold != plain.cold:
            failures.append(f"{tracer.run_id}: traced results differ from untraced")
        failures += coverage_problems(self.name, tracer, traced.raw_wall_s)
        tracer.write_spans(spans_path, origin)
        progress(f"  traced {tracer.run_id}: {plain.raw_wall_s:.2f} s -> {traced.raw_wall_s:.2f} s")
        attempted = 2 * (len(plain.cold) + self.trace_replays)
        metrics = ledger.metrics(traced.raw_wall_s, traced.wall_s / plain.wall_s - 1.0)
        return Measurement(metrics, attempted, failures)


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@contextmanager
def scratch_dir() -> Iterator[str]:
    """A temporary directory inside the benchmark's ``out/`` directory."""
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = tempfile.mkdtemp(prefix="tmp-", dir=os.path.join(HERE, "out"))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


# ----------------------------------------------------------------------


def paper_config(topology_seed: int) -> SimulationScenarioConfig:
    """Section 4.1 (50 nodes, 1000x1000 m, 2 groups x 10 members, CBR
    512 B @ 20 pkt/s, correlated Rayleigh, 30 s warmup), 20 s of traffic."""
    return SimulationScenarioConfig(duration_s=50.0, topology_seed=topology_seed)


def flood_config(topology_seed: int) -> SimulationScenarioConfig:
    return macro_flood_config(
        num_nodes=2000,
        duration_s=10.0,
        warmup_s=0.5,
        members_per_group=10,
        rate_pps=2.0,
        topology_seed=topology_seed,
    )


WORKLOADS = {
    workload.name: workload
    for workload in (
        SimulationWorkload(
            name="paper-spp",
            protocol="spp",
            make_config=paper_config,
            step_s=0.05,
            window_s=(40.0, 41.0),
            trace_units=2,
        ),
        SimulationWorkload(
            name="paper-odmrp",
            protocol="odmrp",
            make_config=paper_config,
            step_s=0.05,
            window_s=(40.0, 41.0),
            trace_units=3,
        ),
        SimulationWorkload(
            name="city-flood",
            protocol="odmrp",
            make_config=flood_config,
            step_s=0.005,
            window_s=(5.0, 6.0),
            trace_units=1,
            require_delivery=False,
            min_query_frames=1000,
        ),
        SweepWorkload(
            name="tiny-sweep",
            seeds_per_unit=10,
            replays=3,
            trace_seeds=20,
            trace_replays=3,
        ),
    )
}
