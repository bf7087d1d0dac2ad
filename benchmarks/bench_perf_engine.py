"""Performance-trajectory benchmark: engine micro + sweep meso.

Unlike the figure benches (which validate *numbers* against the paper),
this file tracks how fast the simulator itself is, so perf work in later
PRs has a recorded trajectory to compare against.  It measures:

* **engine micro** -- raw event churn through ``Simulator.run()`` with
  trivial callbacks: pure engine overhead, in events/second.
* **sweep meso** -- a fixed-seed multi-protocol sweep executed serially
  and through the parallel runner (``jobs=2``), asserting the two
  produce *bit-identical* ``RunResult`` lists before timing them.
* **phy micro** -- one dense-mesh run on the compiled PHY kernel and
  on the pure-Python passes ("scalar", timed under
  :func:`repro.phy.kernel.disabled`), asserting bit-identical results
  and timing each (``scripts/bench_check.py`` gates on this row).
* **phy crossover** -- host time per frame on each path across mesh
  sizes at the paper's density: the evidence that the compiled kernel,
  which every channel runs wherever it loads, is the faster path at
  every size.  "compiled" is left out of both rows where the kernel
  cannot be built.
  Both rows time each run the way the paper run does (below): pinned to
  one core, in sim-time chunks scaled by host-speed probes, with the
  raw host times kept next to the corrected ones.
* **macro flood** -- a 2,000-node JOIN QUERY flood at paper density:
  the workload the spatial grid index and the compiled PHY carry.
* **paper run** -- the paper's own run, ODMRP and SPP on the 50-node
  mesh for 400 s (topology seed 1), each in a fresh interpreter: frames,
  wall time raw and corrected for core contention the way
  ``benchmarks/e2e`` corrects it, frames per second, peak RSS and the
  result digest.

Results land in ``BENCH_perf.json`` at the repo root: events/sec,
wall-clock per run, and the parallel speedup.  Speedup tracks the
host's core count; on a single-core box a pool cannot beat serial, so
the sweep row records ``cpu_count`` and replaces the speedup with an
explanatory note rather than reading as a parallel regression (the
identity assertion, not the speedup, is the correctness gate).

Run via pytest (``pytest benchmarks/bench_perf_engine.py -s``) or
directly (``PYTHONPATH=src python benchmarks/bench_perf_engine.py``).
Scale knobs: ``REPRO_PERF_EVENTS`` (micro events), ``REPRO_PERF_SEEDS``
(meso seeds), ``REPRO_JOBS`` (meso pool size), ``REPRO_MACRO_NODES``
(macro flood mesh size).
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import sys
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Dict, Iterator, List, Tuple

from repro.experiments.executors import SweepExecutor
from repro.experiments.parallel import sweep_specs
from repro.experiments.runner import run_protocol
from repro.experiments.scenarios import (
    PROTOCOL_NAMES,
    SimulationScenarioConfig,
    build_simulation_scenario,
    macro_flood_config,
)
from repro.phy import kernel
from repro.sim.engine import Simulator

BENCH_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_perf.json")

_E2E_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "e2e")
_SRC_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")

#: Sim-time chunk between host-speed probes, as in the e2e workloads.
STEP_S = 0.05

#: Small but protocol-complete scenario: all six variants finish in
#: seconds per run while still exercising MAC, fading, and probing paths.
MESO_CONFIG = SimulationScenarioConfig(
    num_nodes=16,
    area_width_m=700.0,
    area_height_m=700.0,
    num_groups=1,
    members_per_group=3,
    duration_s=25.0,
    warmup_s=8.0,
)

#: Dense mid-size mesh for the scalar-vs-compiled micro comparison:
#: 8x the paper's node density, so each transmission fans out to a few
#: hundred audible receivers.
PHY_MICRO_CONFIG = SimulationScenarioConfig(
    num_nodes=400,
    area_width_m=1000.0,
    area_height_m=1000.0,
    num_groups=1,
    members_per_group=8,
    rate_pps=10.0,
    duration_s=4.0,
    warmup_s=1.0,
)


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, default))


def engine_events_per_sec(n_events: int) -> float:
    """Event churn through a self-rescheduling callback chain."""
    sim = Simulator(seed=1)
    remaining = [n_events]

    def tick() -> None:
        remaining[0] -= 1
        if remaining[0] > 0:
            sim.schedule(0.001, tick)

    for i in range(100):
        sim.schedule(0.001 * (i + 1), tick)
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    # The 100 seeded chains overshoot slightly (in-flight events drain
    # after the target is hit); rate over what actually executed.
    assert sim.events_executed >= n_events
    return sim.events_executed / elapsed


def _write_report(section: str, payload: Dict) -> None:
    """Merge one section into BENCH_perf.json (sections run independently)."""
    report: Dict = {}
    try:
        with open(BENCH_PATH, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, ValueError):
        pass
    report["python"] = platform.python_version()
    report["cpu_count"] = os.cpu_count()
    report[section] = payload
    with open(BENCH_PATH, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def bench_engine_micro() -> None:
    """Record serial engine event throughput."""
    n_events = _env_int("REPRO_PERF_EVENTS", 200_000)
    rates = [engine_events_per_sec(n_events) for _ in range(3)]
    best = max(rates)
    _write_report("engine_micro", {
        "events": n_events,
        "events_per_sec_best": round(best),
        "events_per_sec_all": [round(rate) for rate in rates],
    })
    print(f"\nengine micro: {best:,.0f} events/s (best of {len(rates)})")
    assert best > 0


def bench_sweep_parallel_vs_serial() -> None:
    """Time the sweep both ways; identity first, speedup second."""
    seeds = tuple(range(1, _env_int("REPRO_PERF_SEEDS", 2) + 1))
    jobs = _env_int("REPRO_JOBS", 2) or (os.cpu_count() or 1)
    specs = sweep_specs(MESO_CONFIG, PROTOCOL_NAMES, seeds)

    start = time.perf_counter()
    serial = [o.result for o in SweepExecutor(jobs=1).execute(specs)]
    wall_serial = time.perf_counter() - start

    start = time.perf_counter()
    pooled = [o.result for o in SweepExecutor(jobs=jobs).execute(specs)]
    wall_parallel = time.perf_counter() - start

    # The gate: parallel execution must not change a single bit of any
    # result.  Dataclass equality covers every field including counters.
    mismatches: List[str] = [
        f"{spec.protocol}/seed={spec.seed}"
        for spec, a, b in zip(specs, serial, pooled)
        if a != b
    ]
    assert not mismatches, f"parallel results diverged: {mismatches}"
    assert all(run.error is None for run in pooled)

    cpu_count = os.cpu_count() or 1
    payload = {
        "runs": len(specs),
        "protocols": list(PROTOCOL_NAMES),
        "seeds": list(seeds),
        "jobs": jobs,
        "cpu_count": cpu_count,
        "wall_serial_s": round(wall_serial, 3),
        "wall_parallel_s": round(wall_parallel, 3),
        "wall_per_run_serial_s": round(wall_serial / len(specs), 3),
        "results_identical": True,
    }
    if cpu_count < 2:
        # A pool on one core just time-slices it; publishing a sub-1.0
        # "speedup" would read as a parallel regression.  Record why
        # the comparison is meaningless instead of the number.
        payload["speedup_vs_serial"] = None
        payload["speedup_note"] = (
            f"skipped: host has {cpu_count} CPU(s); a worker pool "
            "cannot beat serial on a single core"
        )
        speedup_text = "skipped (single-core host)"
    else:
        speedup = wall_serial / wall_parallel if wall_parallel > 0 else 0.0
        payload["speedup_vs_serial"] = round(speedup, 3)
        speedup_text = f"speedup {speedup:.2f}x"
    _write_report("sweep_meso", payload)
    print(
        f"\nsweep meso: {len(specs)} runs, serial {wall_serial:.1f}s, "
        f"jobs={jobs} {wall_parallel:.1f}s, {speedup_text} "
        f"(identical results)"
    )


#: PHY paths the PHY rows time, where this interpreter can run them:
#: "compiled" is the kernel, "scalar" the pure-Python passes.  Compiled
#: first so the scalar pass cannot look better purely by running on a
#: warmed-up allocator.
TIMED_BACKENDS = ("compiled", "scalar")


def available_phy_backends() -> Tuple[str, ...]:
    return tuple(
        b for b in TIMED_BACKENDS
        if b == "scalar" or kernel.unavailable_reason() is None
    )


def on_phy_path(backend: str) -> Any:
    """A block whose channels run ``backend``: "scalar" disables the
    kernel, "compiled" leaves it on."""
    return kernel.disabled() if backend == "scalar" else nullcontext()


def _e2e_workloads() -> Any:
    """``benchmarks/e2e/workloads.py``: its ``run_unit`` times a run in
    sim-time chunks, each scaled by the host-speed probes around it."""
    if _E2E_DIR not in sys.path:
        sys.path.insert(0, _E2E_DIR)
    import workloads

    return workloads


@contextmanager
def _one_cpu() -> Iterator[None]:
    """Pin this process to one core for the block, so the host-speed
    probes time the core the runs use; the affinity comes back after."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def timed_run(protocol: str, config: SimulationScenarioConfig,
              build: Any = build_simulation_scenario) -> Any:
    """Build, run and collect one scenario, host-speed corrected.

    The e2e workloads' ``run_unit`` in ``STEP_S`` chunks on one core:
    its ``wall_s``/``setup_s`` are corrected, ``raw_wall_s``/
    ``raw_setup_s`` are plain host seconds.
    """
    workloads = _e2e_workloads()
    from hostspeed import HostSpeed

    with _one_cpu():
        return workloads.run_unit(
            protocol, config, STEP_S, HostSpeed(), build=build
        )


def phy_backend_micro() -> Dict[str, Any]:
    """Time one dense-mesh run per PHY path.

    Returns ``backend -> unit`` (:func:`timed_run`'s) for every path
    that can run here; callers assert identity of ``unit.result`` and
    gate on the corrected ``unit.wall_s`` (``scripts/bench_check.py``
    does both).
    """
    runs: Dict[str, Any] = {}
    for backend in available_phy_backends():
        with on_phy_path(backend):
            runs[backend] = timed_run("odmrp", PHY_MICRO_CONFIG)
    return runs


def bench_phy_backends() -> None:
    """Record the per-path micro row (identity first)."""
    runs = phy_backend_micro()
    scalar = runs["scalar"]
    assert scalar.result.error is None, scalar.result.error
    for backend, unit in runs.items():
        assert unit.result == scalar.result, (
            f"scalar and {backend} paths produced different results"
        )
    row = {
        "num_nodes": PHY_MICRO_CONFIG.num_nodes,
        "duration_s": PHY_MICRO_CONFIG.duration_s,
        "protocol": "odmrp",
    }
    for backend, unit in runs.items():
        row[f"wall_{backend}_s"] = round(unit.wall_s, 3)
        row[f"raw_wall_{backend}_s"] = round(unit.raw_wall_s, 3)
        if backend != "scalar":
            row[f"{backend}_speedup"] = round(scalar.wall_s / unit.wall_s, 3)
    row["results_identical"] = True
    _write_report("phy_micro", row)
    print(
        f"\nphy micro: {PHY_MICRO_CONFIG.num_nodes} nodes, "
        + ", ".join(
            f"{backend} {unit.wall_s:.2f}s ({unit.raw_wall_s:.2f}s raw)"
            for backend, unit in runs.items()
        )
        + " corrected (identical results)"
    )


#: Mesh sizes for the backend crossover curve, at the paper's density
#: (50 nodes per km^2), where the audible fan-out grows with the mesh.
CROSSOVER_SIZES = (16, 32, 40, 50, 64, 100, 200, 400)


def phy_crossover_curve(
    sizes=CROSSOVER_SIZES, seeds=(1, 2, 3), duration_s: float = 20.0
) -> List[Dict]:
    """Host µs per frame on each PHY path, by mesh size.

    Each (size, seed) runs on every available path back to back,
    so they share a topology and a host state.  A frame's time is the
    run and collect over the frames on the air (as the paper run's
    ``frames_per_s``), corrected (``{backend}_us_per_frame``) and raw
    (``raw_{backend}_us_per_frame``); the row keeps per-backend medians
    and the median of the paired corrected scalar/compiled ratios
    (above 1 means the compiled path is faster).
    """
    import statistics

    curve = []
    for num_nodes in sizes:
        side = 1000.0 * (num_nodes / 50.0) ** 0.5
        base = SimulationScenarioConfig(
            num_nodes=num_nodes, area_width_m=side, area_height_m=side,
            num_groups=1 if num_nodes < 24 else 2,
            members_per_group=min(10, num_nodes // 3),
            duration_s=duration_s,
            warmup_s=duration_s / 4,
        )
        backends = available_phy_backends()
        per_frame: Dict[str, List[float]] = {backend: [] for backend in backends}
        raw_per_frame: Dict[str, List[float]] = {backend: [] for backend in backends}
        fanout: List[float] = []
        for seed in seeds:
            for backend in backends:
                config = dataclasses.replace(base, topology_seed=seed)
                built = []

                def build(protocol, config):
                    built.append(build_simulation_scenario(protocol, config))
                    return built[0]

                with on_phy_path(backend):
                    unit = timed_run("odmrp", config, build=build)
                frames = sum(chunk_frames for _s, chunk_frames in unit.chunks)
                per_frame[backend].append(
                    1e6 * (unit.wall_s - unit.setup_s) / frames
                )
                raw_per_frame[backend].append(
                    1e6 * (unit.raw_wall_s - unit.raw_setup_s) / frames
                )
            fanout.append(statistics.mean(
                len(receivers)
                for receivers in built[0].network.channel._audible.values()
            ))
        point = {
            "num_nodes": num_nodes,
            "audible_per_tx": round(statistics.median(fanout), 1),
        }
        for backend in sorted(per_frame):
            point[f"{backend}_us_per_frame"] = round(
                statistics.median(per_frame[backend]), 1
            )
            point[f"raw_{backend}_us_per_frame"] = round(
                statistics.median(raw_per_frame[backend]), 1
            )
        for backend in sorted(per_frame):
            if backend != "scalar":
                point[f"scalar_over_{backend}"] = round(statistics.median(
                    s / o for s, o in zip(per_frame["scalar"], per_frame[backend])
                ), 3)
        curve.append(point)
    return curve


def bench_phy_crossover() -> None:
    """Record the per-path frame-time curve across mesh sizes."""
    curve = phy_crossover_curve()
    _write_report("phy_crossover", {
        "protocol": "odmrp",
        "density_nodes_per_km2": 50,
        "curve": curve,
    })
    print("\nphy crossover (corrected us/frame per path):")
    for point in curve:
        backends = ", ".join(
            f"{key[:-len('_us_per_frame')]} {value:.1f}"
            for key, value in point.items()
            if key.endswith("_us_per_frame") and not key.startswith("raw_")
        )
        print(
            f"  {point['num_nodes']:4d} nodes, {point['audible_per_tx']:5.1f} "
            f"audible: {backends}"
        )


def bench_macro_flood() -> None:
    """Record the city-scale flood row: the engine's new top end."""
    num_nodes = _env_int("REPRO_MACRO_NODES", 2000)
    config = macro_flood_config(
        num_nodes=num_nodes, duration_s=4.0, warmup_s=0.5,
        members_per_group=10, rate_pps=2.0,
    )
    start = time.perf_counter()
    result = run_protocol("odmrp", config)
    wall = time.perf_counter() - start
    assert result.error is None, result.error
    queries = result.counters.get("channel.tx.join_query", 0.0)
    assert queries > 0, "flood produced no JOIN QUERY transmissions"
    _write_report("macro_flood", {
        "num_nodes": num_nodes,
        "area_side_m": round(config.area_width_m, 1),
        "duration_s": config.duration_s,
        "protocol": "odmrp",
        "wall_s": round(wall, 3),
        "sim_seconds_per_wall_second": round(config.duration_s / wall, 3)
        if wall > 0 else None,
        "join_query_tx": queries,
        "phy_backend": "compiled" if kernel.load() is not None else "scalar",
    })
    print(
        f"\nmacro flood: {num_nodes} nodes, {config.duration_s:.0f} sim-s "
        f"in {wall:.1f}s wall ({queries:.0f} JOIN QUERY tx)"
    )


#: The ``paper_run`` row's runs: Section 4.1's mesh and traffic for the
#: paper's full 400 s, one protocol per fresh interpreter.
PAPER_RUN_PROTOCOLS = ("odmrp", "spp")
PAPER_RUN_SECONDS = 400.0
PAPER_RUN_TOPOLOGY_SEED = 1

#: One paper run, in a child interpreter: argv is (src dir, e2e dir,
#: protocol, seconds, topology seed, step); prints one JSON object.
_PAPER_RUN_CHILD = """
import json, statistics, sys
sys.path[:0] = sys.argv[1:3]
from repro.experiments.scenarios import SimulationScenarioConfig
from hostspeed import HostSpeed, pin_to_one_cpu
from ledger import frames_on_air
from workloads import peak_rss_mb, result_digest, run_unit

protocol, seconds, seed, step = sys.argv[3], float(sys.argv[4]), int(sys.argv[5]), float(sys.argv[6])
pin_to_one_cpu()
speed = HostSpeed()
unit = run_unit(protocol, SimulationScenarioConfig(duration_s=seconds, topology_seed=seed), step, speed)
assert unit.result.error is None, unit.result.error
frames = frames_on_air(unit.result)
print(json.dumps({
    "frames": frames,
    "wall_s": round(unit.wall_s, 3),
    "raw_wall_s": round(unit.raw_wall_s, 3),
    "frames_per_s": round(frames / (unit.wall_s - unit.setup_s)),
    "raw_frames_per_s": round(frames / (unit.raw_wall_s - unit.raw_setup_s)),
    "speed_factor_median": round(statistics.median(speed.probes), 3),
    "peak_rss_mb": round(peak_rss_mb(), 1),
    "digest": result_digest(unit.result),
}))
"""


def paper_run(protocol: str) -> Dict:
    """One 400-s paper run of ``protocol`` in a fresh interpreter."""
    import subprocess

    out = subprocess.run(
        [sys.executable, "-c", _PAPER_RUN_CHILD, os.path.normpath(_SRC_DIR),
         _E2E_DIR, protocol, str(PAPER_RUN_SECONDS),
         str(PAPER_RUN_TOPOLOGY_SEED), str(STEP_S)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def bench_paper_run() -> None:
    """Record the headline row: the paper's 400-s run per protocol.

    ``wall_s`` is build, run and collect scaled by the host-speed probes
    around each ``STEP_S`` chunk (``benchmarks/e2e/hostspeed.py``);
    ``frames_per_s`` leaves the build out, as the e2e metric does.
    """
    runs = {protocol: paper_run(protocol) for protocol in PAPER_RUN_PROTOCOLS}
    _write_report("paper_run", {
        "num_nodes": 50,
        "duration_s": PAPER_RUN_SECONDS,
        "topology_seed": PAPER_RUN_TOPOLOGY_SEED,
        "step_s": STEP_S,
        "runs": runs,
    })
    print("\npaper run (50 nodes, 400 s, topology seed 1):")
    for protocol, run in runs.items():
        print(
            f"  {protocol:6s} {run['frames']:9.0f} frames, "
            f"{run['wall_s']:6.1f} s corrected ({run['raw_wall_s']:.1f} s raw), "
            f"{run['frames_per_s']} frames/s, {run['peak_rss_mb']} MiB peak"
        )


if __name__ == "__main__":
    bench_engine_micro()
    bench_sweep_parallel_vs_serial()
    bench_phy_backends()
    bench_phy_crossover()
    bench_macro_flood()
    bench_paper_run()
    print(f"wrote {os.path.normpath(BENCH_PATH)}")
    sys.exit(0)
