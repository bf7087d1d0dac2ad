"""Adaptive-sweep benchmark: runs saved vs the exhaustive grid.

Measures what the sequential planner
(:mod:`repro.experiments.adaptive`) buys on a tiny-paper sweep: three
protocols on a dense 20-node mesh, stopping each protocol once its
normalized-throughput CI half-width reaches the target.  The row
records three things, gated in order:

* **correctness** -- re-running the sweep with ``--resume`` against the
  runs the first pass stored in the result cache must execute nothing
  and reproduce the batch-by-batch plan and every run bit for bit;
* **savings** -- the planner must reach the target CI half-width for
  every protocol with at least 3x fewer runs than the exhaustive
  ``protocols x max_seeds`` grid it replaces (both sides timed);
* **pairing** -- with common random numbers on, the paired baseline
  deltas must come out no wider than the unpaired Welch intervals.

Results land in the ``adaptive_sweep`` section of ``BENCH_perf.json``.
Run via pytest (``pytest benchmarks/bench_adaptive_sweep.py -s``) or
directly (``PYTHONPATH=src python benchmarks/bench_adaptive_sweep.py``).
Scale knobs: ``REPRO_JOBS`` (pool size), ``REPRO_ADAPTIVE_MAX_SEEDS``
(the exhaustive grid's seed budget).
"""

from __future__ import annotations

import dataclasses
import os
import tempfile
import time

from bench_perf_engine import _env_int, _write_report
from repro.experiments.adaptive import (
    AdaptiveConfig,
    run_adaptive_experiment,
)
from repro.experiments.executors import SweepExecutor
from repro.experiments.parallel import sweep_specs
from repro.experiments.scenarios import SimulationScenarioConfig
from repro.experiments.spec import ExperimentSpec

#: Dense, well-connected mesh: delivery is reliable, so per-topology
#: throughput variance is low and the planner can actually converge in
#: a handful of seeds (sparse meshes plateau at hw ~ 0.2 from topology
#: luck alone -- there, the cap is the realistic outcome).  The long
#: duration matters twice over: it averages down the within-run
#: fading/MAC noise, which both tightens each protocol's own CI and
#: leaves the *shared* topology component dominating per-seed
#: throughput -- exactly the correlation common random numbers cash in
#: (at 60 s the residual noise still swamps it and pairing loses its
#: df to no benefit at small n).
TINY_PAPER_CONFIG = SimulationScenarioConfig(
    num_nodes=20,
    area_width_m=500.0,
    area_height_m=500.0,
    num_groups=1,
    members_per_group=5,
    duration_s=120.0,
    warmup_s=20.0,
)

PROTOCOLS = ("odmrp", "etx", "spp")
TARGET_HALF_WIDTH = 0.1


def bench_adaptive_vs_exhaustive() -> None:
    jobs = _env_int("REPRO_JOBS", 4) or (os.cpu_count() or 1)
    max_seeds = _env_int("REPRO_ADAPTIVE_MAX_SEEDS", 16)
    spec = ExperimentSpec(
        name="bench-adaptive",
        protocols=PROTOCOLS,
        seeds=(1, 2),
        jobs=jobs,
        adaptive=AdaptiveConfig(
            target_half_width=TARGET_HALF_WIDTH,
            batch_size=2,
            min_seeds=2,
            max_seeds=max_seeds,
            paired=True,
        ),
        config=TINY_PAPER_CONFIG,
    )

    with tempfile.TemporaryDirectory(prefix="repro-bench-adaptive-") as tmp:
        start = time.perf_counter()
        plan = run_adaptive_experiment(
            dataclasses.replace(spec, use_cache=True), cache_dir=tmp
        )
        wall_adaptive = time.perf_counter() - start

        # Gate 1: --resume replays the stored runs (with the cache off,
        # as ``--no-cache --resume``) into the identical plan and runs,
        # bit for bit, executing nothing.
        executed = []
        start = time.perf_counter()
        resumed = run_adaptive_experiment(
            spec, cache_dir=tmp, resume=True,
            progress=lambda *run: executed.append(run),
        )
        wall_resume = time.perf_counter() - start
        assert executed == [], f"the resume executed {len(executed)} run(s)"
        assert resumed.plan_dict() == plan.plan_dict(), (
            "resumed plan diverged from the first pass"
        )
        assert resumed.runs == plan.runs, (
            "resumed runs diverged from the first pass"
        )

    # Gate 2: every protocol reached the target (this mesh is dense
    # enough that nothing should hit the cap), spending at least 3x
    # fewer runs than the exhaustive grid the planner replaces.
    reasons = plan.stop_reasons()
    assert all(reason == "converged" for reason in reasons.values()), (
        f"not every protocol converged: {reasons}"
    )
    for decision in plan.final_decisions().values():
        assert decision.ci_half_width <= TARGET_HALF_WIDTH, (
            f"{decision.protocol} stopped above target: "
            f"{decision.ci_half_width:.3f}"
        )
    exhaustive_runs = len(PROTOCOLS) * max_seeds
    savings = exhaustive_runs / plan.total_runs
    assert savings >= 3.0, (
        f"adaptive sweep saved only {savings:.2f}x over exhaustive "
        f"({plan.total_runs} vs {exhaustive_runs} runs); need >= 3x"
    )

    # Time the exhaustive grid for the wall-clock comparison (same
    # seeds, same pool -- the sweep the planner made unnecessary).
    grid = sweep_specs(TINY_PAPER_CONFIG, PROTOCOLS, plan.seed_pool)
    start = time.perf_counter()
    exhaustive = [o.result for o in SweepExecutor(jobs=jobs).execute(grid)]
    wall_exhaustive = time.perf_counter() - start
    assert all(run.error is None for run in exhaustive)

    # Gate 3: common random numbers pay -- paired baseline deltas are
    # never wider than the unpaired Welch intervals.
    comparisons = plan.paired_comparisons()
    assert comparisons, "no paired comparisons produced"
    for comparison in comparisons:
        assert comparison.paired_half_width <= (
            comparison.unpaired_half_width + 1e-12
        ), f"pairing widened the {comparison.protocol} CI"

    _write_report("adaptive_sweep", {
        "protocols": list(PROTOCOLS),
        "num_nodes": TINY_PAPER_CONFIG.num_nodes,
        "duration_s": TINY_PAPER_CONFIG.duration_s,
        "target_half_width": TARGET_HALF_WIDTH,
        "max_seeds": max_seeds,
        "paired": True,
        "jobs": jobs,
        "runs_adaptive": plan.total_runs,
        "runs_exhaustive": exhaustive_runs,
        "runs_saved_factor": round(savings, 3),
        "seeds_spent": plan.seeds_spent(),
        "stop_reasons": reasons,
        "achieved_half_width": {
            d.protocol: round(d.ci_half_width, 4)
            for d in plan.final_decisions().values()
        },
        "pairing_gain_pct": {
            c.protocol: round(c.gain_pct, 1) for c in comparisons
        },
        "wall_adaptive_s": round(wall_adaptive, 3),
        "wall_exhaustive_s": round(wall_exhaustive, 3),
        "wall_resume_s": round(wall_resume, 3),
        "resume_bit_identical": True,
    })
    print(
        f"\nadaptive sweep: {plan.total_runs} runs vs {exhaustive_runs} "
        f"exhaustive ({savings:.2f}x fewer), target hw "
        f"{TARGET_HALF_WIDTH:g} reached by all of {', '.join(PROTOCOLS)}; "
        f"adaptive {wall_adaptive:.1f}s, exhaustive {wall_exhaustive:.1f}s, "
        f"resume {wall_resume:.1f}s (bit-identical)"
    )


if __name__ == "__main__":
    import sys

    bench_adaptive_vs_exhaustive()
    print("wrote BENCH_perf.json")
    sys.exit(0)
