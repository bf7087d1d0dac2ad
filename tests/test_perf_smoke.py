"""Perf-smoke gate: the differential oracle on a mini-sweep, plus
city-scale completion smokes.

Marked ``perfsmoke`` and deselected from the default tier-1 run (see
``addopts`` in pyproject.toml); CI runs it explicitly with
``pytest -m perfsmoke``.  ``scripts/bench_check.py`` runs the same
oracle on the same mini-sweep as a standalone script.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments.runner import run_protocol
from repro.experiments.scenarios import (
    SimulationScenarioConfig,
    macro_flood_config,
)
from repro.validation.fuzzing import consistency_spec, differential_check


@pytest.mark.perfsmoke
def test_mini_sweep_parallel_matches_serial(tmp_path):
    divergences = differential_check(
        consistency_spec(), jobs=2, work_dir=str(tmp_path)
    )
    assert divergences == [], "\n".join(divergences)


@pytest.mark.perfsmoke
def test_macro_flood_2000_nodes_completes():
    """Bounded city-scale smoke: a 2,000-node JOIN QUERY flood at the
    paper's node density must run to completion on the auto-resolved
    (compiled) backend -- the workload the spatial grid index and the
    fused reception pass exist for.  Kept short (a couple of ODMRP
    refresh rounds) so the perfsmoke tier stays minutes, not hours.
    """
    config = macro_flood_config(
        num_nodes=2000, duration_s=4.0, warmup_s=0.5,
        members_per_group=10, rate_pps=2.0,
    )
    result = run_protocol("odmrp", config)
    assert result.error is None, result.error
    queries = result.counters.get("channel.tx.join_query", 0.0)
    assert queries >= 2000, (
        f"flood did not propagate mesh-wide: {queries} JOIN QUERY tx"
    )
    assert result.offered_packets > 0


@pytest.mark.perfsmoke
def test_seed_determinism_matrix(tmp_path):
    """The oracle at four workers over two seeds: the pooled sweep, a
    cache stored cold by four workers then replayed warm inline, an
    interrupted then resumed sweep, both PHY backends and telemetry
    must all reproduce the serial sweep bit for bit -- not
    approximately.
    """
    spec = dataclasses.replace(consistency_spec(), seeds=(1, 2))
    divergences = differential_check(spec, jobs=4, work_dir=str(tmp_path))
    assert divergences == [], "\n".join(divergences)


@pytest.mark.perfsmoke
def test_adaptive_determinism_matrix(tmp_path):
    """The same matrix for the adaptive planner: every path must
    reproduce the serial oracle's batch-by-batch plan *and* run list
    bit for bit -- the stopping rule is a pure function of
    seed-deterministic cell results, so nothing about how cells execute
    may change which cells get planned.
    """
    from repro.experiments.adaptive import AdaptiveConfig
    from repro.experiments.spec import ExperimentSpec

    spec = ExperimentSpec(
        name="adaptive-matrix",
        protocols=("odmrp", "spp"),
        seeds=(1, 2),
        adaptive=AdaptiveConfig(
            target_half_width=0.2, batch_size=2, min_seeds=2, max_seeds=6,
        ),
        config=SimulationScenarioConfig(
            num_nodes=10,
            area_width_m=500.0,
            area_height_m=500.0,
            num_groups=1,
            members_per_group=3,
            duration_s=15.0,
            warmup_s=5.0,
        ),
    )
    divergences = differential_check(spec, jobs=4, work_dir=str(tmp_path))
    assert divergences == [], "\n".join(divergences)
