"""Benchmark E4: Figure 2 column "Throughput-high overhead" (probing x5).

Re-runs the simulation comparison with the probing rate multiplied by
five.  The paper reports the throughput gains of every metric dropping
by about 2% because the extra probes interfere with data traffic.
"""

from __future__ import annotations

from repro.analysis.tables import render_comparison
from repro.experiments.figures import (
    PAPER_THROUGHPUT_HIGH_OVERHEAD,
    figure2_throughput_high_overhead,
    figure2_throughput_simulations,
)
from benchmarks.conftest import simulation_config, topology_seeds


def bench_fig2_throughput_high_overhead(benchmark, shared_paper_sweep):
    result = benchmark.pedantic(
        lambda: figure2_throughput_high_overhead(
            simulation_config(), topology_seeds()
        ),
        iterations=1,
        rounds=1,
    )
    normal = figure2_throughput_simulations(runs=shared_paper_sweep)
    print()
    print(render_comparison(
        result.measured, PAPER_THROUGHPUT_HIGH_OVERHEAD,
        title="Figure 2 / Throughput-high overhead (probing rate x5)",
    ))
    drops = {
        name: normal.measured[name] - result.measured[name]
        for name in ("ett", "etx", "metx", "pp", "spp")
    }
    print(f"gain drop vs normal probing rate: "
          + ", ".join(f"{k}={v:+.3f}" for k, v in drops.items())
          + "   (paper: about +0.02 each)")
    benchmark.extra_info["normalized_throughput"] = result.measured
    benchmark.extra_info["gain_drop_vs_normal"] = drops
    # The variants must still beat the baseline even with 5x probes.
    for metric in ("etx", "metx", "spp"):
        assert result.measured[metric] > 1.0
    # Extra probing must not *help* on average.
    mean_drop = sum(drops.values()) / len(drops)
    assert mean_drop > -0.05, f"5x probing should not improve throughput ({drops})"
