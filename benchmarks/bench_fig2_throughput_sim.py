"""Benchmark E3: Figure 2 column "Throughput-simulations".

Runs the Section 4.1 scenario for all six protocols over the configured
topologies and prints the normalized-throughput column next to the
paper's.  Shape requirements asserted: every metric beats original
ODMRP, and SPP is at (or tied with) the top.
"""

from __future__ import annotations

from repro.analysis.tables import render_comparison
from repro.experiments.figures import (
    PAPER_THROUGHPUT_SIMULATIONS,
    figure2_throughput_simulations,
)
from benchmarks.conftest import simulation_config, topology_seeds


def bench_fig2_throughput_simulations(benchmark, shared_paper_sweep):
    result = benchmark.pedantic(
        lambda: figure2_throughput_simulations(runs=shared_paper_sweep),
        iterations=1,
        rounds=1,
    )
    print()
    print(render_comparison(
        result.measured,
        PAPER_THROUGHPUT_SIMULATIONS,
        title=(
            "Figure 2 / Throughput-simulations "
            f"(config: {simulation_config().num_nodes} nodes, "
            f"{simulation_config().duration_s:.0f}s, "
            f"{len(topology_seeds())} topologies)"
        ),
    ))
    benchmark.extra_info["normalized_throughput"] = result.measured
    measured = result.measured
    for metric in ("ett", "etx", "metx", "pp", "spp"):
        assert measured[metric] > 1.0, (
            f"{metric} should beat original ODMRP (got {measured[metric]:.3f})"
        )
    top = max(m for name, m in measured.items() if name != "odmrp")
    assert measured["spp"] >= 0.95 * top, "SPP should be at/near the top"
    assert measured["ett"] <= measured["spp"], "ETT should trail SPP"
