"""Compare all five link-quality metrics against original ODMRP.

Reproduces the shape of Figure 2 (throughput + delay columns) and
Table 1 (probing overhead) at reduced scale, printing measured values
next to the paper's.

Run:  python examples/metric_comparison.py [num_topologies]
"""

from __future__ import annotations

import sys

from repro.analysis.tables import render_comparison
from repro.experiments import figures
from repro.experiments.results import aggregate_runs, normalized_metric_table
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import SimulationScenarioConfig
from repro.experiments.spec import ExperimentSpec


def main() -> None:
    topologies = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    config = SimulationScenarioConfig(
        num_nodes=30,
        members_per_group=6,
        duration_s=150.0,
        warmup_s=30.0,
    )
    seeds = tuple(range(1, topologies + 1))
    print(
        f"Running 6 protocols x {topologies} topologies "
        f"({config.num_nodes} nodes, {config.duration_s:.0f} s each) ..."
    )
    runs = run_experiment(ExperimentSpec(seeds=seeds, config=config))
    aggregates = aggregate_runs(runs)

    throughput = normalized_metric_table(aggregates, "throughput")
    print()
    print(render_comparison(
        throughput,
        figures.PAPER_THROUGHPUT_SIMULATIONS,
        title="Figure 2 / Throughput-simulations (normalized to ODMRP)",
    ))

    delay = normalized_metric_table(aggregates, "delay")
    print()
    print(render_comparison(
        delay,
        figures.PAPER_DELAY,
        title="Figure 2 / Delay (normalized to ODMRP; paper values approximate)",
    ))

    overhead = {
        name: agg.mean_probe_overhead_pct
        for name, agg in aggregates.items()
        if name != "odmrp"
    }
    print()
    print(render_comparison(
        overhead,
        figures.PAPER_TABLE1_OVERHEAD_PCT,
        value_label="overhead %",
        title="Table 1 / probing overhead (probe bytes / data bytes received)",
    ))
    print(
        "\nShape to look for: every metric beats ODMRP; SPP and PP lead; "
        "packet-pair metrics (ETT, PP) cost ~4-5x the probe bytes of the "
        "single-probe metrics (ETX, METX, SPP)."
    )


if __name__ == "__main__":
    main()
