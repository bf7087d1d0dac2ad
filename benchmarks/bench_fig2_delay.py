"""Benchmark E5: Figure 2 column "Delay".

Normalized mean end-to-end delay of delivered packets, from the same
sweep as the throughput column.  The reproducible shape: the metric
variants pay a delay premium over min-hop ODMRP (they choose longer
paths of shorter links), and the low-probing-overhead metrics stay on
the cheaper end of the premium.
"""

from __future__ import annotations

from repro.analysis.tables import render_comparison
from repro.experiments.figures import PAPER_DELAY, figure2_delay


def bench_fig2_delay(benchmark, shared_paper_sweep):
    result = benchmark.pedantic(
        lambda: figure2_delay(runs=shared_paper_sweep),
        iterations=1,
        rounds=1,
    )
    print()
    print(render_comparison(
        result.measured, PAPER_DELAY,
        title="Figure 2 / Delay (normalized; paper values approximate)",
    ))
    benchmark.extra_info["normalized_delay"] = result.measured
    for metric in ("ett", "etx", "metx", "pp", "spp"):
        assert result.measured[metric] > 0.9, (
            "delay must be measured for every variant"
        )
    # Metric variants trade delay for throughput: none should be
    # dramatically faster than the baseline's short paths.
    assert all(
        value > 0.85 for name, value in result.measured.items()
    ), result.measured
