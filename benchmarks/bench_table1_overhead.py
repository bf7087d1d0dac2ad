"""Benchmark E7: Table 1, probing overhead per metric.

Probe bytes as a percentage of data bytes received, from the shared
sweep.  Shape requirements: the packet-pair metrics (ETT, PP) cost a
multiple of the single-probe metrics (ETX, METX, SPP), with ETT >= PP
and SPP the cheapest -- the paper's ordering ETT > PP >> ETX > METX > SPP.
"""

from __future__ import annotations

from repro.analysis.tables import render_comparison
from repro.experiments.figures import (
    PAPER_TABLE1_OVERHEAD_PCT,
    table1_probing_overhead,
)


def bench_table1_probing_overhead(benchmark, shared_paper_sweep):
    result = benchmark.pedantic(
        lambda: table1_probing_overhead(runs=shared_paper_sweep),
        iterations=1,
        rounds=1,
    )
    print()
    print(render_comparison(
        result.measured, PAPER_TABLE1_OVERHEAD_PCT,
        value_label="overhead %",
        title="Table 1 / probing overhead",
    ))
    benchmark.extra_info["overhead_pct"] = result.measured
    measured = result.measured
    assert measured["ett"] > measured["pp"] > measured["etx"]
    assert measured["etx"] > measured["metx"] > measured["spp"]
    # Pair probing costs roughly 4-5x single probes in the paper.
    assert measured["ett"] / measured["etx"] > 3.0
