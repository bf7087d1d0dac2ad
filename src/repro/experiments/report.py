"""Markdown report generation from experiment results.

Takes the raw :class:`~repro.experiments.results.RunResult` rows a sweep
produced and renders a self-contained markdown report: normalized
columns next to the paper's values, per-topology spread, and the
counters that explain *why* a variant won (forwarding volume, collision
rates, probe bytes).

Used by power users to snapshot a sweep; EXPERIMENTS.md in this
repository was assembled from the same numbers at full scale.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.analysis.stats import confidence_interval_95, mean
from repro.experiments.adaptive import AdaptiveResult
from repro.experiments.results import (
    RunResult,
    aggregate_runs,
    normalized_metric_table,
)
from repro.protocols import protocol_names


def _ordered(names: Sequence[str]) -> List[str]:
    """Registry registration order first, unknown names sorted after."""
    order = protocol_names()
    known = [name for name in order if name in names]
    extra = sorted(set(names) - set(known))
    return known + extra


def _baseline_for(
    names: Sequence[str],
    preferred: str = "odmrp",
    aggregates: Optional[Mapping[str, "object"]] = None,
) -> str:
    """The normalization baseline: ``preferred`` when the sweep ran it,
    otherwise the sweep's first protocol in registry order (so a pure
    MAODV sweep normalizes against min-hop "maodv", mirroring the
    paper's Figure 2 treatment of each protocol family).

    When ``aggregates`` is given, a baseline whose runs all failed (or
    delivered nothing) is skipped in favour of the first protocol with
    measurable throughput -- a sweep degraded by quarantined runs still
    renders a report instead of dying on a zero-division."""
    ordered = _ordered(names)
    if not ordered:
        raise ValueError("no protocols to report")
    candidates = ([preferred] if preferred in names else []) + ordered
    if aggregates is not None:
        for name in candidates:
            agg = aggregates.get(name)
            if agg is not None and getattr(agg, "runs", 0) > 0 and (
                getattr(agg, "mean_throughput_bps", 0.0) > 0
            ):
                return name
    return candidates[0]


def markdown_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """A GitHub-flavoured markdown table."""
    lines = [
        "| " + " | ".join(str(h) for h in headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(f"row {row!r} does not match headers")
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return "\n".join(lines)


def throughput_section(
    runs: Sequence[RunResult],
    paper: Optional[Mapping[str, float]] = None,
    baseline: Optional[str] = None,
) -> str:
    """Normalized throughput with per-protocol 95 % CIs over topologies."""
    aggregates = aggregate_runs(runs)
    if baseline is None:
        baseline = _baseline_for(list(aggregates), aggregates=aggregates)
    baseline_mean = aggregates[baseline].mean_throughput_bps
    normalized = (
        normalized_metric_table(aggregates, "throughput", baseline)
        if baseline_mean > 0 else {}
    )
    rows = []
    for name in _ordered(list(aggregates)):
        protocol_runs = [
            run for run in runs
            if run.protocol == name and run.error is None
        ]
        paper_cell = (
            f"{paper[name]:.3f}" if paper and name in paper else "-"
        )
        if not protocol_runs or baseline_mean == 0:
            # All runs failed (or the baseline did): show the hole.
            rows.append((name, paper_cell, "-", "-", 0))
            continue
        values = [
            run.throughput_bps / baseline_mean for run in protocol_runs
        ]
        low, high = confidence_interval_95(values)
        rows.append((
            name,
            paper_cell,
            f"{normalized[name]:.3f}",
            f"[{low:.3f}, {high:.3f}]",
            len(protocol_runs),
        ))
    return "### Normalized throughput\n\n" + markdown_table(
        ("protocol", "paper", "measured", "95% CI", "runs"), rows
    )


def overhead_section(
    runs: Sequence[RunResult],
    paper: Optional[Mapping[str, float]] = None,
    baseline: Optional[str] = None,
) -> str:
    aggregates = aggregate_runs(runs)
    if baseline is None:
        baseline = _baseline_for(list(aggregates))
    rows = []
    for name in _ordered([n for n in aggregates if n != baseline]):
        paper_cell = (
            f"{paper[name]:.2f}" if paper and name in paper else "-"
        )
        rows.append((
            name,
            paper_cell,
            f"{aggregates[name].mean_probe_overhead_pct:.2f}",
        ))
    return "### Probing overhead (%)\n\n" + markdown_table(
        ("metric", "paper", "measured"), rows
    )


def diagnostics_section(runs: Sequence[RunResult]) -> str:
    """The counters that explain the results: forwarding, collisions."""
    by_protocol: Dict[str, List[RunResult]] = {}
    for run in runs:
        if run.error is None:
            by_protocol.setdefault(run.protocol, []).append(run)
    rows = []
    for name in _ordered(list(by_protocol)):
        protocol_runs = by_protocol[name]

        def avg(counter: str) -> float:
            return mean([
                run.counters.get(counter, 0.0) for run in protocol_runs
            ])

        rows.append((
            name,
            f"{mean([r.packet_delivery_ratio for r in protocol_runs]):.3f}",
            f"{avg('odmrp.data_forwarded'):.0f}",
            f"{avg('odmrp.data_duplicate'):.0f}",
            f"{avg('phy.rx_failed_collision'):.0f}",
            f"{avg('odmrp.query_forwarded'):.0f}",
        ))
    return "### Why: per-run mean diagnostics\n\n" + markdown_table(
        ("protocol", "PDR", "data fwd", "dup drops", "collisions",
         "queries fwd"),
        rows,
    )


def adaptive_section(plan: AdaptiveResult) -> str:
    """The sequential planner's outcome: seeds spent, achieved CI
    width against the target, and the paired-CRN gain per protocol."""
    decisions = plan.final_decisions()
    comparisons = {c.protocol: c for c in plan.paired_comparisons()}
    rows = []
    for name in _ordered(list(decisions)):
        decision = decisions[name]
        comparison = comparisons.get(name)
        if comparison is None:
            delta_cell = "baseline" if name == plan.baseline else "-"
            gain_cell = "-"
        else:
            delta_cell = (
                f"[{comparison.paired_low:+.3f}, "
                f"{comparison.paired_high:+.3f}]"
            )
            gain_cell = f"{comparison.gain_pct:.0f}%"
        rows.append((
            name,
            decision.seeds_spent,
            f"{decision.normalized_mean:.3f}",
            f"{decision.ci_half_width:.3f}",
            decision.reason or "-",
            delta_cell,
            gain_cell,
        ))
    header = (
        "### Adaptive plan\n\n"
        f"Sequential seed allocation, target CI half-width "
        f"{plan.config.target_half_width:g} (normalized units), "
        f"batches of {plan.config.batch_size}, seeds "
        f"{plan.config.min_seeds}..{plan.config.max_seeds} per protocol, "
        f"paired common random numbers "
        f"{'on' if plan.config.paired else 'off'}; "
        f"{plan.total_runs} runs total vs "
        f"{len(decisions) * plan.config.max_seeds} exhaustive.\n\n"
    )
    return header + markdown_table(
        ("protocol", "seeds", "normalized", "CI half-width", "stop",
         f"paired delta vs {plan.baseline}", "pairing gain"),
        rows,
    )


def render_report(
    runs: Sequence[RunResult],
    title: str = "Experiment report",
    paper_throughput: Optional[Mapping[str, float]] = None,
    paper_overhead: Optional[Mapping[str, float]] = None,
    adaptive: Optional[AdaptiveResult] = None,
) -> str:
    """A complete markdown report for one sweep's runs."""
    if not runs:
        raise ValueError("no runs to report")
    seeds = sorted({run.topology_seed for run in runs})
    duration = runs[0].duration_s
    header = (
        f"# {title}\n\n"
        f"{len(runs)} runs, {len(seeds)} topologies "
        f"(seeds {seeds[0]}..{seeds[-1]}), {duration:.0f} s simulated each.\n"
    )
    aggregates = aggregate_runs(runs)
    failed = sum(agg.failed_runs for agg in aggregates.values())
    zero = sum(agg.zero_delivery_runs for agg in aggregates.values())
    if failed or zero:
        breakdown = []
        for name in _ordered(list(aggregates)):
            kinds = aggregates[name].failure_kinds
            if kinds:
                detail = ", ".join(
                    f"{count} {kind}" for kind, count in sorted(kinds.items())
                )
                breakdown.append(f"{name}: {detail}")
        note = (
            f"\n**Data-quality note:** {failed} run(s) failed and are "
            "quarantined (excluded from every mean)"
        )
        if breakdown:
            note += " -- " + "; ".join(breakdown)
        header += note + (
            f", {zero} run(s) delivered zero packets.\n"
        )
    sections = [
        header,
        throughput_section(runs, paper_throughput),
        overhead_section(runs, paper_overhead),
        diagnostics_section(runs),
    ]
    if adaptive is not None:
        sections.insert(1, adaptive_section(adaptive))
    return "\n\n".join(sections) + "\n"
