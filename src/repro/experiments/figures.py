"""One entry point per paper table or figure.

Each function returns a :class:`FigureResult` holding the measured series,
the paper's reported series (for the shape comparison), and the raw runs.
The benchmark suite prints these side by side; EXPERIMENTS.md records
them.

Paper reference values: Figure 2's bars are read off the chart (the text
gives exact averages for the throughput columns and Table 1); values we
could only estimate visually are marked in the notes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.accumulation import multiplicative, path_cost, recursive_metx
from repro.core.metrics import EtxMetric, MetxMetric, SppMetric
from repro.experiments.results import (
    RunResult,
    aggregate_runs,
    normalized_metric_table,
)
from repro.experiments.runner import collect_result, run_experiment
from repro.experiments.scenarios import (
    PROTOCOL_NAMES,
    SimulationScenarioConfig,
)
from repro.experiments.spec import ExperimentSpec
from repro.testbed.emulator import TestbedScenarioConfig, build_testbed_scenario

#: The five metric-enhanced variants (everything in the paper family
#: except the min-hop baseline), in registry order.
METRIC_PROTOCOLS = tuple(
    name for name in PROTOCOL_NAMES if name != "odmrp"
)

#: Paper-reported normalized throughput, simulations (Section 4.2.1).
PAPER_THROUGHPUT_SIMULATIONS = {
    "odmrp": 1.0,
    "ett": 1.135,
    "etx": 1.145,
    "metx": 1.16,
    "pp": 1.18,
    "spp": 1.18,
}

#: Same column with 5x probing ("throughputs ... drop by about 2%").
PAPER_THROUGHPUT_HIGH_OVERHEAD = {
    "odmrp": 1.0,
    "ett": 1.115,
    "etx": 1.125,
    "metx": 1.14,
    "pp": 1.16,
    "spp": 1.16,
}

#: Normalized end-to-end delay, read off Figure 2 (approximate).
PAPER_DELAY = {
    "odmrp": 1.0,
    "ett": 1.20,
    "etx": 1.10,
    "metx": 1.18,
    "pp": 1.17,
    "spp": 1.08,
}

#: Testbed throughput gains (Section 5.3 text).
PAPER_THROUGHPUT_TESTBED = {
    "odmrp": 1.0,
    "ett": 1.07,
    "etx": 1.08,
    "metx": 1.075,
    "pp": 1.175,
    "spp": 1.14,
}

#: Table 1: probe bytes as % of data bytes received.
PAPER_TABLE1_OVERHEAD_PCT = {
    "ett": 3.03,
    "etx": 0.66,
    "metx": 0.61,
    "pp": 2.54,
    "spp": 0.53,
}


@dataclass
class FigureResult:
    """Measured vs paper series for one table or figure."""

    name: str
    measured: Dict[str, float]
    paper: Dict[str, float]
    notes: str = ""
    runs: List[RunResult] = field(default_factory=list)

    def gain_pct(self, protocol: str, baseline: str = "odmrp") -> float:
        """Measured percentage gain of ``protocol`` over the baseline."""
        return 100.0 * (self.measured[protocol] / self.measured[baseline] - 1.0)


# ----------------------------------------------------------------------
# Analytic figures (exact)

def figure1_metx_vs_spp() -> FigureResult:
    """Figure 1: METX prefers A-B-D, SPP prefers A-C-D.

    Link forwarding probabilities: A-C = 1, C-D = 1/3, A-B = 1/4, B-D = 1.
    """
    acd = [1.0, 1.0 / 3.0]
    abd = [0.25, 1.0]
    measured = {
        "metx_acd": recursive_metx(acd),
        "metx_abd": recursive_metx(abd),
        "inv_spp_acd": 1.0 / multiplicative(acd),
        "inv_spp_abd": 1.0 / multiplicative(abd),
    }
    paper = {
        "metx_acd": 6.0,
        "metx_abd": 5.0,
        "inv_spp_acd": 3.0,
        "inv_spp_abd": 4.0,
    }
    return FigureResult(
        name="figure1",
        measured=measured,
        paper=paper,
        notes=(
            "METX picks A-B-D (5 < 6) while SPP picks A-C-D (3 < 4 source "
            "transmissions per delivered packet)."
        ),
    )


def figure3_etx_vs_spp() -> FigureResult:
    """Figure 3: ETX prefers the lossy short path, SPP avoids it.

    A-B-C-D has three 0.8 links; A-E-D has a 0.9 and a 0.4 link.
    """
    abcd = [0.8, 0.8, 0.8]
    aed = [0.9, 0.4]
    etx = EtxMetric()
    spp = SppMetric()
    measured = {
        "etx_abcd": path_cost(etx, [1.0 / df for df in abcd]),
        "etx_aed": path_cost(etx, [1.0 / df for df in aed]),
        "spp_abcd": path_cost(spp, abcd),
        "spp_aed": path_cost(spp, aed),
    }
    paper = {
        "etx_abcd": 3.75,
        "etx_aed": 3.61,
        "spp_abcd": 0.512,
        "spp_aed": 0.36,
    }
    return FigureResult(
        name="figure3",
        measured=measured,
        paper=paper,
        notes=(
            "ETX picks A-E-D (3.61 < 3.75) despite the 0.4 link; SPP picks "
            "A-B-C-D (0.512 > 0.36)."
        ),
    )


# ----------------------------------------------------------------------
# Simulation columns of Figure 2 (and Table 1)

def figure2_throughput_simulations(
    config: Optional[SimulationScenarioConfig] = None,
    seeds: Iterable[int] = (1, 2, 3),
    runs: Optional[List[RunResult]] = None,
) -> FigureResult:
    """Figure 2, column "Throughput-simulations"."""
    if runs is None:
        runs = run_experiment(ExperimentSpec(
            seeds=seeds, config=config or SimulationScenarioConfig(),
        ))
    aggregates = aggregate_runs(runs)
    measured = normalized_metric_table(aggregates, "throughput")
    return FigureResult(
        name="figure2_throughput_simulations",
        measured=measured,
        paper=dict(PAPER_THROUGHPUT_SIMULATIONS),
        runs=runs,
    )


def figure2_delay(
    config: Optional[SimulationScenarioConfig] = None,
    seeds: Iterable[int] = (1, 2, 3),
    runs: Optional[List[RunResult]] = None,
) -> FigureResult:
    """Figure 2, column "Delay" (normalized mean end-to-end delay)."""
    if runs is None:
        runs = run_experiment(ExperimentSpec(
            seeds=seeds, config=config or SimulationScenarioConfig(),
        ))
    aggregates = aggregate_runs(runs)
    measured = normalized_metric_table(aggregates, "delay")
    return FigureResult(
        name="figure2_delay",
        measured=measured,
        paper=dict(PAPER_DELAY),
        notes="Paper values are approximate (read off the bar chart).",
        runs=runs,
    )


def figure2_throughput_high_overhead(
    config: Optional[SimulationScenarioConfig] = None,
    seeds: Iterable[int] = (1, 2, 3),
    rate_multiplier: float = 5.0,
) -> FigureResult:
    """Figure 2, column "Throughput-high overhead" (probing rate x5).

    The baseline ODMRP run has no probes, so its absolute throughput is
    shared with the normal-rate column; only the metric variants change.
    """
    if config is None:
        config = SimulationScenarioConfig()
    runs = run_experiment(ExperimentSpec(
        seeds=seeds, config=config.with_probing_rate(rate_multiplier),
    ))
    aggregates = aggregate_runs(runs)
    measured = normalized_metric_table(aggregates, "throughput")
    return FigureResult(
        name="figure2_throughput_high_overhead",
        measured=measured,
        paper=dict(PAPER_THROUGHPUT_HIGH_OVERHEAD),
        runs=runs,
    )


def table1_probing_overhead(
    config: Optional[SimulationScenarioConfig] = None,
    seeds: Iterable[int] = (1, 2, 3),
    runs: Optional[List[RunResult]] = None,
    jobs: int = 1,
    use_cache: bool = False,
) -> FigureResult:
    """Table 1: probe bytes as a percentage of data bytes received."""
    if runs is None:
        runs = run_experiment(ExperimentSpec(
            protocols=METRIC_PROTOCOLS, seeds=seeds, jobs=jobs,
            use_cache=use_cache, config=config or SimulationScenarioConfig(),
        ))
    aggregates = aggregate_runs(runs)
    measured = {
        name: agg.mean_probe_overhead_pct
        for name, agg in aggregates.items()
        if name != "odmrp"
    }
    return FigureResult(
        name="table1_probing_overhead",
        measured=measured,
        paper=dict(PAPER_TABLE1_OVERHEAD_PCT),
        runs=runs,
    )


def probing_rate_sensitivity(
    config: Optional[SimulationScenarioConfig] = None,
    seeds: Iterable[int] = (1, 2),
    multipliers: Sequence[float] = (0.1, 1.0, 5.0),
    protocols: Sequence[str] = ("odmrp", "etx", "pp", "spp"),
) -> Dict[float, FigureResult]:
    """Section 4.2.2: throughput gains versus probing rate.

    The paper reports gains improving ~3 % at a 10x lower rate and
    dropping ~2 % at a 5x higher rate, with the high-overhead metrics
    (PP, ETT) the most sensitive.
    """
    if config is None:
        config = SimulationScenarioConfig()
    results: Dict[float, FigureResult] = {}
    for multiplier in multipliers:
        runs = run_experiment(ExperimentSpec(
            protocols=protocols, seeds=seeds,
            config=config.with_probing_rate(multiplier),
        ))
        aggregates = aggregate_runs(runs)
        measured = normalized_metric_table(aggregates, "throughput")
        results[multiplier] = FigureResult(
            name=f"probing_rate_x{multiplier:g}",
            measured=measured,
            paper={},
            notes="Directional experiment; the paper gives deltas only.",
            runs=runs,
        )
    return results


def multi_source_gain_reduction(
    config: Optional[SimulationScenarioConfig] = None,
    seeds: Iterable[int] = (1, 2),
    source_counts: Sequence[int] = (1, 2),
    protocols: Sequence[str] = ("odmrp", "pp", "spp"),
) -> Dict[int, FigureResult]:
    """Section 4.3: more sources per group shrink the relative gains.

    ODMRP's forwarding group is per group, not per source, so extra
    sources build a more redundant mesh that partially compensates the
    baseline's bad path choices (paper: gains drop by ~10-15 %).
    """
    if config is None:
        config = SimulationScenarioConfig()
    results: Dict[int, FigureResult] = {}
    for count in source_counts:
        runs = run_experiment(ExperimentSpec(
            protocols=protocols, seeds=seeds,
            config=replace(config, sources_per_group=count),
        ))
        aggregates = aggregate_runs(runs)
        measured = normalized_metric_table(aggregates, "throughput")
        results[count] = FigureResult(
            name=f"multi_source_{count}",
            measured=measured,
            paper={},
            notes="Compare gains across source counts, not absolute values.",
            runs=runs,
        )
    return results


# ----------------------------------------------------------------------
# Testbed figures

def figure2_throughput_testbed(
    config: Optional[TestbedScenarioConfig] = None,
    run_seeds: Iterable[int] = (1, 2, 3, 4, 5),
    protocols: Sequence[str] = PROTOCOL_NAMES,
) -> FigureResult:
    """Figure 2, column "Throughput-testbed" (5 repetitions in the paper)."""
    if config is None:
        config = TestbedScenarioConfig()
    runs: List[RunResult] = []
    for seed in run_seeds:
        seeded = config.with_run_seed(seed)
        for protocol in protocols:
            scenario = build_testbed_scenario(protocol, seeded)
            scenario.run()
            runs.append(collect_result(scenario))
    aggregates = aggregate_runs(runs)
    measured = normalized_metric_table(aggregates, "throughput")
    return FigureResult(
        name="figure2_throughput_testbed",
        measured=measured,
        paper=dict(PAPER_THROUGHPUT_TESTBED),
        runs=runs,
    )


def figure5_tree_edges(
    config: Optional[TestbedScenarioConfig] = None,
    protocols: Sequence[str] = ("odmrp", "pp"),
    min_share: float = 0.10,
) -> Dict[str, List[Tuple[int, int, float]]]:
    """Figure 5: heavily used links under ODMRP vs ODMRP_PP.

    The qualitative claim to reproduce: ODMRP leans on the lossy one-hop
    links (2-5, 4-7, 1-3, 9-3) while ODMRP_PP routes around them
    (2-10-5, 4-9-7, ...).
    """
    if config is None:
        config = TestbedScenarioConfig()
    trees: Dict[str, List[Tuple[int, int, float]]] = {}
    for protocol in protocols:
        scenario = build_testbed_scenario(protocol, config)
        scenario.run()
        trees[protocol] = scenario.heavily_used_links(min_share)
    return trees


def lossy_link_data_share(
    tree: List[Tuple[int, int, float]],
    lossy_pairs: Optional[Iterable[frozenset]] = None,
) -> float:
    """Fraction of tree-link weight carried by Figure 4's lossy links."""
    if lossy_pairs is None:
        from repro.testbed.floormap import lossy_link_keys

        lossy_pairs = lossy_link_keys()
    lossy_set = set(lossy_pairs)
    total = sum(share for _s, _d, share in tree)
    if total == 0:
        return 0.0
    lossy = sum(
        share
        for src, dst, share in tree
        if frozenset((src, dst)) in lossy_set
    )
    return lossy / total
