"""Adaptive sweeps: sequential seed allocation with CI-driven stopping.

The exhaustive sweep (:func:`~repro.experiments.runner.run_experiment`)
spends the same seed budget on every protocol -- as many runs on
low-variance SPP as on the noisiest ETX variant.  This module plans the
sweep *sequentially* instead: seeds are executed in small batches per
protocol, the normalized-throughput confidence interval is recomputed
after every batch (Student-t, see :mod:`repro.analysis.stats`), and a
protocol stops drawing seeds as soon as its CI half-width reaches the
spec's target -- or a max-seed cap, whichever comes first.  Variance
decides where the budget goes.

Common random numbers
---------------------
Every run's RNG streams are pinned by its ``(protocol, config, seed)``
triple (the ``rng-isolation`` monitor asserts exactly this), so two
protocols executed on the *same seed* see the identical topology,
fading, and traffic draws.  With ``paired = true`` (the default) all
protocols consume the shared seed pool in the same order, which makes
per-seed differences directly comparable: the topology-to-topology
variance cancels and :func:`~repro.analysis.stats.paired_difference_ci`
yields far tighter protocol deltas than the unpaired Welch interval.
``paired = false`` gives each protocol a disjoint seed range instead
(an honest independent-samples design, mostly useful to measure what
pairing buys).

Execution and replay
--------------------
Batches run through one ordinary executor per sweep
(:meth:`~repro.experiments.executors.SweepExecutor.for_spec`), so a
resumable sweep stores each batch's runs in the result cache as they
finish.  Nothing else is stored: the plan is a pure function of the
run results, so ``repro run --adaptive --resume`` replays the stored
runs, recomputes each batch's stopping decision from them, and
reproduces the identical batch-by-batch plan bit for bit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.analysis.stats import (
    ci_half_width,
    mean,
    paired_difference_ci,
    unpaired_difference_ci,
)
from repro.experiments.results import RunResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (spec -> here)
    from repro.experiments.spec import ExperimentSpec

@dataclass
class AdaptiveConfig:
    """The ``[adaptive]`` section of an experiment spec.

    ``target_half_width`` is in normalized-throughput units: a protocol
    stops once the Student-t CI half-width of its per-run throughput,
    divided by the baseline protocol's running mean throughput (the
    paper's Figure 2 normalization), drops to the target.
    """

    #: Stop once the normalized-throughput CI half-width reaches this.
    target_half_width: float = 0.05
    #: Seeds executed per protocol per planning round.
    batch_size: int = 2
    #: No protocol may stop on convergence before this many seeds.
    min_seeds: int = 2
    #: Hard per-protocol seed cap (the exhaustive grid this replaces).
    max_seeds: int = 16
    #: Common random numbers: all protocols share one seed pool so
    #: comparisons are paired on identical topologies/fading.
    paired: bool = True
    #: Normalization / pairing baseline protocol; None picks "odmrp"
    #: when the sweep runs it, else the first protocol in registry
    #: order (mirroring report.py).
    baseline: Optional[str] = None

    def validate(self) -> "AdaptiveConfig":
        if not self.target_half_width > 0:
            raise ValueError(
                f"adaptive.target_half_width must be positive, "
                f"got {self.target_half_width!r}"
            )
        for name in ("batch_size", "min_seeds", "max_seeds"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 1:
                raise ValueError(
                    f"adaptive.{name} must be a positive integer, "
                    f"got {value!r}"
                )
        if self.min_seeds > self.max_seeds:
            raise ValueError(
                f"adaptive.min_seeds ({self.min_seeds}) exceeds "
                f"adaptive.max_seeds ({self.max_seeds})"
            )
        return self


@dataclass
class AdaptiveDecision:
    """One protocol's state after one batch: keep sampling or stop."""

    protocol: str
    seeds_spent: int
    ok_runs: int
    mean_throughput_bps: float
    normalized_mean: float
    #: Normalized-units CI half-width (0.0 below two successful runs).
    ci_half_width: float
    stopped: bool
    #: "converged" | "max-seeds" | "zero-throughput" | None (still active).
    reason: Optional[str]


@dataclass
class AdaptiveBatch:
    """One planning round: which seeds ran, and what was decided."""

    index: int
    seeds: Tuple[int, ...]
    protocols: Tuple[str, ...]
    decisions: Tuple[AdaptiveDecision, ...]

    def plan_dict(self) -> Dict[str, object]:
        return {
            "batch": self.index,
            "seeds": list(self.seeds),
            "protocols": list(self.protocols),
            "decisions": [asdict(d) for d in self.decisions],
        }


@dataclass
class PairedComparison:
    """Baseline-relative protocol delta, paired and unpaired."""

    protocol: str
    pairs: int
    #: CI for mean(protocol - baseline) over common seeds, normalized.
    paired_low: float
    paired_high: float
    #: Welch CI for the same delta treating samples as independent.
    unpaired_low: float
    unpaired_high: float

    @property
    def paired_half_width(self) -> float:
        return 0.5 * (self.paired_high - self.paired_low)

    @property
    def unpaired_half_width(self) -> float:
        return 0.5 * (self.unpaired_high - self.unpaired_low)

    @property
    def gain_pct(self) -> float:
        """How much narrower pairing made the CI (0 when it didn't)."""
        if self.unpaired_half_width <= 0:
            return 0.0
        return 100.0 * (1.0 - self.paired_half_width
                        / self.unpaired_half_width)


@dataclass
class AdaptiveResult:
    """A finished adaptive sweep: the plan plus every run it executed."""

    name: str
    baseline: str
    config: AdaptiveConfig
    seed_pool: Tuple[int, ...]
    batches: List[AdaptiveBatch] = field(default_factory=list)
    runs: List[RunResult] = field(default_factory=list)

    def seeds_spent(self) -> Dict[str, int]:
        spent: Dict[str, int] = {}
        for batch in self.batches:
            for decision in batch.decisions:
                spent[decision.protocol] = decision.seeds_spent
        return spent

    def stop_reasons(self) -> Dict[str, Optional[str]]:
        reasons: Dict[str, Optional[str]] = {}
        for batch in self.batches:
            for decision in batch.decisions:
                reasons[decision.protocol] = decision.reason
        return reasons

    def final_decisions(self) -> Dict[str, AdaptiveDecision]:
        final: Dict[str, AdaptiveDecision] = {}
        for batch in self.batches:
            for decision in batch.decisions:
                final[decision.protocol] = decision
        return final

    @property
    def total_runs(self) -> int:
        return len(self.runs)

    def plan_dict(self) -> Dict[str, object]:
        """The full batch-by-batch plan as JSON-stable primitives.

        This is the golden-regression and determinism-matrix surface:
        two executions of the same spec must produce equal plan dicts,
        whatever the job count, cache state, or resume point.
        """
        return {
            "schema": 1,
            "name": self.name,
            "baseline": self.baseline,
            "target_half_width": self.config.target_half_width,
            "batch_size": self.config.batch_size,
            "min_seeds": self.config.min_seeds,
            "max_seeds": self.config.max_seeds,
            "paired": self.config.paired,
            "seed_pool": list(self.seed_pool),
            "batches": [batch.plan_dict() for batch in self.batches],
            "seeds_spent": self.seeds_spent(),
            "stop_reasons": self.stop_reasons(),
            "total_runs": self.total_runs,
        }

    # -- paired-CRN comparisons ---------------------------------------

    def _normalized_by_seed(self, protocol: str) -> Dict[int, float]:
        """ok-run normalized throughput keyed by seed-pool position."""
        denominator = self._baseline_mean()
        if denominator <= 0:
            return {}
        positions = {
            seed: position for position, seed in enumerate(self.seed_pool)
        }
        stride = _unpaired_stride(self.seed_pool)
        offset = 0
        if not self.config.paired:
            order = _protocol_order(self.batches)
            offset = order.index(protocol) * stride
        out: Dict[int, float] = {}
        for run in self.runs:
            if run.protocol != protocol or run.error is not None:
                continue
            position = positions.get(run.topology_seed - offset)
            if position is not None:
                out[position] = run.throughput_bps / denominator
        return out

    def _baseline_mean(self) -> float:
        values = [
            run.throughput_bps for run in self.runs
            if run.protocol == self.baseline and run.error is None
        ]
        return mean(values) if values else 0.0

    def paired_comparisons(self) -> List[PairedComparison]:
        """Per-protocol baseline deltas over the common seed prefix.

        Meaningful with ``paired = true`` (common random numbers): the
        paired interval should come out systematically narrower than
        the unpaired one.  With pairing off the "paired" interval is
        computed over position-aligned but independent seeds and the
        narrowing disappears -- which is the point of the comparison.
        """
        base = self._normalized_by_seed(self.baseline)
        comparisons: List[PairedComparison] = []
        for protocol in _protocol_order(self.batches):
            if protocol == self.baseline:
                continue
            mine = self._normalized_by_seed(protocol)
            common = sorted(set(base) & set(mine))
            if not common:
                continue
            a = [mine[position] for position in common]
            b = [base[position] for position in common]
            p_low, p_high = paired_difference_ci(a, b)
            u_low, u_high = unpaired_difference_ci(a, b)
            comparisons.append(PairedComparison(
                protocol=protocol,
                pairs=len(common),
                paired_low=p_low,
                paired_high=p_high,
                unpaired_low=u_low,
                unpaired_high=u_high,
            ))
        return comparisons


# ----------------------------------------------------------------------
# Planning primitives (pure functions; the executor loop sits below)


def build_seed_pool(
    seeds: Sequence[int], max_seeds: int
) -> Tuple[int, ...]:
    """The shared seed pool: the spec's seeds first, then deterministic
    fresh seeds (smallest unused integers above the spec's maximum) up
    to ``max_seeds``.  A spec listing more seeds than the cap keeps the
    first ``max_seeds`` of them.
    """
    pool = list(seeds[:max_seeds])
    used = set(pool)
    candidate = max(pool) + 1 if pool else 1
    while len(pool) < max_seeds:
        while candidate in used:
            candidate += 1
        pool.append(candidate)
        used.add(candidate)
        candidate += 1
    return tuple(pool)


def _unpaired_stride(pool: Sequence[int]) -> int:
    """Seed offset between protocols when pairing is off: larger than
    the pool's span, so per-protocol seed ranges never collide."""
    return max(pool) - min(pool) + 1


def _protocol_order(batches: Sequence[AdaptiveBatch]) -> List[str]:
    order: List[str] = []
    for batch in batches:
        for name in batch.protocols:
            if name not in order:
                order.append(name)
    return order


def default_baseline(protocols: Sequence[str]) -> str:
    """"odmrp" when the sweep runs it, else the first protocol in
    registry order -- the same rule report.py normalizes with."""
    if "odmrp" in protocols:
        return "odmrp"
    from repro.protocols import protocol_names

    ordered = [name for name in protocol_names() if name in protocols]
    return ordered[0] if ordered else protocols[0]


def _decide(
    protocol: str,
    values_bps: Sequence[float],
    seeds_spent: int,
    denominator: float,
    adaptive: AdaptiveConfig,
    pool_exhausted: bool,
) -> AdaptiveDecision:
    """One protocol's post-batch stopping decision.

    ``denominator`` is the baseline's running mean throughput (the
    normalization constant); when the baseline has delivered nothing
    the protocol's own mean stands in, and if that is zero too the
    protocol stops as "zero-throughput" (more seeds cannot tighten an
    interval around nothing).
    """
    n_ok = len(values_bps)
    mean_bps = mean(values_bps) if values_bps else 0.0
    denom = denominator if denominator > 0 else mean_bps
    normalized_mean = mean_bps / denom if denom > 0 else 0.0
    half_width = ci_half_width(values_bps) / denom if (
        denom > 0 and n_ok >= 2
    ) else 0.0
    stopped = False
    reason: Optional[str] = None
    if seeds_spent >= adaptive.min_seeds:
        if denom <= 0:
            stopped, reason = True, "zero-throughput"
        elif n_ok >= 2 and half_width <= adaptive.target_half_width:
            stopped, reason = True, "converged"
    if not stopped and pool_exhausted:
        stopped, reason = True, "max-seeds"
    return AdaptiveDecision(
        protocol=protocol,
        seeds_spent=seeds_spent,
        ok_runs=n_ok,
        mean_throughput_bps=mean_bps,
        normalized_mean=normalized_mean,
        ci_half_width=half_width,
        stopped=stopped,
        reason=reason,
    )


# ----------------------------------------------------------------------
# The sequential executor loop


def run_adaptive_experiment(
    spec: "ExperimentSpec",
    progress=None,
    cache_dir: Optional[str] = None,
    resume: bool = False,
) -> AdaptiveResult:
    """Run ``spec`` under the sequential planner; returns plan + runs.

    Accepts the same execution knobs as
    :func:`~repro.experiments.runner.run_experiment` and routes every
    batch through one :class:`~repro.experiments.executors.SweepExecutor`,
    so cache/resilience behavior is identical to an exhaustive
    sweep -- the only difference is *which* (protocol, seed) cells get
    executed.  Because each cell is seed-deterministic and the stopping
    rule is a pure function of cell results, the plan itself is
    deterministic: any jobs count, cache state, or mid-sweep
    ``--resume`` reproduces the identical batch sequence.
    """
    from repro.experiments.executors import SweepExecutor
    from repro.experiments.parallel import RunSpec

    spec.validate()
    adaptive = (spec.adaptive or AdaptiveConfig()).validate()
    pool = build_seed_pool(spec.seeds, adaptive.max_seeds)
    baseline = adaptive.baseline or default_baseline(spec.protocols)
    stride = _unpaired_stride(pool)
    offsets = {
        name: (0 if adaptive.paired else index * stride)
        for index, name in enumerate(spec.protocols)
    }
    executor = SweepExecutor.for_spec(spec, cache_dir=cache_dir, resume=resume)

    result = AdaptiveResult(
        name=spec.name, baseline=baseline, config=adaptive, seed_pool=pool,
    )
    throughputs: Dict[str, List[float]] = {p: [] for p in spec.protocols}
    active = list(spec.protocols)
    consumed = 0
    batch_index = 0
    while active and consumed < len(pool):
        batch_seeds = pool[consumed:consumed + adaptive.batch_size]
        batch_protocols = tuple(active)
        specs = [
            RunSpec(
                protocol=protocol,
                config=spec.config,
                seed=seed + offsets[protocol],
            )
            for seed in batch_seeds
            for protocol in batch_protocols
        ]
        outcomes = executor.execute(specs, progress=progress)
        for outcome in outcomes:
            run = outcome.result
            result.runs.append(run)
            if run.error is None:
                throughputs[outcome.spec.protocol].append(
                    run.throughput_bps
                )
        consumed += len(batch_seeds)

        baseline_values = throughputs[baseline]
        denominator = mean(baseline_values) if baseline_values else 0.0
        decisions = tuple(
            _decide(
                protocol,
                throughputs[protocol],
                seeds_spent=consumed,
                denominator=denominator,
                adaptive=adaptive,
                pool_exhausted=consumed >= len(pool),
            )
            for protocol in batch_protocols
        )
        batch = AdaptiveBatch(
            index=batch_index,
            seeds=tuple(batch_seeds),
            protocols=batch_protocols,
            decisions=decisions,
        )
        result.batches.append(batch)
        active = [d.protocol for d in decisions if not d.stopped]
        batch_index += 1
    return result
