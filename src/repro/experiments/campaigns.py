"""Fault campaigns: importance-weighted sampling of the FaultPlan space.

The adaptive planner (:mod:`repro.experiments.adaptive`) spends seeds
where the *variance* is.  This module spends them where the *events*
are: the outage storms, regional blackouts, and flapping bursts that
uniform fault sampling almost never draws, yet which decide whether a
metric's paper-claimed gains survive in the field.

Severity model
--------------
Every campaign draw picks a parametric fault *generator* (an
independent outage storm, a correlated disc outage, a flapping burst,
or an intensity ramp) and a scalar severity ``theta`` in (0, 1) that
scales how many nodes it touches and for how long.  Under the
**nominal** fault distribution -- the world whose tail probabilities we
actually want -- severity follows the mild-biased power law

    p(theta) = k * (1 - theta)^(k - 1)        (k = ``nominal_shape``)

so severe schedules are rare, exactly like production outages.  The
planner *samples* from a severe-tilted defensive **mixture** instead,

    q(theta) = a * p(theta) + (1 - a) * l * theta^(l - 1)

with ``l = proposal_shape`` and ``a = DEFENSIVE_MIX``, and attaches the
likelihood ratio ``w = p(theta) / q(theta)`` to each draw.  The nominal
component in the mixture bounds every weight by ``1 / a`` (Hesterberg's
defensive importance sampling), so a single mild draw can never hijack
the self-normalizer no matter how aggressive the severe tilt is.  Self-normalized importance-weighted estimators
(:mod:`repro.analysis.stats`) then recover unbiased nominal-world tail
estimates -- P[delivery < ``tail_fraction`` x fault-free baseline] --
from draws concentrated where the events actually happen, with
effective-sample-size diagnostics keeping the weights honest.
``importance = false`` disables the tilt and samples the nominal
distribution directly (all weights 1.0) -- the vanilla Monte Carlo arm
the benchmark compares against.

Everything that is *structural* about a draw (which nodes, exact window
placement) is sampled identically under both distributions, so those
factors cancel in the weight; only severity is tilted.

Pairing and replay
------------------
Each drawn fault configuration runs against every protocol on the
spec's seeds, preceded by a fault-free common-random-number baseline on
the same seeds: per-(protocol, seed) ratios de-noise the degradation
the same way paired CRN comparisons de-noise protocol deltas.  Draws
are pure functions of ``(master_seed, draw index, seed)`` via
:func:`~repro.sim.rng.derive_seed`, execution routes through the
ordinary executor (inline or supervised workers), and the planner
journals one ``campaign-plan`` record per draw -- generator, theta,
weight, per-seed fault digests -- so ``repro run --campaign --resume``
replays the identical plan bit for bit.

Sources are never fully silenced: generators trim fault windows on
multicast source nodes so the final ``SOURCE_GUARD_FRACTION`` of the
traffic interval stays up (a fully covered source would measure
nothing; :meth:`FaultPlan.assert_source_uptime` rejects such plans).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import asdict, dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.analysis.stats import (
    mean,
    weight_diagnostics,
    weighted_mean,
    weighted_mean_ci,
    weighted_tail_probability,
    weighted_tail_probability_ci,
)
from repro.experiments.faults import FaultPlan, FlappingSpec, OutageWindow
from repro.experiments.results import RunResult
from repro.sim.rng import RngRegistry, derive_seed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (spec -> here)
    from repro.experiments.scenarios import SimulationScenarioConfig
    from repro.experiments.spec import ExperimentSpec

#: Journal record kind of per-draw plan records
#: (:meth:`~repro.experiments.resilience.SweepJournal.append_plan`).
CAMPAIGN_PLAN_KEY = "campaign-plan"

#: Fraction of the traffic interval, at its end, during which multicast
#: source nodes are guaranteed up: generator windows on source nodes
#: are clipped to end before this guard starts.
SOURCE_GUARD_FRACTION = 0.25

#: Severity draws are clamped into [EPS, 1 - EPS] so densities and
#: likelihood ratios stay finite at the (measure-zero) endpoints.
_THETA_EPS = 1e-9

#: Defensive-mixture fraction: the proposal draws this share of its
#: severities from the *nominal* distribution and the rest from the
#: severe power law.  A pure severe tilt fails to dominate the nominal
#: near theta = 0, giving the occasional mild draw an unbounded weight
#: that collapses the effective sample size; mixing the nominal back in
#: caps every weight at ``1 / DEFENSIVE_MIX`` while keeping roughly
#: half the draws concentrated where the rare events live.
DEFENSIVE_MIX = 0.5

GENERATOR_KINDS = ("storm", "regional", "flapping", "ramp")

#: Flapping period (seconds) of ``kind = "flapping"`` generators.
FLAPPING_PERIOD_S = 8.0
#: Disc radius of ``kind = "regional"`` generators at severity 1, as a
#: fraction of the larger area dimension.
REGIONAL_RADIUS_FRACTION = 0.35
#: Number of rising-intensity segments of ``kind = "ramp"`` generators.
RAMP_STEPS = 4


@dataclass
class FaultGeneratorSpec:
    """One parametric fault generator in a campaign's mixture.

    ``weight`` is the generator's relative draw probability.  The
    mixture is identical under the nominal and proposal distributions,
    so generator choice cancels in the importance weight -- only the
    severity tilt contributes.
    """

    #: "storm" (independent per-node outages), "regional" (one disc of
    #: nodes down together), "flapping" (marginal-router bursts), or
    #: "ramp" (outage density rising over the run).
    kind: str = "storm"
    #: Relative probability of drawing this generator.
    weight: float = 1.0
    #: Fraction of the mesh a generator may touch at severity 1.
    max_node_fraction: float = 0.5
    #: Longest single outage at severity 1, as a fraction of the
    #: traffic interval.
    max_outage_fraction: float = 0.6

    def validate(self) -> "FaultGeneratorSpec":
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(
                f"unknown fault generator kind {self.kind!r}; "
                f"valid kinds: {', '.join(GENERATOR_KINDS)}"
            )
        if not self.weight > 0:
            raise ValueError(
                f"generator weight must be positive, got {self.weight!r}"
            )
        for name in ("max_node_fraction", "max_outage_fraction"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(
                    f"generator {name} must lie in (0, 1], got {value!r}"
                )
        return self


def default_generators() -> Tuple[FaultGeneratorSpec, ...]:
    """The stock mixture: one generator of every kind, equal weight."""
    return tuple(FaultGeneratorSpec(kind=kind) for kind in GENERATOR_KINDS)


@dataclass
class CampaignConfig:
    """The ``[campaign]`` section of an experiment spec."""

    #: Fault configurations sampled per campaign.
    draws: int = 8
    #: Master seed for the draw streams (generator choice, severity,
    #: per-seed window placement).  The whole plan is a pure function
    #: of this seed plus the spec's scenario config and seed list.
    master_seed: int = 0
    #: Nominal severity shape k: density k(1-theta)^(k-1).  Larger k =
    #: severe faults rarer in the world being estimated.
    nominal_shape: float = 3.0
    #: Severe-component shape l of the defensive mixture proposal:
    #: density l*theta^(l-1), biased toward severe configurations (the
    #: other ``DEFENSIVE_MIX`` of the mixture is the nominal itself).
    #: Only used while ``importance`` is on.
    proposal_shape: float = 3.0
    #: Importance sampling on (draw severities from the proposal,
    #: attach likelihood-ratio weights) or off (draw the nominal
    #: distribution directly, all weights 1.0 -- the vanilla Monte
    #: Carlo arm the benchmark compares against).
    importance: bool = True
    #: Tail event: per-draw relative delivery (faulted / fault-free,
    #: paired per seed) below this fraction.
    tail_fraction: float = 0.5
    #: Verdict baseline protocol; None picks "odmrp" when present, else
    #: registry order (the same rule as report.py / adaptive).
    baseline: Optional[str] = None
    #: Generator mixture; empty = :func:`default_generators`.
    generators: Tuple[FaultGeneratorSpec, ...] = ()

    def __post_init__(self) -> None:
        self.generators = tuple(self.generators)

    def validate(self) -> "CampaignConfig":
        if not isinstance(self.draws, int) or isinstance(self.draws, bool) \
                or self.draws < 1:
            raise ValueError(
                f"campaign.draws must be a positive integer, "
                f"got {self.draws!r}"
            )
        if not isinstance(self.master_seed, int) \
                or isinstance(self.master_seed, bool):
            raise ValueError(
                f"campaign.master_seed must be an integer, "
                f"got {self.master_seed!r}"
            )
        if not self.nominal_shape >= 1.0:
            raise ValueError(
                f"campaign.nominal_shape must be >= 1 (mild-biased power "
                f"law), got {self.nominal_shape!r}"
            )
        if not self.proposal_shape >= 1.0:
            raise ValueError(
                f"campaign.proposal_shape must be >= 1, "
                f"got {self.proposal_shape!r}"
            )
        if not 0.0 < self.tail_fraction < 1.0:
            raise ValueError(
                f"campaign.tail_fraction must lie in (0, 1), "
                f"got {self.tail_fraction!r}"
            )
        for generator in self.generators:
            generator.validate()
        return self

    def resolved_generators(self) -> Tuple[FaultGeneratorSpec, ...]:
        return self.generators or default_generators()


# ----------------------------------------------------------------------
# Severity sampling (pure math; no simulator anywhere near this)


def severity_from_uniform(
    u: float, campaign: CampaignConfig
) -> Tuple[float, float]:
    """Map one uniform draw to ``(theta, importance weight)``.

    Inverse-CDF sampling throughout.  With ``importance`` off the
    nominal CDF ``1 - (1-t)^k`` inverts to ``theta = 1 - (1-u)^(1/k)``
    and the weight is exactly 1.  With it on, ``u`` drives the
    defensive mixture: the first ``DEFENSIVE_MIX`` of uniform space
    samples the nominal component (rescaled ``u`` stays uniform), the
    rest samples the severe power law ``q(t) = l t^(l-1)`` via its CDF
    ``t^l``; the weight is the exact mixture likelihood ratio
    ``p / (a p + (1-a) q)``, which lies in ``(0, 1/a]`` by
    construction.  Theta is clamped to ``[_THETA_EPS, 1 - _THETA_EPS]``
    so both densities stay finite at the endpoints.
    """
    k = campaign.nominal_shape
    if not campaign.importance:
        theta = 1.0 - (1.0 - u) ** (1.0 / k)
        theta = min(max(theta, _THETA_EPS), 1.0 - _THETA_EPS)
        return theta, 1.0
    lam = campaign.proposal_shape
    mix = DEFENSIVE_MIX
    if u < mix:
        theta = 1.0 - (1.0 - u / mix) ** (1.0 / k)
    else:
        theta = ((u - mix) / (1.0 - mix)) ** (1.0 / lam)
    theta = min(max(theta, _THETA_EPS), 1.0 - _THETA_EPS)
    nominal = k * (1.0 - theta) ** (k - 1.0)
    severe = lam * theta ** (lam - 1.0)
    return theta, nominal / (mix * nominal + (1.0 - mix) * severe)


# ----------------------------------------------------------------------
# Fault materialization: (generator, theta, scenario, seed) -> FaultPlan


def _source_ids(config: "SimulationScenarioConfig", seed: int) -> List[int]:
    """The multicast source nodes a run with this seed will draw.

    Mirrors ``build_simulation_scenario``: membership comes from the
    run seed's "membership" stream, so the planner knows the sources
    without building a simulator.
    """
    from repro.traffic.groups import build_group_scenario

    groups = build_group_scenario(
        config.num_nodes,
        config.num_groups,
        config.members_per_group,
        config.sources_per_group,
        rng=RngRegistry(seed).stream("membership"),
    )
    return [source for _gid, source in groups.all_sources()]


def _node_positions(config: "SimulationScenarioConfig", seed: int):
    """The node placement a run with this seed will draw (same stream
    and connectivity constraint as ``build_simulation_scenario``)."""
    from repro.net.topology import random_topology

    return random_topology(
        config.num_nodes,
        config.area_width_m,
        config.area_height_m,
        rng=RngRegistry(seed).stream("topology"),
        connectivity_range_m=config.network.nominal_range_m,
    )


def _protect_sources(
    outages: List[OutageWindow],
    flapping: List[FlappingSpec],
    source_ids: Sequence[int],
    warmup_s: float,
    duration_s: float,
) -> Tuple[Tuple[OutageWindow, ...], Tuple[FlappingSpec, ...]]:
    """Clip faults on source nodes so the guard tail stays up."""
    protected = set(source_ids)
    guard_start = duration_s - SOURCE_GUARD_FRACTION * (duration_s - warmup_s)
    kept_outages = []
    for window in outages:
        if window.node_id in protected:
            if window.start_s >= guard_start:
                continue
            if window.end_s > guard_start:
                window = OutageWindow(
                    window.node_id, window.start_s, guard_start
                )
        kept_outages.append(window)
    kept_flapping = []
    for flap in flapping:
        if flap.node_id in protected:
            if flap.start_s >= guard_start:
                continue
            if flap.until_s > guard_start:
                flap = replace(flap, until_s=guard_start)
        kept_flapping.append(flap)
    return tuple(kept_outages), tuple(kept_flapping)


def materialize_fault_plan(
    generator: FaultGeneratorSpec,
    theta: float,
    config: "SimulationScenarioConfig",
    seed: int,
    rng: random.Random,
) -> FaultPlan:
    """Turn (generator, severity) into a concrete per-seed fault plan.

    All randomness comes from ``rng`` (structural placement -- shared
    by nominal and proposal, so it cancels in the importance weight);
    severity ``theta`` scales node counts, window lengths, and flapping
    duty cycles.  Windows land inside the traffic interval and source
    nodes keep the guard tail up.
    """
    num_nodes = config.num_nodes
    interval = config.duration_s - config.warmup_s
    if interval <= 0:
        return FaultPlan()
    max_victims = max(
        1, min(num_nodes, round(generator.max_node_fraction * num_nodes))
    )
    outages: List[OutageWindow] = []
    flapping: List[FlappingSpec] = []

    def _outage(node_id: int, start_s: float, length_s: float) -> None:
        length_s = max(length_s, 1e-3)
        end_s = min(start_s + length_s, config.duration_s)
        if end_s > start_s:
            outages.append(OutageWindow(node_id, start_s, end_s))

    if generator.kind == "storm":
        victims = rng.sample(
            range(num_nodes), max(1, round(theta * max_victims))
        )
        for victim in victims:
            length = (
                theta * generator.max_outage_fraction * interval
                * rng.uniform(0.5, 1.0)
            )
            start = config.warmup_s + rng.uniform(
                0.0, max(interval - length, 0.0)
            )
            _outage(victim, start, length)
    elif generator.kind == "regional":
        positions = _node_positions(config, seed)
        center_x = rng.uniform(0.0, config.area_width_m)
        center_y = rng.uniform(0.0, config.area_height_m)
        radius = theta * REGIONAL_RADIUS_FRACTION * max(
            config.area_width_m, config.area_height_m
        )
        length = theta * generator.max_outage_fraction * interval
        start = config.warmup_s + rng.uniform(
            0.0, max(interval - length, 0.0)
        )
        for node_id, position in enumerate(positions):
            dx = position.x - center_x
            dy = position.y - center_y
            if math.hypot(dx, dy) <= radius:
                _outage(node_id, start, length)
    elif generator.kind == "flapping":
        victims = rng.sample(
            range(num_nodes), max(1, round(theta * max_victims))
        )
        down_fraction = min(0.9, 0.2 + 0.7 * theta)
        span = max(theta * interval, min(FLAPPING_PERIOD_S, interval))
        for victim in victims:
            start = config.warmup_s + rng.uniform(
                0.0, max(interval - span, 0.0)
            )
            flapping.append(FlappingSpec(
                node_id=victim,
                start_s=start,
                period_s=FLAPPING_PERIOD_S,
                down_fraction=down_fraction,
                until_s=min(start + span, config.duration_s),
            ))
    elif generator.kind == "ramp":
        steps = RAMP_STEPS
        segment = interval / steps
        for step in range(steps):
            intensity = theta * (step + 1) / steps
            count = round(intensity * max_victims)
            if count < 1:
                continue
            victims = rng.sample(range(num_nodes), count)
            segment_start = config.warmup_s + step * segment
            for victim in victims:
                length = intensity * segment * rng.uniform(0.5, 1.0)
                start = segment_start + rng.uniform(
                    0.0, max(segment - length, 0.0)
                )
                _outage(victim, start, length)
    else:  # pragma: no cover - validate() rejects unknown kinds
        raise ValueError(f"unknown generator kind {generator.kind!r}")

    protected_outages, protected_flapping = _protect_sources(
        outages, flapping, _source_ids(config, seed),
        config.warmup_s, config.duration_s,
    )
    return FaultPlan(outages=protected_outages, flapping=protected_flapping)


# ----------------------------------------------------------------------
# The campaign plan


def plan_digest(plan: FaultPlan) -> str:
    """Content hash of a fault plan (journal / replay comparisons)."""
    payload = json.dumps(asdict(plan), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass
class CampaignDraw:
    """One sampled fault configuration, materialized per seed."""

    index: int
    generator: str
    theta: float
    weight: float
    #: seed -> concrete plan that runs on that seed's topology.
    plans: Dict[int, FaultPlan] = field(default_factory=dict)

    def mean_downtime_s(self) -> float:
        """Injected node-seconds of downtime, averaged over seeds."""
        if not self.plans:
            return 0.0
        return mean([
            plan.merged_downtime_s() for plan in self.plans.values()
        ])

    def plan_dict(self) -> Dict[str, object]:
        return {
            "draw": self.index,
            "generator": self.generator,
            "theta": self.theta,
            "weight": self.weight,
            "faults": {
                str(seed): {
                    "digest": plan_digest(plan),
                    **plan.severity_summary(),
                }
                for seed, plan in sorted(self.plans.items())
            },
        }


def draw_campaign(
    campaign: CampaignConfig,
    config: "SimulationScenarioConfig",
    seeds: Sequence[int],
) -> List[CampaignDraw]:
    """Sample the whole campaign plan (no simulation involved).

    Deterministic: draw ``i``'s generator choice and severity come from
    the stream ``campaign.draw.{i}`` of the master seed, and the
    per-seed window placement from ``campaign.draw.{i}.seed.{s}`` -- so
    the plan is a pure function of (campaign, scenario config, seeds)
    and any resume or cache state reproduces it bit for bit.
    """
    campaign.validate()
    generators = [g.validate() for g in campaign.resolved_generators()]
    weights = [g.weight for g in generators]
    draws: List[CampaignDraw] = []
    for index in range(campaign.draws):
        rng = random.Random(
            derive_seed(campaign.master_seed, f"campaign.draw.{index}")
        )
        generator = rng.choices(generators, weights=weights, k=1)[0]
        theta, weight = severity_from_uniform(rng.random(), campaign)
        plans = {
            seed: materialize_fault_plan(
                generator, theta, config, seed,
                random.Random(derive_seed(
                    campaign.master_seed,
                    f"campaign.draw.{index}.seed.{seed}",
                )),
            )
            for seed in seeds
        }
        draws.append(CampaignDraw(
            index=index,
            generator=generator.kind,
            theta=theta,
            weight=weight,
            plans=plans,
        ))
    return draws


# ----------------------------------------------------------------------
# Result analysis


@dataclass
class ProtocolRobustness:
    """One protocol's campaign verdict row."""

    protocol: str
    #: Fault-free normalized throughput (vs the baseline protocol).
    fault_free_gain: float
    #: Importance-weighted faulted normalized throughput.
    faulted_gain: float
    #: Self-normalized P[relative delivery < tail_fraction].
    tail_probability: float
    tail_ci_low: float
    tail_ci_high: float
    #: Weighted mean relative delivery (faulted / fault-free, paired).
    mean_relative_delivery: float
    ess: float
    failed_runs: int
    #: "survives" | "inverts" | "baseline" | "no-claim".
    verdict: str


@dataclass
class CampaignResult:
    """A finished fault campaign: plan, runs, and weighted estimates."""

    name: str
    baseline: str
    config: CampaignConfig
    seeds: Tuple[int, ...]
    protocols: Tuple[str, ...]
    draws: List[CampaignDraw] = field(default_factory=list)
    baseline_runs: List[RunResult] = field(default_factory=list)
    #: Faulted runs grouped per draw, in draw order.
    draw_runs: List[List[RunResult]] = field(default_factory=list)

    @property
    def runs(self) -> List[RunResult]:
        """Every run the campaign executed (baseline first)."""
        flat = list(self.baseline_runs)
        for runs in self.draw_runs:
            flat.extend(runs)
        return flat

    @property
    def total_runs(self) -> int:
        return len(self.baseline_runs) + sum(
            len(runs) for runs in self.draw_runs
        )

    def weights(self) -> List[float]:
        return [draw.weight for draw in self.draws]

    def weight_diagnostics(self):
        return weight_diagnostics(self.weights())

    def plan_dict(self) -> Dict[str, object]:
        """The sampled plan as JSON-stable primitives.

        The determinism surface: two executions of the same spec --
        any jobs count, cache state, or resume point -- must
        produce equal plan dicts, weights included.
        """
        return {
            "schema": 1,
            "name": self.name,
            "baseline": self.baseline,
            "draws": self.config.draws,
            "master_seed": self.config.master_seed,
            "nominal_shape": self.config.nominal_shape,
            "proposal_shape": self.config.proposal_shape,
            "importance": self.config.importance,
            "tail_fraction": self.config.tail_fraction,
            "seeds": list(self.seeds),
            "protocols": list(self.protocols),
            "generators": [
                asdict(g) for g in self.config.resolved_generators()
            ],
            "plan": [draw.plan_dict() for draw in self.draws],
            "total_runs": self.total_runs,
        }

    # -- paired-CRN lookups -------------------------------------------

    def _baseline_by_cell(self) -> Dict[Tuple[str, int], RunResult]:
        return {
            (run.protocol, run.topology_seed): run
            for run in self.baseline_runs
            if run.error is None
        }

    def fault_free_throughput(self, protocol: str) -> float:
        values = [
            run.throughput_bps for run in self.baseline_runs
            if run.protocol == protocol and run.error is None
        ]
        return mean(values) if values else 0.0

    def relative_delivery(
        self, draw_index: int, protocol: str
    ) -> Optional[float]:
        """Faulted / fault-free delivered packets, paired per seed.

        The common-random-number ratio: numerator and denominator ran
        on the identical topology, membership, and fading, so the ratio
        isolates what the injected faults cost.  ``None`` when no seed
        has both a clean faulted run and a delivering baseline.
        """
        baseline = self._baseline_by_cell()
        ratios = []
        for run in self.draw_runs[draw_index]:
            if run.protocol != protocol or run.error is not None:
                continue
            reference = baseline.get((protocol, run.topology_seed))
            if reference is None or reference.delivered_packets <= 0:
                continue
            ratios.append(
                run.delivered_packets / reference.delivered_packets
            )
        return mean(ratios) if ratios else None

    def _relative_series(
        self, protocol: str
    ) -> Tuple[List[float], List[float]]:
        """Per-draw relative delivery + weights (draws with data)."""
        values, weights = [], []
        for draw in self.draws:
            ratio = self.relative_delivery(draw.index, protocol)
            if ratio is None:
                continue
            values.append(ratio)
            weights.append(draw.weight)
        return values, weights

    def tail_probability(
        self, protocol: str
    ) -> Tuple[float, Tuple[float, float]]:
        """Self-normalized P[relative delivery < tail_fraction] + CI."""
        values, weights = self._relative_series(protocol)
        if not values:
            return 0.0, (0.0, 0.0)
        threshold = self.config.tail_fraction
        probability = weighted_tail_probability(values, weights, threshold)
        return probability, weighted_tail_probability_ci(
            values, weights, threshold
        )

    def mean_relative_delivery(
        self, protocol: str
    ) -> Tuple[float, Tuple[float, float]]:
        """Weighted mean relative delivery under nominal faults + CI."""
        values, weights = self._relative_series(protocol)
        if not values:
            return 0.0, (0.0, 0.0)
        return (
            weighted_mean(values, weights),
            weighted_mean_ci(values, weights),
        )

    def degradation_curve(
        self, protocol: str, buckets: int = 3
    ) -> List[Dict[str, float]]:
        """Relative delivery vs injected downtime, severity-bucketed.

        Draws are sorted by mean injected downtime and split into
        ``buckets`` equal groups; each row reports the bucket's
        downtime range and its *weighted* mean relative delivery --
        the per-metric degradation curve the Robustness report plots
        as a table.
        """
        rows: List[Dict[str, float]] = []
        scored = []
        for draw in self.draws:
            ratio = self.relative_delivery(draw.index, protocol)
            if ratio is None:
                continue
            scored.append((draw.mean_downtime_s(), draw.weight, ratio))
        if not scored:
            return rows
        scored.sort()
        count = min(buckets, len(scored))
        per_bucket = len(scored) / count
        for bucket in range(count):
            chunk = scored[
                round(bucket * per_bucket):round((bucket + 1) * per_bucket)
            ]
            if not chunk:
                continue
            rows.append({
                "downtime_low_s": chunk[0][0],
                "downtime_high_s": chunk[-1][0],
                "draws": float(len(chunk)),
                "relative_delivery": weighted_mean(
                    [ratio for _dt, _w, ratio in chunk],
                    [weight for _dt, weight, ratio in chunk],
                ),
            })
        return rows

    def faulted_gain(self, protocol: str) -> float:
        """Weighted mean of (protocol / baseline-protocol) throughput
        under faults, paired per (draw, seed)."""
        by_cell: Dict[Tuple[int, str, int], RunResult] = {}
        for draw_index, runs in enumerate(self.draw_runs):
            for run in runs:
                if run.error is None:
                    by_cell[(draw_index, run.protocol, run.topology_seed)] \
                        = run
        values, weights = [], []
        for draw in self.draws:
            ratios = []
            for seed in self.seeds:
                mine = by_cell.get((draw.index, protocol, seed))
                base = by_cell.get((draw.index, self.baseline, seed))
                if mine is None or base is None \
                        or base.throughput_bps <= 0:
                    continue
                ratios.append(mine.throughput_bps / base.throughput_bps)
            if ratios:
                values.append(mean(ratios))
                weights.append(draw.weight)
        return weighted_mean(values, weights) if values else 0.0

    def failed_faulted_runs(self, protocol: str) -> int:
        return sum(
            1
            for runs in self.draw_runs
            for run in runs
            if run.protocol == protocol and run.error is not None
        )

    def robustness(self) -> List[ProtocolRobustness]:
        """Per-protocol verdict rows, spec protocol order."""
        baseline_throughput = self.fault_free_throughput(self.baseline)
        diagnostics = self.weight_diagnostics()
        rows: List[ProtocolRobustness] = []
        for protocol in self.protocols:
            fault_free = self.fault_free_throughput(protocol)
            fault_free_gain = (
                fault_free / baseline_throughput
                if baseline_throughput > 0 else 0.0
            )
            faulted_gain = (
                1.0 if protocol == self.baseline
                else self.faulted_gain(protocol)
            )
            probability, (ci_low, ci_high) = self.tail_probability(protocol)
            relative, _ci = self.mean_relative_delivery(protocol)
            if protocol == self.baseline:
                verdict = "baseline"
            elif fault_free_gain <= 1.0:
                verdict = "no-claim"
            elif faulted_gain >= 1.0:
                verdict = "survives"
            else:
                verdict = "inverts"
            rows.append(ProtocolRobustness(
                protocol=protocol,
                fault_free_gain=fault_free_gain,
                faulted_gain=faulted_gain,
                tail_probability=probability,
                tail_ci_low=ci_low,
                tail_ci_high=ci_high,
                mean_relative_delivery=relative,
                ess=diagnostics.ess,
                failed_runs=self.failed_faulted_runs(protocol),
                verdict=verdict,
            ))
        return rows

    def headline(self) -> str:
        """One-line robustness verdict for the report."""
        rows = self.robustness()
        claimed = [r for r in rows if r.verdict in ("survives", "inverts")]
        if not claimed:
            return (
                "No protocol showed a fault-free gain over "
                f"{self.baseline}; nothing to stress."
            )
        survivors = [r.protocol for r in claimed if r.verdict == "survives"]
        inverted = [r.protocol for r in claimed if r.verdict == "inverts"]
        parts = [
            f"{len(survivors)}/{len(claimed)} paper-claimed gains survive "
            f"injected faults"
        ]
        if survivors:
            parts.append(f"survive: {', '.join(survivors)}")
        if inverted:
            parts.append(f"invert: {', '.join(inverted)}")
        return "; ".join(parts) + "."


# ----------------------------------------------------------------------
# The campaign executor loop


def run_campaign_experiment(
    spec: "ExperimentSpec",
    progress=None,
    cache_dir: Optional[str] = None,
    resume: bool = False,
    journal_path: Optional[str] = None,
) -> CampaignResult:
    """Run ``spec`` as a fault campaign; returns plan, runs, estimates.

    Phase 0 executes the fault-free CRN baseline (every protocol on the
    spec's seeds, the exact cells an exhaustive sweep would run); each
    subsequent phase executes one sampled fault configuration against
    every (protocol, seed) cell with ``config.faults`` replaced by the
    draw's per-seed plan.  Every phase routes through one
    :class:`~repro.experiments.executors.SweepExecutor`, so cache
    and resilience behavior match ordinary sweeps -- distinct fault
    plans hash to distinct cache keys.  After each draw a
    ``campaign-plan`` record lands in the executor's journal (when it
    keeps one): the plan is a pure function of the master seed, so
    ``--resume`` reproduces it bit for bit and the journaled records
    double as a tamper check.
    """
    from repro.experiments.adaptive import default_baseline
    from repro.experiments.executors import SweepExecutor
    from repro.experiments.parallel import RunSpec
    from repro.experiments.resilience import SweepJournal

    spec.validate()
    campaign = (spec.campaign or CampaignConfig()).validate()
    baseline = campaign.baseline or default_baseline(spec.protocols)
    seeds = tuple(spec.seeds)
    draws = draw_campaign(campaign, spec.config, seeds)
    executor = SweepExecutor.for_spec(
        spec, cache_dir=cache_dir, resume=resume, journal_path=journal_path,
    )

    def _execute(specs):
        return executor.execute(specs, progress=progress)

    result = CampaignResult(
        name=spec.name,
        baseline=baseline,
        config=campaign,
        seeds=seeds,
        protocols=tuple(spec.protocols),
        draws=draws,
    )
    baseline_specs = [
        RunSpec(protocol=protocol, config=spec.config, seed=seed)
        for seed in seeds
        for protocol in spec.protocols
    ]
    result.baseline_runs = [
        outcome.result for outcome in _execute(baseline_specs)
    ]
    for draw in draws:
        draw_specs = [
            RunSpec(
                protocol=protocol,
                config=replace(spec.config, faults=draw.plans[seed]),
                seed=seed,
            )
            for seed in seeds
            for protocol in spec.protocols
        ]
        result.draw_runs.append(
            [outcome.result for outcome in _execute(draw_specs)]
        )
        if executor.journal_path is not None:
            SweepJournal.append_plan(
                executor.journal_path, CAMPAIGN_PLAN_KEY, spec.name, draw.index,
                draw.plan_dict(),
            )
    return result
