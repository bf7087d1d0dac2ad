"""Differential scenario fuzzing: random specs, one oracle, many paths.

The determinism contract says a run is fully determined by its
``(protocol, config, seed)`` triple -- whether it executes inline, in a
pool worker, replayed from the cache, resumed from a journal, or with
telemetry attached -- and so is a planner's plan.  This module *hunts*
for violations of that contract instead of asserting it on one
hand-picked scenario:

* :func:`random_spec` draws a small random :class:`ExperimentSpec`
  (topology size, metric/protocol mix, seeds, fault schedules, sweep
  kind) from a seeded generator, so every fuzz case is itself
  replayable.
* :func:`differential_check` runs the sweep a spec declares (grid or
  adaptive plan) inline as the oracle, then through one matrix of
  paths -- jobs=N, the pure-Python PHY passes, cold then warm
  cache, interrupt + resume, telemetry -- and reports any path whose
  runs or plan are not bit-identical.  It is the one bit-identity
  oracle.
* :func:`run_with_invariants` replays a spec serially with the runtime
  invariant monitors attached (:mod:`repro.validation.invariants`).
* :func:`write_replay_spec` turns a caught
  :class:`~repro.validation.invariants.InvariantViolation` into a
  one-run spec file for ``repro validate --spec``.

The CLI subcommand (``repro validate``), ``scripts/bench_check.py`` and
the ``pytest -m fuzz`` / ``-m perfsmoke`` tiers are thin wrappers over
these functions.
"""

from __future__ import annotations

import dataclasses
import os
import random
import signal
import tempfile
import warnings
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.adaptive import (
    ADAPTIVE_PLAN_KEY,
    AdaptiveConfig,
    run_adaptive_experiment,
)
from repro.experiments.faults import FaultPlan, FlappingSpec, OutageWindow
from repro.experiments.parallel import sweep_specs
from repro.experiments.resilience import SweepJournal
from repro.experiments.results import RunResult
from repro.experiments.runner import run_experiment, run_protocol
from repro.experiments.scenarios import SimulationScenarioConfig
from repro.experiments.spec import ExperimentSpec
from repro.phy import kernel
from repro.sim.rng import derive_seed
from repro.telemetry.hub import TelemetryConfig
from repro.validation.invariants import InvariantViolation, ValidationConfig

#: Protocol mix the fuzzer draws from: both router families and every
#: paper metric, so the differential paths cover metric-specific state.
FUZZ_PROTOCOLS: Tuple[str, ...] = (
    "odmrp",
    "etx",
    "spp",
    "metx",
    "pp",
    "maodv",
    "maodv-etx",
    "maodv-spp",
)


def random_spec(index: int, master_seed: int = 0) -> ExperimentSpec:
    """Draw fuzz case ``index``: a small, fully replayable sweep spec.

    The generator RNG is derived from ``(master_seed, index)`` alone, so
    ``repro validate --fuzz N`` enumerates the same cases on every
    machine and a failing index can be re-drawn in isolation.  The
    sweep kind cycles with ``index % 2`` -- grid, then ``[adaptive]``
    plan -- without an RNG draw of its own, so both kinds keep the
    scenario, fault plan included, that the case draws.
    """
    kind = ("grid", "adaptive")[index % 2]
    rng = random.Random(derive_seed(master_seed, f"fuzz.{index}"))
    num_nodes = rng.randint(8, 14)
    duration_s = float(rng.choice((8, 10, 12)))
    warmup_s = float(rng.randint(2, 3))
    protocols = tuple(
        rng.sample(FUZZ_PROTOCOLS, k=rng.randint(1, 2))
    )
    seeds = tuple(sorted(rng.sample(range(1, 64), k=rng.randint(1, 2))))

    outages: List[OutageWindow] = []
    flapping: List[FlappingSpec] = []
    if rng.random() < 0.5:
        start = rng.uniform(warmup_s, 0.6 * duration_s)
        outages.append(
            OutageWindow(
                node_id=rng.randrange(num_nodes),
                start_s=round(start, 3),
                end_s=round(start + rng.uniform(1.0, 3.0), 3),
            )
        )
    if rng.random() < 0.25:
        flapping.append(
            FlappingSpec(
                node_id=rng.randrange(num_nodes),
                start_s=warmup_s,
                period_s=2.0,
                down_fraction=0.3,
                until_s=round(0.8 * duration_s, 3),
            )
        )

    side = float(rng.randint(450, 650))
    config = SimulationScenarioConfig(
        num_nodes=num_nodes,
        area_width_m=side,
        area_height_m=side,
        num_groups=1,
        members_per_group=rng.randint(2, 3),
        rate_pps=10.0,
        duration_s=duration_s,
        warmup_s=warmup_s,
        faults=FaultPlan(outages=tuple(outages), flapping=tuple(flapping)),
    )
    return ExperimentSpec(
        name=f"fuzz-{master_seed}-{index}",
        description=(
            f"differential fuzz case {index}, {kind} "
            f"(master seed {master_seed})"
        ),
        protocols=protocols,
        seeds=seeds,
        config=config,
        # The sequential planner, capped to the case's own seed pool.
        adaptive=AdaptiveConfig(
            target_half_width=0.25, batch_size=1, min_seeds=1,
            max_seeds=len(seeds), paired=True,
        ) if kind == "adaptive" else None,
    )


#: One path's ``(plan, runs)``; ``plan`` is None for a grid, else
#: ``(journal record kind, plan_dict(), the per-round records journaled)``.
Sweep = Tuple[Optional[Tuple[str, Dict[str, Any], List[Any]]], List[RunResult]]


def _sweep(
    spec: ExperimentSpec, jobs: int = 1, use_cache: bool = False,
    run_timeout_s: Optional[float] = None, **execution: Any,
) -> Sweep:
    """Run the sweep ``spec`` declares -- grid or ``[adaptive]`` plan --
    as one path; the one place the oracle names the two kinds.  The
    path's settings replace the spec's own, so nothing caches or
    journals where the caller did not say; ``execution``
    passes through to the kind's entry point."""
    spec = replace(
        spec, jobs=jobs, use_cache=use_cache, run_timeout_s=run_timeout_s,
    )
    if spec.adaptive is None:
        return None, run_experiment(spec, **execution)
    result = run_adaptive_experiment(spec, **execution)
    plan = result.plan_dict()
    return (ADAPTIVE_PLAN_KEY, plan, plan["batches"]), result.runs


def _difference(label: str, oracle: Sweep, candidate: Sweep) -> Optional[str]:
    """Describe the first divergence of a path from the oracle, if any:
    its plan first, then its runs."""
    (want_plan, baseline), (plan, results) = oracle, candidate
    if want_plan is not None and plan[1] != want_plan[1]:
        keys = sorted(
            key for key in want_plan[1] if plan[1].get(key) != want_plan[1][key]
        )
        return f"{label}: plan diverged in key(s) {keys}"
    if len(baseline) != len(results):
        return (
            f"{label}: produced {len(results)} results, "
            f"expected {len(baseline)}"
        )
    for expected, got in zip(baseline, results):
        if expected != got:
            fields = [
                f.name
                for f in dataclasses.fields(expected)
                if getattr(expected, f.name) != getattr(got, f.name)
            ]
            return (
                f"{label}: run ({expected.protocol}, seed "
                f"{expected.topology_seed}) diverged in field(s) "
                f"{fields}: baseline={expected!r} candidate={got!r}"
            )
    return None


def _interrupt_after_first() -> Callable[[str, int], None]:
    """A progress callback that SIGINTs this process once, after the
    first finished run."""
    fired: List[bool] = []

    def interrupt(protocol: str, seed: int) -> None:
        if not fired:
            fired.append(True)
            os.kill(os.getpid(), signal.SIGINT)

    return interrupt


def interrupt_and_resume(
    spec: ExperimentSpec,
    jobs: int,
    work_dir: str,
    oracle: Optional[Sweep] = None,
) -> List[Tuple[str, bool, str]]:
    """The matrix's interrupt + resume path, as ``(name, ok, detail)``.

    Journals the sweep ``spec`` declares under ``work_dir``, SIGINTs it
    after its first finished run at one job (inline, or one supervised
    worker if the spec sets ``run_timeout_s``), then resumes it at
    ``jobs``.  ``interrupt-drains``: the pass was interrupted and
    journaled at least one run, all ok, and (from two cells) fewer runs
    than cells.  ``resume-identical``: the resume executed only the
    runs the journal lacked, and its plan and runs equal the inline
    ``oracle``'s.  ``plan-journaled`` (adaptive plans only): the
    journaled plan records equal the resumed plan's.
    """
    oracle = oracle or _sweep(spec)
    cells = len(oracle[1])
    work_dir = tempfile.mkdtemp(prefix="resume-", dir=work_dir)
    journal = os.path.join(work_dir, "journal.jsonl")
    execution: Dict[str, Any] = dict(
        cache_dir=os.path.join(work_dir, "cache"), journal_path=journal,
        run_timeout_s=spec.run_timeout_s,
    )
    interrupted = False
    try:
        _sweep(spec, progress=_interrupt_after_first(), **execution)
    except KeyboardInterrupt:
        interrupted = True
    journaled = SweepJournal.replay(journal)
    drained = interrupted and len(journaled) >= 1 and (
        all(record.ok for record in journaled.values())
        and (cells < 2 or len(journaled) < cells)
    )
    executed: List[Tuple[str, int]] = []
    resumed = _sweep(
        spec, jobs=jobs, resume=True,
        progress=lambda *run: executed.append(run), **execution,
    )
    # Progress fires only for executed runs, each journaled afresh.
    missing = len(SweepJournal.replay(journal)) - len(journaled)
    divergence = _difference("resumed", oracle, resumed)
    verdicts = [
        ("interrupt-drains", drained, f"interrupted={interrupted}, "
         f"{len(journaled)}/{cells} run(s) journaled"),
        ("resume-identical", divergence is None and len(executed) == missing,
         divergence or f"{len(executed)} run(s) executed for {missing} "
         "missing from the journal; plan and runs bit-identical"),
    ]
    if resumed[0] is not None:
        kind, _plan, expected = resumed[0]
        records = SweepJournal.replay_plans(journal, kind, spec.name)
        verdicts.append((
            "plan-journaled", len(records) == len(expected) and all(
                {key: record.get(key) for key in fields} == fields
                for record, fields in zip(records, expected)
            ),
            f"{len(records)} journaled {kind} record(s) for a "
            f"{len(expected)}-round resumed plan",
        ))
    return verdicts


def differential_check(
    spec: ExperimentSpec,
    jobs: int = 2,
    work_dir: Optional[str] = None,
) -> List[str]:
    """Run the sweep ``spec`` declares (grid or ``[adaptive]`` plan)
    through every execution path; describe each
    path whose runs -- or, for a planner, ``plan_dict()`` -- are not
    bit-identical to the inline serial oracle's.

    The paths: ``jobs`` workers; one inline pass on the pure-Python
    PHY passes (``phy-python``, under :func:`repro.phy.kernel.disabled`),
    against an oracle that runs on the compiled kernel wherever it
    loads -- where it cannot, both run in Python and a warning names
    why; and, given a ``work_dir`` to hold every cache, journal and
    trace, a cache stored cold by ``jobs`` workers then replayed warm
    inline, :func:`interrupt_and_resume`, and an inline telemetry pass.
    Returns an empty list when every path agrees.
    """
    spec.validate()
    execution: Dict[str, Any] = {}
    if work_dir is not None:
        execution["cache_dir"] = os.path.join(work_dir, "fuzz-cache")
    oracle = _sweep(spec, **execution)
    errors = [
        f"baseline: run ({r.protocol}, seed {r.topology_seed}) "
        f"errored: {r.error.splitlines()[-1]}"
        for r in oracle[1]
        if r.error is not None
    ]
    if errors:
        # A crashing scenario is a finding in itself; the differential
        # passes would only echo the same traceback four more times.
        return errors

    def check(label: str, path: ExperimentSpec = spec, **settings) -> None:
        got, want = _sweep(path, **settings, **execution), oracle
        if path.config.telemetry != spec.config.telemetry:
            # Tracing adds an artifact path to each run; nothing else.
            got, want = (
                (plan, [replace(run, telemetry_path=None) for run in runs])
                for plan, runs in (got, want)
            )
        divergence = _difference(label, want, got)
        if divergence:
            errors.append(divergence)

    def with_config(**fields: Any) -> ExperimentSpec:
        return replace(spec, config=replace(spec.config, **fields))

    check(f"jobs={jobs}", jobs=jobs)
    reason = kernel.unavailable_reason()
    if reason is not None:
        warnings.warn(
            "differential_check ran no compiled PHY pass: the compiled "
            f"PHY kernel is unavailable: {reason}",
            RuntimeWarning, stacklevel=2,
        )
    with kernel.disabled():
        check("phy-python")
    if work_dir is None:
        return errors
    check("cache-cold", jobs=jobs, use_cache=True)
    check("cache-warm", use_cache=True)
    errors.extend(
        f"{name}: {detail}"
        for name, ok, detail in interrupt_and_resume(
            spec, jobs, work_dir, oracle
        )
        if not ok
    )
    check("telemetry", with_config(telemetry=TelemetryConfig(
        enabled=True, export_dir=os.path.join(work_dir, "fuzz-telemetry"),
    )))
    return errors


def run_with_invariants(
    spec: ExperimentSpec,
    monitors: Sequence[str] = (),
    check_interval_s: float = 1.0,
) -> List[RunResult]:
    """Replay every run in ``spec`` with invariant monitors attached.

    Runs serially (monitored runs are about catching bugs, not speed).
    An :class:`InvariantViolation` propagates to the caller with its
    replay triple intact.
    """
    spec.validate()
    spec = replace(spec, config=replace(
        spec.config,
        validation=ValidationConfig(
            enabled=True,
            check_interval_s=check_interval_s,
            monitors=tuple(monitors),
        ),
    ))
    return [
        run_protocol(run_spec.protocol, run_spec.seeded_config())
        for run_spec in sweep_specs(spec.config, spec.protocols, spec.seeds)
    ]


def write_replay_spec(violation: InvariantViolation, path: str) -> str:
    """Persist a violation's replay triple as a one-run spec file."""
    if violation.protocol is None or violation.config is None:
        raise ValueError(
            "violation carries no replay triple (was it raised outside "
            "an InvariantSuite?)"
        )
    config = violation.config
    if violation.seed is not None:
        config = replace(config, topology_seed=violation.seed)
    spec = ExperimentSpec(
        name=f"replay-{violation.invariant}",
        description=(
            f"replays: {violation.message} "
            f"(t={violation.time} node={violation.node_id})"
        ),
        protocols=(violation.protocol,),
        seeds=(violation.seed,) if violation.seed is not None else (1,),
        config=config,
    )
    return spec.save(path)


def default_validation_spec() -> ExperimentSpec:
    """The paper-protocol mini-sweep ``repro validate`` checks by default."""
    return ExperimentSpec(
        name="paper-mini",
        description="paper protocols, small mesh, full monitor suite",
        protocols=("odmrp", "spp", "metx"),
        seeds=(1,),
        config=SimulationScenarioConfig(
            num_nodes=12,
            area_width_m=600.0,
            area_height_m=600.0,
            num_groups=1,
            members_per_group=3,
            duration_s=15.0,
            warmup_s=5.0,
        ),
    )


def consistency_spec() -> ExperimentSpec:
    """The mini-sweep ``scripts/bench_check.py`` and the perfsmoke tier
    hold to :func:`differential_check`: two protocols on a 10-node mesh,
    a few seconds of wall time."""
    spec = default_validation_spec()
    return replace(
        spec, name="consistency-mini", description="",
        protocols=("odmrp", "spp"), config=replace(
            spec.config, num_nodes=10, area_width_m=500.0, area_height_m=500.0,
        ),
    )

