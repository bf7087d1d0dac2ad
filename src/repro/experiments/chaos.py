"""Chaos harness for the sweep engine.

Injects real worker faults -- hangs, aborts, SIGKILLs, allocation
failures, raised exceptions, cache corruption -- into supervised sweeps
and asserts the engine
(:meth:`repro.experiments.executors.SweepExecutor.execute`) recovers: faulted runs are retried to bit-identical results, exhausted
runs are quarantined without aborting the sweep, corrupted cache
entries recompute, and an interrupted sweep resumes from its journal.

Fault injection is *in-band*: the supervised worker loop calls
:func:`maybe_inject_fault` before running each spec, and the fault plan
travels through the :data:`CHAOS_PLAN_ENV` environment variable (a path
to a JSON plan file), so the injected failures exercise the exact
production supervision path -- no mocks between the fault and the
recovery machinery.  With the variable unset (the default, always)
injection is a no-op costing one dict lookup.

Entry points: ``repro chaos [--quick]`` on the CLI and
``pytest -m chaos`` in the test suite, both backed by :func:`run_chaos`.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from contextlib import contextmanager

from repro.experiments.parallel import (
    RunOutcome,
    RunSpec,
    _cache_path,
    cache_store,
    sweep_specs,
)
from repro.experiments.executors import SweepExecutor
from repro.experiments.resilience import (
    FailureKind,
    ResilienceConfig,
    RetryPolicy,
    SweepJournal,
)
from repro.experiments.results import RunResult, aggregate_runs
from repro.experiments.scenarios import SimulationScenarioConfig

#: Environment variable naming the active chaos plan file (JSON).  Set
#: by :func:`active_plan` in the sweep parent; inherited by workers.
CHAOS_PLAN_ENV = "REPRO_CHAOS_PLAN"

#: Injectable fault actions.
CHAOS_ACTIONS = ("hang", "crash", "oom-kill", "oom", "exception")


class ChaosError(RuntimeError):
    """The exception the ``exception`` fault action raises in-run."""


@dataclass(frozen=True)
class ChaosFault:
    """One scheduled worker fault, keyed by (protocol, seed, attempt).

    ``attempt`` selects which dispatch of the run is sabotaged
    (0 = first execution); ``None`` faults *every* attempt, which is
    how retry-budget exhaustion is provoked.
    """

    protocol: str
    seed: int
    action: str
    attempt: Optional[int] = 0
    hang_s: float = 3600.0

    def __post_init__(self) -> None:
        if self.action not in CHAOS_ACTIONS:
            raise ValueError(
                f"unknown chaos action {self.action!r}; "
                f"choose from {CHAOS_ACTIONS}"
            )

    def matches(self, protocol: str, seed: int, attempt: int) -> bool:
        return (
            self.protocol.lower() == protocol.lower()
            and self.seed == seed
            and (self.attempt is None or self.attempt == attempt)
        )


@dataclass
class ChaosPlan:
    """A set of scheduled faults, serializable for worker processes."""

    faults: Tuple[ChaosFault, ...] = ()

    def fault_for(
        self, protocol: str, seed: int, attempt: int
    ) -> Optional[ChaosFault]:
        for fault in self.faults:
            if fault.matches(protocol, seed, attempt):
                return fault
        return None

    def save(self, path: str) -> str:
        payload = [dataclasses.asdict(fault) for fault in self.faults]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True)
        return path

    @classmethod
    def load(cls, path: str) -> "ChaosPlan":
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        return cls(faults=tuple(ChaosFault(**item) for item in payload))


@contextmanager
def active_plan(plan: ChaosPlan, directory: str) -> Iterator[str]:
    """Arm a chaos plan for every worker spawned inside the block."""
    path = plan.save(os.path.join(directory, "chaos_plan.json"))
    previous = os.environ.get(CHAOS_PLAN_ENV)
    os.environ[CHAOS_PLAN_ENV] = path
    try:
        yield path
    finally:
        if previous is None:
            os.environ.pop(CHAOS_PLAN_ENV, None)
        else:
            os.environ[CHAOS_PLAN_ENV] = previous


def maybe_inject_fault(spec: RunSpec, attempt: int) -> None:
    """Apply the armed fault for this (spec, attempt), if any.

    Called by the supervised worker loop before each run starts.  No-op
    unless :data:`CHAOS_PLAN_ENV` names a readable plan file.
    """
    path = os.environ.get(CHAOS_PLAN_ENV)
    if not path:
        return
    try:
        plan = ChaosPlan.load(path)
    except (OSError, ValueError, TypeError):
        return  # an unreadable plan must never break a real sweep
    fault = plan.fault_for(spec.protocol, spec.seed, attempt)
    if fault is None:
        return
    if fault.action == "hang":
        time.sleep(fault.hang_s)
    elif fault.action == "crash":
        os.kill(os.getpid(), signal.SIGABRT)
    elif fault.action == "oom-kill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif fault.action == "oom":
        raise MemoryError("chaos: injected allocation failure")
    elif fault.action == "exception":
        raise ChaosError("chaos: injected model exception")


def corrupt_cache_entry(
    cache_dir: str, spec: RunSpec, mode: str = "truncate"
) -> bool:
    """Damage one on-disk cache entry (parent-side fault injection).

    ``truncate`` keeps the first half of the file (a torn write);
    ``garbage`` replaces the content with non-JSON.  Returns False when
    the entry does not exist.
    """
    path = _cache_path(cache_dir, spec.cache_key())
    try:
        with open(path, "r", encoding="utf-8") as handle:
            content = handle.read()
    except OSError:
        return False
    damaged = content[: len(content) // 2] if mode == "truncate" else "{not json"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(damaged)
    return True


def _interrupt_after_first() -> Callable[[str, int], None]:
    """A progress callback that SIGINTs this process once, after the
    first finished run."""
    completions = {"count": 0}

    def interrupt(protocol: str, seed: int) -> None:
        completions["count"] += 1
        if completions["count"] == 1:
            os.kill(os.getpid(), signal.SIGINT)

    return interrupt


# ----------------------------------------------------------------------
# The harness


@dataclass
class ChaosCheck:
    """One assertion the harness made, with its verdict."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class ChaosReport:
    """Everything one :func:`run_chaos` invocation verified."""

    checks: List[ChaosCheck] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(ChaosCheck(name, ok, detail))

    def render(self) -> str:
        lines = []
        for check in self.checks:
            status = "ok" if check.ok else "FAIL"
            line = f"  [{status:>4}] {check.name}"
            if check.detail:
                line += f": {check.detail}"
            lines.append(line)
        passed = sum(1 for check in self.checks if check.ok)
        lines.append(f"{passed}/{len(self.checks)} chaos check(s) passed")
        return "\n".join(lines)


def chaos_config(quick: bool = False) -> SimulationScenarioConfig:
    """A deliberately tiny scenario: chaos tests the *executor*, not
    the model, so simulations only need to be real, not big."""
    return SimulationScenarioConfig(
        num_nodes=6,
        area_width_m=400.0,
        area_height_m=400.0,
        num_groups=1,
        members_per_group=3,
        duration_s=6.0 if quick else 10.0,
        warmup_s=2.0,
        topology_seed=1,
    )


def _results(outcomes: Sequence[RunOutcome]) -> List[RunResult]:
    return [outcome.result for outcome in outcomes]


def _check_planner_resume(
    report: "ChaosReport",
    label: str,
    run: Callable[..., Any],
    spec: Any,
    kind: str,
    planned_records: Callable[[Any], List[dict]],
    cache_dir: str,
    work_dir: str,
) -> None:
    """Interrupt planner ``run`` after its first finished run, resume
    it, and check the plan against a clean run and the journal.

    ``planned_records(result)`` lists the fields each ``kind`` plan
    record in the journal must carry for that result's plan.
    """
    clean = run(
        spec, cache_dir=cache_dir,
        journal_path=os.path.join(work_dir, f"{label}-clean.jsonl"),
    )
    journal = os.path.join(work_dir, f"{label}.jsonl")
    interrupted = False
    try:
        run(spec, cache_dir=cache_dir, journal_path=journal,
            progress=_interrupt_after_first())
    except KeyboardInterrupt:
        interrupted = True
    partial = SweepJournal.replay(journal)
    report.add(
        f"{label}-interrupt-drains",
        interrupted and len(partial) >= 1
        and all(record.ok for record in partial.values()),
        f"interrupted={interrupted}, {len(partial)} run(s) journaled "
        "mid-sweep",
    )
    resumed = run(spec, cache_dir=cache_dir, journal_path=journal,
                  resume=True)
    identical = (
        resumed.plan_dict() == clean.plan_dict()
        and resumed.runs == clean.runs
    )
    report.add(
        f"{label}-resume-identical", identical,
        f"resumed {label} plan and runs bit-identical to the clean run"
        if identical else f"resumed {label} diverged",
    )
    records = SweepJournal.replay_plans(journal, kind, spec.name)
    expected = planned_records(resumed)
    journaled = len(records) == len(expected) and all(
        {key: record.get(key) for key in fields} == fields
        for record, fields in zip(records, expected)
    )
    report.add(
        f"{label}-plan-journaled", journaled,
        f"{len(records)} journaled {kind} record(s) match the resumed "
        "plan" if journaled else f"journaled {kind} records diverged",
    )


def run_chaos(
    quick: bool = False,
    jobs: int = 2,
    work_dir: Optional[str] = None,
    log: Optional[Callable[[str], None]] = None,
) -> ChaosReport:
    """Run the full chaos suite; returns the per-check report.

    Phases:

    1. *baseline* -- a clean sweep establishes the reference
       results every later phase must reproduce bit-identically.
    2. *fault recovery* -- one transient fault per retryable kind
       (injected hang -> TIMEOUT, SIGABRT -> WORKER_CRASH, MemoryError
       -> OOM) on the first attempt only; the sweep must retry each to
       a result identical to the baseline.
    3. *quarantine* -- a run that hangs on *every* attempt must exhaust
       its retry budget, surface as a TIMEOUT failure in aggregation
       and the report, and not stop the other runs from completing.
    4. *cache corruption* -- truncated and garbled cache entries must
       quarantine, recompute identically, and a killed ``cache_store``
       (orphaned temp file) must be swept, never loaded.
    5. *interrupt + resume* -- a SIGINT mid-sweep (one job, no timeout:
       inline) must stop cleanly,
       leave a consistent journal, and a ``resume`` pass must replay
       completed runs and finish the rest, bit-identical to baseline.
    6. *adaptive mid-batch kill* -- an adaptive sweep interrupted while
       a batch is in flight must drain, journal consistently, and a
       ``resume`` pass must replay into the *identical* batch-by-batch
       plan (stopping decisions, seeds spent, and run results all
       bit-identical to a clean adaptive run).
    7. *campaign mid-draw kill* -- a fault campaign interrupted while
       its runs are in flight must drain, and a ``resume`` pass must
       replay into the *identical* sampled plan (generators, severities,
       importance weights, per-seed fault digests) with run results
       bit-identical to a clean campaign; the journaled
       ``campaign-plan`` records must match the resumed plan.
    """
    report = ChaosReport()
    say = log or (lambda message: None)
    if work_dir is None:
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
            return run_chaos(quick=quick, jobs=jobs, work_dir=tmp, log=log)

    config = chaos_config(quick)
    protocols = ("odmrp", "spp")
    seeds = (1,) if quick else (1, 2)
    specs = sweep_specs(config, protocols, seeds)
    cache_dir = os.path.join(work_dir, "cache")

    # -- Phase 1: baseline ------------------------------------------------
    say(f"chaos: baseline sweep ({len(specs)} runs, jobs={jobs}) ...")
    baseline = SweepExecutor(
        jobs=jobs, cache_dir=cache_dir,
        journal_path=os.path.join(work_dir, "baseline.jsonl"),
    ).execute(specs)
    clean = all(outcome.result.error is None for outcome in baseline)
    report.add(
        "baseline-clean", clean,
        "all runs succeeded" if clean else "baseline sweep had failures",
    )
    if not clean:
        return report  # nothing downstream is meaningful
    # Timeout budget for the faulted phases: generous against the
    # slowest observed clean run, so only injected hangs can trip it.
    slowest = max(outcome.elapsed_s for outcome in baseline)
    timeout_s = max(3.0, 5.0 * slowest)
    retry = RetryPolicy(max_retries=2, backoff_base_s=0.05,
                        backoff_max_s=0.2)

    # -- Phase 2: transient faults recover to identical results ----------
    faulted = {
        (protocols[0], seeds[0]): "hang",
        (protocols[1], seeds[0]): "oom",
    }
    if not quick:
        faulted[(protocols[0], seeds[1])] = "crash"
        faulted[(protocols[1], seeds[1])] = "oom-kill"
    plan = ChaosPlan(faults=tuple(
        ChaosFault(protocol=protocol, seed=seed, action=action, attempt=0)
        for (protocol, seed), action in faulted.items()
    ))
    say(f"chaos: fault storm ({', '.join(sorted(set(faulted.values())))}) ...")
    journal_path = os.path.join(work_dir, "faulted.jsonl")
    with active_plan(plan, work_dir):
        stormed = SweepExecutor(
            jobs=jobs, cache_dir=cache_dir,
            resilience=ResilienceConfig(
                run_timeout_s=timeout_s, retry=retry,
            ),
            journal_path=journal_path,
        ).execute(specs)
    recovered = all(outcome.result.error is None for outcome in stormed)
    report.add(
        "chaos-recovered", recovered,
        "every faulted run retried to success" if recovered else "; ".join(
            f"{o.spec.protocol}/seed={o.spec.seed}: "
            + o.result.error.splitlines()[-1]
            for o in stormed if o.result.error is not None
        ),
    )
    retried = [
        outcome for outcome in stormed
        if (outcome.spec.protocol, outcome.spec.seed) in faulted
    ]
    all_retried = bool(retried) and all(o.attempts >= 2 for o in retried)
    report.add(
        "chaos-retried", all_retried,
        f"faulted runs took {[o.attempts for o in retried]} attempt(s)",
    )
    identical = _results(stormed) == _results(baseline)
    report.add(
        "chaos-identical", identical,
        "retried results bit-identical to baseline" if identical
        else "retried results diverged from baseline",
    )

    # -- Phase 3: exhausted retries quarantine, sweep degrades gracefully
    victim = specs[0]
    say("chaos: quarantine (hang on every attempt) ...")
    quarantine_retry = RetryPolicy(max_retries=1, backoff_base_s=0.05,
                                   backoff_max_s=0.1)
    plan = ChaosPlan(faults=(
        ChaosFault(protocol=victim.protocol, seed=victim.seed,
                   action="hang", attempt=None),
    ))
    with active_plan(plan, work_dir):
        degraded = SweepExecutor(
            jobs=jobs, cache_dir=cache_dir,
            resilience=ResilienceConfig(
                run_timeout_s=timeout_s, retry=quarantine_retry,
            ),
            journal_path=os.path.join(work_dir, "quarantine.jsonl"),
        ).execute(specs)
    victim_outcome = next(
        o for o in degraded
        if (o.spec.protocol, o.spec.seed)
        == (victim.protocol, victim.seed)
    )
    quarantined = (
        victim_outcome.failure_kind is FailureKind.TIMEOUT
        and victim_outcome.attempts == 2
        and (victim_outcome.result.error or "").startswith("TIMEOUT")
    )
    report.add(
        "quarantine-surfaces", quarantined,
        f"victim kind={victim_outcome.failure_kind} "
        f"attempts={victim_outcome.attempts}",
    )
    others_ok = all(
        o.result.error is None for o in degraded if o is not victim_outcome
    )
    report.add(
        "quarantine-degrades", others_ok,
        "sweep completed around the quarantined run" if others_ok
        else "healthy runs were dragged down",
    )
    aggregates = aggregate_runs(_results(degraded))
    agg = aggregates[victim.protocol.lower()]
    in_report = (
        agg.failed_runs == 1
        and agg.failure_kinds.get(FailureKind.TIMEOUT.value) == 1
    )
    from repro.experiments.report import render_report

    note = render_report(_results(degraded), title="chaos quarantine")
    in_report = in_report and "timeout" in note and "quarantined" in note
    report.add(
        "quarantine-reported", in_report,
        "TIMEOUT failure visible in aggregation and report"
        if in_report else f"aggregate={agg}",
    )

    # -- Phase 4: cache corruption quarantines and recomputes ------------
    say("chaos: cache corruption ...")
    for spec, outcome in zip(specs, baseline):
        cache_store(cache_dir, spec.cache_key(), outcome.result)
    corrupt_cache_entry(cache_dir, specs[0], mode="truncate")
    if len(specs) > 1:
        corrupt_cache_entry(cache_dir, specs[-1], mode="garbage")
    # A worker killed mid-store leaves only an orphaned temp file:
    orphan = _cache_path(cache_dir, specs[0].cache_key()) + ".tmp.99999"
    with open(orphan, "w", encoding="utf-8") as handle:
        handle.write('{"half": "written')
    rebuilt = SweepExecutor(
        jobs=jobs, use_cache=True, cache_dir=cache_dir,
        journal_path=os.path.join(work_dir, "cache.jsonl"),
    ).execute(specs)
    cache_identical = _results(rebuilt) == _results(baseline)
    recomputed = not rebuilt[0].from_cache and rebuilt[0].result.error is None
    quarantine_file = (
        _cache_path(cache_dir, specs[0].cache_key()) + ".corrupt"
    )
    report.add(
        "cache-corruption-recovers",
        cache_identical and recomputed and os.path.exists(quarantine_file)
        and not os.path.exists(orphan),
        f"recomputed={recomputed} identical={cache_identical} "
        f"quarantined={os.path.exists(quarantine_file)} "
        f"tmp-swept={not os.path.exists(orphan)}",
    )

    # -- Phase 5: SIGINT drains; --resume replays bit-identically ---------
    say("chaos: interrupt + resume ...")
    resume_journal = os.path.join(work_dir, "resume.jsonl")
    interrupted = False
    try:
        SweepExecutor(
            jobs=1, cache_dir=cache_dir, journal_path=resume_journal,
        ).execute(specs, progress=_interrupt_after_first())
    except KeyboardInterrupt:
        interrupted = True
    journaled = SweepJournal.replay(resume_journal)
    drained = (
        interrupted
        and 1 <= len(journaled) < len(specs)
        and all(record.ok for record in journaled.values())
    )
    report.add(
        "interrupt-drains", drained,
        f"interrupted={interrupted}, {len(journaled)}/{len(specs)} "
        "run(s) journaled consistently",
    )
    resumed = SweepExecutor(
        jobs=jobs, cache_dir=cache_dir, journal_path=resume_journal,
        resume=True,
    ).execute(specs)
    replayed = [outcome for outcome in resumed if outcome.from_journal]
    resume_identical = _results(resumed) == _results(baseline)
    report.add(
        "resume-identical",
        resume_identical and len(replayed) == len(journaled),
        f"{len(replayed)} run(s) replayed from the journal, "
        f"{len(specs) - len(replayed)} executed; bit-identical="
        f"{resume_identical}",
    )

    # -- Phases 6-7: planners survive a mid-sweep kill --------------------
    from repro.experiments.adaptive import (
        ADAPTIVE_PLAN_KEY,
        AdaptiveConfig,
        run_adaptive_experiment,
    )
    from repro.experiments.campaigns import (
        CAMPAIGN_PLAN_KEY,
        CampaignConfig,
        run_campaign_experiment,
    )
    from repro.experiments.spec import ExperimentSpec

    # A timeout puts even one job on a supervised worker, so each
    # interrupt kills a real run child in flight.
    planned = ExperimentSpec(
        protocols=protocols, seeds=seeds, jobs=1, run_timeout_s=timeout_s,
        config=config,
    )
    say("chaos: adaptive mid-batch interrupt + resume ...")
    _check_planner_resume(
        report, "adaptive", run_adaptive_experiment,
        dataclasses.replace(
            planned, name="chaos-adaptive", adaptive=AdaptiveConfig(
                target_half_width=0.25, batch_size=1, min_seeds=1,
                max_seeds=2,
            ),
        ),
        ADAPTIVE_PLAN_KEY, lambda result: result.plan_dict()["batches"],
        cache_dir, work_dir,
    )
    say("chaos: campaign mid-draw interrupt + resume ...")
    _check_planner_resume(
        report, "campaign", run_campaign_experiment,
        dataclasses.replace(
            planned, name="chaos-campaign",
            campaign=CampaignConfig(draws=2, master_seed=3),
        ),
        CAMPAIGN_PLAN_KEY, lambda result: result.plan_dict()["plan"],
        cache_dir, work_dir,
    )
    say("chaos: done")
    return report
