"""Chaos harness for the sweep engine.

Injects real worker faults -- hangs, aborts, SIGKILLs, allocation
failures, raised exceptions, cache corruption -- into supervised sweeps
and asserts the engine
(:meth:`repro.experiments.executors.SweepExecutor.execute`) recovers:
faulted runs are retried to bit-identical results, exhausted runs are
quarantined without aborting the sweep, and corrupted cache entries
recompute.  Interrupt-and-resume of every sweep kind is the
differential oracle's own path
(:func:`repro.validation.fuzzing.interrupt_and_resume`); the harness
runs it on its tiny scenario and reports its verdicts.

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
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

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
    5-6. *interrupt + resume* -- the grid and an adaptive plan, each
       through the differential oracle's
       :func:`~repro.validation.fuzzing.interrupt_and_resume` path: a
       SIGINT after the first finished run at one job (inline for the
       grid, one supervised worker for the planner, which sets a
       timeout) must stop cleanly with a consistent journal, and a
       ``resume`` pass must execute only the missing runs and replay
       into the oracle's runs -- and plan, whose journaled records
       must match it.
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

    def supervised(retry: RetryPolicy, journal: str) -> SweepExecutor:
        return SweepExecutor(
            jobs=jobs, cache_dir=cache_dir,
            resilience=ResilienceConfig(run_timeout_s=timeout_s, retry=retry),
            journal_path=os.path.join(work_dir, journal),
        )

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
    with active_plan(plan, work_dir):
        stormed = supervised(retry, "faulted.jsonl").execute(specs)
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
        degraded = supervised(
            quarantine_retry, "quarantine.jsonl"
        ).execute(specs)
    victim_outcome = degraded[0]  # outcomes come back in spec order
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
    others_ok = all(o.result.error is None for o in degraded[1:])
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

    # -- Phases 5-6: SIGINT drains; resume replays bit-identically -------
    # The oracle's interrupt + resume path, once per sweep kind.  The
    # planner keeps a timeout, which puts even one job on a supervised
    # worker, so its interrupt kills a real run child in flight.
    from repro.experiments.adaptive import AdaptiveConfig
    from repro.experiments.spec import ExperimentSpec
    from repro.validation.fuzzing import interrupt_and_resume

    grid = ExperimentSpec(
        name="chaos-grid", protocols=protocols, seeds=seeds, config=config,
    )
    for prefix, spec in (
        ("", grid),
        ("adaptive-", dataclasses.replace(
            grid, name="chaos-adaptive", run_timeout_s=timeout_s,
            adaptive=AdaptiveConfig(
                target_half_width=0.25, batch_size=1, min_seeds=1,
                max_seeds=2,
            ),
        )),
    ):
        say(f"chaos: {prefix}interrupt + resume ...")
        for name, ok, detail in interrupt_and_resume(spec, jobs, work_dir):
            report.add(prefix + name, ok, detail)
    say("chaos: done")
    return report
