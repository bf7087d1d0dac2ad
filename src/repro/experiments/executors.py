"""The sweep executor: the one call every sweep is executed through.

Everything above the run level -- ``runner.compare_protocols``, the
experiment spec runner, the planners, and the CLI -- executes its runs
through :meth:`SweepExecutor.execute`, which hands them to
:func:`~repro.experiments.resilience.execute_runs_detailed`: a one-job
sweep without a timeout runs inline, anything else on persistent
supervised workers on this host.

:func:`create_executor` builds an executor from a sweep's knobs, and
:func:`journal_path_for` is the one rule for which sweeps journal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.experiments.parallel import (
    ProgressCallback,
    RunOutcome,
    RunSpec,
    _execute_spec,
)
from repro.experiments.resilience import (
    ResilienceConfig,
    RetryPolicy,
    SweepJournal,
    WorkerFn,
    execute_runs_detailed,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (spec -> here)
    from repro.experiments.spec import ExperimentSpec


@dataclass
class SweepExecutor:
    """One sweep's settings for :func:`execute_runs_detailed`.

    ``journal_path=None`` means the sweep keeps no journal.
    """

    jobs: Optional[int] = 1
    use_cache: bool = False
    cache_dir: Optional[str] = None
    resilience: Optional[ResilienceConfig] = None
    journal_path: Optional[str] = None
    resume: bool = False
    worker: WorkerFn = _execute_spec

    def execute(
        self,
        specs: Sequence[RunSpec],
        progress: Optional[ProgressCallback] = None,
    ) -> List[RunOutcome]:
        """Run ``specs``; one outcome per spec, in spec order."""
        return execute_runs_detailed(
            specs,
            jobs=self.jobs,
            use_cache=self.use_cache,
            cache_dir=self.cache_dir,
            progress=progress,
            resilience=self.resilience,
            journal_path=self.journal_path,
            resume=self.resume,
            worker=self.worker,
        )


def journal_path_for(
    *,
    cache_dir: Optional[str] = None,
    journal_path: Optional[str] = None,
    resume: bool = False,
    run_timeout_s: Optional[float] = None,
    max_retries: Optional[int] = None,
) -> Optional[str]:
    """Where a sweep journals, or None when it keeps no journal.

    An explicit ``journal_path`` wins; otherwise the default under the
    cache dir when the sweep may need resuming: ``resume``,
    ``run_timeout_s`` or ``max_retries`` is set.
    """
    if journal_path is not None:
        return journal_path
    if resume or run_timeout_s is not None or max_retries is not None:
        return SweepJournal.default_path(cache_dir)
    return None


def create_executor(
    *,
    jobs: Optional[int] = 1,
    use_cache: bool = False,
    cache_dir: Optional[str] = None,
    run_timeout_s: Optional[float] = None,
    max_retries: Optional[int] = None,
    resume: bool = False,
    journal_path: Optional[str] = None,
    worker_fn: Optional[WorkerFn] = None,
) -> SweepExecutor:
    """Build the executor for one sweep's knobs.

    ``jobs<=0`` means one per CPU.  ``max_retries=None`` means the
    default :class:`RetryPolicy`.
    """
    retry = (
        RetryPolicy(max_retries=max_retries)
        if max_retries is not None else RetryPolicy()
    )
    return SweepExecutor(
        jobs=jobs,
        use_cache=use_cache,
        cache_dir=cache_dir,
        resilience=ResilienceConfig(run_timeout_s=run_timeout_s, retry=retry),
        journal_path=journal_path_for(
            cache_dir=cache_dir, journal_path=journal_path, resume=resume,
            run_timeout_s=run_timeout_s, max_retries=max_retries,
        ),
        resume=resume,
        worker=worker_fn or _execute_spec,
    )


def execute_spec_runs(
    spec: "ExperimentSpec",
    runs: Sequence[RunSpec],
    progress: Optional[ProgressCallback] = None,
    cache_dir: Optional[str] = None,
    resume: bool = False,
    journal_path: Optional[str] = None,
) -> List[RunOutcome]:
    """Execute ``runs`` under ``spec``'s jobs, cache and resilience
    settings: one batch of a planner, or a whole sweep."""
    return create_executor(
        jobs=spec.jobs,
        use_cache=spec.use_cache,
        cache_dir=cache_dir,
        run_timeout_s=spec.run_timeout_s,
        max_retries=spec.max_retries,
        resume=resume,
        journal_path=journal_path,
    ).execute(runs, progress=progress)
