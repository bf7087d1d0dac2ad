"""The sweep executor: the one way a list of runs executes.

Every sweep -- :func:`~repro.experiments.runner.run_experiment`, the
adaptive planner, the chaos harness, the differential oracle and the
scripts -- builds a :class:`SweepExecutor` and calls
:meth:`SweepExecutor.execute`.
A one-job sweep without a timeout runs inline, anything else on
persistent supervised workers on this host
(:mod:`repro.experiments.resilience`).  :meth:`SweepExecutor.for_spec`
builds the executor for an :class:`~repro.experiments.spec.
ExperimentSpec` and holds the one rule for which sweeps journal.
"""

from __future__ import annotations

import heapq
import multiprocessing
import signal
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

# Cache loads and stores go through the module so that instrumentation
# wrapping ``parallel.cache_load`` / ``cache_store`` sees every call.
from repro.experiments import parallel
from repro.experiments.parallel import (
    ProgressCallback,
    RunOutcome,
    RunSpec,
    _error_result,
    _execute_spec,
    resolve_cache_dir,
    resolve_jobs,
    sweep_stale_cache_tmps,
)
from repro.experiments.resilience import (
    FailureKind,
    ResilienceConfig,
    RetryPolicy,
    SweepJournal,
    WorkerFn,
    _classify_report,
    _prefixed_error,
    _Worker,
)
from repro.experiments.results import RunResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (spec -> here)
    from repro.experiments.spec import ExperimentSpec


@dataclass
class SweepExecutor:
    """One sweep's execution settings; :meth:`execute` runs the sweep.

    ``jobs=None`` or ``jobs<=0`` means one per CPU.
    ``journal_path=None`` means the sweep keeps no journal.  ``worker``
    exists for the chaos harness and tests: any picklable top-level
    function with the :data:`~repro.experiments.resilience.WorkerFn`
    contract can stand in for the real simulation worker.
    """

    jobs: Optional[int] = 1
    use_cache: bool = False
    cache_dir: Optional[str] = None
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    journal_path: Optional[str] = None
    resume: bool = False
    worker: WorkerFn = _execute_spec

    @classmethod
    def for_spec(
        cls,
        spec: "ExperimentSpec",
        *,
        cache_dir: Optional[str] = None,
        resume: bool = False,
        journal_path: Optional[str] = None,
    ) -> "SweepExecutor":
        """The executor for ``spec``'s jobs, cache and resilience settings.

        The sweep journals to ``journal_path`` when one is given;
        otherwise to the default journal under the cache dir when it
        may need resuming (``resume``, or a spec that sets
        ``run_timeout_s`` or ``max_retries``); otherwise not at all.
        """
        resumable = resume or spec.run_timeout_s is not None \
            or spec.max_retries is not None
        if journal_path is None and resumable:
            journal_path = SweepJournal.default_path(cache_dir)
        retry = (
            RetryPolicy(max_retries=spec.max_retries)
            if spec.max_retries is not None else RetryPolicy()
        )
        return cls(
            jobs=spec.jobs,
            use_cache=spec.use_cache,
            cache_dir=cache_dir,
            resilience=ResilienceConfig(
                run_timeout_s=spec.run_timeout_s, retry=retry,
            ),
            journal_path=journal_path,
            resume=resume,
        )

    def execute(
        self,
        specs: Sequence[RunSpec],
        progress: Optional[ProgressCallback] = None,
    ) -> List[RunOutcome]:
        """Run ``specs``; one outcome per spec, in spec order,
        bit-identical whatever the job count.

        One job without a ``run_timeout_s`` runs inline; otherwise at
        most ``jobs`` persistent workers serve the runs, each replaced
        only after it dies or is put down on timeout.  Both paths
        classify, retry, cache and -- when ``journal_path`` is set --
        journal runs alike; ``resume`` replays runs that journal
        already completed.  Ctrl-C (or SIGTERM, under workers) stops the
        sweep with the journal consistent and raises
        ``KeyboardInterrupt``.
        """
        jobs = resolve_jobs(self.jobs)
        config = self.resilience
        directory = resolve_cache_dir(self.cache_dir)
        journal_path = self.journal_path
        if journal_path is not None:
            # A journaled sweep is a resumable one: clear temp files a
            # killed predecessor left in the cache and beside the journal.
            # Unjournaled sweeps skip this so they never race a concurrent
            # sweep's in-flight store.
            sweep_stale_cache_tmps(directory)
            SweepJournal.sweep_stale_tmps(journal_path)
        replayed = (
            SweepJournal.replay(journal_path)
            if self.resume and journal_path is not None else {}
        )

        keys = [spec.cache_key() for spec in specs]
        outcomes: List[Optional[RunOutcome]] = [None] * len(specs)
        pending: deque = deque()
        for index, spec in enumerate(specs):
            record = replayed.get(keys[index])
            if record is not None and record.ok:
                result = record.to_run_result()
                if result is not None:
                    outcomes[index] = RunOutcome(
                        spec, result, record.elapsed_s, from_cache=False,
                        attempts=record.attempts, from_journal=True,
                    )
                    continue
            if self.use_cache:
                cached = parallel.cache_load(directory, keys[index])
                if cached is not None:
                    outcomes[index] = RunOutcome(
                        spec, cached, 0.0, from_cache=True
                    )
                    continue
            pending.append((index, 0))

        if not pending:
            return [outcome for outcome in outcomes if outcome is not None]

        journal = SweepJournal(journal_path) if journal_path is not None \
            else None
        delayed: List[Tuple[float, int, int]] = []  # (ready_at, index, attempt)

        def _finalize(
            index: int,
            result: RunResult,
            attempts: int,
            elapsed: float,
            kind: Optional[FailureKind],
        ) -> None:
            spec = specs[index]
            outcomes[index] = RunOutcome(
                spec, result, elapsed, from_cache=False,
                attempts=attempts, failure_kind=kind,
            )
            if journal is not None:
                journal.record(spec, result, attempts, elapsed, kind)
            if self.use_cache and result.error is None:
                parallel.cache_store(directory, keys[index], result)
            if progress is not None:
                progress(spec.protocol, spec.seed)

        def _fail(
            index: int, attempt: int, kind: FailureKind, detail: str,
            elapsed: float,
        ) -> None:
            """Retry a transient failure with backoff, else quarantine."""
            if config.retry.should_retry(kind, attempt):
                delay = config.retry.backoff_s(keys[index], attempt)
                heapq.heappush(
                    delayed, (time.monotonic() + delay, index, attempt + 1)
                )
                return
            result = _error_result(specs[index], _prefixed_error(kind, detail))
            _finalize(index, result, attempt + 1, elapsed, kind)

        def _settle(
            index: int, attempt: int,
            payload: Optional[Tuple[RunResult, float]],
            exitcode: Optional[int], elapsed: float,
        ) -> None:
            kind, detail = _classify_report(payload, exitcode)
            if payload is not None:
                elapsed = payload[1]
            if kind is None:
                _finalize(index, payload[0], attempt + 1, elapsed, None)
            else:
                _fail(index, attempt, kind, detail, elapsed)

        def _promote_due() -> None:
            now = time.monotonic()
            while delayed and delayed[0][0] <= now:
                _, index, attempt = heapq.heappop(delayed)
                pending.append((index, attempt))

        def _run_inline() -> None:
            while pending or delayed:
                _promote_due()
                if not pending:
                    time.sleep(max(0.0, delayed[0][0] - time.monotonic()))
                    continue
                index, attempt = pending.popleft()
                spec = specs[index]
                try:
                    payload = self.worker(spec)
                except Exception:  # noqa: BLE001 - Ctrl-C must propagate
                    payload = (_error_result(spec, traceback.format_exc()), 0.0)
                _settle(index, attempt, payload, None, 0.0)

        def _run_workers() -> Optional[int]:
            """Supervise the sweep; returns the signal that stopped it."""
            ctx = multiprocessing.get_context()
            slots = min(jobs, len(pending))
            workers: List[_Worker] = []
            stop: Dict[str, Optional[int]] = {"signal": None}

            def _request_stop(signum: int, frame: Any) -> None:
                stop["signal"] = signum

            def _dispatch(entry: _Worker) -> None:
                index, attempt = pending.popleft()
                entry.dispatch(specs[index], index, attempt, config.run_timeout_s)

            # Signal handlers can only be installed from the main thread; a
            # supervisor running elsewhere still works, it just drains only
            # on exceptions.
            in_main = threading.current_thread() is threading.main_thread()
            previous_handlers = {}
            if in_main:
                for signum in (signal.SIGINT, signal.SIGTERM):
                    previous_handlers[signum] = signal.signal(
                        signum, _request_stop
                    )
            try:
                while (pending or delayed or any(w.busy for w in workers)) \
                        and stop["signal"] is None:
                    _promote_due()
                    for entry in workers:
                        if pending and not entry.busy:
                            _dispatch(entry)
                    while pending and len(workers) < slots:
                        workers.append(_Worker(ctx, self.worker))
                        _dispatch(workers[-1])
                    busy = [entry for entry in workers if entry.busy]
                    if not busy:
                        # Everything is waiting out a backoff: sleep until
                        # the earliest becomes ready (in poll-sized slices
                        # so a signal still drains promptly).
                        time.sleep(min(
                            config.poll_interval_s,
                            max(0.0, delayed[0][0] - time.monotonic()),
                        ))
                        continue
                    ready = set(multiprocessing.connection.wait(
                        [entry.conn for entry in busy],
                        timeout=config.poll_interval_s,
                    ))
                    for entry in busy:
                        if entry.conn not in ready:
                            continue
                        index, attempt = entry.index, entry.attempt
                        payload = entry.receive()
                        if payload is None:
                            workers.remove(entry)
                            _settle(
                                index, attempt, None, entry.proc.exitcode,
                                time.monotonic() - entry.started,
                            )
                            continue
                        # Keep the worker busy before the parent-side
                        # bookkeeping (fsync'd cache and journal writes).
                        if pending and stop["signal"] is None:
                            _dispatch(entry)
                        _settle(index, attempt, payload, None, 0.0)
                    now = time.monotonic()
                    for entry in busy:
                        if not entry.busy or entry.deadline is None \
                                or now < entry.deadline or entry.conn.poll():
                            continue  # reported, on time, or its report raced
                        index, attempt = entry.index, entry.attempt
                        workers.remove(entry)
                        entry.shut_down(config.kill_grace_s)
                        _fail(
                            index, attempt, FailureKind.TIMEOUT,
                            f"run exceeded the {config.run_timeout_s:.1f}s "
                            "wall-clock budget; worker terminated by the "
                            "supervisor",
                            now - entry.started,
                        )
            finally:
                for entry in workers:
                    entry.shut_down(config.kill_grace_s)
                for signum, handler in previous_handlers.items():
                    signal.signal(signum, handler)
            return stop["signal"]

        inline = jobs == 1 and config.run_timeout_s is None
        interrupted = False
        try:
            if inline:
                _run_inline()
            else:
                interrupted = _run_workers() is not None
        except KeyboardInterrupt:
            interrupted = True
        finally:
            if journal is not None:
                journal.close()

        if interrupted:
            done = sum(outcome is not None for outcome in outcomes)
            raise KeyboardInterrupt(
                f"sweep interrupted after {done}/{len(specs)} run(s)"
                + (f"; journal: {journal_path}" if journal_path else "")
            )
        if journal_path is not None:
            # Clean completion: every spec has a surviving record, so
            # superseded retry lines (and any torn line inherited from a
            # crashed ancestor sweep) are dead weight -- drop them.
            SweepJournal.compact(journal_path)
        return [outcome for outcome in outcomes if outcome is not None]
