"""Sweep resilience: failure taxonomy and supervised workers.

:meth:`repro.experiments.executors.SweepExecutor.execute` is the one
engine every sweep runs through; this module holds the pieces it is
built from.  At paper scale (hundreds of 50-node runs, hours of wall
time) a pathological topology can hang a run, the kernel OOM-killer
can shoot a worker, and Ctrl-C arrives mid-sweep, so sweeps are made
survivable:

* **Inline or persistent workers.**  One job without a timeout runs
  inline: the serial reference every bit-identity check compares
  against, and the only mode an in-process tracer sees.  Otherwise at
  most ``jobs`` child processes (:class:`_Worker`) each serve run after
  run over a pipe.
* **Per-run wall-clock timeouts**, enforced from the parent: a run that
  exceeds ``ResilienceConfig.run_timeout_s`` has its worker terminated
  (SIGTERM, then SIGKILL after a grace period) and is quarantined.
* **A structured failure taxonomy** (:class:`FailureKind`).  Every
  failure is classified -- ``TIMEOUT``, ``WORKER_CRASH`` (worker died
  with a signal / nonzero exit before reporting), ``OOM`` (SIGKILL or a
  ``MemoryError``), ``INVARIANT`` (a validation monitor fired), or
  ``EXCEPTION`` (any other in-run error) -- and the kind is recorded on
  the :class:`~repro.experiments.parallel.RunOutcome` and as a
  ``KIND:`` prefix on ``RunResult.error`` so it survives aggregation
  and reporting.  Inline and worker runs are classified alike.
* **Quarantine on the first failure**: a failed run comes back as an
  error-annotated result with its failure kind, and the sweep
  completes.  Runs are seed-deterministic, so re-running a model
  failure in the same sweep only repeats it; aggregation and reporting
  (:mod:`repro.experiments.results` / ``report.py``) surface the
  quarantined runs per protocol instead of aborting.
* **Finished runs are stored as they finish**: a resumable sweep (one
  with a timeout, or resuming) stores each successful run in the result
  cache (:mod:`repro.experiments.parallel`), one atomically replaced
  file per run keyed by ``RunSpec.cache_key()``.  ``repro run
  --resume`` replays what is stored and re-dispatches the rest, failed
  runs included: it is the one way to recover a failed run.  The rule
  lives in :meth:`repro.experiments.executors.SweepExecutor.execute`.
* **Graceful Ctrl-C**: an interrupt stops the sweep, puts down active
  workers, and raises ``KeyboardInterrupt``; a resumable sweep has
  stored every run it finished by then.  Re-running with ``--resume`` picks up where the
  sweep left off.
"""

from __future__ import annotations

import signal
import time
import traceback
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Optional, Tuple

from repro.experiments.parallel import RunSpec, _error_result
from repro.experiments.results import RunResult

#: A supervised worker: takes a spec, returns ``(result, elapsed_s)``.
#: Exceptions it raises are converted to error-annotated results by the
#: child shim, so custom workers (tests) can just raise.
WorkerFn = Callable[[RunSpec], Tuple[RunResult, float]]


class FailureKind(Enum):
    """Why a run failed.  Every kind is quarantined at once; ``repro
    run --resume`` re-dispatches failed runs."""

    #: Exceeded the per-run wall-clock budget; worker killed by the
    #: supervisor.  May be host load rather than the spec: resume it.
    TIMEOUT = "timeout"
    #: Worker process died (signal or nonzero exit) before reporting a
    #: result -- segfault, interpreter abort.
    WORKER_CRASH = "worker_crash"
    #: Worker was SIGKILLed (the kernel OOM-killer's signature) or the
    #: run raised ``MemoryError``.  Memory pressure is a property of the
    #: host at that moment, not of the spec: resume it.
    OOM = "oom"
    #: A runtime invariant monitor fired (:mod:`repro.validation`).
    #: Deterministic: a resume repeats it.
    INVARIANT = "invariant"
    #: Any other in-run exception.  Deterministic model failures repeat
    #: bit-for-bit.
    EXCEPTION = "exception"


def classify_failure(error: Optional[str]) -> Optional[FailureKind]:
    """Map a ``RunResult.error`` string to its :class:`FailureKind`.

    Engine-annotated errors carry a ``KIND:`` prefix and classify
    exactly.  Raw tracebacks (a worker's report) are sniffed:
    ``MemoryError`` means OOM, ``InvariantViolation`` means a validation
    monitor fired, anything else is a plain exception.  ``None`` for a
    successful run.
    """
    if not error:
        return None
    head = error.split(":", 1)[0].strip()
    if head in FailureKind.__members__:
        return FailureKind[head]
    if "MemoryError" in error:
        return FailureKind.OOM
    if "InvariantViolation" in error:
        return FailureKind.INVARIANT
    return FailureKind.EXCEPTION


def _prefixed_error(kind: FailureKind, detail: str) -> str:
    """Annotate an error string with its kind (idempotent)."""
    head = detail.split(":", 1)[0].strip()
    if head in FailureKind.__members__:
        return detail
    return f"{kind.name}: {detail}"


@dataclass(frozen=True)
class ResilienceConfig:
    """Supervision knobs for one sweep."""

    #: Per-run wall-clock budget; ``None`` disables the timeout (then a
    #: one-job sweep runs inline, since nothing needs killing).
    run_timeout_s: Optional[float] = None
    #: Seconds between SIGTERM and SIGKILL when putting down a worker.
    kill_grace_s: float = 1.0
    #: Supervisor poll cadence; only affects timeout resolution.
    poll_interval_s: float = 0.05


# ----------------------------------------------------------------------
# Supervised workers (`_worker_main` runs in the child process)


def _worker_main(conn: Any, worker: WorkerFn) -> None:
    """Child entry: serve spec requests until told to stop.

    Each request is answered with ``(result, elapsed_s)``.  Any
    exception the worker raises becomes an
    error-annotated result; a child that dies mid-run is classified by
    the parent from its exit code.  ``None`` or a closed pipe ends the
    loop.
    """
    # The supervisor owns Ctrl-C (it drains, then puts workers down),
    # and its SIGTERM must kill at once: a forked child inherits the
    # parent's handlers, which here would only set a flag.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    try:
        import faulthandler

        # A forked child inherits the parent's faulthandler (pytest
        # enables one); a crashing run would dump the whole parent
        # test session's stacks. The parent classifies us from the exit
        # signal, so the dump is pure noise.
        faulthandler.disable()
    except Exception:  # noqa: BLE001 - best-effort hygiene only
        pass
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            return
        if request is None:
            return
        spec = request
        try:
            payload = worker(spec)
        except BaseException:  # noqa: BLE001 - annotate anything
            payload = (_error_result(spec, traceback.format_exc()), 0.0)
        try:
            conn.send(payload)
        except Exception:  # noqa: BLE001 - parent gone or unpicklable
            return  # the parent sees EOF and classifies the exit


def _put_down(proc: Any, grace_s: float) -> None:
    """Terminate a worker: SIGTERM, wait ``grace_s``, then SIGKILL."""
    if proc.is_alive():
        proc.terminate()
        proc.join(grace_s)
    if proc.is_alive():
        proc.kill()
        proc.join(5.0)


def _classify_report(
    payload: Optional[Tuple[RunResult, float]], exitcode: Optional[int]
) -> Tuple[Optional[FailureKind], str]:
    """What one run's report says: ``(None, "")`` on success.

    ``payload`` is the ``(result, elapsed_s)`` the run produced, or
    ``None`` when its worker died before reporting -- then the exit
    code decides: SIGKILL is the kernel OOM-killer's signature, any
    other death is a crash.  Otherwise the kind comes from the
    result's error text.
    """
    if payload is None:
        if exitcode == -int(signal.SIGKILL):
            return FailureKind.OOM, (
                "worker killed by SIGKILL before reporting a result "
                "(likely the kernel OOM-killer)"
            )
        return FailureKind.WORKER_CRASH, (
            f"worker process exited with code {exitcode} before "
            "reporting a result"
        )
    error = payload[0].error
    if error is None:
        return None, ""
    return classify_failure(error) or FailureKind.EXCEPTION, error


class _Worker:
    """One persistent child process and the run it is serving, if any."""

    def __init__(self, ctx: Any, worker: WorkerFn) -> None:
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=_worker_main, args=(child_conn, worker), daemon=True,
        )
        self.proc.start()
        child_conn.close()
        self.index: Optional[int] = None
        self.started = 0.0
        self.deadline: Optional[float] = None

    @property
    def busy(self) -> bool:
        return self.index is not None

    def dispatch(
        self, spec: RunSpec, index: int, run_timeout_s: Optional[float],
    ) -> None:
        self.index = index
        self.started = time.monotonic()
        self.deadline = (
            self.started + run_timeout_s if run_timeout_s is not None
            else None
        )
        try:
            self.conn.send(spec)
        except OSError:
            pass  # died since its last report: the pipe's EOF says so

    def receive(self) -> Optional[Tuple[RunResult, float]]:
        """The busy run's report, or None if the worker died first."""
        self.index = None
        try:
            return self.conn.recv()
        except (EOFError, OSError):
            self.conn.close()
            _put_down(self.proc, 5.0)  # normally already exiting
            return None

    def shut_down(self, grace_s: float) -> None:
        """Stop an idle worker politely; put a busy one down."""
        if not self.busy:
            try:
                self.conn.send(None)
            except OSError:
                pass
            self.proc.join(grace_s)
        _put_down(self.proc, grace_s)
        self.conn.close()
