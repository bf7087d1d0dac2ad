"""Sweep resilience: failure taxonomy, retries, journal, supervised workers.

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
  (SIGTERM, then SIGKILL after a grace period) and is re-dispatched.
* **A structured failure taxonomy** (:class:`FailureKind`).  Every
  failure is classified -- ``TIMEOUT``, ``WORKER_CRASH`` (worker died
  with a signal / nonzero exit before reporting), ``OOM`` (SIGKILL or a
  ``MemoryError``), ``INVARIANT`` (a validation monitor fired), or
  ``EXCEPTION`` (any other in-run error) -- and the kind is recorded on
  the :class:`~repro.experiments.parallel.RunOutcome` and as a
  ``KIND:`` prefix on ``RunResult.error`` so it survives journaling and
  aggregation.  Inline and worker runs are classified alike.
* **Bounded retry with exponential backoff + deterministic jitter**
  (:class:`RetryPolicy`) for *transient* kinds (``TIMEOUT``,
  ``WORKER_CRASH``, ``OOM``).  Deterministic model failures
  (``EXCEPTION``, ``INVARIANT``) are quarantined immediately: the
  simulation is seed-deterministic, so re-running them can only waste
  the sweep's time budget.  Because runs are seed-deterministic, a
  retried run that succeeds produces a bit-identical
  :class:`~repro.experiments.results.RunResult` -- the chaos harness
  (:mod:`repro.experiments.chaos`) asserts this.
* **A durable sweep journal** (:class:`SweepJournal`): append-only JSONL
  under the cache dir, one fsync'd record per finished (or quarantined)
  run keyed by ``RunSpec.cache_key()``.  ``repro run --resume`` replays
  completed runs from the journal and re-dispatches only the failures.
  Which sweeps journal is decided in one place,
  :meth:`repro.experiments.executors.SweepExecutor.for_spec`.
* **Graceful Ctrl-C**: an interrupt stops the sweep, puts down active
  workers, and leaves the journal consistent (records are written
  atomically per line), then raises ``KeyboardInterrupt``.  Re-running
  with ``--resume`` picks up where the sweep left off.
* **Graceful degradation**: a run whose retry budget is exhausted is
  *quarantined* -- it comes back as an error-annotated result with its
  failure kind, and the sweep completes.  Aggregation and reporting
  (:mod:`repro.experiments.results` / ``report.py``) surface the
  quarantined runs per protocol instead of aborting.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import signal
import time
import traceback
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.experiments import parallel
from repro.experiments.parallel import (
    RunSpec,
    _error_result,
    resolve_cache_dir,
)
from repro.experiments.results import RunResult

#: Bump when the journal record shape changes incompatibly.
JOURNAL_SCHEMA_VERSION = 1

#: Set in every supervised worker: the run's 0-based attempt number.
#: Telemetry manifests record it (``extra["attempt"]``) and the chaos
#: harness keys attempt-gated faults off it.
ATTEMPT_ENV = "REPRO_RUN_ATTEMPT"

#: A supervised worker: takes a spec, returns ``(result, elapsed_s)``.
#: Exceptions it raises are converted to error-annotated results by the
#: child shim, so custom workers (tests, chaos probes) can just raise.
WorkerFn = Callable[[RunSpec], Tuple[RunResult, float]]


class FailureKind(Enum):
    """Why a run failed.  The taxonomy drives the retry policy."""

    #: Exceeded the per-run wall-clock budget; worker killed by the
    #: supervisor.  Transient (system load), so retryable.
    TIMEOUT = "timeout"
    #: Worker process died (signal or nonzero exit) before reporting a
    #: result -- segfault, interpreter abort, pool breakage.  Retryable.
    WORKER_CRASH = "worker_crash"
    #: Worker was SIGKILLed (the kernel OOM-killer's signature) or the
    #: run raised ``MemoryError``.  Retryable: memory pressure is a
    #: property of the host at that moment, not of the spec.
    OOM = "oom"
    #: A runtime invariant monitor fired (:mod:`repro.validation`).
    #: Deterministic -- never retried, always quarantined.
    INVARIANT = "invariant"
    #: Any other in-run exception.  Deterministic model failures repeat
    #: bit-for-bit, so retrying only burns the sweep's time budget.
    EXCEPTION = "exception"


#: Kinds :class:`RetryPolicy` retries; every other kind quarantines.
TRANSIENT_KINDS = frozenset(
    {FailureKind.TIMEOUT, FailureKind.WORKER_CRASH, FailureKind.OOM}
)


def classify_failure(error: Optional[str]) -> Optional[FailureKind]:
    """Map a ``RunResult.error`` string to its :class:`FailureKind`.

    Engine-annotated errors carry a ``KIND:`` prefix and classify
    exactly.  Raw tracebacks (a worker's report, or a legacy record) are
    sniffed: ``MemoryError`` means OOM, ``InvariantViolation`` means a
    validation monitor fired, a broken-pool message means the worker
    died, anything else is a plain exception.  ``None`` for a
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
    if "BrokenProcessPool" in error or "process pool" in error:
        return FailureKind.WORKER_CRASH
    return FailureKind.EXCEPTION


def _prefixed_error(kind: FailureKind, detail: str) -> str:
    """Annotate an error string with its kind (idempotent)."""
    head = detail.split(":", 1)[0].strip()
    if head in FailureKind.__members__:
        return detail
    return f"{kind.name}: {detail}"


#: Backoffs are stretched by up to this fraction of themselves.
JITTER_FRACTION = 0.25


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and deterministic jitter.

    Only :data:`TRANSIENT_KINDS` retry.  ``max_retries`` counts
    *re*-dispatches: a run is attempted at most ``max_retries + 1``
    times.  The backoff for attempt ``n`` (0-based, i.e. before
    re-dispatch ``n+1``) is ``min(backoff_max_s, backoff_base_s * 2**n)``
    stretched by up to :data:`JITTER_FRACTION`; the jitter is derived
    from a hash of the run's cache key and attempt number, so a replayed
    sweep waits the exact same amounts -- no wall-clock randomness leaks
    into scheduling.
    """

    max_retries: int = 2
    backoff_base_s: float = 0.25
    backoff_max_s: float = 30.0

    def should_retry(self, kind: FailureKind, attempt: int) -> bool:
        """May attempt ``attempt`` (0-based) be re-dispatched?"""
        return kind in TRANSIENT_KINDS and attempt < self.max_retries

    def backoff_s(self, key: str, attempt: int) -> float:
        base = min(self.backoff_max_s, self.backoff_base_s * (2 ** attempt))
        digest = hashlib.sha256(f"{key}:{attempt}".encode("utf-8")).digest()
        unit = int.from_bytes(digest[:8], "big") / float(2 ** 64)
        return base * (1.0 + JITTER_FRACTION * unit)


@dataclass(frozen=True)
class ResilienceConfig:
    """Supervision knobs for one sweep."""

    #: Per-run wall-clock budget; ``None`` disables the timeout (then a
    #: one-job sweep runs inline, since nothing needs killing).
    run_timeout_s: Optional[float] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Seconds between SIGTERM and SIGKILL when putting down a worker.
    kill_grace_s: float = 1.0
    #: Supervisor poll cadence; only affects timeout/backoff resolution.
    poll_interval_s: float = 0.05


# ----------------------------------------------------------------------
# The sweep journal


@dataclass
class JournalRecord:
    """One journaled run, replayable without re-simulation."""

    key: str
    protocol: str
    seed: int
    status: str  # "ok" | "failed"
    attempts: int
    elapsed_s: float
    failure_kind: Optional[str]
    result: Dict[str, Any]

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_run_result(self) -> Optional[RunResult]:
        """Rebuild the RunResult, or None on schema drift."""
        try:
            return RunResult(**self.result)
        except TypeError:
            return None


class SweepJournal:
    """Append-only JSONL record of finished runs, keyed by cache key.

    Every record is a single ``os.write`` to an ``O_APPEND`` descriptor,
    fsync'd before the supervisor moves on, so a sweep killed at any
    instant leaves at worst one truncated *trailing* line -- which
    :meth:`replay` skips.
    Records are append-only; on replay the last record per key wins, so
    a resumed sweep that re-runs a previously failed run simply appends
    the new outcome.  :meth:`compact` rewrites the file keeping only
    the surviving record per key.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._fd: Optional[int] = os.open(
            path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )

    @staticmethod
    def default_path(cache_dir: Optional[str] = None) -> str:
        """The journal's home: ``<cache_dir>/journal.jsonl``."""
        return os.path.join(resolve_cache_dir(cache_dir), "journal.jsonl")

    @staticmethod
    def _encode(record: Dict[str, Any]) -> bytes:
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        return (line + "\n").encode("utf-8")

    def record(
        self,
        spec: RunSpec,
        result: RunResult,
        attempts: int,
        elapsed_s: float,
        failure_kind: Optional[FailureKind] = None,
    ) -> None:
        if self._fd is None:
            raise ValueError("journal is closed")
        os.write(self._fd, self._encode({
            "schema": JOURNAL_SCHEMA_VERSION,
            "key": spec.cache_key(),
            "protocol": spec.protocol.lower(),
            "seed": spec.seed,
            "status": "ok" if result.error is None else "failed",
            "attempts": attempts,
            "elapsed_s": elapsed_s,
            "failure_kind": (
                failure_kind.value if failure_kind is not None else None
            ),
            "written_unix": time.time(),
            "result": dataclasses.asdict(result),
        }))
        os.fsync(self._fd)

    @classmethod
    def compact(cls, path: str) -> int:
        """Atomically rewrite the journal keeping only surviving records.

        A long journaled sweep accretes one line per *attempt* (retries
        append, they don't replace) plus possibly one torn trailing
        line; replay cost and disk grow without bound.  Compaction
        keeps exactly the line that :meth:`replay` would surface for
        each key -- the last valid record, byte-for-byte -- and drops
        superseded attempts and damaged lines.  The rewrite goes
        through a temp file + fsync + ``os.replace``, so a crash
        mid-compaction leaves the original journal untouched.

        Returns the number of lines dropped.  Call only when no other
        process is appending (clean sweep completion).
        """
        survivors: Dict[str, bytes] = {}
        total = 0
        for raw, data in cls._lines(path):
            total += 1
            key = data.get("key") if data is not None else None
            if not isinstance(key, str):
                continue  # torn, garbled, or alien line: drop
            # Preserve first-seen order; a retry overwrites in place.
            survivors[key] = raw if raw.endswith(b"\n") else raw + b"\n"
        dropped = total - len(survivors)
        if dropped <= 0:
            return 0
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "wb") as handle:
                handle.writelines(survivors.values())
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return dropped

    @staticmethod
    def sweep_stale_tmps(path: str) -> int:
        """Remove ``<path>.tmp.<pid>`` files a killed :meth:`compact`
        left; returns the count.  Call only at sweep start, when nothing
        is compacting ``path``."""
        prefix = os.path.basename(path) + ".tmp."
        return parallel.remove_stale_files(
            os.path.dirname(path) or ".", lambda name: name.startswith(prefix)
        )

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    @classmethod
    def replay(cls, path: str) -> Dict[str, JournalRecord]:
        """Read a journal back; last record per key wins.

        A truncated or garbled line (the signature of a sweep killed
        mid-write) is skipped rather than fatal -- by construction only
        the final line can be damaged, and its run simply re-executes.
        """
        records: Dict[str, JournalRecord] = {}
        for _, data in cls._lines(path):
            if data is None:
                continue  # torn trailing write: re-run that spec
            try:
                record = JournalRecord(
                    key=data["key"],
                    protocol=data["protocol"],
                    seed=data["seed"],
                    status=data["status"],
                    attempts=data["attempts"],
                    elapsed_s=data["elapsed_s"],
                    failure_kind=data.get("failure_kind"),
                    result=data["result"],
                )
            except KeyError:
                continue
            records[record.key] = record
        return records

    @staticmethod
    def _lines(path: str) -> Iterator[Tuple[bytes, Optional[Dict[str, Any]]]]:
        """Each non-blank line of a journal with its decoded record.

        The record is None for a torn or garbled line, a non-object,
        or another schema version; a missing journal yields nothing.
        """
        try:
            handle = open(path, "rb")
        except OSError:
            return
        with handle:
            for raw in handle:
                if not raw.strip():
                    continue
                try:
                    data = json.loads(raw)
                except ValueError:
                    data = None
                if not isinstance(data, dict) \
                        or data.get("schema") != JOURNAL_SCHEMA_VERSION:
                    data = None
                yield raw, data

    @classmethod
    def append_plan(
        cls, path: str, kind: str, name: str, index: int,
        fields: Dict[str, Any],
    ) -> None:
        """Append one planner record (``kind`` names the planner).

        Plan records share the run journal under unique string keys
        (``<kind>:<name>:<index>``), so :meth:`compact` keeps them and
        :meth:`replay` -- which only surfaces run records -- skips them.
        The planner journals between sweeps rather than during one, so the
        append opens, writes, fsyncs and closes: no handle outlives the
        call, and a :meth:`compact` that replaced the file since the
        last append is harmless.
        """
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, cls._encode({
                "schema": JOURNAL_SCHEMA_VERSION,
                "key": f"{kind}:{name}:{index:04d}",
                "kind": kind,
                "name": name,
                **fields,
            }))
            os.fsync(fd)
        finally:
            os.close(fd)

    @classmethod
    def replay_plans(
        cls, path: str, kind: str, name: str
    ) -> List[Dict[str, Any]]:
        """The ``kind`` plan records of sweep ``name``, in index order.

        Same damage tolerance as :meth:`replay`: torn or alien lines
        are skipped, the last record per key wins.
        """
        by_key: Dict[str, Dict[str, Any]] = {}
        for _, data in cls._lines(path):
            if data is None or data.get("kind") != kind \
                    or data.get("name") != name:
                continue
            key = data.get("key")
            if isinstance(key, str):
                by_key[key] = data
        return [by_key[key] for key in sorted(by_key)]


# ----------------------------------------------------------------------
# Supervised workers (`_worker_main` runs in the child process)


def _worker_main(conn: Any, worker: WorkerFn) -> None:
    """Child entry: serve ``(spec, attempt)`` requests until told to stop.

    Each request is answered with ``(result, elapsed_s)``.  Any
    exception the worker (or an injected chaos fault) raises becomes an
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
        # enables one); an injected crash would dump the whole parent
        # test session's stacks. The parent classifies us from the exit
        # signal, so the dump is pure noise.
        faulthandler.disable()
    except Exception:  # noqa: BLE001 - best-effort hygiene only
        pass
    from repro.experiments.chaos import maybe_inject_fault

    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            return
        if request is None:
            return
        spec, attempt = request
        os.environ[ATTEMPT_ENV] = str(attempt)
        try:
            maybe_inject_fault(spec, attempt)
            payload = worker(spec)
        except BaseException:  # noqa: BLE001 - annotate anything, incl. chaos
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
        self.attempt = 0
        self.started = 0.0
        self.deadline: Optional[float] = None

    @property
    def busy(self) -> bool:
        return self.index is not None

    def dispatch(
        self, spec: RunSpec, index: int, attempt: int,
        run_timeout_s: Optional[float],
    ) -> None:
        self.index, self.attempt = index, attempt
        self.started = time.monotonic()
        self.deadline = (
            self.started + run_timeout_s if run_timeout_s is not None
            else None
        )
        try:
            self.conn.send((spec, attempt))
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
