"""The ``dir://`` sweep backend: a lease-based work queue on a shared dir.

PR 5's resilient executor made one host's sweep survivable; this module
makes the sweep *shared*.  A coordinator publishes the run set into a
directory any number of worker processes can reach (an NFS/SMB mount
across hosts, a tmpdir in tests), and workers drain it cooperatively
with nothing but atomic filesystem primitives -- no broker, no sockets:

``<root>/sweep.json``
    The published run manifest: every ``(protocol, config, seed)`` of
    the sweep plus its content-hash key, written atomically
    (tmp + ``os.replace``).  Workers wait for it, then recompute each
    key locally -- a mismatch means the worker runs different code than
    the coordinator and aborts loudly instead of poisoning results.
``<root>/journal.jsonl``
    One shared :class:`~repro.experiments.resilience.SweepJournal`.
    Appends are single ``O_APPEND`` writes (atomic on local
    filesystems), so any number of workers journal into one file; the
    last record per key wins, exactly like a resumed local sweep.  The
    journal doubles as the *completion ledger*: a run is done when its
    surviving record is a success or a quarantined (non-retryable or
    budget-exhausted) failure.
``<root>/leases/<key>.lease``
    At-most-one-claimant lock per run.  Claiming is ``O_CREAT|O_EXCL``
    file creation; the holder re-writes the file (tmp + ``os.replace``,
    so it never vanishes mid-renewal) every ``heartbeat_interval_s``.
    A lease whose heartbeat is older than ``lease_timeout_s`` belongs
    to a dead worker: a claimant *reclaims* it by ``os.rename``-ing the
    carcass into ``leases/stale/`` (rename is atomic, so exactly one
    reclaimer wins) and claiming fresh.  A worker that discovers its
    own lease was reclaimed (it stalled past the timeout) kills the
    run and journals nothing -- the new holder owns the attempt.
``<root>/cache/<key[:2]>/<key>.json``
    The shared result cache, sharded by key prefix so a fleet-sized
    sweep never piles every entry into one directory.  Each shard is a
    plain cache directory with the existing atomic/self-healing store.
``<root>/workers/<id>.json`` and ``<root>/telemetry/``
    Per-worker counter snapshots (leases claimed / renewed / expired /
    reclaimed, runs completed / failed, queue depth) and telemetry
    traces readable by ``repro telemetry summarize``.

Determinism is untouched: runs are seed-deterministic, so *which*
worker executes a run -- or whether a killed worker's run is re-issued
to another -- cannot change its bytes.  The coordinator aggregates
incrementally as records land and returns outcomes in spec order,
bit-identical to the local backend (asserted by the perfsmoke matrix
and the chaos harness).

Caveats, stated rather than hidden: O_APPEND atomicity holds on local
and most kernel-NFS filesystems for sub-page lines like ours, but not
on every network filesystem; lease expiry compares *wall-clock* stamps
written by different hosts, so keep fleet clocks within a few seconds
(NTP-loose, not PTP-tight) and set ``lease_timeout_s`` accordingly.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import socket
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.experiments.executors import SweepExecutor
from repro.experiments.parallel import (
    CACHE_SCHEMA_VERSION,
    ProgressCallback,
    RunOutcome,
    RunSpec,
    _error_result,
    _execute_spec,
    cache_load,
    cache_shard_dir,
    cache_store,
    sweep_stale_cache_tmps,
)
from repro.experiments.resilience import (
    TRANSIENT_KINDS,
    FailureKind,
    JournalRecord,
    SweepJournal,
    WorkerFn,
    classify_failure,
    supervise_single_run,
)
from repro.experiments.results import (
    AggregateResult,
    RunResult,
    aggregate_runs,
)

#: Bump when the sweep.json layout changes incompatibly.
SWEEP_MANIFEST_SCHEMA = 1

#: Set in every worker (and inherited by run children): the claiming
#: worker's id and the backend URI.  The telemetry exporter records
#: both in run manifests, so a trace pins which host produced it.
WORKER_ID_ENV = "REPRO_WORKER_ID"
BACKEND_ENV = "REPRO_SWEEP_BACKEND"


class DistributedSweepError(RuntimeError):
    """A shared sweep directory in a state that cannot be drained."""


class LeaseLostError(RuntimeError):
    """Raised mid-run when this worker's lease was reclaimed."""


@dataclass(frozen=True)
class LeaseConfig:
    """Work-queue knobs for one ``dir://`` sweep."""

    #: A lease whose heartbeat is older than this is presumed dead and
    #: may be reclaimed.  Must comfortably exceed the heartbeat
    #: interval plus worst-case scheduling stalls on any fleet host.
    lease_timeout_s: float = 15.0
    #: How often a holder re-stamps its lease.
    heartbeat_interval_s: float = 1.0
    #: Idle-worker poll cadence (journal scans, claim retries).
    poll_interval_s: float = 0.2
    #: Per-run wall-clock budget, enforced by each worker's supervisor;
    #: ``None`` disables the timeout.
    run_timeout_s: Optional[float] = None
    #: Transient-failure retry budget (same semantics as
    #: :class:`~repro.experiments.resilience.RetryPolicy.max_retries`):
    #: a run is dispatched at most ``max_retries + 1`` times fleet-wide.
    max_retries: int = 2
    #: SIGTERM-to-SIGKILL grace when putting down a run child.
    kill_grace_s: float = 1.0

    def __post_init__(self) -> None:
        if self.lease_timeout_s <= 0:
            raise ValueError("lease_timeout_s must be positive")
        if not (0 < self.heartbeat_interval_s < self.lease_timeout_s):
            raise ValueError(
                "heartbeat_interval_s must be positive and smaller than "
                "lease_timeout_s"
            )
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")


@dataclass(frozen=True)
class SweepDir:
    """Path layout of one shared sweep directory."""

    root: str

    @property
    def sweep_path(self) -> str:
        return os.path.join(self.root, "sweep.json")

    @property
    def journal_path(self) -> str:
        return os.path.join(self.root, "journal.jsonl")

    @property
    def leases_dir(self) -> str:
        return os.path.join(self.root, "leases")

    @property
    def stale_dir(self) -> str:
        return os.path.join(self.leases_dir, "stale")

    @property
    def cache_dir(self) -> str:
        return os.path.join(self.root, "cache")

    @property
    def workers_dir(self) -> str:
        return os.path.join(self.root, "workers")

    @property
    def telemetry_dir(self) -> str:
        return os.path.join(self.root, "telemetry")

    def uri(self) -> str:
        return f"dir://{self.root}"

    def lease_path(self, key: str) -> str:
        return os.path.join(self.leases_dir, f"{key}.lease")

    def ensure(self) -> "SweepDir":
        for path in (self.root, self.leases_dir, self.stale_dir,
                     self.cache_dir, self.workers_dir, self.telemetry_dir):
            os.makedirs(path, exist_ok=True)
        return self


def _atomic_write_json(path: str, payload: Dict[str, Any]) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True, indent=1)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def publish_sweep(sweep: SweepDir, specs: Sequence[RunSpec]) -> None:
    """Write (atomically replace) the sweep manifest workers drain."""
    from repro.experiments.spec import config_to_dict

    runs = []
    for spec in specs:
        runs.append({
            "protocol": spec.protocol.lower(),
            "seed": spec.seed,
            "key": spec.cache_key(),
            "config": config_to_dict(spec.config),
        })
    _atomic_write_json(sweep.sweep_path, {
        "schema": SWEEP_MANIFEST_SCHEMA,
        "cache_schema": CACHE_SCHEMA_VERSION,
        "published_unix": time.time(),
        "runs": runs,
    })


def load_sweep(sweep: SweepDir) -> Optional[List[RunSpec]]:
    """Read the published run set back, or None when not published yet.

    Version skew fails loudly: a worker whose code computes different
    cache keys (or speaks a different manifest/cache schema) than the
    publisher must not execute runs into the shared journal.
    """
    from repro.experiments.spec import config_from_dict

    try:
        with open(sweep.sweep_path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError:
        return None
    except ValueError as exc:
        raise DistributedSweepError(
            f"{sweep.sweep_path}: unreadable sweep manifest: {exc}"
        ) from exc
    if data.get("schema") != SWEEP_MANIFEST_SCHEMA:
        raise DistributedSweepError(
            f"{sweep.sweep_path}: sweep manifest schema "
            f"{data.get('schema')!r} not supported (this worker speaks "
            f"{SWEEP_MANIFEST_SCHEMA})"
        )
    if data.get("cache_schema") != CACHE_SCHEMA_VERSION:
        raise DistributedSweepError(
            f"{sweep.sweep_path}: sweep was published with cache schema "
            f"{data.get('cache_schema')!r} but this worker computes "
            f"schema {CACHE_SCHEMA_VERSION}; align code versions across "
            "the fleet"
        )
    specs: List[RunSpec] = []
    for index, run in enumerate(data.get("runs", [])):
        spec = RunSpec(
            protocol=run["protocol"],
            config=config_from_dict(run["config"]),
            seed=run["seed"],
        )
        if spec.cache_key() != run.get("key"):
            raise DistributedSweepError(
                f"{sweep.sweep_path}: run #{index} "
                f"({run['protocol']}/seed={run['seed']}) hashes to a "
                "different cache key on this worker than it did when "
                "published -- code version skew; align the fleet before "
                "draining"
            )
        specs.append(spec)
    return specs


# ----------------------------------------------------------------------
# Leases


@dataclass
class Lease:
    """One held claim: this worker owns attempt ``attempt`` of a run."""

    key: str
    path: str
    attempt: int
    index: int


@dataclass
class WorkerStats:
    """One worker's lifetime counters (snapshotted to ``workers/``)."""

    worker_id: str
    backend: str = ""
    claimed: int = 0
    renewed: int = 0
    expired: int = 0
    reclaimed: int = 0
    lost: int = 0
    completed: int = 0
    failed: int = 0
    cache_hits: int = 0
    queue_depth_last: int = 0
    wall_time_s: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        import dataclasses

        return dataclasses.asdict(self)

    def save(self, path: str) -> None:
        _atomic_write_json(path, self.to_dict())


class LeaseQueue:
    """Claim/renew/release machinery over ``<root>/leases``."""

    def __init__(
        self,
        sweep: SweepDir,
        config: LeaseConfig,
        worker_id: str,
        stats: Optional[WorkerStats] = None,
    ) -> None:
        self.sweep = sweep
        self.config = config
        self.worker_id = worker_id
        self.stats = stats if stats is not None else WorkerStats(worker_id)
        self._reclaim_serial = 0

    def _payload(self, attempt: int) -> Dict[str, Any]:
        return {
            "worker": self.worker_id,
            "attempt": attempt,
            "heartbeat_unix": time.time(),
        }

    def _read(self, path: str) -> Optional[Dict[str, Any]]:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            return None
        return data if isinstance(data, dict) else None

    def _expired(self, path: str) -> bool:
        """Is the lease at ``path`` older than the timeout?

        The embedded heartbeat stamp is authoritative; an unreadable
        lease (a claimant killed between O_EXCL create and the first
        write) falls back to file mtime so it cannot wedge the queue.
        """
        data = self._read(path)
        if data is not None and isinstance(
            data.get("heartbeat_unix"), (int, float)
        ):
            stamp = float(data["heartbeat_unix"])
        else:
            try:
                stamp = os.stat(path).st_mtime
            except OSError:
                return False  # vanished: released or already reclaimed
        return (time.time() - stamp) > self.config.lease_timeout_s

    def _reclaim(self, path: str) -> bool:
        """Move an expired lease carcass aside; True if *we* won."""
        self._reclaim_serial += 1
        dest = os.path.join(
            self.sweep.stale_dir,
            f"{os.path.basename(path)}."
            f"{self.worker_id}.{self._reclaim_serial}",
        )
        try:
            os.rename(path, dest)
        except OSError:
            return False  # another claimant renamed it first
        self.stats.reclaimed += 1
        return True

    def try_claim(self, key: str, attempt: int, index: int) -> Optional[Lease]:
        """Claim one run: O_EXCL create, reclaiming an expired holder."""
        path = self.sweep.lease_path(key)
        for _ in range(2):  # second pass only after a won reclaim
            try:
                fd = os.open(
                    path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644
                )
            except FileExistsError:
                if not self._expired(path):
                    return None  # live holder
                self.stats.expired += 1
                if not self._reclaim(path):
                    return None  # lost the reclaim race
                continue
            try:
                data = json.dumps(
                    self._payload(attempt), sort_keys=True
                ).encode("utf-8")
                os.write(fd, data)
                os.fsync(fd)
            finally:
                os.close(fd)
            self.stats.claimed += 1
            return Lease(key=key, path=path, attempt=attempt, index=index)
        return None

    def renew(self, lease: Lease) -> bool:
        """Re-stamp a held lease; False if it is no longer ours.

        The rewrite goes through tmp + ``os.replace`` so the lease file
        never disappears mid-renewal (an O_EXCL claimant can never
        sneak in).  If the current file names a *different* worker, our
        lease was reclaimed while we stalled: the caller must abandon
        the run without journaling.
        """
        data = self._read(lease.path)
        if data is None or data.get("worker") != self.worker_id:
            return False
        tmp = f"{lease.path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(
                    self._payload(lease.attempt), handle, sort_keys=True
                )
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, lease.path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False
        self.stats.renewed += 1
        return True

    def release(self, lease: Lease) -> None:
        try:
            os.unlink(lease.path)
        except OSError:
            pass  # reclaimed from under us; the new holder owns it


# ----------------------------------------------------------------------
# Completion ledger semantics


def record_is_final(record: JournalRecord, max_retries: int) -> bool:
    """Does this journal record settle its run, or is a retry owed?

    Mirrors the local engine's retry policy: successes and
    deterministic (non-transient) failures are final; transient
    failures are final only once the fleet-wide dispatch count exceeds
    the retry budget.
    """
    if record.ok:
        return True
    kind: Optional[FailureKind] = None
    if record.failure_kind:
        try:
            kind = FailureKind(record.failure_kind)
        except ValueError:
            kind = None
    if kind is None:
        error = (record.result or {}).get("error")
        kind = classify_failure(error) or FailureKind.EXCEPTION
    if kind not in TRANSIENT_KINDS:
        return True
    return record.attempts > max_retries


def _default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


# ----------------------------------------------------------------------
# The worker


def drain_worker(
    root: str,
    worker_id: Optional[str] = None,
    lease: Optional[LeaseConfig] = None,
    worker_fn: WorkerFn = _execute_spec,
    use_cache: bool = True,
    wait_for_sweep_s: float = 30.0,
    max_runs: Optional[int] = None,
    log: Optional[Callable[[str], None]] = None,
) -> WorkerStats:
    """Drain one shared sweep until no claimable work remains.

    The loop: scan the journal for non-final runs, claim one lease
    (reclaiming expired holders), serve it from the sharded cache or
    execute it under single-run supervision (heartbeating the lease
    from the poll hook), journal the outcome, release, repeat.  Exits
    when every run is final -- or after ``max_runs`` executions, for
    bounded smoke jobs.  On exit the worker snapshots its counters to
    ``workers/<id>.json`` and writes a telemetry trace.
    """
    config = lease if lease is not None else LeaseConfig()
    sweep = SweepDir(os.path.abspath(root)).ensure()
    wid = worker_id or _default_worker_id()
    stats = WorkerStats(worker_id=wid, backend=sweep.uri())
    queue = LeaseQueue(sweep, config, wid, stats)
    os.environ[WORKER_ID_ENV] = wid
    os.environ[BACKEND_ENV] = sweep.uri()
    started = time.monotonic()

    def say(message: str) -> None:
        if log is not None:
            log(f"[{wid}] {message}")

    specs: Optional[List[RunSpec]] = None
    deadline = time.monotonic() + wait_for_sweep_s
    while specs is None:
        specs = load_sweep(sweep)
        if specs is None:
            if time.monotonic() >= deadline:
                raise DistributedSweepError(
                    f"no sweep manifest appeared at {sweep.sweep_path} "
                    f"within {wait_for_sweep_s:.0f}s"
                )
            time.sleep(config.poll_interval_s)
    keys = [spec.cache_key() for spec in specs]
    say(f"joined sweep: {len(specs)} run(s)")

    executed = 0
    try:
        while True:
            records = SweepJournal.replay(sweep.journal_path)
            open_items = [
                (index, key) for index, key in enumerate(keys)
                if key not in records
                or not record_is_final(records[key], config.max_retries)
            ]
            stats.queue_depth_last = len(open_items)
            if not open_items:
                say("sweep drained")
                break
            held: Optional[Lease] = None
            for index, key in open_items:
                prior = records.get(key)
                attempt = prior.attempts if prior is not None else 0
                held = queue.try_claim(key, attempt, index)
                if held is not None:
                    break
            if held is None:
                # Everything open is leased to live workers (or we lost
                # every race this pass): wait for the field to move.
                time.sleep(config.poll_interval_s)
                continue
            spec = specs[held.index]
            if use_cache:
                shard = cache_shard_dir(sweep.cache_dir, held.key)
                cached = cache_load(shard, held.key)
                if cached is not None:
                    SweepJournal.append_record(
                        sweep.journal_path,
                        SweepJournal.build_record(
                            spec, cached, held.attempt, 0.0,
                            worker=wid, cached=True,
                        ),
                    )
                    queue.release(held)
                    stats.cache_hits += 1
                    say(f"cache hit {spec.protocol}/seed={spec.seed}")
                    continue
            last_beat = time.monotonic()

            def heartbeat() -> None:
                nonlocal last_beat
                now = time.monotonic()
                if now - last_beat < config.heartbeat_interval_s:
                    return
                last_beat = now
                if not queue.renew(held):
                    raise LeaseLostError(held.key)

            say(
                f"run {spec.protocol}/seed={spec.seed} "
                f"attempt={held.attempt}"
            )
            try:
                result, elapsed, kind = supervise_single_run(
                    spec,
                    attempt=held.attempt,
                    worker=worker_fn,
                    run_timeout_s=config.run_timeout_s,
                    kill_grace_s=config.kill_grace_s,
                    poll_interval_s=min(
                        0.05, config.heartbeat_interval_s
                    ),
                    on_poll=heartbeat,
                )
            except LeaseLostError:
                # We stalled past the lease timeout and another worker
                # took the run.  It owns the attempt now; journaling
                # ours could double-count the dispatch budget.
                stats.lost += 1
                say(f"lease lost on {spec.protocol}/seed={spec.seed}")
                continue
            executed += 1
            SweepJournal.append_record(
                sweep.journal_path,
                SweepJournal.build_record(
                    spec, result, held.attempt + 1, elapsed, kind,
                    worker=wid,
                ),
            )
            if result.error is None:
                stats.completed += 1
                if use_cache:
                    cache_store(
                        cache_shard_dir(sweep.cache_dir, held.key),
                        held.key, result,
                    )
            else:
                stats.failed += 1
            queue.release(held)
            if max_runs is not None and executed >= max_runs:
                say(f"stopping after {executed} run(s) (max-runs)")
                break
    finally:
        stats.wall_time_s = time.monotonic() - started
        try:
            stats.save(os.path.join(sweep.workers_dir, f"{wid}.json"))
            _export_worker_telemetry(sweep, stats)
        except OSError:  # pragma: no cover - stats are best-effort
            pass
    return stats


def _export_worker_telemetry(sweep: SweepDir, stats: WorkerStats) -> str:
    """Write one worker's counters as a telemetry trace.

    The trace is a normal ``repro telemetry`` artifact (manifest +
    instruments), so ``repro telemetry summarize
    <root>/telemetry/worker-<id>.jsonl`` works out of the box.
    """
    from repro.telemetry.export import write_trace
    from repro.telemetry.hub import TelemetryConfig, TelemetryHub
    from repro.telemetry.manifest import build_manifest

    hub = TelemetryHub(TelemetryConfig(enabled=True))
    counters = {
        "worker.leases.claimed": stats.claimed,
        "worker.leases.renewed": stats.renewed,
        "worker.leases.expired": stats.expired,
        "worker.leases.reclaimed": stats.reclaimed,
        "worker.leases.lost": stats.lost,
        "worker.runs.completed": stats.completed,
        "worker.runs.failed": stats.failed,
        "worker.runs.cache_hits": stats.cache_hits,
    }
    for name, value in counters.items():
        hub.counter(name, "distributed worker counter").inc(value)
    hub.gauge(
        "worker.queue.depth", "open runs at last journal scan"
    ).set(stats.queue_depth_last)
    manifest = build_manifest(
        protocol="worker",
        config={"worker_id": stats.worker_id, "backend": stats.backend},
        seed=0,
        wall_time_s=stats.wall_time_s,
        extra={
            "worker_id": stats.worker_id,
            "backend": stats.backend,
            **{key.split(".", 1)[1]: value
               for key, value in counters.items()},
        },
    )
    path = os.path.join(
        sweep.telemetry_dir, f"worker-{stats.worker_id}.jsonl"
    )
    return write_trace(path, hub, manifest)


def _worker_process_main(
    root: str,
    worker_id: str,
    lease: LeaseConfig,
    worker_fn: WorkerFn,
    use_cache: bool,
) -> None:
    """Entry point for coordinator-spawned worker processes."""
    drain_worker(
        root, worker_id=worker_id, lease=lease, worker_fn=worker_fn,
        use_cache=use_cache, wait_for_sweep_s=60.0,
    )


# ----------------------------------------------------------------------
# Incremental aggregation


class IncrementalAggregator:
    """``AggregateResult`` built as journal records land.

    Results are slotted into spec order as they arrive, so any
    snapshot -- including the final one -- equals
    :func:`~repro.experiments.results.aggregate_runs` over the landed
    results *in spec order*: the coordinator's report is bit-identical
    to a serial sweep's no matter the completion order.
    """

    def __init__(self, specs: Sequence[RunSpec]) -> None:
        self._index: Dict[str, int] = {}
        for position, spec in enumerate(specs):
            self._index.setdefault(spec.cache_key(), position)
        self._results: List[Optional[RunResult]] = [None] * len(specs)
        self.landed = 0

    @property
    def total(self) -> int:
        return len(self._results)

    @property
    def done(self) -> bool:
        return self.landed == self.total

    def add(self, key: str, result: RunResult) -> bool:
        """Slot one landed result; False for unknown/duplicate keys."""
        position = self._index.get(key)
        if position is None or self._results[position] is not None:
            return False
        self._results[position] = result
        self.landed += 1
        return True

    def results(self) -> List[RunResult]:
        """Landed results in spec order."""
        return [result for result in self._results if result is not None]

    def aggregates(self) -> List[AggregateResult]:
        return aggregate_runs(self.results())


# ----------------------------------------------------------------------
# The coordinator


class DirExecutor(SweepExecutor):
    """Coordinator side of the ``dir://`` backend.

    ``submit`` publishes the sweep into the shared directory;
    ``collect`` spawns ``workers`` local worker processes (zero is
    valid -- then only external ``repro worker`` processes drain),
    tails the shared journal, feeds an :class:`IncrementalAggregator`
    and the progress callback as records land, and returns outcomes in
    spec order.  On clean completion the journal is compacted.
    """

    def __init__(
        self,
        root: str,
        workers: int = 1,
        lease: Optional[LeaseConfig] = None,
        use_cache: bool = True,
        resume: bool = False,
        worker_fn: WorkerFn = _execute_spec,
    ) -> None:
        self.sweep = SweepDir(os.path.abspath(root))
        self.workers = max(0, workers)
        self.lease = lease if lease is not None else LeaseConfig()
        self.use_cache = use_cache
        self.resume = resume
        self.worker_fn = worker_fn
        self.aggregator: Optional[IncrementalAggregator] = None
        self._specs: Optional[List[RunSpec]] = None
        self._keys: List[str] = []
        self._replayed: Dict[str, JournalRecord] = {}
        self._procs: List[Any] = []

    def submit(self, specs: Sequence[RunSpec]) -> None:
        if self._specs is not None:
            raise RuntimeError("executor already has a submitted sweep")
        self._specs = list(specs)
        self._keys = [spec.cache_key() for spec in self._specs]
        self.sweep.ensure()
        if self.use_cache:
            for name in sorted(os.listdir(self.sweep.cache_dir)):
                shard = os.path.join(self.sweep.cache_dir, name)
                if os.path.isdir(shard):
                    sweep_stale_cache_tmps(shard)
        journal_path = self.sweep.journal_path
        if self.resume:
            replayed = SweepJournal.replay(journal_path)
            self._replayed = {
                key: record for key, record in replayed.items()
                if record_is_final(record, self.lease.max_retries)
            }
        elif os.path.exists(journal_path):
            # A fresh (non-resume) sweep must not inherit records for
            # its own runs -- the journal is the completion ledger, so
            # stale records would make them "already done".  Rotate the
            # old journal aside (never silently truncate) but only when
            # it actually overlaps: disjoint records (another sub-sweep
            # of the same experiment, e.g. a different mobility model)
            # are harmless and rotation would orphan them mid-flight.
            stale = SweepJournal.replay(journal_path)
            if any(key in stale for key in self._keys):
                suffix = 1
                while os.path.exists(f"{journal_path}.old{suffix}"):
                    suffix += 1
                os.replace(journal_path, f"{journal_path}.old{suffix}")
        publish_sweep(self.sweep, self._specs)
        self.aggregator = IncrementalAggregator(self._specs)

    def collect(
        self, progress: Optional[ProgressCallback] = None
    ) -> List[RunOutcome]:
        if self._specs is None or self.aggregator is None:
            raise RuntimeError("collect() before submit()")
        ctx = multiprocessing.get_context()
        for number in range(min(self.workers, len(self._specs))):
            proc = ctx.Process(
                target=_worker_process_main,
                args=(
                    self.sweep.root,
                    f"coord{os.getpid()}-w{number}",
                    self.lease,
                    self.worker_fn,
                    self.use_cache,
                ),
            )
            proc.start()
            self._procs.append(proc)

        final: Dict[str, JournalRecord] = {}
        wanted = set(self._keys)
        try:
            while True:
                records = SweepJournal.replay(self.sweep.journal_path)
                for key, record in records.items():
                    if key not in wanted or key in final:
                        continue
                    if not record_is_final(record, self.lease.max_retries):
                        continue
                    final[key] = record
                    result = record.to_run_result()
                    if result is not None:
                        self.aggregator.add(key, result)
                    if progress is not None:
                        progress(record.protocol, record.seed)
                if len(final) == len(wanted):
                    break
                if self._procs and all(
                    proc.exitcode is not None for proc in self._procs
                ):
                    codes = sorted(
                        {proc.exitcode for proc in self._procs}
                    )
                    raise DistributedSweepError(
                        f"all {len(self._procs)} spawned worker(s) "
                        f"exited (codes {codes}) with "
                        f"{len(wanted) - len(final)} run(s) unfinished; "
                        f"journal: {self.sweep.journal_path} -- re-run "
                        "with resume to continue"
                    )
                time.sleep(self.lease.poll_interval_s)
        except KeyboardInterrupt:
            self.abort()
            raise KeyboardInterrupt(
                f"distributed sweep interrupted: {len(final)}/"
                f"{len(wanted)} run(s) final in "
                f"{self.sweep.journal_path}; re-run with resume to "
                "continue"
            ) from None
        finally:
            self._join_workers()

        SweepJournal.compact(self.sweep.journal_path)
        outcomes: List[RunOutcome] = []
        for index, spec in enumerate(self._specs):
            record = final[self._keys[index]]
            result = record.to_run_result()
            if result is None:  # pragma: no cover - schema drift
                result = _error_result(
                    spec,
                    "EXCEPTION: journal record does not match the "
                    "current RunResult schema",
                )
            kind: Optional[FailureKind] = None
            if record.failure_kind:
                try:
                    kind = FailureKind(record.failure_kind)
                except ValueError:
                    kind = None
            outcomes.append(RunOutcome(
                spec,
                result,
                record.elapsed_s,
                from_cache=record.cached,
                attempts=max(1, record.attempts),
                failure_kind=kind,
                from_journal=self._keys[index] in self._replayed,
            ))
        return outcomes

    def _join_workers(self) -> None:
        for proc in self._procs:
            proc.join(10.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(2.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.kill()
                proc.join(2.0)

    def abort(self) -> None:
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        self._join_workers()

    def close(self) -> None:
        self.abort()
