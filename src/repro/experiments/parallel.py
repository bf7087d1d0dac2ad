"""Run specs, the on-disk result cache, and the determinism gate.

The paper's sweeps (6 protocol variants x 10 topology seeds, Section 4)
are embarrassingly parallel: every run is fully determined by its
``(protocol, config, seed)`` triple and shares no state with any other
run.  A :class:`RunSpec` is that triple -- small and picklable, so the
scenario is built wherever the run executes.  A list of specs executes
(inline, or on persistent supervised worker processes) through
:meth:`repro.experiments.executors.SweepExecutor.execute`.

Determinism is inherited, not re-engineered: every RNG stream in a run is
derived from the spec's seeds (see :mod:`repro.sim.rng`), so a run
produces a bit-identical :class:`RunResult` whether it executes inline,
in a worker process, or is replayed from the cache.
:func:`repro.validation.fuzzing.differential_check` (behind
``scripts/bench_check.py``, the perfsmoke tier and the fuzz tier)
asserts this.

Failure containment: a run that raises returns an *error-annotated*
result (``RunResult.error`` holds the traceback and all measurements
are zeroed) instead of killing the sweep.
:func:`repro.experiments.results.aggregate_runs` skips errored runs.

Caching: results are stored one JSON file per run under ``cache_dir``,
keyed by a SHA-256 over the canonicalized ``(protocol, config fields,
seed)`` triple plus a schema version.  Editing a config field therefore
only invalidates the runs whose behaviour it changes.  The key does NOT
hash the simulator source: after changing model *code*, clear the cache
(delete the directory or pass ``use_cache=False`` / ``--no-cache``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
import traceback
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - cycle guard (resilience -> here)
    from repro.experiments.resilience import FailureKind

from repro.experiments.results import RunResult
from repro.experiments.scenarios import SimulationScenarioConfig
from repro.telemetry.manifest import canonicalize

#: Bump when the RunResult schema or run semantics change, so stale cache
#: entries from older code versions can never be returned.
#: v2: configs gained a ``telemetry`` section and results a
#: ``telemetry_path`` field.
#: v3: protocol names resolve through the protocol registry (router x
#: metric specs; MAODV/WCETT entries joined the namespace) and probing
#: configs gained WCETT pair sizes.
#: v4: scenario configs gained `faults` (declarative outage/flapping
#: plans) and `validation` (invariant monitors) sections.
#: v5: network configs gained a PHY backend field (vectorized PHY
#: reception).
#: v6: scenario configs gained `mobility`, `obstacles`, and `energy`
#: sections (dynamic networks).
#: v7: faulty runs record `faults.*` severity counters in results, and
#: plans that silence a source for the whole traffic interval are
#: rejected instead of reporting zero delivery.
#: v8: scenario configs lost `mobility` and `energy` (both retired;
#: every run is on the static mesh).
#: v9: scenario configs lost `obstacles` (retired; propagation is open
#: space).
#: v10: network configs lost the PHY backend field (the channel compiles
#: the PHY kernel wherever it loads).
CACHE_SCHEMA_VERSION = 10

#: Default on-disk cache location (override with $REPRO_CACHE_DIR).
DEFAULT_CACHE_DIR = os.path.join(".repro_cache", "runs")

ProgressCallback = Callable[[str, int], None]


@dataclass
class RunSpec:
    """Everything a worker needs to reproduce one run, picklable."""

    protocol: str
    config: SimulationScenarioConfig
    seed: int

    def seeded_config(self) -> SimulationScenarioConfig:
        return dataclasses.replace(self.config, topology_seed=self.seed)

    def cache_key(self) -> str:
        """Content hash over (protocol, config fields, seed)."""
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "protocol": self.protocol.lower(),
            "seed": self.seed,
            "config": canonicalize(self.seeded_config()),
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class RunOutcome:
    """One executed (or cached, or failed) run with its bookkeeping."""

    spec: RunSpec
    result: RunResult
    elapsed_s: float
    from_cache: bool
    #: Taxonomy classification of a quarantined run; None on success.
    failure_kind: Optional["FailureKind"] = None
    #: True when the result was replayed from the sweep journal by a
    #: ``--resume`` pass instead of being executed or cache-loaded.
    from_journal: bool = False

    @property
    def failed(self) -> bool:
        return self.result.error is not None


def _error_result(spec: RunSpec, error: str) -> RunResult:
    """A zeroed, error-annotated placeholder for a crashed run."""
    return RunResult(
        protocol=spec.protocol.lower(),
        topology_seed=spec.seed,
        duration_s=spec.config.duration_s,
        offered_packets=0,
        expected_deliveries=0,
        delivered_packets=0,
        delivered_bytes=0,
        mean_delay_s=None,
        probe_bytes=0.0,
        counters={},
        error=error,
    )


def _execute_spec(spec: RunSpec) -> tuple:
    """Worker entry point: build, run, and measure one scenario.

    Runs inside a worker process (or inline).  Exceptions
    are converted to error-annotated results here so a bad run reports
    itself instead of poisoning the whole sweep.  Returns
    ``(result, elapsed_s)``.
    """
    # Imported here so the worker does the heavy imports, not the parent.
    from repro.experiments.runner import run_protocol

    start = time.perf_counter()
    try:
        result = run_protocol(spec.protocol, spec.seeded_config())
    except Exception:  # noqa: BLE001 - annotate *any* model failure
        return _error_result(spec, traceback.format_exc()), (
            time.perf_counter() - start
        )
    return result, time.perf_counter() - start


# ----------------------------------------------------------------------
# Cache plumbing


def resolve_cache_dir(cache_dir: Optional[str] = None) -> str:
    return cache_dir or os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)


def _cache_path(cache_dir: str, key: str) -> str:
    return os.path.join(cache_dir, f"{key}.json")


def _quarantine_cache_entry(path: str) -> None:
    """Move a damaged cache file aside (``<path>.corrupt``) or drop it.

    Either way the bad artifact can never be loaded again, and the slot
    is free for the recomputed result to be stored.
    """
    try:
        os.replace(path, f"{path}.corrupt")
    except OSError:
        try:
            os.unlink(path)
        except OSError:
            pass


def cache_load(cache_dir: str, key: str) -> Optional[RunResult]:
    """Load the result cached under ``key`` (a ``RunSpec.cache_key()``),
    or None on a miss.

    A corrupted or truncated entry (invalid JSON -- the signature of a
    worker killed mid-write by pre-atomic-store versions -- or a record
    that no longer matches the RunResult schema) is treated as a miss
    *and quarantined*: the file is renamed to ``<key>.json.corrupt`` so
    it can be inspected but never re-read, and the run recomputes.
    """
    path = _cache_path(cache_dir, key)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError:
        return None  # plain miss: no entry
    except ValueError:
        _quarantine_cache_entry(path)
        return None
    if not isinstance(data, dict):
        _quarantine_cache_entry(path)
        return None
    try:
        return RunResult(**data)
    except TypeError:
        _quarantine_cache_entry(path)
        return None


def cache_store(cache_dir: str, key: str, result: RunResult) -> None:
    """Atomically persist one result under ``key`` (errored runs are
    never cached).

    The entry is written to a temp file, flushed and fsync'd, then
    ``os.replace``d into place -- a worker killed at any instant leaves
    either the old entry, the new entry, or an orphaned temp file
    (never a half-written entry).  Orphaned temps are swept by
    :func:`sweep_stale_cache_tmps` at the next journaled sweep start.
    """
    if result.error is not None:
        return
    os.makedirs(cache_dir, exist_ok=True)
    path = _cache_path(cache_dir, key)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(dataclasses.asdict(result), handle, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def remove_stale_files(directory: str, matches: Callable[[str], bool]) -> int:
    """Unlink the files in ``directory`` whose names ``matches``;
    returns the count (0 for a missing directory)."""
    try:
        names = os.listdir(directory)
    except OSError:
        return 0
    removed = 0
    for name in names:
        if not matches(name):
            continue
        try:
            os.unlink(os.path.join(directory, name))
            removed += 1
        except OSError:
            pass
    return removed


def sweep_stale_cache_tmps(cache_dir: str) -> int:
    """Remove orphaned ``*.json.tmp.<pid>`` files; returns the count.

    Temp files are transient by construction (created, fsync'd, and
    replaced within one ``cache_store`` call), so anything still on
    disk belongs to a killed worker.  Callers should only invoke this
    at sweep start, when no workers are writing to ``cache_dir``.
    """
    return remove_stale_files(cache_dir, lambda name: ".json.tmp." in name)


# ----------------------------------------------------------------------
# Sweep shape


def resolve_jobs(jobs: Optional[int]) -> int:
    """Worker count for ``jobs``: ``None`` or ``<= 0`` is one per CPU."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def sweep_specs(
    config: SimulationScenarioConfig,
    protocols: Sequence[str],
    topology_seeds: Sequence[int],
) -> List[RunSpec]:
    """The paper's sweep grid in canonical (seed-major) order."""
    return [
        RunSpec(protocol=protocol, config=config, seed=seed)
        for seed in topology_seeds
        for protocol in protocols
    ]
