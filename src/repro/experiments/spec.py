"""Declarative experiment specs: a sweep as serializable data.

An :class:`ExperimentSpec` captures everything
:func:`~repro.experiments.runner.run_experiment` needs -- the
protocol list (resolved through the protocol registry), topology seeds,
parallelism/caching knobs, and the full
:class:`~repro.experiments.scenarios.SimulationScenarioConfig` -- as a
plain dataclass that round-trips losslessly through ``dict``, JSON, and
TOML.  That makes every router x metric sweep shippable as a file::

    repro run --spec examples/paper_spec.toml
    repro run --spec examples/maodv_sweep.toml --protocols maodv,maodv-spp

Serialization rules
-------------------
* Nested config dataclasses become nested tables/objects; unknown keys
  are rejected (a typo'd field fails loudly at load time, not silently
  mid-sweep).
* ``None`` fields are omitted on write (TOML has no null); absent keys
  take the dataclass default on read, so defaults never bloat spec
  files.
* Model *instances* (a custom propagation or fading object) are not
  serializable -- specs describe the declarative surface only, and
  :meth:`ExperimentSpec.to_dict` refuses exotic values instead of
  writing a lossy ``repr``.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from repro.experiments.adaptive import AdaptiveConfig
from repro.experiments.scenarios import (
    PROTOCOL_NAMES,
    SimulationScenarioConfig,
)
from repro.protocols import ProtocolSpec, protocol_by_name

#: Bump when the on-disk spec layout changes incompatibly.
SPEC_SCHEMA_VERSION = 1


class SpecError(ValueError):
    """A spec file or dict that cannot be interpreted."""


# ----------------------------------------------------------------------
# Dataclass <-> plain-dict conversion (strict, lossless)


def _plain(value: Any, where: str) -> Any:
    """Reduce a config value to JSON/TOML primitives, refusing the rest."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out = {}
        for f in dataclasses.fields(value):
            item = _plain(getattr(value, f.name), f"{where}.{f.name}")
            if item is not None:
                out[f.name] = item
        return out
    if isinstance(value, Mapping):
        return {str(k): _plain(v, f"{where}[{k!r}]") for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item, f"{where}[]") for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise SpecError(
        f"{where} = {value!r} is not serializable; experiment specs may "
        "only contain primitives and config dataclasses (construct model "
        "instances in code instead)"
    )


def _strip_optional(hint: Any) -> Any:
    if get_origin(hint) is Union:
        args = [a for a in get_args(hint) if a is not type(None)]
        if len(args) == 1:
            return args[0]
    return hint


def _sequence_item_dataclass(hint: Any) -> Optional[type]:
    """The dataclass a ``List[X]``/``Tuple[X, ...]`` hint holds, if any.

    Lets config fields like ``FaultPlan.outages: Tuple[OutageWindow, ...]``
    round-trip: the serialized form is a list of tables, rebuilt here
    element by element.
    """
    if get_origin(hint) not in (list, tuple):
        return None
    item_types = [a for a in get_args(hint) if a is not Ellipsis]
    if len(set(item_types)) != 1:
        return None
    item_type = _strip_optional(item_types[0])
    if isinstance(item_type, type) and dataclasses.is_dataclass(item_type):
        return item_type
    return None


def _build_dataclass(cls: type, data: Mapping[str, Any], where: str) -> Any:
    """Reconstruct a (possibly nested) config dataclass from a mapping."""
    if not isinstance(data, Mapping):
        raise SpecError(f"{where} must be a table/object, got {data!r}")
    field_types = get_type_hints(cls)
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise SpecError(
            f"unknown key(s) {sorted(unknown)} in {where}; valid keys: "
            + ", ".join(sorted(names))
        )
    kwargs: Dict[str, Any] = {}
    for f in dataclasses.fields(cls):
        if f.name not in data:
            continue
        value = data[f.name]
        target = _strip_optional(field_types[f.name])
        if dataclasses.is_dataclass(target) and isinstance(value, Mapping):
            value = _build_dataclass(target, value, f"{where}.{f.name}")
        else:
            item_type = _sequence_item_dataclass(target)
            if item_type is not None and isinstance(value, (list, tuple)):
                value = [
                    _build_dataclass(
                        item_type, item, f"{where}.{f.name}[{index}]"
                    )
                    for index, item in enumerate(value)
                ]
        kwargs[f.name] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"invalid {where}: {exc}") from exc


def config_to_dict(config: SimulationScenarioConfig) -> Dict[str, Any]:
    """A scenario config as nested primitives (raises on model instances)."""
    return _plain(config, "config")


#: Keys of retired features, each with the reason loading it fails:
#: dropping one silently would run a different experiment than the
#: file describes.
_REMOVED_SPEC_KEYS = {
    "backend": (
        "the dir:// backend was removed and every sweep runs locally (set "
        "jobs and run_timeout_s; resume with --resume)"
    ),
    "campaign": (
        "fault campaigns were removed; sweep a hand-written fault plan "
        "with config.faults"
    ),
    "mobility_models": (
        "mobility was removed and every run uses the static mesh the "
        "paper measures; delete the key"
    ),
    "max_retries": (
        "in-sweep retry was removed: a failed run is quarantined at once; "
        "re-dispatch it with repro run --resume"
    ),
}
_REMOVED_CONFIG_KEYS = {
    "mobility": (
        "mobility was removed and every run uses the static mesh the "
        "paper measures; delete the [config.mobility] table"
    ),
    "energy": (
        "energy accounting was removed; delete the [config.energy] table"
    ),
    "obstacles": (
        "obstacle shadowing was removed and every run uses open-space "
        "propagation; delete the [config.obstacles] table"
    ),
}
_REMOVED_NETWORK_KEYS = {
    "phy_backend": (
        "PHY backend selection was removed: the channel runs the compiled "
        "PHY kernel wherever it loads and the pure-Python passes "
        "elsewhere, with bit-identical results; delete the key"
    ),
}


def _reject_removed(
    data: Mapping[str, Any], removed: Mapping[str, str], where: str
) -> None:
    for key, reason in removed.items():
        if key in data:
            raise SpecError(
                f"{where} key {key!r} is no longer supported: {reason}"
            )


def config_from_dict(data: Mapping[str, Any]) -> SimulationScenarioConfig:
    """Rebuild a scenario config; unknown keys are an error."""
    if isinstance(data, Mapping):
        _reject_removed(data, _REMOVED_CONFIG_KEYS, "config")
        network = data.get("network")
        if isinstance(network, Mapping):
            _reject_removed(network, _REMOVED_NETWORK_KEYS, "config.network")
    return _build_dataclass(SimulationScenarioConfig, data, "config")


def _is_number(value: Any) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _validate_scenario(config: SimulationScenarioConfig) -> None:
    """Reject a scenario every run of it would fail to build.

    Catches at load time what would otherwise raise in each worker and
    quarantine every run; the fault plan reuses the check the scenario
    builder applies.
    """
    for key in ("num_nodes", "num_groups", "members_per_group",
                "sources_per_group", "packet_size_bytes"):
        value = getattr(config, key)
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise SpecError(
                f"config.{key} must be a positive integer, got {value!r}"
            )
    for key in ("duration_s", "warmup_s", "area_width_m", "area_height_m",
                "rate_pps"):
        value = getattr(config, key)
        if not _is_number(value):
            raise SpecError(
                f"config.{key} must be a finite number, got {value!r}"
            )
    nodes = config.num_nodes
    per_group = config.members_per_group + config.sources_per_group
    if per_group > nodes:
        raise SpecError(
            f"config.members_per_group + config.sources_per_group "
            f"({per_group}) must not exceed config.num_nodes ({nodes}): "
            "each group draws that many distinct nodes"
        )
    if config.rate_pps <= 0.0:
        raise SpecError(
            f"config.rate_pps must be positive, got {config.rate_pps!r}"
        )
    if not 0.0 <= config.warmup_s < config.duration_s:
        raise SpecError(
            f"config.warmup_s ({config.warmup_s!r}) must be at least 0 and "
            f"less than config.duration_s ({config.duration_s!r}): traffic "
            "runs from the end of the warmup to the end of the run"
        )
    try:
        config.faults.validate_for(nodes)
    except ValueError as exc:
        raise SpecError(f"invalid config: {exc}") from exc


# ----------------------------------------------------------------------
# A minimal TOML emitter (tomllib is read-only).  Covers exactly the
# value shapes _plain() can produce: str/bool/int/float scalars, lists
# of scalars, nested string-keyed tables, and lists of flat tables
# (emitted as ``[[arrays.of.tables]]``; fault schedules need these).

_BARE_KEY = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-"
)


def _toml_key(key: str) -> str:
    if key and all(ch in _BARE_KEY for ch in key):
        return key
    return json.dumps(key)


def _toml_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, str)):
        return json.dumps(value)
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise SpecError(f"non-finite float {value!r} in spec")
        text = repr(value)
        # TOML requires a decimal point or exponent on floats.
        return text if any(c in text for c in ".eE") else text + ".0"
    if isinstance(value, list):
        return "[" + ", ".join(_toml_value(item) for item in value) + "]"
    raise SpecError(f"cannot render {value!r} as TOML")


def toml_dumps(data: Mapping[str, Any]) -> str:
    """Serialize a nested dict of primitives to TOML text."""

    def is_table_array(value: Any) -> bool:
        return (
            isinstance(value, list)
            and bool(value)
            and all(isinstance(item, Mapping) for item in value)
        )

    def emit(table: Mapping[str, Any], prefix: str, lines: List[str]) -> None:
        scalars: Dict[str, Any] = {}
        subtables: Dict[str, Any] = {}
        table_arrays: Dict[str, Any] = {}
        for k, v in table.items():
            if isinstance(v, Mapping):
                subtables[k] = v
            elif is_table_array(v):
                table_arrays[k] = v
            else:
                scalars[k] = v
        if prefix and (scalars or not (subtables or table_arrays)):
            lines.append(f"[{prefix}]")
        for key, value in scalars.items():
            lines.append(f"{_toml_key(key)} = {_toml_value(value)}")
        if scalars or not prefix:
            lines.append("")
        for key, value in subtables.items():
            path = f"{prefix}.{_toml_key(key)}" if prefix else _toml_key(key)
            emit(value, path, lines)
        for key, items in table_arrays.items():
            path = f"{prefix}.{_toml_key(key)}" if prefix else _toml_key(key)
            for item in items:
                lines.append(f"[[{path}]]")
                for item_key, item_value in item.items():
                    if isinstance(item_value, Mapping) or is_table_array(
                        item_value
                    ):
                        raise SpecError(
                            f"nested tables inside the table array {path!r} "
                            "are not supported by the TOML emitter; write "
                            "the spec as JSON instead"
                        )
                    lines.append(
                        f"{_toml_key(item_key)} = {_toml_value(item_value)}"
                    )
                lines.append("")

    lines: List[str] = []
    emit(data, "", lines)
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# The spec itself


@dataclass
class ExperimentSpec:
    """One declarative sweep: protocols x seeds over one scenario config."""

    name: str = "experiment"
    description: str = ""
    protocols: Tuple[str, ...] = PROTOCOL_NAMES
    seeds: Tuple[int, ...] = (1,)
    jobs: int = 1
    use_cache: bool = False
    #: Per-run wall-clock timeout (seconds), enforced by killing the
    #: run's worker process (:mod:`repro.experiments.resilience`), so
    #: even ``jobs = 1`` then runs on a supervised worker.  A run that
    #: times out is quarantined; setting this also journals the sweep,
    #: so ``repro run --resume`` re-dispatches it.  ``None`` (the
    #: default) means no timeout.
    run_timeout_s: Optional[float] = None
    #: Optional ``[adaptive]`` section: run the sweep under the
    #: sequential planner (:mod:`repro.experiments.adaptive`) -- seeds
    #: in batches, CI-driven stopping per protocol, paired
    #: common-random-number comparisons.  ``None`` keeps the exhaustive
    #: grid; ``repro run --adaptive`` fills in the defaults.
    adaptive: Optional[AdaptiveConfig] = None
    config: SimulationScenarioConfig = field(
        default_factory=SimulationScenarioConfig
    )

    def __post_init__(self) -> None:
        self.protocols = tuple(self.protocols)
        self.seeds = tuple(self.seeds)

    # -- validation ----------------------------------------------------

    def resolve_protocols(self) -> Tuple[ProtocolSpec, ...]:
        """Resolve every protocol name through the registry (typo-safe)."""
        return tuple(protocol_by_name(name) for name in self.protocols)

    def validate(self) -> "ExperimentSpec":
        """Check the spec is runnable; returns self for chaining."""
        if not self.protocols:
            raise SpecError("spec lists no protocols")
        if not self.seeds:
            raise SpecError("spec lists no topology seeds")
        if any(not isinstance(seed, int) or isinstance(seed, bool)
               for seed in self.seeds):
            raise SpecError(f"seeds must be integers, got {self.seeds!r}")
        if not isinstance(self.jobs, int) or isinstance(self.jobs, bool):
            raise SpecError(
                f"jobs must be an integer (<= 0 means one per CPU), "
                f"got {self.jobs!r}"
            )
        if not isinstance(self.use_cache, bool):
            raise SpecError(
                f"use_cache must be true or false, got {self.use_cache!r}"
            )
        if self.run_timeout_s is not None and (
            not isinstance(self.run_timeout_s, (int, float))
            or isinstance(self.run_timeout_s, bool)
            or self.run_timeout_s <= 0
        ):
            raise SpecError(
                f"run_timeout_s must be a positive number of seconds, "
                f"got {self.run_timeout_s!r}"
            )
        self.resolve_protocols()
        _validate_scenario(self.config)
        if self.adaptive is not None:
            try:
                self.adaptive.validate()
            except ValueError as exc:
                raise SpecError(str(exc)) from exc
            baseline = self.adaptive.baseline
            if baseline is not None and baseline not in self.protocols:
                raise SpecError(
                    f"adaptive.baseline {baseline!r} is not among the "
                    f"spec's protocols {list(self.protocols)}"
                )
        for key in ("protocols", "seeds"):
            values = getattr(self, key)
            if len(set(values)) != len(values):
                raise SpecError(f"{key} has duplicates: {list(values)!r}")
        return self

    @property
    def total_runs(self) -> int:
        """Runs in the exhaustive grid: protocols x seeds.  An
        ``[adaptive]`` sweep ignores ``seeds`` and runs up to
        ``len(protocols) * adaptive.max_seeds`` instead (see
        :meth:`describe`)."""
        return len(self.protocols) * len(self.seeds)

    def describe(self) -> str:
        """Human-readable run plan (the CLI's ``--dry-run`` output)."""
        lines = [
            f"experiment: {self.name}",
        ]
        if self.description:
            lines.append(f"  {self.description}")
        if self.adaptive is not None:
            cap = self.adaptive.max_seeds
            runs = (
                f"runs: {len(self.protocols)} protocols x up to {cap} "
                f"seeds = at most {len(self.protocols) * cap}"
            )
        else:
            runs = (
                f"runs: {len(self.protocols)} protocols x "
                f"{len(self.seeds)} topologies = {self.total_runs}"
            )
        lines += [
            runs,
            f"seeds: {', '.join(str(seed) for seed in self.seeds)}",
            f"scenario: {self.config.num_nodes} nodes, "
            f"{self.config.duration_s:g} s simulated, "
            f"{self.config.num_groups} group(s) x "
            f"{self.config.members_per_group} members",
            f"execution: jobs={self.jobs} "
            f"cache={'on' if self.use_cache else 'off'} "
            f"telemetry={'on' if self.config.telemetry.enabled else 'off'}",
        ]
        if self.adaptive is not None:
            lines.append(
                f"adaptive: target-half-width="
                f"{self.adaptive.target_half_width:g} "
                f"batch={self.adaptive.batch_size} "
                f"seeds {self.adaptive.min_seeds}.."
                f"{self.adaptive.max_seeds} "
                f"paired={'on' if self.adaptive.paired else 'off'}"
                + (
                    f" baseline={self.adaptive.baseline}"
                    if self.adaptive.baseline else ""
                )
            )
        if self.run_timeout_s is not None:
            lines.append(
                f"resilience: run-timeout={self.run_timeout_s:g}s "
                "(journaled)"
            )
        lines.append("protocols:")
        for proto in self.resolve_protocols():
            metric = proto.metric or "min-hop"
            lines.append(
                f"  {proto.name:<12} family={proto.family:<13} "
                f"metric={metric:<8} router={proto.router.__name__}"
            )
        return "\n".join(lines)

    # -- serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "schema": SPEC_SCHEMA_VERSION,
            "name": self.name,
            "description": self.description,
            "protocols": list(self.protocols),
            "seeds": list(self.seeds),
            "jobs": self.jobs,
            "use_cache": self.use_cache,
        }
        # None means "knob not set": omitted on write (TOML has no null),
        # absent keys take the dataclass default on read.
        if self.run_timeout_s is not None:
            data["run_timeout_s"] = self.run_timeout_s
        if self.adaptive is not None:
            data["adaptive"] = _plain(self.adaptive, "adaptive")
        data["config"] = config_to_dict(self.config)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        if not isinstance(data, Mapping):
            raise SpecError(f"spec must be a table/object, got {data!r}")
        schema = data.get("schema", SPEC_SCHEMA_VERSION)
        if schema != SPEC_SCHEMA_VERSION:
            raise SpecError(
                f"spec schema {schema!r} not supported "
                f"(this version reads schema {SPEC_SCHEMA_VERSION})"
            )
        _reject_removed(data, _REMOVED_SPEC_KEYS, "spec")
        known = {
            "schema", "name", "description", "protocols", "seeds",
            "jobs", "use_cache", "run_timeout_s", "adaptive", "config",
        }
        unknown = set(data) - known
        if unknown:
            raise SpecError(
                f"unknown key(s) {sorted(unknown)} in spec; valid keys: "
                + ", ".join(sorted(known))
            )
        kwargs: Dict[str, Any] = {}
        for key in ("name", "description", "jobs", "use_cache",
                    "run_timeout_s"):
            if key in data:
                kwargs[key] = data[key]
        for key in ("protocols", "seeds"):
            if key not in data:
                continue
            if not isinstance(data[key], (list, tuple)):
                raise SpecError(f"{key} must be a list, got {data[key]!r}")
            kwargs[key] = tuple(data[key])
        if "adaptive" in data:
            kwargs["adaptive"] = _build_dataclass(
                AdaptiveConfig, data["adaptive"], "adaptive"
            )
        if "config" in data:
            kwargs["config"] = config_from_dict(data["config"])
        return cls(**kwargs)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise SpecError(f"invalid JSON spec: {exc}") from exc
        return cls.from_dict(data)

    def to_toml(self) -> str:
        return toml_dumps(self.to_dict())

    @classmethod
    def from_toml(cls, text: str) -> "ExperimentSpec":
        try:
            import tomllib
        except ImportError:  # Python 3.10: tomllib landed in 3.11
            try:
                import tomli as tomllib  # type: ignore[no-redef]
            except ImportError:
                raise SpecError(
                    "reading TOML specs needs Python >= 3.11 (tomllib) "
                    "or the 'tomli' package; use a .json spec instead"
                ) from None

        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise SpecError(f"invalid TOML spec: {exc}") from exc
        return cls.from_dict(data)

    # -- files ---------------------------------------------------------

    def save(self, path: str) -> str:
        """Write the spec to ``path`` (.toml or .json, by extension)."""
        text = self.to_json() if _is_json(path) else self.to_toml()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    @classmethod
    def load(cls, path: str) -> "ExperimentSpec":
        """Read a spec file (.toml or .json, by extension)."""
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        return cls.from_json(text) if _is_json(path) else cls.from_toml(text)

    # -- derived specs -------------------------------------------------

    def with_overrides(
        self,
        protocols: Optional[Sequence[str]] = None,
        seeds: Optional[Sequence[int]] = None,
        jobs: Optional[int] = None,
        use_cache: Optional[bool] = None,
        run_timeout_s: Optional[float] = None,
    ) -> "ExperimentSpec":
        """A copy with CLI-style overrides applied (None = keep)."""
        return dataclasses.replace(
            self,
            protocols=tuple(protocols) if protocols is not None
            else self.protocols,
            seeds=tuple(seeds) if seeds is not None else self.seeds,
            jobs=self.jobs if jobs is None else jobs,
            use_cache=self.use_cache if use_cache is None else use_cache,
            run_timeout_s=self.run_timeout_s if run_timeout_s is None
            else run_timeout_s,
        )


def _is_json(path: str) -> bool:
    return path.lower().endswith(".json")

