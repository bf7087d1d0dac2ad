"""The protocol registry: every router x metric combination, by name.

The paper's core claim is *orthogonality*: five link-quality metrics can
be plugged into mesh-based ODMRP or tree-based MAODV without touching
either protocol's machinery.  The registry makes that orthogonality a
first-class object instead of string branching scattered through the
scenario builder and CLI:

* a :class:`ProtocolSpec` binds a protocol *name* ("spp", "maodv-etx",
  "wcett") to a router class, a metric name, and optional per-protocol
  :class:`~repro.odmrp.config.OdmrpConfig` field overrides;
* a :class:`ProtocolRegistry` holds specs in registration order,
  rejects duplicate names, and resolves lookups with a helpful error
  (valid names plus a did-you-mean suggestion);
* :func:`register_protocol` is the registration API (also usable as the
  body of a class decorator via :func:`registers`), and the module seeds
  the default registry with the paper's six ODMRP variants, the six
  MAODV variants, and the single-channel WCETT entry.

``build_simulation_scenario`` resolves router class + metric from the
spec, so adding a protocol variant is one ``register_protocol`` call --
it is immediately sweepable, cacheable, and reportable through the whole
pipeline (runner, parallel cache, report, telemetry, CLI).
"""

from __future__ import annotations

import dataclasses
import difflib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, Mapping, Optional, Tuple, Type

from repro.core.metrics import RouteMetric, metric_type_by_name
from repro.maodv.protocol import MaodvRouter
from repro.odmrp.config import OdmrpConfig
from repro.odmrp.protocol import OdmrpRouter


class DuplicateProtocolError(ValueError):
    """A spec was registered under a name that is already taken."""


class UnknownProtocolError(ValueError):
    """Lookup of a protocol name the registry has never seen."""

    def __init__(self, name: str, known: Tuple[str, ...]) -> None:
        hint = ""
        close = difflib.get_close_matches(name.lower(), known, n=3)
        if close:
            hint = f" (did you mean {', '.join(repr(c) for c in close)}?)"
        super().__init__(
            f"unknown protocol {name!r}{hint}; registered protocols: "
            + ", ".join(known)
        )
        self.name = name
        self.known = known


@dataclass(frozen=True)
class ProtocolSpec:
    """One named, runnable router x metric combination.

    Attributes
    ----------
    name:
        The sweep/table identifier ("spp", "maodv-etx", ...).  Lowercase.
    router:
        The router class instantiated per node; must accept the
        :class:`~repro.odmrp.protocol.OdmrpRouter` constructor signature.
    metric:
        Name of the route metric (resolved through
        :func:`repro.core.metrics.metric_by_name`), or None for the
        protocol's native min-hop flood (no probing layer is built).
    family:
        Coarse grouping for reports and docs: "odmrp", "maodv",
        "multichannel", ...
    overrides:
        Per-protocol :class:`~repro.odmrp.config.OdmrpConfig` field
        overrides, applied on top of the scenario config's protocol
        section at build time.
    """

    name: str
    router: Type[OdmrpRouter]
    metric: Optional[str] = None
    family: str = "odmrp"
    description: str = ""
    overrides: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("protocol name must be non-empty")
        if self.name != self.name.lower():
            raise ValueError(f"protocol name must be lowercase: {self.name!r}")
        if self.metric is not None:
            # Fail at registration, not mid-sweep: the metric must exist.
            metric_type_by_name(self.metric)
        # Freeze the overrides mapping so the spec stays hashable-ish and
        # nobody mutates a registered spec in place.
        object.__setattr__(self, "overrides", dict(self.overrides))
        unknown = set(self.overrides) - {
            f.name for f in dataclasses.fields(OdmrpConfig)
        }
        if unknown:
            raise ValueError(
                f"spec {self.name!r} overrides unknown OdmrpConfig "
                f"field(s): {sorted(unknown)}"
            )

    def build_metric(
        self,
        packet_size_bytes: int = 512,
        default_bandwidth_bps: float = 2_000_000.0,
    ) -> Optional[RouteMetric]:
        """Instantiate this spec's metric (None for min-hop protocols).

        Airtime-based metrics (ETT and its WCETT adaptation) are
        parameterized by the workload's packet size and the channel's
        nominal rate; the caller passes both from the scenario config.
        """
        if self.metric is None:
            return None
        metric_type = metric_type_by_name(self.metric)
        if getattr(metric_type, "uses_packet_airtime", False):
            return metric_type(
                packet_size_bytes=packet_size_bytes,
                default_bandwidth_bps=default_bandwidth_bps,
            )
        return metric_type()

    def protocol_config(self, base: OdmrpConfig) -> OdmrpConfig:
        """The protocol config for a run: ``base`` plus spec overrides."""
        if not self.overrides:
            return base
        return dataclasses.replace(base, **self.overrides)

    def to_record(self) -> Dict[str, Any]:
        """JSON-friendly description (telemetry manifests, dry runs)."""
        return {
            "name": self.name,
            "router": f"{self.router.__module__}.{self.router.__qualname__}",
            "metric": self.metric,
            "family": self.family,
            "overrides": dict(self.overrides),
        }


class ProtocolRegistry:
    """Ordered name -> :class:`ProtocolSpec` mapping with strict names."""

    def __init__(self) -> None:
        self._specs: Dict[str, ProtocolSpec] = {}

    def register(
        self, spec: ProtocolSpec, replace: bool = False
    ) -> ProtocolSpec:
        key = spec.name
        if not replace and key in self._specs:
            raise DuplicateProtocolError(
                f"protocol {key!r} is already registered "
                f"({self._specs[key].to_record()['router']}); pass "
                "replace=True to override it"
            )
        self._specs[key] = spec
        return spec

    def unregister(self, name: str) -> None:
        self._specs.pop(name.lower(), None)

    def get(self, name: str) -> ProtocolSpec:
        try:
            return self._specs[name.lower()]
        except KeyError:
            raise UnknownProtocolError(name, self.names()) from None

    def names(self) -> Tuple[str, ...]:
        return tuple(self._specs)

    def specs(self) -> Tuple[ProtocolSpec, ...]:
        return tuple(self._specs.values())

    def family(self, family: str) -> Tuple[ProtocolSpec, ...]:
        return tuple(
            spec for spec in self._specs.values() if spec.family == family
        )

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name.lower() in self._specs

    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self) -> Iterator[ProtocolSpec]:
        return iter(self._specs.values())


#: The process-wide default registry every pipeline layer resolves against.
REGISTRY = ProtocolRegistry()


def register_protocol(
    name: str,
    router: Type[OdmrpRouter],
    metric: Optional[str] = None,
    family: str = "odmrp",
    description: str = "",
    overrides: Optional[Mapping[str, Any]] = None,
    registry: ProtocolRegistry = REGISTRY,
    replace: bool = False,
) -> ProtocolSpec:
    """Register one router x metric combination under ``name``."""
    spec = ProtocolSpec(
        name=name.lower(),
        router=router,
        metric=metric,
        family=family,
        description=description,
        overrides=dict(overrides or {}),
    )
    return registry.register(spec, replace=replace)


def registers(
    name: str, **kwargs: Any
) -> Callable[[Type[OdmrpRouter]], Type[OdmrpRouter]]:
    """Class-decorator form of :func:`register_protocol`.

    ::

        @registers("myproto", metric="spp", family="experimental")
        class MyRouter(OdmrpRouter):
            ...
    """

    def decorate(router: Type[OdmrpRouter]) -> Type[OdmrpRouter]:
        register_protocol(name, router, **kwargs)
        return router

    return decorate


def protocol_by_name(name: str) -> ProtocolSpec:
    """Resolve a spec from the default registry (helpful error on typo)."""
    return REGISTRY.get(name)


def protocol_names() -> Tuple[str, ...]:
    """All registered protocol names, in registration order."""
    return REGISTRY.names()


def paper_protocol_names() -> Tuple[str, ...]:
    """The paper's six simulation variants (the "odmrp" family)."""
    return tuple(spec.name for spec in REGISTRY.family("odmrp"))


def maodv_protocol_names() -> Tuple[str, ...]:
    """The tree-based variants (the "maodv" family)."""
    return tuple(spec.name for spec in REGISTRY.family("maodv"))


# ----------------------------------------------------------------------
# Seed registrations: the paper's six ODMRP variants, their MAODV
# counterparts (Section 4.3: "metrics continue to be effective in ...
# tree-based [protocols] such as MAODV"), and the multi-channel
# future-work entry.  Registration order is presentation order in
# reports and the CLI.

_PAPER_METRICS = ("ett", "etx", "metx", "pp", "spp")

register_protocol(
    "odmrp", OdmrpRouter, metric=None, family="odmrp",
    description="Original ODMRP: first-arriving JOIN QUERY, min-hop mesh.",
)
for _metric in _PAPER_METRICS:
    register_protocol(
        _metric, OdmrpRouter, metric=_metric, family="odmrp",
        description=f"ODMRP_{_metric.upper()}: mesh routing on {_metric}.",
    )

register_protocol(
    "maodv", MaodvRouter, metric=None, family="maodv",
    description="Tree-based (MAODV-like) multicast, min-hop trees.",
)
for _metric in _PAPER_METRICS:
    register_protocol(
        f"maodv-{_metric}", MaodvRouter, metric=_metric, family="maodv",
        description=(
            f"MAODV-like per-source trees selected by {_metric}."
        ),
    )

register_protocol(
    "wcett", OdmrpRouter, metric="wcett", family="multichannel",
    description=(
        "ODMRP on single-channel WCETT (degenerates to forward-only ETT "
        "on one channel; see repro.core.metrics)."
    ),
)
