"""Link-quality routing metrics for multicast (Section 2 of the paper).

Because multicast data is link-layer *broadcast*, two things change
relative to the unicast versions of these metrics:

1. Only the forward direction of a link matters (no ACKs), so ETX becomes
   ``1 / df`` instead of ``1 / (df * dr)``.
2. There are no retransmissions, so a packet has one shot per link; path
   composition by plain summation under-penalizes a single terrible link.
   SPP composes multiplicatively and METX recursively to capture this.

Every metric exposes the same small interface so ODMRP can carry an opaque
cost in its JOIN QUERY packets:

* ``initial_cost()``  -- path cost of the zero-link path at the source;
* ``link_cost(q)``    -- cost of one link from measured link quality;
* ``combine(path, link)`` -- extend a path cost by one link;
* ``is_better(a, b)`` -- strict "path cost a beats path cost b";
* ``worst_cost()``    -- the identity for ``is_better`` minimization.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Type

INFINITE_COST = float("inf")


@dataclass
class LinkQuality:
    """Measured quality of one directed link (from probing).

    Attributes
    ----------
    forward_delivery_ratio:
        ``df`` -- the probability a broadcast frame from the neighbor is
        received here.  In ``[0, 1]``.
    packet_pair_delay_s:
        EWMA of the packet-pair delay (PP metric), including loss
        penalties; None when the link has no packet-pair history.
    bandwidth_bps:
        Packet-pair bandwidth estimate (ETT metric); None when unmeasured.
    """

    forward_delivery_ratio: float = 0.0
    packet_pair_delay_s: Optional[float] = None
    bandwidth_bps: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.forward_delivery_ratio <= 1.0:
            raise ValueError(
                "forward delivery ratio must be in [0, 1], got "
                f"{self.forward_delivery_ratio}"
            )


class RouteMetric(ABC):
    """Interface shared by all path metrics."""

    #: Short identifier used in result tables ("etx", "spp", ...).
    name: str = ""
    #: True when larger path costs are better (only SPP).
    higher_is_better: bool = False
    #: How ``combine`` composes per-link costs along a path: "additive"
    #: (sum), "multiplicative" (product), or "recursive" (the METX
    #: recursion ``C' = (C + 1) / df``).  Declared so independent code
    #: (property tests, the metric-accumulation invariant monitor) can
    #: recompute a whole-path cost from the per-link costs without
    #: trusting ``combine`` itself.
    composition: str = "additive"

    @abstractmethod
    def initial_cost(self) -> float:
        """Cost of the empty path (at the source itself)."""

    @abstractmethod
    def link_cost(self, quality: LinkQuality) -> float:
        """Cost contribution of a single link."""

    @abstractmethod
    def combine(self, path_cost: float, link_cost: float) -> float:
        """Path cost after appending a link of ``link_cost``."""

    def is_better(self, a: float, b: float) -> bool:
        """True when path cost ``a`` is strictly better than ``b``."""
        if self.higher_is_better:
            return a > b
        return a < b

    def worst_cost(self) -> float:
        """The cost no real path is worse than (for best-so-far seeds)."""
        return -INFINITE_COST if self.higher_is_better else INFINITE_COST

    def is_usable(self, cost: float) -> bool:
        """False for costs that mean "this path cannot deliver at all"."""
        if self.higher_is_better:
            return cost > 0.0
        return math.isfinite(cost)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class HopCountMetric(RouteMetric):
    """Minimum hop count -- what the original protocols use."""

    name = "hopcount"

    def initial_cost(self) -> float:
        return 0.0

    def link_cost(self, quality: LinkQuality) -> float:
        return 1.0

    def combine(self, path_cost: float, link_cost: float) -> float:
        return path_cost + link_cost


class EtxMetric(RouteMetric):
    """Multicast ETX: ``1 / df`` per link, summed over the path.

    The reverse delivery ratio of the unicast original is dropped --
    broadcast frames are not acknowledged, so the reverse direction would
    only distort the metric (Section 2.2).
    """

    name = "etx"

    def initial_cost(self) -> float:
        return 0.0

    def link_cost(self, quality: LinkQuality) -> float:
        df = quality.forward_delivery_ratio
        if df <= 0.0:
            return INFINITE_COST
        return 1.0 / df

    def combine(self, path_cost: float, link_cost: float) -> float:
        return path_cost + link_cost


class EttMetric(RouteMetric):
    """Multicast ETT: ``ETX * S / B`` per link, summed over the path.

    ``S`` is the data packet size and ``B`` the packet-pair bandwidth
    estimate of the link.  Single-channel adaptation of WCETT, per the
    paper.  When a link has no bandwidth estimate yet, the configured
    ``default_bandwidth_bps`` is assumed (the nominal channel rate), so a
    fresh link behaves exactly like ETX scaled by a constant.
    """

    name = "ett"
    #: Tells the protocol registry this metric is parameterized by the
    #: workload's packet size and nominal channel rate.
    uses_packet_airtime = True

    def __init__(
        self,
        packet_size_bytes: int = 512,
        default_bandwidth_bps: float = 2_000_000.0,
    ) -> None:
        if packet_size_bytes <= 0:
            raise ValueError("packet size must be positive")
        if default_bandwidth_bps <= 0:
            raise ValueError("default bandwidth must be positive")
        self.packet_size_bytes = packet_size_bytes
        self.default_bandwidth_bps = default_bandwidth_bps

    def initial_cost(self) -> float:
        return 0.0

    def link_cost(self, quality: LinkQuality) -> float:
        df = quality.forward_delivery_ratio
        if df <= 0.0:
            return INFINITE_COST
        bandwidth = quality.bandwidth_bps or self.default_bandwidth_bps
        transmission_time = self.packet_size_bytes * 8.0 / bandwidth
        return transmission_time / df

    def combine(self, path_cost: float, link_cost: float) -> float:
        return path_cost + link_cost


class WcettSingleChannelMetric(EttMetric):
    """WCETT (Draves et al., MobiCom 2004) on the paper's single channel.

    WCETT is ``(1 - beta) * sum_i ETT_i + beta * max_j X_j``, where
    ``X_j`` sums the ETTs of the hops on channel ``j``.  On one channel
    ``max_j X_j == sum_i ETT_i``, so WCETT equals forward-only ETT for
    every ``beta`` and folds hop by hop exactly like :class:`EttMetric`.
    """

    name = "wcett"


class PpMetric(RouteMetric):
    """Packet-pair delay, summed over the path.

    The link cost is the EWMA-smoothed packet-pair delay maintained by the
    probing layer (which also applies the 20 % loss penalty).  At high
    loss rates the repeated penalty makes a link's cost grow exponentially
    with time -- the paper's explanation for PP's aggressiveness in
    avoiding lossy links.
    """

    name = "pp"

    def initial_cost(self) -> float:
        return 0.0

    def link_cost(self, quality: LinkQuality) -> float:
        if quality.packet_pair_delay_s is None:
            return INFINITE_COST
        return quality.packet_pair_delay_s

    def combine(self, path_cost: float, link_cost: float) -> float:
        return path_cost + link_cost


class MetxMetric(RouteMetric):
    """Multicast ETX (METX), Equation (2) of the paper.

    ``METX = sum_i 1 / prod_{j>=i} df_j`` -- the expected total number of
    transmissions by *all* nodes on the path so that at least one packet
    survives every link to the receiver, under a link layer with no
    retransmissions.

    The closed form composes hop-by-hop as ``C' = (C + 1) / df`` with
    ``C = 0`` at the source, which is how ODMRP accumulates it in the
    JOIN QUERY.  Note the per-link quantity is the delivery ratio itself,
    not ``1/df``: the recursion needs ``df`` directly.
    """

    name = "metx"
    composition = "recursive"

    def initial_cost(self) -> float:
        return 0.0

    def link_cost(self, quality: LinkQuality) -> float:
        # For METX the "link cost" carried around is df itself; the
        # recursion in combine() turns it into expected transmissions.
        return quality.forward_delivery_ratio

    def combine(self, path_cost: float, link_cost: float) -> float:
        df = link_cost
        if df <= 0.0:
            return INFINITE_COST
        return (path_cost + 1.0) / df


class SppMetric(RouteMetric):
    """Success Probability Product, adapted from Banerjee & Misra [3].

    ``SPP = prod_i df_i`` is the probability that a packet broadcast at
    the source traverses the whole path without loss; ``1/SPP`` is the
    expected number of source transmissions per delivered packet.  Higher
    is better -- the only metric here with that orientation.  One lossy
    link collapses the whole path's value multiplicatively, which is why
    SPP avoids lossy links more aggressively than the additive metrics
    (Figure 3).
    """

    name = "spp"
    higher_is_better = True
    composition = "multiplicative"

    def initial_cost(self) -> float:
        return 1.0

    def link_cost(self, quality: LinkQuality) -> float:
        return quality.forward_delivery_ratio

    def combine(self, path_cost: float, link_cost: float) -> float:
        return path_cost * link_cost


_METRIC_TYPES: Dict[str, Type[RouteMetric]] = {
    cls.name: cls
    for cls in (
        HopCountMetric,
        EtxMetric,
        EttMetric,
        WcettSingleChannelMetric,
        PpMetric,
        MetxMetric,
        SppMetric,
    )
}

#: The five studied metrics, in the paper's presentation order.
ALL_METRIC_NAMES = ("ett", "etx", "metx", "pp", "spp")


def register_metric(metric_type: Type[RouteMetric]) -> Type[RouteMetric]:
    """Register an extension metric under its ``name`` class attribute.

    Usable as a class decorator.  Re-registering the *same* class is a
    no-op (idempotent under re-import); claiming an existing name with a
    different class is an error, so extensions can never silently shadow
    the paper's metrics.
    """
    name = metric_type.name
    if not name:
        raise ValueError(
            f"{metric_type.__name__} must set a non-empty `name` attribute"
        )
    if name != name.lower():
        raise ValueError(
            f"metric name {name!r} must be lowercase: lookup lowercases "
            "the name it is given"
        )
    existing = _METRIC_TYPES.get(name)
    if existing is not None and existing is not metric_type:
        raise ValueError(
            f"metric name {name!r} is already taken by {existing.__name__}"
        )
    _METRIC_TYPES[name] = metric_type
    return metric_type


def _unknown_metric_error(name: str) -> ValueError:
    import difflib

    known = sorted(_METRIC_TYPES)
    close = difflib.get_close_matches(name.lower(), known, n=3)
    hint = f" (did you mean {', '.join(repr(c) for c in close)}?)" if close else ""
    return ValueError(
        f"unknown metric {name!r}{hint}; known: {', '.join(known)}"
    )


def metric_type_by_name(name: str) -> Type[RouteMetric]:
    """The metric class behind a table name, without instantiating it."""
    try:
        return _METRIC_TYPES[name.lower()]
    except KeyError:
        raise _unknown_metric_error(name) from None


def metric_by_name(name: str, **kwargs: object) -> RouteMetric:
    """Instantiate a metric from its table name (e.g. ``"spp"``)."""
    return metric_type_by_name(name)(**kwargs)  # type: ignore[arg-type]
