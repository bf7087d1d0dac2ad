"""Tests for the routing metrics -- the paper's primary contribution."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.accumulation import (
    additive,
    metx_closed_form,
    multiplicative,
    path_cost,
    recursive_metx,
)
from repro.core.comparison import best_path, normalize_against, rank_paths
from repro.core.metrics import (
    ALL_METRIC_NAMES,
    EttMetric,
    EtxMetric,
    HopCountMetric,
    LinkQuality,
    MetxMetric,
    PpMetric,
    SppMetric,
    _METRIC_TYPES,
    metric_by_name,
    register_metric,
)
from repro.protocols import protocol_by_name

delivery_ratios = st.floats(min_value=0.01, max_value=1.0)
paths = st.lists(delivery_ratios, min_size=1, max_size=8)
#: One link as (df, packet-pair delay), so PP costs are finite too.
links = st.tuples(delivery_ratios, st.floats(min_value=1e-4, max_value=0.1))
link_paths = st.lists(links, min_size=1, max_size=8)


def registered_metrics():
    """One default instance of every registered metric, by name."""
    return [(name, metric_by_name(name)) for name in sorted(_METRIC_TYPES)]


def cost_of(metric, path) -> float:
    return path_cost(
        metric, [metric.link_cost(quality(df, delay=d)) for df, d in path]
    )


def quality(df: float = 1.0, delay=None, bandwidth=None) -> LinkQuality:
    return LinkQuality(
        forward_delivery_ratio=df,
        packet_pair_delay_s=delay,
        bandwidth_bps=bandwidth,
    )


class TestLinkQuality:
    def test_rejects_out_of_range_ratio(self):
        with pytest.raises(ValueError):
            LinkQuality(forward_delivery_ratio=1.5)
        with pytest.raises(ValueError):
            LinkQuality(forward_delivery_ratio=-0.1)


class TestHopCount:
    def test_counts_links(self):
        metric = HopCountMetric()
        cost = path_cost(metric, [metric.link_cost(quality())] * 4)
        assert cost == 4.0

    def test_lower_is_better(self):
        metric = HopCountMetric()
        assert metric.is_better(2.0, 3.0)
        assert not metric.is_better(3.0, 2.0)


class TestEtx:
    def test_link_cost_is_inverse_delivery(self):
        metric = EtxMetric()
        assert metric.link_cost(quality(0.5)) == pytest.approx(2.0)

    def test_dead_link_is_unusable(self):
        metric = EtxMetric()
        cost = metric.combine(1.0, metric.link_cost(quality(0.0)))
        assert not metric.is_usable(cost)

    def test_ignores_reverse_direction_entirely(self):
        # The multicast adaptation: only df appears in the LinkQuality
        # interface at all; this asserts the cost depends on df alone.
        metric = EtxMetric()
        assert metric.link_cost(quality(0.5, delay=10.0)) == metric.link_cost(
            quality(0.5, delay=None)
        )

    @given(paths)
    def test_path_cost_is_sum(self, dfs):
        metric = EtxMetric()
        total = path_cost(metric, [metric.link_cost(quality(df)) for df in dfs])
        assert total == pytest.approx(additive([1.0 / df for df in dfs]))


class TestEtt:
    def test_scales_etx_by_transmission_time(self):
        metric = EttMetric(packet_size_bytes=1000, default_bandwidth_bps=1e6)
        # 8000 bits at 1 Mbps = 8 ms; df 0.5 doubles it.
        assert metric.link_cost(quality(0.5)) == pytest.approx(0.016)

    def test_uses_measured_bandwidth_when_present(self):
        metric = EttMetric(packet_size_bytes=1000, default_bandwidth_bps=1e6)
        fast = metric.link_cost(quality(1.0, bandwidth=2e6))
        slow = metric.link_cost(quality(1.0, bandwidth=0.5e6))
        assert fast == pytest.approx(0.004)
        assert slow == pytest.approx(0.016)

    def test_validation(self):
        with pytest.raises(ValueError):
            EttMetric(packet_size_bytes=0)
        with pytest.raises(ValueError):
            EttMetric(default_bandwidth_bps=0.0)


class TestWcett:
    """On one channel WCETT's bottleneck term is the whole path: ETT."""

    @given(
        st.lists(
            st.tuples(
                delivery_ratios,
                st.one_of(st.none(), st.floats(min_value=1e5, max_value=1e7)),
            ),
            min_size=1,
            max_size=8,
        ),
        st.lists(delivery_ratios, min_size=1, max_size=8),
        st.integers(min_value=1, max_value=2048),
    )
    def test_wcett_is_ett(self, path, other, packet_size_bytes):
        wcett = metric_by_name("wcett", packet_size_bytes=packet_size_bytes)
        ett = metric_by_name("ett", packet_size_bytes=packet_size_bytes)
        qualities = [quality(df, bandwidth=bw) for df, bw in path]
        costs = [
            path_cost(m, [m.link_cost(q) for q in qualities])
            for m in (wcett, ett)
        ]
        assert costs[0] == costs[1]
        other_cost = path_cost(ett, [ett.link_cost(quality(df)) for df in other])
        assert wcett.is_better(costs[0], other_cost) == ett.is_better(
            costs[1], other_cost
        )
        assert wcett.is_better(other_cost, costs[0]) == ett.is_better(
            other_cost, costs[1]
        )

    def test_protocol_builds_with_workload_packet_size(self):
        for name in ("wcett", "ett"):
            metric = protocol_by_name(name).build_metric(
                packet_size_bytes=1024, default_bandwidth_bps=1e6
            )
            assert metric.name == name
            assert metric.packet_size_bytes == 1024
            assert metric.default_bandwidth_bps == 1e6


class TestPp:
    def test_cost_is_the_smoothed_delay(self):
        metric = PpMetric()
        assert metric.link_cost(quality(0.9, delay=0.004)) == 0.004

    def test_unmeasured_link_is_unusable(self):
        metric = PpMetric()
        assert not metric.is_usable(metric.link_cost(quality(0.9, delay=None)))


class TestMetx:
    def test_figure1_values(self):
        """The paper's Figure 1: METX(A-C-D)=6, METX(A-B-D)=5."""
        metric = MetxMetric()
        acd = path_cost(
            metric, [metric.link_cost(quality(df)) for df in (1.0, 1.0 / 3.0)]
        )
        abd = path_cost(
            metric, [metric.link_cost(quality(df)) for df in (0.25, 1.0)]
        )
        assert acd == pytest.approx(6.0)
        assert abd == pytest.approx(5.0)
        assert metric.is_better(abd, acd)  # METX prefers A-B-D

    @given(paths)
    def test_recursion_equals_closed_form(self, dfs):
        assert recursive_metx(dfs) == pytest.approx(
            metx_closed_form(dfs), rel=1e-9
        )

    @given(paths)
    def test_metx_at_least_etx(self, dfs):
        """METX counts every hop's transmissions, so it dominates ETX."""
        etx = additive([1.0 / df for df in dfs])
        assert recursive_metx(dfs) >= etx - 1e-9

    def test_perfect_path_equals_hop_count(self):
        assert recursive_metx([1.0] * 5) == pytest.approx(5.0)

    def test_dead_link_is_infinite(self):
        assert math.isinf(recursive_metx([0.5, 0.0, 1.0]))


class TestSpp:
    def test_figure1_values(self):
        """1/SPP(A-C-D)=3 beats 1/SPP(A-B-D)=4."""
        metric = SppMetric()
        acd = path_cost(
            metric, [metric.link_cost(quality(df)) for df in (1.0, 1.0 / 3.0)]
        )
        abd = path_cost(
            metric, [metric.link_cost(quality(df)) for df in (0.25, 1.0)]
        )
        assert 1.0 / acd == pytest.approx(3.0)
        assert 1.0 / abd == pytest.approx(4.0)
        assert metric.is_better(acd, abd)  # SPP prefers A-C-D

    def test_figure3_spp_overrules_etx(self):
        """SPP avoids the path with the single 0.4 link; ETX does not."""
        etx = EtxMetric()
        spp = SppMetric()
        abcd = (0.8, 0.8, 0.8)
        aed = (0.9, 0.4)
        etx_abcd = path_cost(etx, [etx.link_cost(quality(df)) for df in abcd])
        etx_aed = path_cost(etx, [etx.link_cost(quality(df)) for df in aed])
        spp_abcd = path_cost(spp, [spp.link_cost(quality(df)) for df in abcd])
        spp_aed = path_cost(spp, [spp.link_cost(quality(df)) for df in aed])
        assert etx_abcd == pytest.approx(3.75)
        assert etx_aed == pytest.approx(3.61, abs=0.01)
        assert etx.is_better(etx_aed, etx_abcd)  # ETX picks the lossy path
        assert spp_abcd == pytest.approx(0.512)
        assert spp_aed == pytest.approx(0.36)
        assert spp.is_better(spp_abcd, spp_aed)  # SPP picks the long path

    def test_higher_is_better_orientation(self):
        metric = SppMetric()
        assert metric.higher_is_better
        assert metric.is_better(0.9, 0.5)
        assert metric.worst_cost() == float("-inf")

    def test_zero_probability_is_unusable(self):
        metric = SppMetric()
        assert not metric.is_usable(0.0)

    @given(paths)
    def test_spp_is_path_delivery_probability(self, dfs):
        metric = SppMetric()
        total = path_cost(metric, [metric.link_cost(quality(df)) for df in dfs])
        assert total == pytest.approx(multiplicative(dfs))
        assert 0.0 < total <= 1.0


class TestMonotonicity:
    """The metric algebra of Javaid et al. (arXiv:1108.3706).

    Every registered metric is monotone (a longer path is never better)
    and right-isotonic (appending one link to two paths keeps their
    order).  The sum and product metrics are left-isotonic too; METX is
    not, because a link prepended to a path scales everything after it.
    """

    @given(link_paths, links)
    def test_extension_never_improves(self, path, extra):
        for name, metric in registered_metrics():
            base = cost_of(metric, path)
            extended = metric.combine(
                base, metric.link_cost(quality(extra[0], delay=extra[1]))
            )
            assert not metric.is_better(extended, base), (
                f"{name}: extending a path improved it"
            )

    @given(link_paths, link_paths, links)
    def test_appending_a_link_keeps_the_order(self, a, b, extra):
        for name, metric in registered_metrics():
            cost_a, cost_b = cost_of(metric, a), cost_of(metric, b)
            if metric.is_better(cost_b, cost_a):
                cost_a, cost_b = cost_b, cost_a
            link = metric.link_cost(quality(extra[0], delay=extra[1]))
            assert not metric.is_better(
                metric.combine(cost_b, link), metric.combine(cost_a, link)
            ), f"{name}: appending one link reversed two paths' order"

    def test_metx_is_not_left_isotonic(self):
        metric = MetxMetric()

        def metx(dfs):
            return cost_of(metric, [(df, None) for df in dfs])

        a, b = [0.55], [1.0, 1.0]
        assert metx(a) == pytest.approx(1.818, abs=1e-3)
        assert metx(b) == 2.0
        assert metric.is_better(metx(a), metx(b))
        # Prepending one 0.1 link to both flips the order.
        assert metx([0.1] + a) == pytest.approx(20.0)
        assert metx([0.1] + b) == pytest.approx(12.0)
        assert metric.is_better(metx([0.1] + b), metx([0.1] + a))

    @given(paths, st.integers(min_value=0, max_value=7), delivery_ratios)
    def test_degrading_a_link_never_helps(self, dfs, index, worse_df):
        index = index % len(dfs)
        if worse_df >= dfs[index]:
            return  # only test genuine degradation
        for name in ("etx", "metx", "spp"):
            metric = metric_by_name(name)
            good = path_cost(
                metric, [metric.link_cost(quality(df)) for df in dfs]
            )
            degraded_dfs = list(dfs)
            degraded_dfs[index] = worse_df
            bad = path_cost(
                metric, [metric.link_cost(quality(df)) for df in degraded_dfs]
            )
            assert not metric.is_better(bad, good), (
                f"{name}: degrading a link improved the path"
            )


class TestRegistry:
    def test_all_names_resolve(self):
        for name in ALL_METRIC_NAMES + ("hopcount",):
            assert metric_by_name(name).name == name

    def test_unknown_name_raises(self):
        # "wcett" used to be the canary here, but it is a registered
        # metric now (repro.core.metrics).
        with pytest.raises(ValueError, match="unknown metric"):
            metric_by_name("airtime")

    def test_register_metric_rejects_uppercase_name(self):
        class Airtime(EttMetric):
            name = "Airtime"

        before = dict(_METRIC_TYPES)
        with pytest.raises(ValueError, match="lowercase"):
            register_metric(Airtime)
        assert _METRIC_TYPES == before

    def test_kwargs_forwarded(self):
        metric = metric_by_name("ett", packet_size_bytes=256)
        assert metric.packet_size_bytes == 256


class TestComparisonHelpers:
    def test_best_path_minimizing(self):
        metric = EtxMetric()
        assert best_path(metric, {"a": 3.0, "b": 2.0}) == "b"

    def test_best_path_maximizing(self):
        metric = SppMetric()
        assert best_path(metric, {"a": 0.3, "b": 0.8}) == "b"

    def test_best_path_skips_unusable(self):
        metric = EtxMetric()
        assert best_path(metric, {"a": float("inf"), "b": 5.0}) == "b"
        assert best_path(metric, {"a": float("inf")}) is None

    def test_best_path_tie_keeps_first(self):
        metric = EtxMetric()
        assert best_path(metric, {"first": 2.0, "second": 2.0}) == "first"

    def test_rank_paths_orders_best_first(self):
        metric = SppMetric()
        ranked = rank_paths(
            metric, {"a": 0.2, "b": 0.9, "dead": 0.0, "c": 0.5}
        )
        assert [name for name, _ in ranked] == ["b", "c", "a", "dead"]

    def test_normalize_against(self):
        normalized = normalize_against({"base": 2.0, "x": 3.0}, "base")
        assert normalized == {"base": 1.0, "x": 1.5}

    def test_normalize_missing_or_zero_baseline(self):
        with pytest.raises(KeyError):
            normalize_against({"x": 1.0}, "base")
        with pytest.raises(ValueError):
            normalize_against({"base": 0.0, "x": 1.0}, "base")
