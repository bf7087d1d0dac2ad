"""Spatial grid index: grid queries must equal the brute-force scans.

The grid is a pure pruning structure -- its in-disk query returns a
superset of every disk query, and the exact ``Position.distance_to``
filter decides membership exactly as the O(N^2) paths do.  These tests
pin that equivalence three ways: property tests against random point
sets (Hypothesis), hand-built edge-of-cell boundary regressions, and
channel-level checks that a grid-pruned ``finalize()`` reproduces the
brute-force audibility lists and connectivity map bit-for-bit.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import repro.net.channel as channel_module
from repro.net.network import Network, NetworkConfig
from repro.net.topology import (
    GRID_AUTO_NODES,
    Position,
    SpatialGridIndex,
    average_degree,
    is_connected,
    neighbors_within,
    random_topology,
)

coords = st.floats(
    min_value=-5000.0, max_value=5000.0,
    allow_nan=False, allow_infinity=False,
)
point_sets = st.lists(
    st.tuples(coords, coords), min_size=1, max_size=40
).map(lambda pts: [Position(x, y) for x, y in pts])


def brute_connected(positions, range_m):
    """Reference BFS over the brute-force neighbor scan."""
    n = len(positions)
    seen = {0}
    frontier = [0]
    while frontier:
        current = frontier.pop()
        for other in neighbors_within(positions, current, range_m):
            if other not in seen:
                seen.add(other)
                frontier.append(other)
    return len(seen) == n


class TestGridMatchesBruteForce:
    @given(
        positions=point_sets,
        range_m=st.floats(min_value=0.0, max_value=2000.0,
                          allow_nan=False),
        cell_scale=st.floats(min_value=0.1, max_value=4.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_neighbors_within_identical(
        self, positions, range_m, cell_scale
    ):
        """Grid neighbors == brute neighbors for every node and any
        cell size (the cell size is a perf knob, never a semantics
        knob)."""
        cell = max(1e-3, range_m * cell_scale) if range_m else 1.0
        grid = SpatialGridIndex(positions, cell_size_m=cell)
        for index in range(len(positions)):
            assert grid.neighbors_within(index, range_m) == (
                neighbors_within(positions, index, range_m)
            )

    @given(
        positions=point_sets,
        range_m=st.floats(min_value=0.0, max_value=2000.0,
                          allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_candidates_are_sorted_supersets(self, positions, range_m):
        grid = SpatialGridIndex(positions, cell_size_m=max(range_m, 1.0))
        for index in range(len(positions)):
            candidates = grid.candidates_in_disk(index, range_m)
            assert candidates == sorted(candidates)
            exact = set(neighbors_within(positions, index, range_m))
            assert exact <= set(candidates)

    @given(
        positions=point_sets,
        range_m=st.floats(min_value=1.0, max_value=1000.0,
                          allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_is_connected_and_degree_unchanged(self, positions, range_m):
        """The size-based grid switch inside is_connected/average_degree
        never changes the answer."""
        assert is_connected(positions, range_m) == brute_connected(
            positions, range_m
        )
        brute_total = sum(
            len(neighbors_within(positions, i, range_m))
            for i in range(len(positions))
        )
        assert average_degree(positions, range_m) == (
            brute_total / len(positions)
        )

    def test_large_mesh_takes_grid_path(self):
        """Above GRID_AUTO_NODES the helpers really use the grid -- and
        still agree with the brute scan."""
        rng = random.Random(7)
        n = GRID_AUTO_NODES + 10
        positions = [
            Position(rng.uniform(0, 2000), rng.uniform(0, 2000))
            for _ in range(n)
        ]
        assert n >= GRID_AUTO_NODES
        assert is_connected(positions, 250.0) == brute_connected(
            positions, 250.0
        )


class TestEdgeOfCellBoundaries:
    """Points exactly on cell borders and ranges exactly at distances."""

    def test_point_on_cell_boundary_is_found(self):
        # 100.0 / 100.0 == 1.0 exactly: the point sits on the border
        # between cells 0 and 1.  A naive half-open bucketing that
        # scans the wrong side would miss it.
        positions = [Position(0.0, 0.0), Position(100.0, 0.0)]
        grid = SpatialGridIndex(positions, cell_size_m=100.0)
        assert grid.neighbors_within(0, 100.0) == [1]
        assert grid.neighbors_within(1, 100.0) == [0]

    def test_range_exactly_equal_to_distance_is_inclusive(self):
        # Both paths use `distance <= range`, so a neighbor at exactly
        # the range must be included by both.
        positions = [Position(0.0, 0.0), Position(3.0, 4.0)]  # dist 5.0
        grid = SpatialGridIndex(positions, cell_size_m=2.0)
        assert grid.neighbors_within(0, 5.0) == [1]
        assert neighbors_within(positions, 0, 5.0) == [1]
        assert grid.candidates_in_disk(0, 5.0) == [0, 1]
        assert grid.neighbors_within(0, math.nextafter(5.0, 0.0)) == []

    def test_query_box_touching_cell_corner(self):
        # Neighbor in the diagonal cell, reachable only if the box
        # includes the corner cell at exactly range distance.
        positions = [Position(99.0, 99.0), Position(101.0, 101.0)]
        grid = SpatialGridIndex(positions, cell_size_m=100.0)
        dist = positions[0].distance_to(positions[1])
        assert grid.neighbors_within(0, dist) == [1]

    def test_rounded_distance_outside_arithmetic_box(self):
        # Regression (found by Hypothesis): the second point's true
        # distance from the first is 1.0 + 5.7e-162, which math.hypot
        # rounds to exactly 1.0 -- the brute filter includes it, yet
        # the point's cell (-1) lies outside the unpadded query box
        # ([0, 2]).  The one-cell pad ring must recover it.
        positions = [
            Position(1.0, 0.0),
            Position(-5.746425122067764e-162, 0.0),
        ]
        assert neighbors_within(positions, 0, 1.0) == [1]
        grid = SpatialGridIndex(positions, cell_size_m=1.0)
        assert grid.neighbors_within(0, 1.0) == [1]
        assert grid.candidates_in_disk(0, 1.0) == [0, 1]

    def test_in_disk_keeps_rounded_hypot_at_range(self):
        # hypot(1, 5) rounds to a value whose square is just below 26,
        # the exact squared sum: the in-disk slack must still let the
        # brute filter's "distance == range" pair through.
        positions = [Position(0.0, 0.0), Position(1.0, 5.0)]
        dist = positions[0].distance_to(positions[1])
        assert 1.0 * 1.0 + 5.0 * 5.0 > dist * dist
        grid = SpatialGridIndex(positions, cell_size_m=2.0)
        assert grid.candidates_in_disk(0, dist) == [0, 1]
        assert grid.neighbors_within(0, dist) == [1]

    def test_in_disk_drops_box_corners(self):
        # (90, 90) is in the scanned box for r = 100 but 127 m away.
        positions = [Position(0.0, 0.0), Position(90.0, 90.0),
                     Position(60.0, 0.0)]
        grid = SpatialGridIndex(positions, cell_size_m=50.0)
        assert grid.candidates_in_disk(0, 100.0) == [0, 2]

    def test_negative_coordinates(self):
        positions = [Position(-150.0, -150.0), Position(-50.0, -50.0),
                     Position(50.0, 50.0)]
        grid = SpatialGridIndex(positions, cell_size_m=100.0)
        for index in range(len(positions)):
            for range_m in (100.0, 141.5, 200.0, 300.0):
                assert grid.neighbors_within(index, range_m) == (
                    neighbors_within(positions, index, range_m)
                )

    def test_duplicate_positions(self):
        positions = [Position(10.0, 10.0)] * 3 + [Position(20.0, 10.0)]
        grid = SpatialGridIndex(positions, cell_size_m=5.0)
        for index in range(len(positions)):
            assert grid.neighbors_within(index, 15.0) == (
                neighbors_within(positions, index, 15.0)
            )

    def test_zero_range(self):
        positions = [Position(0.0, 0.0), Position(0.0, 0.0),
                     Position(1.0, 0.0)]
        grid = SpatialGridIndex(positions, cell_size_m=10.0)
        # range 0 still matches exact co-located points, as brute does.
        assert grid.neighbors_within(0, 0.0) == (
            neighbors_within(positions, 0, 0.0)
        ) == [1]

    def test_invalid_cell_size_rejected(self):
        with pytest.raises(ValueError):
            SpatialGridIndex([Position(0.0, 0.0)], cell_size_m=0.0)
        with pytest.raises(ValueError):
            SpatialGridIndex([Position(0.0, 0.0)], cell_size_m=math.inf)


class TestMobilityHooks:
    def test_update_position_rebuckets(self):
        positions = [Position(0.0, 0.0), Position(500.0, 500.0),
                     Position(505.0, 505.0)]
        grid = SpatialGridIndex(positions, cell_size_m=100.0)
        assert grid.neighbors_within(0, 50.0) == []
        grid.update_position(1, Position(10.0, 10.0))
        positions[1] = Position(10.0, 10.0)
        for index in range(len(positions)):
            assert grid.neighbors_within(index, 50.0) == (
                neighbors_within(positions, index, 50.0)
            )

    def test_rebuild_matches_fresh_index(self):
        rng = random.Random(3)
        positions = [
            Position(rng.uniform(0, 1000), rng.uniform(0, 1000))
            for _ in range(30)
        ]
        grid = SpatialGridIndex(positions, cell_size_m=120.0)
        moved = [
            Position(rng.uniform(0, 1000), rng.uniform(0, 1000))
            for _ in range(30)
        ]
        grid.rebuild(moved)
        fresh = SpatialGridIndex(moved, cell_size_m=120.0)
        for index in range(len(moved)):
            assert grid.neighbors_within(index, 200.0) == (
                fresh.neighbors_within(index, 200.0)
            )


class TestChannelGridPruning:
    """Grid-pruned finalize() == brute finalize(), bit for bit."""

    def _audible_snapshot(self, network):
        return {
            sender_id: [
                (receiver.node_id, mean_mw, threshold)
                for receiver, mean_mw, threshold in audible
            ]
            for sender_id, audible in network.channel._audible.items()
        }

    @pytest.mark.parametrize("topology_seed", [2, 9])
    def test_audible_lists_and_connectivity_identical(
        self, monkeypatch, topology_seed
    ):
        positions = random_topology(
            40, 1100.0, 1100.0, rng=random.Random(topology_seed),
            connectivity_range_m=250.0,
        )
        config = NetworkConfig(phy_backend="scalar")

        monkeypatch.setattr(channel_module, "GRID_MIN_NODES", 10**9)
        brute = Network(positions, seed=1, config=config)
        monkeypatch.setattr(channel_module, "GRID_MIN_NODES", 2)
        gridded = Network(positions, seed=1, config=config)

        assert self._audible_snapshot(brute) == (
            self._audible_snapshot(gridded)
        )
        assert brute.channel.connectivity_map() == (
            gridded.channel.connectivity_map()
        )
        assert [
            [(n.node_id, p) for n, p in brute.channel.audible_neighbors(i)]
            for i in range(len(positions))
        ] == [
            [(n.node_id, p) for n, p in gridded.channel.audible_neighbors(i)]
            for i in range(len(positions))
        ]

    def test_finalize_tests_power_once_per_audible_pair(self, monkeypatch):
        """At paper density (50 nodes per km^2) the in-disk grid query
        runs the exact power test once per audible pair, where the brute
        scan runs it N(N-1) times -- and both keep the same audible
        lists, element for element."""
        n = 300
        side = 1000.0 * math.sqrt(n / 50)
        positions = random_topology(
            n, side, side, rng=random.Random(5), connectivity_range_m=None
        )
        config = NetworkConfig(phy_backend="scalar")
        calls = []
        exact = channel_module.WirelessChannel.mean_rx_power_mw

        def counting(channel, sender, receiver):
            calls.append(1)
            return exact(channel, sender, receiver)

        monkeypatch.setattr(
            channel_module.WirelessChannel, "mean_rx_power_mw", counting
        )
        gridded = Network(positions, seed=1, config=config)
        audible_pairs = sum(
            len(audible) for audible in gridded.channel._audible.values()
        )
        assert len(calls) == audible_pairs

        calls.clear()
        monkeypatch.setattr(channel_module, "GRID_MIN_NODES", 10**9)
        brute = Network(positions, seed=1, config=config)
        assert len(calls) == n * (n - 1)
        assert self._audible_snapshot(brute) == (
            self._audible_snapshot(gridded)
        )
