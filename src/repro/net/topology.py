"""Node placement generators.

The paper's simulation scenario places 50 static nodes uniformly at random
in a 1000 m x 1000 m area.  ``random_topology`` reproduces that, with an
optional connectivity constraint (a disconnected topology would make
throughput comparisons meaningless, and the paper's results average over
topologies where every receiver is reachable).
"""

from __future__ import annotations

import math
import random
import sys
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

#: Node count from which the O(N^2) pair scans -- ``is_connected``,
#: ``average_degree`` and the channel's audibility scan in
#: ``WirelessChannel.finalize`` -- go through a throwaway
#: :class:`SpatialGridIndex`.  Below it the brute-force scan is faster
#: than building the index.
GRID_AUTO_NODES = 64

#: Relative widening of the radius in the grid's in-disk test, far above
#: the few-ulp gap between ``dx*dx + dy*dy`` and a squared ``hypot``.
_DISK_SLACK = 1.0 + 1e-9


class Position(NamedTuple):
    x: float
    y: float

    def distance_to(self, other: "Position") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


class SpatialGridIndex:
    """Uniform-cell spatial hash over a list of :class:`Position`.

    Buckets node indices into square cells of side ``cell_size_m``.  A
    range query for radius ``r`` around a node scans only the cells
    overlapping the axis-aligned box of half-width ``r`` -- O(cell
    occupancy) instead of O(N).  The cell box is an exact superset of
    the disk (``floor`` is monotone, so every point with both
    coordinate offsets <= ``r`` falls inside the scanned box), and
    :meth:`candidates_in_disk` trims it with a slackened squared-distance
    test that is still a superset.  That is why :meth:`neighbors_within`
    can filter candidates with the same ``Position.distance_to`` call
    the brute-force path uses and return *bit-identical* neighbor sets.

    Candidate lists come back sorted ascending by node index, matching
    the iteration order of a plain ``for i, pos in enumerate(...)``
    scan; downstream consumers (audible lists, connectivity maps) keep
    their deterministic ordering for free.
    """

    def __init__(
        self, positions: Sequence[Position], cell_size_m: float
    ) -> None:
        if cell_size_m <= 0.0 or not math.isfinite(cell_size_m):
            raise ValueError(
                f"cell size must be positive and finite, got {cell_size_m}"
            )
        self.cell_size_m = float(cell_size_m)
        self._positions: List[Position] = list(positions)
        size = self.cell_size_m
        cells: Dict[Tuple[int, int], List[int]] = {}
        for index, (x, y) in enumerate(self._positions):
            cell = (math.floor(x / size), math.floor(y / size))
            cells.setdefault(cell, []).append(index)
        self._cells = cells

    def __len__(self) -> int:
        return len(self._positions)

    def candidates_in_disk(self, index: int, range_m: float) -> List[int]:
        """Superset of the nodes within ``range_m`` of node ``index``.

        Scans the cells overlapping the disk's bounding box, padded by
        one cell ring: ``hypot`` rounds, so a point whose *computed*
        distance is exactly ``range_m`` can sit a few ulps outside the
        arithmetic box.  One cell absorbs that slack whenever the cell
        size is not absurdly small against the coordinate magnitudes
        (anything above ``max(|coord|) * 2**-50``).

        It then keeps a candidate when ``dx*dx + dy*dy`` is within the
        squared radius widened by ``_DISK_SLACK``.  The squared sum
        differs from the squared ``hypot`` by a few ulps, so the slack
        keeps every candidate the rounded ``distance_to(...) <= range_m``
        test would accept; the limit is floored at the smallest normal
        float because subnormal squares lose their relative precision.
        Callers decide each pair exactly.  The result is sorted ascending
        and includes ``index`` itself.
        """
        if range_m < 0.0:
            return []
        positions = self._positions
        x, y = positions[index]
        size = self.cell_size_m
        cx_lo = math.floor((x - range_m) / size) - 1
        cx_hi = math.floor((x + range_m) / size) + 1
        cy_lo = math.floor((y - range_m) / size) - 1
        cy_hi = math.floor((y + range_m) / size) + 1
        limit = max((range_m * _DISK_SLACK) ** 2, sys.float_info.min)
        cells = self._cells
        out: List[int] = []
        append = out.append
        for cx in range(cx_lo, cx_hi + 1):
            for cy in range(cy_lo, cy_hi + 1):
                for i in cells.get((cx, cy), ()):
                    px, py = positions[i]
                    dx = x - px
                    dy = y - py
                    if dx * dx + dy * dy <= limit:
                        append(i)
        out.sort()
        return out

    def neighbors_within(self, index: int, range_m: float) -> List[int]:
        """Grid-accelerated :func:`neighbors_within`; identical output."""
        positions = self._positions
        center = positions[index]
        return [
            i
            for i in self.candidates_in_disk(index, range_m)
            if i != index and center.distance_to(positions[i]) <= range_m
        ]


def random_topology(
    num_nodes: int,
    width_m: float = 1000.0,
    height_m: float = 1000.0,
    rng: Optional[random.Random] = None,
    connectivity_range_m: Optional[float] = 250.0,
    max_attempts: int = 200,
) -> List[Position]:
    """Uniform random placement, resampled until connected.

    Connectivity is checked on the unit-disk graph with radius
    ``connectivity_range_m`` (the nominal no-fading radio range).  Pass
    ``None`` to skip the check.
    """
    if num_nodes <= 0:
        raise ValueError(f"need at least one node, got {num_nodes}")
    if rng is None:
        rng = random.Random(0)
    for _ in range(max_attempts):
        positions = [
            Position(rng.uniform(0.0, width_m), rng.uniform(0.0, height_m))
            for _ in range(num_nodes)
        ]
        if connectivity_range_m is None or is_connected(
            positions, connectivity_range_m
        ):
            return positions
    raise RuntimeError(
        f"could not draw a connected topology of {num_nodes} nodes in "
        f"{width_m}x{height_m} m with range {connectivity_range_m} m "
        f"after {max_attempts} attempts"
    )


def grid_topology(
    rows: int, cols: int, spacing_m: float = 200.0
) -> List[Position]:
    """Regular grid, used by tests and the quickstart example."""
    if rows <= 0 or cols <= 0:
        raise ValueError("rows and cols must be positive")
    return [
        Position(c * spacing_m, r * spacing_m)
        for r in range(rows)
        for c in range(cols)
    ]


def chain_topology(num_nodes: int, spacing_m: float = 200.0) -> List[Position]:
    """Nodes on a line; the canonical multi-hop unit test topology."""
    if num_nodes <= 0:
        raise ValueError("need at least one node")
    return [Position(i * spacing_m, 0.0) for i in range(num_nodes)]


def neighbors_within(
    positions: Sequence[Position], index: int, range_m: float
) -> List[int]:
    """Indices of nodes within ``range_m`` of node ``index`` (excl. itself)."""
    center = positions[index]
    return [
        i
        for i, pos in enumerate(positions)
        if i != index and center.distance_to(pos) <= range_m
    ]


def _neighbor_query(positions: Sequence[Position], range_m: float):
    """Pick brute-force or grid-backed neighbor lookup by problem size.

    Both answer identically (the grid filters its candidate superset
    with the same ``distance_to`` comparison), so the switch is purely
    a constant-factor decision.
    """
    if len(positions) >= GRID_AUTO_NODES and range_m > 0.0 and math.isfinite(
        range_m
    ):
        grid = SpatialGridIndex(positions, cell_size_m=range_m)
        return lambda index: grid.neighbors_within(index, range_m)
    return lambda index: neighbors_within(positions, index, range_m)


def is_connected(positions: Sequence[Position], range_m: float) -> bool:
    """True if the unit-disk graph over ``positions`` is connected."""
    n = len(positions)
    if n <= 1:
        return True
    neighbors = _neighbor_query(positions, range_m)
    seen = {0}
    frontier = [0]
    while frontier:
        current = frontier.pop()
        for other in neighbors(current):
            if other not in seen:
                seen.add(other)
                frontier.append(other)
    return len(seen) == n


def average_degree(positions: Sequence[Position], range_m: float) -> float:
    """Mean unit-disk degree; a quick density diagnostic for scenarios."""
    if not positions:
        return 0.0
    neighbors = _neighbor_query(positions, range_m)
    total = sum(len(neighbors(i)) for i in range(len(positions)))
    return total / len(positions)
