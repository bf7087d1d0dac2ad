"""Order statistics and the before/after verdict for ``run.py --compare``.

The verdict follows the benchmark's comparison rule: a change *improved*
a metric when it wins at least nine tenths of the (base, change) pairs
and its median beats the base median by more than the base runs' own
interquartile range; it is *worse* when its median is worse than the
base median by more than the metric's bound; it is *unresolved* when the
base runs spread wider than the bound (unless every change run beats
every base run); otherwise it is *unchanged*.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), interpolated between closest ranks.

    With 400 samples, p90 sits between the 360th and 361st smallest
    values, so 40 samples lie beyond it.
    """
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = values[0]
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


@dataclass
class Comparison:
    """One (workload, metric) across base and change result files."""

    workload: str
    metric: str
    unit: str
    base: List[float]
    change: List[float]
    better: Optional[str] = None
    bound: Optional[float] = None

    @property
    def pair_wins(self) -> Tuple[int, int]:
        """(pairs the change won, pairs run); ties count for neither."""
        pairs = list(zip(self.base, self.change))
        if self.better is None:
            return 0, len(pairs)
        sign = 1.0 if self.better == "lower" else -1.0
        wins = sum(1 for base, change in pairs if sign * (change - base) < 0)
        return wins, len(pairs)

    @property
    def verdict(self) -> str:
        if self.better is None or self.bound is None:
            return "-"
        sign = 1.0 if self.better == "lower" else -1.0
        base_q1, base_median, base_q3 = quartiles(self.base)
        change_median = quartiles(self.change)[1]
        worsening = sign * (change_median - base_median)
        wins, pairs = self.pair_wins
        if pairs and wins >= 0.9 * pairs and -worsening > base_q3 - base_q1:
            return "improved"
        if worsening > self.bound * abs(base_median):
            return "worse"
        all_better = all(
            sign * (change - base) < 0 for change in self.change for base in self.base
        )
        if base_q3 - base_q1 > self.bound * abs(base_median) and not all_better:
            return "unresolved"
        return "unchanged"
