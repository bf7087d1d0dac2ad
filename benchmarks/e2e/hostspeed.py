"""Correction for a host whose cores are shared with other tenants.

On a shared machine a core can run the same Python code up to about 2x
slower for seconds at a time while a neighbour loads its sibling
hyperthread, and each core flips between the two states on its own.
Measured host times then swing far more between runs than any change
worth detecting.  The benchmark therefore times a fixed pure-Python
*reference kernel* on the same core next to everything it measures and
scales each measured interval by ``NOMINAL_S / kernel time now``: host
time as an uncontended core of the reference host would have spent it.

The kernel is a small event loop shaped like the simulator's hot path
(heap pops, Gaussian draws, per-receiver attribute and dict updates).  It
lives here, in the benchmark, so no change to the program can make it
faster or slower.
"""

from __future__ import annotations

import heapq
import os
import random
import time
from typing import Iterable, List, Optional

#: Kernel time (min of ``REPEATS``) on an uncontended core of the host
#: the benchmark was defined on: a 2-vCPU container, Python 3.11.
NOMINAL_S = 0.00052
REPEATS = 3
#: Re-probe once the last probe is this old (host seconds).
INTERVAL_S = 0.1

clock = time.perf_counter


class _Receiver:
    __slots__ = ("power", "busy", "ledger")

    def __init__(self) -> None:
        self.power = 0.0
        self.busy = False
        self.ledger: dict = {}

    def add(self, key: int, power: float) -> None:
        self.ledger[key] = power
        self.power += power
        busy = self.power > 1.0
        if busy != self.busy:
            self.busy = busy

    def remove(self, key: int) -> None:
        self.power -= self.ledger.pop(key, 0.0)


def reference_kernel(events: int = 20) -> None:
    """A fixed amount of simulator-shaped interpreter work."""
    rng = random.Random(7)
    gauss = rng.gauss
    receivers = [_Receiver() for _ in range(48)]
    heap = [(0.0, 0)]
    for seq in range(events):
        now, key = heapq.heappop(heap)
        group = receivers[key % 8:key % 8 + 40]
        for receiver in group:
            gain = gauss(0.0, 0.7)
            receiver.add(key, gain * gain)
        for receiver in group:
            receiver.remove(key)
        heapq.heappush(heap, (now + rng.random(), seq + 1))


def kernel_seconds() -> float:
    """Best of ``REPEATS`` timed kernel runs on the current core."""
    best = float("inf")
    for _ in range(REPEATS):
        start = clock()
        reference_kernel()
        best = min(best, clock() - start)
    return best


class HostSpeed:
    """The current correction factor, ``NOMINAL_S / kernel time``.

    With ``cpus``, each probe pins this process to every listed core in
    turn and averages the factors (for work spread over those cores by a
    worker pool), then restores the affinity it found.  Without, it
    probes the core the process runs on.
    """

    def __init__(self, cpus: Optional[Iterable[int]] = None) -> None:
        self.cpus: Optional[List[int]] = sorted(cpus) if cpus is not None else None
        self.current = 1.0
        self.probes: List[float] = []
        self._last = float("-inf")

    def probe(self) -> float:
        if self.cpus is None:
            factors = [NOMINAL_S / kernel_seconds()]
        else:
            allowed = os.sched_getaffinity(0)
            factors = []
            try:
                for cpu in self.cpus:
                    os.sched_setaffinity(0, {cpu})
                    factors.append(NOMINAL_S / kernel_seconds())
            finally:
                os.sched_setaffinity(0, allowed)
        self.current = sum(factors) / len(factors)
        self.probes.append(self.current)
        self._last = clock()
        return self.current

    def factor(self) -> float:
        """The latest factor, re-probed when older than ``INTERVAL_S``."""
        if clock() - self._last >= INTERVAL_S:
            return self.probe()
        return self.current


def pin_to_one_cpu() -> None:
    """Keep this process on one core, so probes see the core it runs on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def worker_cpus() -> Optional[List[int]]:
    """The cores a worker pool may use, when the platform can tell."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return None
