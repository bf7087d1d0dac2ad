"""Per-node ODMRP state: query rounds, forwarding-group flags, dedup.

Kept separate from the protocol logic so tests can drive the state
machines directly and so the MAODV extension can reuse the caches.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Hashable, List, Optional, Tuple


class QueryRoundState:
    """Everything a node remembers about one (source, sequence) flood."""

    __slots__ = (
        "group_id",
        "source_id",
        "sequence",
        "first_rx_time",
        "best_cost",
        "best_upstream",
        "best_hop_count",
        "alpha_deadline",
        "last_forwarded_cost",
        "forward_pending",
        "reply_pending",
        "replied",
    )

    def __init__(
        self,
        group_id: int,
        source_id: int,
        sequence: int,
        first_rx_time: float,
        best_cost: float,
        best_upstream: int,
        best_hop_count: int,
        alpha_deadline: float,
    ) -> None:
        self.group_id = group_id
        self.source_id = source_id
        self.sequence = sequence
        self.first_rx_time = first_rx_time
        self.best_cost = best_cost
        self.best_upstream = best_upstream
        self.best_hop_count = best_hop_count
        self.alpha_deadline = alpha_deadline
        self.last_forwarded_cost: Optional[float] = None
        self.forward_pending = False
        self.reply_pending = False
        self.replied = False


class DuplicateCache:
    """Bounded FIFO set for duplicate suppression.

    ``check_and_add`` returns True exactly once per key; the bound keeps
    long runs from growing memory without risking false "new" verdicts on
    the recent past (the eviction horizon is far larger than any
    plausible in-flight duplication window).
    """

    def __init__(self, max_entries: int = 50_000) -> None:
        if max_entries <= 0:
            raise ValueError("cache must hold at least one entry")
        self.max_entries = max_entries
        self._seen: set = set()
        self._order: Deque[Hashable] = deque()

    def check_and_add(self, key: Hashable) -> bool:
        """True if ``key`` is new (and record it); False for duplicates."""
        if key in self._seen:
            return False
        self._seen.add(key)
        self._order.append(key)
        if len(self._order) > self.max_entries:
            oldest = self._order.popleft()
            self._seen.discard(oldest)
        return True

    def __contains__(self, key: Hashable) -> bool:
        return key in self._seen

    def __len__(self) -> int:
        return len(self._seen)


class SequenceRecord:
    """Exact record of seen data packets: one byte per flow sequence.

    Data keys are ``(group, source, sequence)`` where the sequence is a
    source's packet counter, so one ``bytearray`` per (group, source),
    indexed by sequence, holds every verdict in a byte per packet
    instead of a hashed tuple, and never evicts.  (A
    :class:`DuplicateCache` forgets keys past its bound, so the two
    could disagree only after one node saw more than that many keys.)
    :meth:`first_sighting` is the hot path; ``check_and_add`` and
    ``in`` take the tuple key, as :class:`DuplicateCache` does.
    """

    __slots__ = ("_flows",)

    def __init__(self) -> None:
        #: group -> source -> seen flags indexed by sequence.
        self._flows: Dict[int, Dict[int, bytearray]] = {}

    def first_sighting(self, group_id: int, source_id: int, sequence: int) -> bool:
        """True if the packet is new (and record it); False for duplicates."""
        if type(sequence) is not int or sequence < 0:
            # A negative index would silently read from the end.
            raise ValueError(
                f"data sequence must be a non-negative int, got {sequence!r}"
            )
        sources = self._flows.get(group_id)
        if sources is None:
            sources = self._flows[group_id] = {}
        seen = sources.get(source_id)
        if seen is None:
            seen = sources[source_id] = bytearray()
        if sequence >= len(seen):
            seen.extend(bytes(sequence + 1 - len(seen)))
        elif seen[sequence]:
            return False
        seen[sequence] = 1
        return True

    def check_and_add(self, key: Tuple[int, int, int]) -> bool:
        """``first_sighting`` for a ``(group, source, sequence)`` key."""
        return self.first_sighting(*key)

    def __contains__(self, key: Tuple[int, int, int]) -> bool:
        group_id, source_id, sequence = key
        seen = self._flows.get(group_id, {}).get(source_id)
        return (
            seen is not None
            and type(sequence) is int
            and 0 <= sequence < len(seen)
            and seen[sequence] == 1
        )


class ForwardingGroupState:
    """FG_FLAG per group, with expiry.

    Forwarding-group membership is per *group*, not per source -- the
    property behind the multi-source redundancy effect of Section 4.3.
    """

    def __init__(self) -> None:
        self._expiry: Dict[int, float] = {}

    def refresh(self, group_id: int, until: float) -> None:
        current = self._expiry.get(group_id, float("-inf"))
        if until > current:
            self._expiry[group_id] = until

    def is_active(self, group_id: int, now: float) -> bool:
        expiry = self._expiry.get(group_id)
        return expiry is not None and expiry > now

    def active_groups(self, now: float) -> List[int]:
        return sorted(
            group for group, expiry in self._expiry.items() if expiry > now
        )

    def expiry_of(self, group_id: int) -> Optional[float]:
        return self._expiry.get(group_id)

    def expiries(self) -> Dict[int, float]:
        """group -> expiry time for every group ever refreshed (a copy)."""
        return dict(self._expiry)
