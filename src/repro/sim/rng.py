"""Named deterministic random-number streams.

Each subsystem draws from its own stream (``"fading"``, ``"mac.backoff"``,
``"traffic"``, ...), derived deterministically from a master seed and the
stream name.  This keeps subsystems statistically independent and -- more
importantly for a reproduction study -- keeps one subsystem's draw count
from perturbing another's, so e.g. changing the probing rate does not
reshuffle the fading realization of the data channel.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit stream seed from a master seed and a stream name.

    Uses SHA-256 rather than ``hash()`` so the derivation is stable across
    Python processes (``hash`` on strings is salted per-process).
    """
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngRegistry:
    """A registry of lazily-created, independently-seeded RNG streams."""

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = master_seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(derive_seed(self.master_seed, name))
            self._streams[name] = rng
        return rng

    def replace(self, name: str, rng: random.Random) -> None:
        """Make ``rng`` the stream for ``name`` from here on.

        For a stream object that continues the old one's sequence (the
        compiled PHY kernel's generator), so lookups and isolation
        audits see the object that actually draws.
        """
        self._streams[name] = rng

    def fork(self, name: str) -> "RngRegistry":
        """A child registry whose master seed is derived from ``name``.

        Used to give each topology replication its own seed universe.
        """
        return RngRegistry(derive_seed(self.master_seed, f"fork:{name}"))

    def stream_names(self) -> list[str]:
        """Names of the streams created so far (for diagnostics)."""
        return sorted(self._streams)

    def stream_objects(self) -> Dict[str, random.Random]:
        """Name -> stream mapping (a copy; for isolation audits).

        The invariant monitors use object identity over this mapping to
        prove no RNG stream is shared across concurrently live runs.
        """
        return dict(self._streams)
