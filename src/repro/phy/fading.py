"""Per-packet multiplicative power fading.

The paper uses Rayleigh fading ("appropriate for environments with many
large reflectors ... where the sender and the receiver are not in
Line-of-Sight"), and its central mechanism -- long links become lossy,
min-hop ODMRP picks long links, metrics route around them -- depends on it.

Fading is sampled once per (transmission, receiver) pair: the channel is
assumed coherent over one packet but independent across packets, the
standard block-fading abstraction used by GloMoSim at 2 Mbps packet
durations.

The channel asks for a whole transmission's gains in one
:meth:`FadingModel.sample_link_gains` call.  The stochastic models
override it with a loop that inlines ``random.Random``'s own formulas
(``expovariate``, the Box-Muller pair behind ``gauss``) so the batch
returns exactly the floats, and consumes exactly the stream, that one
:meth:`~FadingModel.sample_link_gain` call per link would.  For
:class:`CorrelatedRayleighFading` a channel on the compiled kernel
goes one step further: while a sender's links share one last-update
time, or none has been sampled yet,
:meth:`CorrelatedRayleighFading.uniform_row` hands it the link states
so the kernel draws each AR(1) step inside its receiver pass.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from array import array
from typing import Dict, List, Optional, Sequence, Tuple

TWOPI = 2.0 * math.pi  # random.gauss's angle scale


class FadingModel(ABC):
    """Draws a multiplicative power gain (mean 1.0) per packet."""

    @abstractmethod
    def sample_power_gain(self, rng: random.Random) -> float:
        """A non-negative power gain with unit mean."""

    def sample_link_gain(
        self, link_key: tuple, now: float, rng: random.Random
    ) -> float:
        """Per-link, time-aware gain; defaults to the i.i.d. sample.

        Models with channel memory (see
        :class:`CorrelatedRayleighFading`) override this to keep one
        fading process per directed link.
        """
        return self.sample_power_gain(rng)

    def sample_link_gains(
        self,
        sender_id: int,
        receiver_ids: Sequence[int],
        now: float,
        rng: random.Random,
    ) -> List[float]:
        """Gains of one transmission's links ``(sender_id, r)``, in order.

        Equal, float for float and draw for draw, to calling
        :meth:`sample_link_gain` on each link in turn, which is what this
        default does.  Overrides only remove the per-link call overhead.
        """
        sample = self.sample_link_gain
        return [sample((sender_id, rid), now, rng) for rid in receiver_ids]

    def _batch_is_exact(self, owner: type, rng: random.Random) -> bool:
        """Whether ``owner``'s inlined batch still mirrors this instance.

        A subclass that replaced the per-link math, or a gaussian left
        half-drawn in the stream, falls back to the per-link default.
        """
        kind = type(self)
        return (
            kind.sample_link_gain is owner.sample_link_gain
            and kind.sample_power_gain is owner.sample_power_gain
            and getattr(rng, "gauss_next", None) is None
        )


class NoFading(FadingModel):
    """Deterministic channel; every packet sees the mean path gain."""

    def sample_power_gain(self, rng: random.Random) -> float:
        return 1.0


class RayleighFading(FadingModel):
    """Rayleigh fading: amplitude Rayleigh, power exponential(mean=1).

    The power gain of a Rayleigh-faded channel is exponentially
    distributed; with unit mean, ``P(gain < g) = 1 - exp(-g)``.  Deep
    fades (gain << 1) are common, which is what degrades long links whose
    mean power sits near the receive threshold.
    """

    def sample_power_gain(self, rng: random.Random) -> float:
        return rng.expovariate(1.0)

    def sample_link_gains(self, sender_id, receiver_ids, now, rng):
        if not self._batch_is_exact(RayleighFading, rng):
            return super().sample_link_gains(sender_id, receiver_ids, now, rng)
        # expovariate(1.0) is -log(1.0 - random()) / 1.0.
        random_ = rng.random
        log = math.log
        return [-log(1.0 - random_()) / 1.0 for _ in receiver_ids]


class RicianFading(FadingModel):
    """Rician fading with K-factor (line-of-sight component).

    ``K`` is the ratio of LoS power to scattered power.  ``K = 0`` reduces
    to Rayleigh.  Included for the testbed emulation, where some links have
    partial line of sight.
    """

    def __init__(self, k_factor: float = 3.0) -> None:
        if k_factor < 0:
            raise ValueError(f"K-factor must be non-negative, got {k_factor}")
        self.k_factor = k_factor
        # Complex gain h = los + scatter, normalized to E[|h|^2] = 1.
        self._los_amplitude = math.sqrt(k_factor / (k_factor + 1.0))
        self._scatter_sigma = math.sqrt(1.0 / (2.0 * (k_factor + 1.0)))

    def sample_power_gain(self, rng: random.Random) -> float:
        real = self._los_amplitude + rng.gauss(0.0, self._scatter_sigma)
        imag = rng.gauss(0.0, self._scatter_sigma)
        return real * real + imag * imag


#: The state of a link with no fading sample yet: a NaN time (and a
#: zero channel gain).  A sender's row of links starts as this triple
#: repeated.
_FRESH_LINK = array("d", (math.nan, 0.0, 0.0))


class _LinkRow:
    """One sender's per-link AR(1) state, as ``(t, re, im)`` triples.

    ``state`` holds three doubles per link, in slot order.  When ``key``
    is a receiver-id list (the channel's fan-out list, compared by
    identity), slot ``k < len(key)`` is link ``(sender, key[k])``; links
    sampled only through other calls follow, in first-sample order.
    ``rids`` names every slot (a fresh keyed row shares ``key`` itself
    until a link beyond it is added), and ``index`` maps a receiver id
    to its slot, built on the first call that needs it.  ``time`` is
    the one last-update time shared by every keyed slot, NaN when none
    of them has state yet, or ``None`` when neither is known to hold.
    """

    __slots__ = ("key", "rids", "state", "index", "time")

    def __init__(self, key: Optional[Sequence[int]], rids: Sequence[int],
                 state: array, time: Optional[float]) -> None:
        self.key = key
        self.rids = rids
        self.state = state
        self.index: Optional[Dict[int, int]] = None
        self.time = time


class CorrelatedRayleighFading(FadingModel):
    """Rayleigh fading with temporal correlation per link (Gauss-Markov).

    The complex channel gain of each directed link evolves as an AR(1)
    process: ``h' = rho h + sqrt(1 - rho^2) w`` with ``w ~ CN(0, 1)`` and
    ``rho = exp(-dt / coherence_time)``.  Marginally the power gain stays
    exponential with unit mean (exact Rayleigh), but a link in a deep
    fade stays faded for about one coherence time -- matching the
    block-correlated fading traces GloMoSim replays, where a static
    node's channel changes over seconds, not per packet.

    The correlation is what lets min-hop ODMRP extract some service from
    long links (they work for whole bursts when the channel is up); with
    i.i.d. per-packet fading the same links fail memorylessly and the
    baseline collapses, exaggerating the metrics' relative gains.

    Each sender's links live in one flat ``array('d')`` of ``(t, re,
    im)`` triples (:class:`_LinkRow`), so a 2,000-node mesh's 178k links
    cost three doubles each.  Every entry point reads and writes the
    same triples: :meth:`sample_link_gain` for one link,
    :meth:`sample_link_gains` for a list of them, :meth:`uniform_row` for
    the compiled kernel's frame start.  A link never leaves its sender's
    row, so one that stops being sampled (a down receiver, a re-finalize
    that drops it) resumes its process when it returns.
    """

    def __init__(self, coherence_time_s: float = 1.0) -> None:
        if coherence_time_s <= 0:
            raise ValueError(
                f"coherence time must be positive, got {coherence_time_s}"
            )
        self.coherence_time_s = coherence_time_s
        #: sender id -> that sender's links.
        self._links: Dict[int, _LinkRow] = {}
        self._sigma = math.sqrt(0.5)  # per-component: E[|h|^2] = 1

    def sample_power_gain(self, rng: random.Random) -> float:
        """Marginal draw (used when no link identity is available)."""
        return rng.expovariate(1.0)

    def _row(self, sender_id: int) -> _LinkRow:
        row = self._links.get(sender_id)
        if row is None:
            row = self._links[sender_id] = _LinkRow(None, [], array("d"), None)
        return row

    @staticmethod
    def _slot(row: _LinkRow, rid: int) -> int:
        """The slot of link ``rid`` in ``row``, appending a fresh one."""
        index = row.index
        if index is None:
            index = row.index = {r: k for k, r in enumerate(row.rids)}
        slot = index.get(rid)
        if slot is None:
            if row.rids is row.key:
                row.rids = list(row.key)
            slot = index[rid] = len(row.rids)
            row.rids.append(rid)
            row.state.extend(_FRESH_LINK)
        return slot

    def sample_link_gain(
        self, link_key: tuple, now: float, rng: random.Random
    ) -> float:
        """One AR(1) step of link ``link_key = (sender id, receiver id)``."""
        sender_id, rid = link_key
        row = self._row(sender_id)
        slot = self._slot(row, rid)
        if row.key is not None and slot < len(row.key):
            row.time = None
        state = row.state
        i = 3 * slot
        t = state[i]
        if t != t:  # no state yet
            sigma = self._sigma
            gauss = rng.gauss
            real = gauss(0.0, sigma)
            imag = gauss(0.0, sigma)
        else:
            dt = now - t
            rho = math.exp(-dt / self.coherence_time_s)
            innovation = self._sigma * math.sqrt(max(0.0, 1.0 - rho * rho))
            real = state[i + 1]
            imag = state[i + 2]
            if innovation:
                gauss = rng.gauss
                real = rho * real + gauss(0.0, innovation)
                imag = rho * imag + gauss(0.0, innovation)
            else:
                real = rho * real
                imag = rho * imag
        state[i] = now
        state[i + 1] = real
        state[i + 2] = imag
        return real * real + imag * imag

    def sample_link_gains(self, sender_id, receiver_ids, now, rng):
        """The AR(1) update of every link in one loop.

        Each ``gauss(0.0, s)`` pair is the Box-Muller pair ``0.0 +
        z * s`` drawn from two ``random()`` calls, and links whose last
        update shares a time share one ``rho``/innovation (the same
        ``exp``/``sqrt`` of the same doubles).  ``receiver_ids`` holds
        distinct ids: the row's key list updates its keyed slots in
        order, any other list (a subset, say) finds its slots by id.
        """
        if not self._batch_is_exact(CorrelatedRayleighFading, rng):
            return super().sample_link_gains(sender_id, receiver_ids, now, rng)
        row = self._row(sender_id)
        if row.key is receiver_ids:
            slots = range(len(receiver_ids))
            row.time = now
        else:
            slot = self._slot
            slots = [slot(row, rid) for rid in receiver_ids]
            row.time = None
        state = row.state
        random_ = rng.random
        log = math.log
        sqrt = math.sqrt
        cos = math.cos
        sin = math.sin
        exp = math.exp
        sigma = self._sigma
        coherence = self.coherence_time_s
        gains = []
        append = gains.append
        last_t = None
        rho = innovation = 0.0
        for k in slots:
            i = 3 * k
            t = state[i]
            if t != t:  # no state yet
                x2pi = random_() * TWOPI
                g2rad = sqrt(-2.0 * log(1.0 - random_()))
                real = 0.0 + (cos(x2pi) * g2rad) * sigma
                imag = 0.0 + (sin(x2pi) * g2rad) * sigma
            else:
                if t != last_t:
                    last_t = t
                    dt = now - t
                    rho = exp(-dt / coherence)
                    innovation = sigma * sqrt(max(0.0, 1.0 - rho * rho))
                if innovation:
                    x2pi = random_() * TWOPI
                    g2rad = sqrt(-2.0 * log(1.0 - random_()))
                    real = rho * state[i + 1] + (
                        0.0 + (cos(x2pi) * g2rad) * innovation)
                    imag = rho * state[i + 2] + (
                        0.0 + (sin(x2pi) * g2rad) * innovation)
                else:
                    real = rho * state[i + 1]
                    imag = rho * state[i + 2]
            state[i] = now
            state[i + 1] = real
            state[i + 2] = imag
            append(real * real + imag * imag)
        return gains

    def _keyed(self, sender_id: int, receiver_ids: Sequence[int]) -> _LinkRow:
        """The sender's row with its first slots in ``receiver_ids`` order.

        A sender seen for the first time gets a fresh row keyed on the
        list; a row keyed on another list (or on none) is rebuilt around
        this one, carrying every link's state over by receiver id.
        """
        row = self._links.get(sender_id)
        if row is not None and row.key is receiver_ids:
            return row
        if row is None:
            row = _LinkRow(receiver_ids, receiver_ids,
                           _FRESH_LINK * len(receiver_ids), math.nan)
        else:
            slots = [self._slot(row, rid) for rid in receiver_ids]
            keyed = set(slots)
            order = slots + [
                k for k in range(len(row.rids)) if k not in keyed
            ]
            old = row.state
            state = array("d")
            for k in order:
                state.extend(old[3 * k:3 * k + 3])
            rids = (
                receiver_ids if len(order) == len(slots)
                else [row.rids[k] for k in order]
            )
            row = _LinkRow(receiver_ids, rids, state, None)
        self._links[sender_id] = row
        return row

    def uniform_row(
        self,
        sender_id: int,
        receiver_ids: Sequence[int],
        now: float,
        rng: random.Random,
    ) -> Optional[Tuple[array, float, float]]:
        """The sender's link states plus their shared ``rho``/innovation.

        Lets a caller fold the AR(1) update into its own pass over the
        receivers: it returns ``(states, rho, innovation)`` only when
        :meth:`sample_link_gains` would take its inlined path, every
        link of ``receiver_ids`` (distinct ids) was last updated at one
        time or none has been sampled yet, and the innovation is
        non-zero.  Otherwise it returns ``None`` and the caller must
        call :meth:`sample_link_gains`, which then finds this row.  A
        sender's first frame gets ``rho = 0.0`` and the innovation
        ``sqrt(0.5)`` over zeroed states: the update below then equals
        a fresh link's draw, ``0.0 + z * sqrt(0.5)``, bit for bit.

        ``states`` is an ``array('d')`` whose triple ``k`` (elements
        ``3k``, ``3k + 1``, ``3k + 2``) is link ``receiver_ids[k]``'s
        ``(t, re, im)``; triples past ``len(receiver_ids)`` belong to
        other links and must be left alone.  A caller that gets a row
        must, in row order,
        draw ``x2pi = random() * TWOPI`` and then ``g2rad = sqrt(-2
        log(1 - random()))``, set ``real = rho * re + (0.0 +
        (cos(x2pi) * g2rad) * innovation)`` and ``imag`` likewise with
        ``sin``/``im``, and write ``(now, real, imag)`` back into the
        triple: exactly the batch loop's update of a link whose
        last-update time is the row's.  The row time is set to ``now``
        here, on that promise.
        """
        if (
            not self._batch_is_exact(CorrelatedRayleighFading, rng)
            or type(self).sample_link_gains
            is not CorrelatedRayleighFading.sample_link_gains
        ):
            return None
        row = self._keyed(sender_id, receiver_ids)
        last_t = row.time
        if last_t is None:
            return None
        if last_t != last_t:  # no link sampled yet
            rho, innovation = 0.0, self._sigma
        else:
            rho = math.exp(-(now - last_t) / self.coherence_time_s)
            innovation = self._sigma * math.sqrt(max(0.0, 1.0 - rho * rho))
            if not innovation:
                return None
        row.time = now
        return row.state, rho, innovation


def rayleigh_outage_probability(mean_snr_linear: float, threshold_linear: float) -> float:
    """Analytic packet-loss probability under Rayleigh block fading.

    With exponential power gain of unit mean, the instantaneous SNR is
    ``gain * mean_snr`` and the packet is lost when it falls below the
    threshold: ``P(loss) = 1 - exp(-threshold / mean_snr)``.

    Used by tests to validate the sampled reception model against theory,
    and by the analytic link-quality predictor in the experiment harness.
    """
    if mean_snr_linear <= 0:
        return 1.0
    return 1.0 - math.exp(-threshold_linear / mean_snr_linear)
