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
:meth:`~FadingModel.sample_link_gain` call per link would.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
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
    """

    def __init__(self, coherence_time_s: float = 1.0) -> None:
        if coherence_time_s <= 0:
            raise ValueError(
                f"coherence time must be positive, got {coherence_time_s}"
            )
        self.coherence_time_s = coherence_time_s
        # link_key -> [last_update_time, h_real, h_imag]; a mutable list
        # updated in place, so the per-packet hot path allocates nothing
        # and writes the dict only on a link's first sample.
        self._state: dict = {}
        # sender id -> (receiver id list, that list's state entries): the
        # batch path's view of ``_state``, holding the very same mutable
        # lists, reused while the channel passes the same list object.
        self._rows: Dict[int, Tuple[Sequence[int], List[Optional[list]]]] = {}
        self._sigma = math.sqrt(0.5)  # per-component: E[|h|^2] = 1

    def sample_power_gain(self, rng: random.Random) -> float:
        """Marginal draw (used when no link identity is available)."""
        return rng.expovariate(1.0)

    def sample_link_gain(
        self, link_key: tuple, now: float, rng: random.Random
    ) -> float:
        state = self._state.get(link_key)
        if state is None:
            sigma = self._sigma
            gauss = rng.gauss
            real = gauss(0.0, sigma)
            imag = gauss(0.0, sigma)
            self._state[link_key] = [now, real, imag]
        else:
            dt = now - state[0]
            rho = math.exp(-dt / self.coherence_time_s)
            innovation = self._sigma * math.sqrt(max(0.0, 1.0 - rho * rho))
            real = state[1]
            imag = state[2]
            if innovation:
                gauss = rng.gauss
                real = rho * real + gauss(0.0, innovation)
                imag = rho * imag + gauss(0.0, innovation)
            else:
                real = rho * real
                imag = rho * imag
            state[0] = now
            state[1] = real
            state[2] = imag
        return real * real + imag * imag

    def sample_link_gains(self, sender_id, receiver_ids, now, rng):
        """The AR(1) update of every link in one loop.

        Each ``gauss(0.0, s)`` pair is the Box-Muller pair ``0.0 +
        z * s`` drawn from two ``random()`` calls, and links whose last
        update shares a time share one ``rho``/innovation (the same
        ``exp``/``sqrt`` of the same doubles).
        """
        if not self._batch_is_exact(CorrelatedRayleighFading, rng):
            return super().sample_link_gains(sender_id, receiver_ids, now, rng)
        row = self._rows.get(sender_id)
        if row is not None and row[0] is receiver_ids:
            states = row[1]
        else:
            lookup = self._state.get
            states = [lookup((sender_id, rid)) for rid in receiver_ids]
            self._rows[sender_id] = (receiver_ids, states)
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
        for k, state in enumerate(states):
            if state is None:
                # Not sampled when the row was cached; the per-link path
                # may have started the link since.
                key = (sender_id, receiver_ids[k])
                state = states[k] = self._state.get(key)
                if state is None:
                    x2pi = random_() * TWOPI
                    g2rad = sqrt(-2.0 * log(1.0 - random_()))
                    real = 0.0 + (cos(x2pi) * g2rad) * sigma
                    imag = 0.0 + (sin(x2pi) * g2rad) * sigma
                    states[k] = self._state[key] = [now, real, imag]
                    append(real * real + imag * imag)
                    continue
            t = state[0]
            if t != last_t:
                last_t = t
                dt = now - t
                rho = exp(-dt / coherence)
                innovation = sigma * sqrt(max(0.0, 1.0 - rho * rho))
            if innovation:
                x2pi = random_() * TWOPI
                g2rad = sqrt(-2.0 * log(1.0 - random_()))
                real = rho * state[1] + (0.0 + (cos(x2pi) * g2rad) * innovation)
                imag = rho * state[2] + (0.0 + (sin(x2pi) * g2rad) * innovation)
            else:
                real = rho * state[1]
                imag = rho * state[2]
            state[0] = now
            state[1] = real
            state[2] = imag
            append(real * real + imag * imag)
        return gains


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
