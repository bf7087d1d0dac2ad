"""Per-packet multiplicative power fading.

The paper uses Rayleigh fading ("appropriate for environments with many
large reflectors ... where the sender and the receiver are not in
Line-of-Sight"), and its central mechanism -- long links become lossy,
min-hop ODMRP picks long links, metrics route around them -- depends on it.

Fading is sampled once per (transmission, receiver) pair: the channel is
assumed coherent over one packet, the standard block-fading abstraction
used by GloMoSim at 2 Mbps packet durations.

A model owns the math and nothing else.  The state of a model with
channel memory lives with the links it describes: each sender's fan-out
in :class:`~repro.net.channel.WirelessChannel` holds the ``array('d')``
that :meth:`FadingModel.link_states` allocates for its links at
``finalize()``, and the time of its last frame.  Every frame asks for
all of its links' gains in one :meth:`FadingModel.sample_link_gains`
call over that state, so one model instance can serve any number of
channels and runs.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from array import array
from typing import List, Tuple

TWOPI = 2.0 * math.pi  # random.gauss's angle scale

#: Per-component standard deviation of a complex gain with E[|h|^2] = 1.
SIGMA = math.sqrt(0.5)


class FadingModel(ABC):
    """Draws a multiplicative power gain (mean 1.0) per packet."""

    @abstractmethod
    def sample_power_gain(self, rng: random.Random) -> float:
        """A non-negative power gain with unit mean."""

    def sample_link_gain(
        self, link_key: tuple, now: float, rng: random.Random
    ) -> float:
        """One link's gain for one packet, drawn without memory.

        A model with channel memory keeps its state in the channel's
        fan-out, not here, so this is its marginal draw.
        """
        return self.sample_power_gain(rng)

    def link_states(self, count: int) -> array:
        """The state of ``count`` links before their first frame.

        A memoryless model keeps none.
        """
        return array("d")

    def sample_link_gains(
        self,
        count: int,
        states: array,
        last_t: float,
        now: float,
        rng: random.Random,
    ) -> List[float]:
        """The gains of one frame's ``count`` links, in fan-out order.

        ``states`` is what :meth:`link_states` allocated for the links,
        last stepped at ``last_t`` (NaN before their first frame); a
        model with memory steps it to ``now``.  This default draws one
        :meth:`sample_power_gain` per link.
        """
        sample = self.sample_power_gain
        return [sample(rng) for _ in range(count)]


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

    Link ``k`` of a fan-out is the ``(t, re, im)`` triple at elements
    ``3k``..``3k + 2`` of its :meth:`link_states` array, so a 2,000-node
    mesh's 178k links cost three doubles each.  A frame steps all of its
    sender's links from one last-update time: :meth:`coefficients` gives
    the step's ``rho`` and innovation, and :meth:`sample_link_gains`
    applies it.  The compiled kernel's ``frame_start`` runs the same
    step, operation for operation.
    """

    def __init__(self, coherence_time_s: float = 1.0) -> None:
        if coherence_time_s <= 0:
            raise ValueError(
                f"coherence time must be positive, got {coherence_time_s}"
            )
        self.coherence_time_s = coherence_time_s

    def sample_power_gain(self, rng: random.Random) -> float:
        """Marginal draw: exponential with unit mean."""
        return rng.expovariate(1.0)

    def link_states(self, count: int) -> array:
        """``count`` zeroed ``(t, re, im)`` triples."""
        return array("d", bytes(3 * 8 * count))

    def coefficients(self, last_t: float, now: float) -> Tuple[float, float]:
        """``(rho, innovation)`` of the step from ``last_t`` to ``now``.

        Before a fan-out's first frame (``last_t`` is NaN) it is ``(0.0,
        sqrt(0.5))``: over zeroed states the step is then a fresh link's
        draw, ``0.0 + z * sqrt(0.5)``, as ``random.gauss`` gives it.
        """
        if last_t != last_t:
            return 0.0, SIGMA
        rho = math.exp(-(now - last_t) / self.coherence_time_s)
        return rho, SIGMA * math.sqrt(max(0.0, 1.0 - rho * rho))

    def sample_link_gains(self, count, states, last_t, now, rng):
        """One AR(1) step of every link, in triple order.

        Each link draws ``random.gauss``'s Box-Muller pair from two
        ``random()`` calls -- at zero innovation too, so the stream a
        frame uses never depends on its step -- and sets ``re = rho * re
        + (0.0 + (cos(x2pi) * g2rad) * innovation)``, ``im`` likewise
        with ``sin``, and ``t = now``.
        """
        rho, innovation = self.coefficients(last_t, now)
        random_ = rng.random
        log = math.log
        sqrt = math.sqrt
        cos = math.cos
        sin = math.sin
        gains = []
        append = gains.append
        for i in range(0, 3 * count, 3):
            x2pi = random_() * TWOPI
            g2rad = sqrt(-2.0 * log(1.0 - random_()))
            real = rho * states[i + 1] + (0.0 + (cos(x2pi) * g2rad) * innovation)
            imag = rho * states[i + 2] + (0.0 + (sin(x2pi) * g2rad) * innovation)
            states[i] = now
            states[i + 1] = real
            states[i + 2] = imag
            append(real * real + imag * imag)
        return gains


def rayleigh_outage_probability(mean_snr_linear: float, threshold_linear: float) -> float:
    """Analytic packet-loss probability under Rayleigh block fading.

    With exponential power gain of unit mean, the instantaneous SNR is
    ``gain * mean_snr`` and the packet is lost when it falls below the
    threshold: ``P(loss) = 1 - exp(-threshold / mean_snr)``.

    The closed form the tests check the sampled reception against.
    """
    if mean_snr_linear <= 0:
        return 1.0
    return 1.0 - math.exp(-threshold_linear / mean_snr_linear)
