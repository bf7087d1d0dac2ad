"""Deterministic path-loss models.

All models compute mean received power in milliwatts given transmit power
and a link distance; fading (the random part) is layered on top by
:mod:`repro.phy.fading`.  The TwoRayGround model follows the standard
GloMoSim / ns-2 formulation: free-space up to the crossover distance, then
the fourth-power ground-reflection law.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Optional

SPEED_OF_LIGHT = 299_792_458.0  # m/s

#: Relative slack applied to analytically inverted ranges.  The inverse
#: formulas are exact up to rounding; widening the radius by one part in
#: a million guarantees the returned bound is a *superset* test -- any
#: link whose mean power clears the cutoff lies within it -- while the
#: per-pair power check stays the single source of truth.
_RANGE_SAFETY = 1.0 + 1e-6


class PropagationModel(ABC):
    """Mean-power path loss as a function of distance."""

    @abstractmethod
    def rx_power_mw(
        self,
        tx_power_mw: float,
        distance_m: float,
        tx_gain: float = 1.0,
        rx_gain: float = 1.0,
    ) -> float:
        """Mean received power in mW over a link of the given length."""

    def rx_power_mw_between(
        self,
        tx_power_mw: float,
        tx_position,
        rx_position,
        tx_gain: float = 1.0,
        rx_gain: float = 1.0,
    ) -> float:
        """Mean received power between two endpoint positions.

        The base model is isotropic, so this reduces to the distance-only
        form through the exact ``Position.distance_to`` hypot the channel
        has always used -- bit-identical to the historical path.  Models
        that care about geometry beyond distance (obstacle shadowing)
        override this; the distance-only :meth:`rx_power_mw` remains the
        obstacle-free envelope used for radio calibration and range
        bounds.
        """
        return self.rx_power_mw(
            tx_power_mw, tx_position.distance_to(rx_position),
            tx_gain, rx_gain,
        )

    def gain(self, distance_m: float) -> float:
        """Channel power gain (rx power / tx power) with unit antennas."""
        return self.rx_power_mw(1.0, distance_m)

    def max_range_for_power(
        self,
        tx_power_mw: float,
        min_power_mw: float,
        tx_gain: float = 1.0,
        rx_gain: float = 1.0,
    ) -> Optional[float]:
        """Upper bound on the distance at which mean power >= cutoff.

        The spatial grid index uses this to restrict audibility scans to
        nearby cells: every receiver whose mean power reaches
        ``min_power_mw`` is guaranteed to lie within the returned radius,
        which is the exact inverse widened by ``_RANGE_SAFETY`` (exact
        audibility is always re-decided per pair by
        :meth:`rx_power_mw`).  Returns ``None``
        when the model cannot bound the range analytically -- callers
        must then fall back to the brute-force O(N^2) scan.
        """
        return None


class FreeSpacePropagation(PropagationModel):
    """Friis free-space model: ``Pr = Pt Gt Gr (lambda / 4 pi d)^2``."""

    def __init__(self, frequency_hz: float = 2.4e9) -> None:
        if frequency_hz <= 0:
            raise ValueError(f"frequency must be positive, got {frequency_hz}")
        self.frequency_hz = frequency_hz
        self.wavelength_m = SPEED_OF_LIGHT / frequency_hz

    def rx_power_mw(
        self,
        tx_power_mw: float,
        distance_m: float,
        tx_gain: float = 1.0,
        rx_gain: float = 1.0,
    ) -> float:
        if distance_m <= 0:
            return tx_power_mw * tx_gain * rx_gain
        factor = self.wavelength_m / (4.0 * math.pi * distance_m)
        return tx_power_mw * tx_gain * rx_gain * factor * factor

    def max_range_for_power(
        self,
        tx_power_mw: float,
        min_power_mw: float,
        tx_gain: float = 1.0,
        rx_gain: float = 1.0,
    ) -> Optional[float]:
        budget = tx_power_mw * tx_gain * rx_gain
        if budget <= 0.0 or min_power_mw <= 0.0:
            return None
        distance = (self.wavelength_m / (4.0 * math.pi)) * math.sqrt(
            budget / min_power_mw
        )
        return distance * _RANGE_SAFETY


class TwoRayGroundPropagation(PropagationModel):
    """Two-ray ground-reflection model (GloMoSim's ``TWO-RAY``).

    Below the crossover distance ``dc = 4 pi ht hr / lambda`` the model
    reduces to free space; beyond it the direct and ground-reflected rays
    interfere destructively and power falls off as ``d^-4``:

        ``Pr = Pt Gt Gr ht^2 hr^2 / d^4``
    """

    def __init__(
        self,
        frequency_hz: float = 2.4e9,
        tx_antenna_height_m: float = 1.5,
        rx_antenna_height_m: float = 1.5,
    ) -> None:
        if tx_antenna_height_m <= 0 or rx_antenna_height_m <= 0:
            raise ValueError("antenna heights must be positive")
        self.frequency_hz = frequency_hz
        self.tx_antenna_height_m = tx_antenna_height_m
        self.rx_antenna_height_m = rx_antenna_height_m
        self._free_space = FreeSpacePropagation(frequency_hz)
        self.crossover_distance_m = (
            4.0
            * math.pi
            * tx_antenna_height_m
            * rx_antenna_height_m
            / self._free_space.wavelength_m
        )

    def rx_power_mw(
        self,
        tx_power_mw: float,
        distance_m: float,
        tx_gain: float = 1.0,
        rx_gain: float = 1.0,
    ) -> float:
        if distance_m < self.crossover_distance_m:
            return self._free_space.rx_power_mw(
                tx_power_mw, distance_m, tx_gain, rx_gain
            )
        ht2 = self.tx_antenna_height_m * self.tx_antenna_height_m
        hr2 = self.rx_antenna_height_m * self.rx_antenna_height_m
        d2 = distance_m * distance_m
        return tx_power_mw * tx_gain * rx_gain * ht2 * hr2 / (d2 * d2)

    def max_range_for_power(
        self,
        tx_power_mw: float,
        min_power_mw: float,
        tx_gain: float = 1.0,
        rx_gain: float = 1.0,
    ) -> Optional[float]:
        free_space = self._free_space.max_range_for_power(
            tx_power_mw, min_power_mw, tx_gain, rx_gain
        )
        if free_space is None:
            return None
        budget = tx_power_mw * tx_gain * rx_gain
        ht2 = self.tx_antenna_height_m * self.tx_antenna_height_m
        hr2 = self.rx_antenna_height_m * self.rx_antenna_height_m
        ground = (budget * ht2 * hr2 / min_power_mw) ** 0.25 * _RANGE_SAFETY
        # The two branches meet at the crossover and power falls with
        # distance, so the reach is the *smaller* inverse: a cutoff above
        # the crossover power is met inside dc, where the d^-4 curve lies
        # above free space (its inverse overshoots); below it, reach is
        # beyond dc, where free space lies above the d^-4 curve.
        return min(free_space, ground)


class LogDistancePropagation(PropagationModel):
    """Log-distance model: free space to ``d0``, exponent ``n`` beyond.

    Used by the testbed emulation, where office walls make the effective
    exponent larger than free space.
    """

    def __init__(
        self,
        frequency_hz: float = 2.4e9,
        reference_distance_m: float = 1.0,
        path_loss_exponent: float = 3.0,
    ) -> None:
        if reference_distance_m <= 0:
            raise ValueError("reference distance must be positive")
        if path_loss_exponent < 2.0:
            raise ValueError("path-loss exponent below free space (2.0)")
        self.reference_distance_m = reference_distance_m
        self.path_loss_exponent = path_loss_exponent
        self._free_space = FreeSpacePropagation(frequency_hz)

    def rx_power_mw(
        self,
        tx_power_mw: float,
        distance_m: float,
        tx_gain: float = 1.0,
        rx_gain: float = 1.0,
    ) -> float:
        d0 = self.reference_distance_m
        reference_power = self._free_space.rx_power_mw(
            tx_power_mw, d0, tx_gain, rx_gain
        )
        if distance_m <= d0:
            return self._free_space.rx_power_mw(
                tx_power_mw, distance_m, tx_gain, rx_gain
            )
        return reference_power * (d0 / distance_m) ** self.path_loss_exponent

    def max_range_for_power(
        self,
        tx_power_mw: float,
        min_power_mw: float,
        tx_gain: float = 1.0,
        rx_gain: float = 1.0,
    ) -> Optional[float]:
        if min_power_mw <= 0.0:
            return None
        d0 = self.reference_distance_m
        reference_power = self._free_space.rx_power_mw(
            tx_power_mw, d0, tx_gain, rx_gain
        )
        if reference_power <= 0.0:
            return None
        if reference_power <= min_power_mw:
            # Cutoff reached inside the free-space region (d <= d0).
            free_space = self._free_space.max_range_for_power(
                tx_power_mw, min_power_mw, tx_gain, rx_gain
            )
            return None if free_space is None else min(free_space, d0)
        ratio = reference_power / min_power_mw
        return d0 * ratio ** (1.0 / self.path_loss_exponent) * _RANGE_SAFETY
