"""SINR-based packet decisions.

A pending reception is a two-item list ``[signal_mw,
peak_interference_mw]`` in the receiver's ``pending_receptions`` dict,
keyed by the transmission: the fading-sampled signal power and the
worst (peak) concurrent interference seen while the packet was in the
air.  The channel's frame passes (and the compiled kernel) write those
rows; at end of transmission :class:`ReceptionModel` decides success.

The decision rule mirrors GloMoSim's SNR-threshold reception:

* the faded signal power must reach the receive threshold, and
* the SINR against (noise + peak concurrent interference) must reach the
  capture threshold for the whole packet duration.

Using *peak* interference over the packet is slightly conservative versus
a bit-by-bit BER model but preserves the property that matters for the
paper: any overlapping transmission of comparable power destroys a
broadcast frame, because there are no retransmissions to recover it.

The compiled kernel applies the stock :meth:`ReceptionModel.decide` in C
from per-node copies of its three constants; a channel whose nodes use a
subclass (or a wrapped ``decide``) calls the Python rule instead.
"""

from __future__ import annotations

import math

from repro.phy.radio import RadioParams


class ReceptionModel:
    """Applies the threshold/SINR decision rule of one radio profile."""

    def __init__(self, params: RadioParams) -> None:
        self.params = params

    def can_sense(self, power_mw: float) -> bool:
        """True if the given power trips carrier sense (medium busy)."""
        return power_mw >= self.params.carrier_sense_threshold_mw

    def decide(self, signal_mw: float, interference_mw: float) -> bool:
        """Final success/failure decision at end of transmission."""
        params = self.params
        if signal_mw < params.rx_threshold_mw:
            return False
        sinr = signal_mw / (params.noise_mw + interference_mw)
        return sinr >= params.sinr_threshold_linear

    def snr_db_margin(self, signal_mw: float) -> float:
        """How far (dB) a clear-channel signal sits above the decode floor.

        The decode floor is the stricter of the receive threshold and the
        SINR-over-noise requirement.  Positive margins decode; negative
        margins are lost.  Useful for topology diagnostics.
        """
        params = self.params
        floor_mw = max(
            params.rx_threshold_mw,
            params.noise_mw * params.sinr_threshold_linear,
        )
        if signal_mw <= 0:
            return float("-inf")
        return 10.0 * math.log10(signal_mw / floor_mw)
