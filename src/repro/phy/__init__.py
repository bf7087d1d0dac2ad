"""Physical-layer models: path loss, fading, radio parameters, reception.

The simulation study in the paper uses GloMoSim's TwoRay propagation model
with Rayleigh fading, a 250 m nominal radio range, and a 2 Mbps channel.
This package reproduces that stack:

* :mod:`repro.phy.propagation` -- deterministic path-loss models.
* :mod:`repro.phy.fading` -- per-packet multiplicative power fading.
* :mod:`repro.phy.radio` -- radio parameter sets and dBm/mW conversions.
* :mod:`repro.phy.reception` -- SINR reception decisions.
"""

from repro.phy.fading import FadingModel, NoFading, RayleighFading
from repro.phy.propagation import (
    FreeSpacePropagation,
    PropagationModel,
    TwoRayGroundPropagation,
)
from repro.phy.radio import (
    RadioParams,
    calibrate_rx_threshold_dbm,
    dbm_to_mw,
    mw_to_dbm,
)
from repro.phy.reception import ReceptionModel

__all__ = [
    "PropagationModel",
    "FreeSpacePropagation",
    "TwoRayGroundPropagation",
    "FadingModel",
    "NoFading",
    "RayleighFading",
    "RadioParams",
    "dbm_to_mw",
    "mw_to_dbm",
    "calibrate_rx_threshold_dbm",
    "ReceptionModel",
]
