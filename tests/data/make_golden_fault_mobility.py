"""Regenerate ``golden_fault_mobility.json``.

Result digests for the run paths the stored benchmark digests do not
cover: radio outages plus flapping, and random-waypoint mobility on both
PHY backends.  Run after an *intentional* change of simulation results::

    PYTHONPATH=src python tests/data/make_golden_fault_mobility.py

``tests/test_golden_fault_mobility.py`` imports ``CASES`` and
``result_digest`` from here and diffs every run against the file this
writes, so a speed-only change must leave it untouched.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import sys
from typing import Dict

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parents[2] / "src")
)

from repro.experiments.faults import (  # noqa: E402
    FaultPlan,
    FlappingSpec,
    OutageWindow,
)
from repro.experiments.results import RunResult  # noqa: E402
from repro.experiments.runner import run_protocol  # noqa: E402
from repro.experiments.scenarios import (  # noqa: E402
    SimulationScenarioConfig,
)
from repro.mobility.config import MobilitySpec  # noqa: E402
from repro.net.network import NetworkConfig  # noqa: E402

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_fault_mobility.json"

PROTOCOLS = ("odmrp", "spp", "metx")

_FAULTS = FaultPlan(
    outages=(OutageWindow(3, 4.0, 7.5), OutageWindow(11, 6.0, 12.0)),
    flapping=(FlappingSpec(7, 3.0, 1.5, 0.4, 13.0),),
)

_WAYPOINT = MobilitySpec(
    model="random-waypoint",
    update_interval_s=0.5,
    speed_min_mps=2.0,
    speed_max_mps=15.0,
)


def _config(num_nodes: int, backend: str, **fields) -> SimulationScenarioConfig:
    return SimulationScenarioConfig(
        num_nodes=num_nodes,
        duration_s=14.0,
        warmup_s=4.0,
        topology_seed=3,
        network=NetworkConfig(phy_backend=backend),
        **fields,
    )


#: case name -> scenario config; every case runs every protocol.
CASES: Dict[str, SimulationScenarioConfig] = {
    "faults-30-scalar": _config(30, "scalar", faults=_FAULTS),
    "waypoint-30-scalar": _config(30, "scalar", mobility=_WAYPOINT),
    "waypoint-80-vectorized": _config(80, "vectorized", mobility=_WAYPOINT),
}


def result_digest(result: RunResult) -> str:
    """sha256 of the canonical JSON of a result, ``telemetry_path`` dropped."""
    record = dataclasses.asdict(result)
    record.pop("telemetry_path")
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def main() -> None:
    digests: Dict[str, Dict[str, str]] = {}
    for case, config in CASES.items():
        digests[case] = {}
        for protocol in PROTOCOLS:
            result = run_protocol(protocol, config)
            if result.error is not None:
                raise SystemExit(f"{case}/{protocol} failed:\n{result.error}")
            digests[case][protocol] = result_digest(result)
            print(f"{case} {protocol} delivered={result.delivered_packets} "
                  f"{digests[case][protocol][:16]}")
    GOLDEN_PATH.write_text(
        json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
