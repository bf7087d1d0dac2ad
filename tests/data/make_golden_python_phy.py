"""Regenerate ``golden_python_phy.json``.

Scenario-level result digests for the pure-Python PHY passes, the path
a host without a C compiler runs and the one the stored benchmark
digests do not cover (the compiled kernel is disabled while they run;
it gives the same bits).  Run after an *intentional* change of
simulation results::

    PYTHONPATH=src python tests/data/make_golden_python_phy.py

``tests/test_golden_python_phy.py`` imports ``CASES`` and
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

from repro.experiments.results import RunResult  # noqa: E402
from repro.experiments.runner import run_protocol  # noqa: E402
from repro.experiments.scenarios import (  # noqa: E402
    SimulationScenarioConfig,
)
from repro.phy import kernel  # noqa: E402

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_python_phy.json"

PROTOCOLS = ("odmrp", "spp", "metx")

#: case name -> scenario config; every case runs every protocol.
CASES: Dict[str, SimulationScenarioConfig] = {
    "static-30-python": SimulationScenarioConfig(
        num_nodes=30,
        duration_s=14.0,
        warmup_s=4.0,
        topology_seed=3,
    ),
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
            with kernel.disabled():
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
