"""Shared scaling knobs and fixtures for the benchmark suite.

Every benchmark runs a scaled-down version of a paper experiment by
default (the whole suite completes in minutes) and scales to paper size
through environment variables:

* ``REPRO_SIM_DURATION``  -- seconds of simulated time (paper: 400)
* ``REPRO_TOPOLOGIES``    -- random topologies per protocol (paper: 10)
* ``REPRO_RUNS``          -- testbed repetitions (paper: 5)
* ``REPRO_NODES``         -- simulation network size (paper: 50)
* ``REPRO_JOBS``          -- worker processes for the shared simulation
  sweep (0 = one per CPU; default 1).  Runs are seed-deterministic, so
  parallel sweeps report identical numbers, just sooner.

Example paper-scale run (tens of minutes):

    REPRO_SIM_DURATION=400 REPRO_TOPOLOGIES=10 REPRO_RUNS=5 \
        pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import os
from typing import List, Tuple

import pytest

from repro.experiments.results import RunResult
from repro.experiments.scenarios import SimulationScenarioConfig
from repro.testbed.emulator import TestbedScenarioConfig


def env_float(name: str, default: float) -> float:
    return float(os.environ.get(name, default))


def env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, default))


def sim_duration() -> float:
    return env_float("REPRO_SIM_DURATION", 150.0)


def topology_seeds() -> Tuple[int, ...]:
    return tuple(range(1, env_int("REPRO_TOPOLOGIES", 1) + 1))


def testbed_seeds() -> Tuple[int, ...]:
    return tuple(range(1, env_int("REPRO_RUNS", 2) + 1))


def sweep_jobs() -> int:
    return env_int("REPRO_JOBS", 1)


def simulation_config() -> SimulationScenarioConfig:
    return SimulationScenarioConfig(
        num_nodes=env_int("REPRO_NODES", 50),
        duration_s=sim_duration(),
        warmup_s=min(30.0, sim_duration() / 4),
    )


def testbed_config() -> TestbedScenarioConfig:
    duration = env_float("REPRO_SIM_DURATION", 400.0)
    return TestbedScenarioConfig(
        duration_s=duration, warmup_s=min(30.0, duration / 4)
    )


@pytest.fixture(scope="session")
def shared_paper_sweep() -> List[RunResult]:
    """One full-protocol sweep shared by the Figure 2 / Table 1 benches.

    The throughput, delay, and overhead columns of the paper all come
    from the same runs; sharing the sweep keeps the suite's wall time
    proportional to one comparison, not three.
    """
    from repro.experiments.runner import run_experiment
    from repro.experiments.spec import ExperimentSpec

    return run_experiment(ExperimentSpec(
        seeds=topology_seeds(), jobs=sweep_jobs(),
        config=simulation_config(),
    ))
