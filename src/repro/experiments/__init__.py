"""Evaluation harness: scenario builders, sweep runner, figure reproductions.

* :mod:`repro.experiments.scenarios` -- build a ready-to-run protocol
  stack (network + probing + routers + traffic) for one protocol variant.
* :mod:`repro.experiments.runner` -- run one protocol on one topology,
  or a whole :class:`~repro.experiments.spec.ExperimentSpec` sweep
  (:func:`~repro.experiments.runner.run_experiment`), and collect
  :class:`~repro.experiments.results.RunResult` rows.
* :mod:`repro.experiments.results` -- aggregation and normalization.
* :mod:`repro.experiments.spec` -- declarative, serializable
  :class:`~repro.experiments.spec.ExperimentSpec` sweeps (TOML/JSON).
* :mod:`repro.experiments.figures` -- one entry point per paper table or
  figure (the benchmark suite calls these).
* :mod:`repro.experiments.executors` -- :class:`SweepExecutor`, the
  one way a list of runs executes: inline or on persistent supervised
  workers.
* :mod:`repro.experiments.resilience` -- what the engine is built from:
  per-run timeouts, a failure taxonomy, quarantine of failed runs, and
  a durable journal enabling ``repro run --resume``, which
  re-dispatches them.
* :mod:`repro.experiments.adaptive` -- sequential seed allocation with
  CI-driven stopping and paired common-random-number comparisons
  (``repro run --adaptive``).
"""

from repro.experiments.adaptive import (
    AdaptiveConfig,
    AdaptiveResult,
    run_adaptive_experiment,
)
from repro.experiments.executors import SweepExecutor
from repro.experiments.faults import (
    FailureInjector,
    FaultPlan,
    FlappingSpec,
    OutageWindow,
)
from repro.experiments.report import render_report
from repro.experiments.resilience import (
    FailureKind,
    ResilienceConfig,
    SweepJournal,
    classify_failure,
)
from repro.experiments.results import (
    AggregateResult,
    RunResult,
    aggregate_runs,
    normalized_metric_table,
)
from repro.experiments.runner import run_experiment, run_protocol
from repro.experiments.scenarios import (
    PROTOCOL_NAMES,
    SimulationScenario,
    SimulationScenarioConfig,
    build_simulation_scenario,
)
from repro.experiments.spec import ExperimentSpec, SpecError

__all__ = [
    "AdaptiveConfig",
    "AdaptiveResult",
    "run_adaptive_experiment",
    "SimulationScenarioConfig",
    "SimulationScenario",
    "build_simulation_scenario",
    "PROTOCOL_NAMES",
    "ExperimentSpec",
    "SpecError",
    "run_experiment",
    "run_protocol",
    "RunResult",
    "AggregateResult",
    "aggregate_runs",
    "normalized_metric_table",
    "render_report",
    "FailureKind",
    "ResilienceConfig",
    "SweepJournal",
    "classify_failure",
    "SweepExecutor",
    "FailureInjector",
    "FaultPlan",
    "FlappingSpec",
    "OutageWindow",
]
