"""Evaluation harness: scenario builders, sweep runner, figure reproductions.

* :mod:`repro.experiments.scenarios` -- build a ready-to-run protocol
  stack (network + probing + routers + traffic) for one protocol variant.
* :mod:`repro.experiments.runner` -- run variants across topologies and
  collect :class:`~repro.experiments.results.RunResult` rows.
* :mod:`repro.experiments.results` -- aggregation and normalization.
* :mod:`repro.experiments.spec` -- declarative, serializable
  :class:`~repro.experiments.spec.ExperimentSpec` sweeps (TOML/JSON).
* :mod:`repro.experiments.figures` -- one entry point per paper table or
  figure (the benchmark suite calls these).
* :mod:`repro.experiments.resilience` -- the sweep engine: inline or
  persistent supervised workers, per-run timeouts, retry with backoff,
  a failure taxonomy, and a durable journal enabling ``repro run
  --resume``.
* :mod:`repro.experiments.chaos` -- fault injection harness asserting
  the engine recovers (``repro chaos`` / ``pytest -m chaos``).
* :mod:`repro.experiments.adaptive` -- sequential seed allocation with
  CI-driven stopping and paired common-random-number comparisons
  (``repro run --adaptive``).
"""

from repro.experiments.adaptive import (
    AdaptiveConfig,
    AdaptiveResult,
    run_adaptive_experiment,
)
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
    RetryPolicy,
    SweepJournal,
    classify_failure,
    execute_runs_detailed,
)
from repro.experiments.results import (
    AggregateResult,
    RunResult,
    aggregate_runs,
    normalized_metric_table,
)
from repro.experiments.runner import (
    compare_protocols,
    run_experiment,
    run_protocol,
)
from repro.experiments.scenarios import (
    PROTOCOL_NAMES,
    SimulationScenario,
    SimulationScenarioConfig,
    build_simulation_scenario,
)
from repro.experiments.spec import (
    ExperimentSpec,
    SpecError,
    load_experiment_spec,
)

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
    "load_experiment_spec",
    "run_experiment",
    "run_protocol",
    "compare_protocols",
    "RunResult",
    "AggregateResult",
    "aggregate_runs",
    "normalized_metric_table",
    "render_report",
    "FailureKind",
    "ResilienceConfig",
    "RetryPolicy",
    "SweepJournal",
    "classify_failure",
    "execute_runs_detailed",
    "FailureInjector",
    "FaultPlan",
    "FlappingSpec",
    "OutageWindow",
]
