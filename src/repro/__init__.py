"""Reproduction of "High-Throughput Multicast Routing Metrics in Wireless
Mesh Networks" (Roy, Koutsonikolas, Das, Hu -- IEEE ICDCS 2006).

The package rebuilds the paper's full stack: the five multicast
link-quality metrics (ETX, ETT, PP, METX, SPP) on top of ODMRP, a
discrete-event wireless mesh simulator, probing, an emulation of the
paper's eight-node testbed, and the evaluation harness that regenerates
every table and figure.

Most users want one of:

* :mod:`repro.core` -- the metrics themselves (pure algebra, no
  simulator needed).
* :func:`repro.experiments.run_protocol` -- run one protocol on the
  paper's Section 4 simulation scenario;
  :func:`repro.experiments.run_experiment` runs a whole
  :class:`~repro.experiments.ExperimentSpec` sweep (protocols x
  topologies), every sweep through one
  :class:`~repro.experiments.SweepExecutor`.
* :func:`repro.testbed.build_testbed_scenario` -- the Section 5 testbed
  experiment.
"""

from repro.core.metrics import (
    ALL_METRIC_NAMES,
    EttMetric,
    EtxMetric,
    HopCountMetric,
    LinkQuality,
    MetxMetric,
    PpMetric,
    RouteMetric,
    SppMetric,
    metric_by_name,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "RouteMetric",
    "LinkQuality",
    "HopCountMetric",
    "EtxMetric",
    "EttMetric",
    "PpMetric",
    "MetxMetric",
    "SppMetric",
    "metric_by_name",
    "ALL_METRIC_NAMES",
]
