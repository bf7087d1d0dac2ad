"""Human-readable rendering of telemetry traces: summarize and diff.

Backs the ``repro telemetry summarize`` / ``repro telemetry diff`` CLI
subcommands.  Both operate purely on the exported artifacts (via
:func:`repro.telemetry.export.read_trace`), never on live runs -- the
point of the subsystem is that a finished sweep can be diagnosed from
its artifacts alone.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.analysis.tables import render_table
from repro.telemetry.export import TelemetryTrace
from repro.telemetry.instruments import Counter, Gauge, Histogram, TimeSeries


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if not math.isfinite(value):
        # inf is a legitimate sample (e.g. ETX of a dead link).
        return f"{value:g}"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.4g}"


def manifest_lines(trace: TelemetryTrace) -> List[str]:
    manifest = trace.manifest
    return [
        f"run      : {manifest.protocol} seed={manifest.seed}",
        f"config   : {manifest.config_hash[:16]} "
        f"(repro {manifest.package_version})",
        f"sim time : {manifest.sim_duration_s:g} s "
        f"({manifest.events_executed:,} events, "
        f"{manifest.wall_time_s:.2f} s wall, "
        f"{manifest.events_per_wall_second:,.0f} events/s)",
        f"host     : {manifest.host.get('platform', '?')} / "
        f"python {manifest.host.get('python', '?')}",
        f"events   : {len(trace.events)} recorded, "
        f"{trace.events_dropped} dropped",
    ]


def summarize_trace(trace: TelemetryTrace) -> str:
    """One run's manifest plus a per-instrument summary table."""
    rows: List[Tuple[str, str, str, str, str, str]] = []
    for instrument in trace.instruments:
        if isinstance(instrument, Counter):
            rows.append((instrument.name, "counter",
                         _fmt(instrument.value), "-", "-", "-"))
        elif isinstance(instrument, Gauge):
            rows.append((instrument.name, "gauge",
                         _fmt(instrument.value), "-", "-", "-"))
        elif isinstance(instrument, TimeSeries):
            rows.append((
                instrument.name, f"series[{len(instrument)}]",
                _fmt(instrument.last), _fmt(instrument.mean()),
                _fmt(instrument.minimum()), _fmt(instrument.maximum()),
            ))
        elif isinstance(instrument, Histogram):
            rows.append((
                instrument.name, f"histogram[{instrument.count}]",
                "-", _fmt(instrument.mean()),
                _fmt(instrument.min), _fmt(instrument.max),
            ))
    table = render_table(
        ("instrument", "kind", "value/last", "mean", "min", "max"), rows
    )
    return "\n".join(manifest_lines(trace) + ["", table])


def _scalar_of(instrument) -> Optional[float]:
    """The single number an instrument is compared by in a diff."""
    if isinstance(instrument, (Counter, Gauge)):
        return instrument.value
    if isinstance(instrument, TimeSeries):
        return instrument.mean()
    if isinstance(instrument, Histogram):
        return instrument.mean()
    return None


def diff_traces(a: TelemetryTrace, b: TelemetryTrace) -> str:
    """Instrument-by-instrument comparison of two runs.

    Counters and gauges compare final values; series and histograms
    compare means.  Instruments present on only one side are flagged
    rather than dropped -- a vanished series is itself a finding.
    """
    header = [
        f"a: {a.label}  (config {a.manifest.config_hash[:12]})",
        f"b: {b.label}  (config {b.manifest.config_hash[:12]})",
    ]
    if a.manifest.config_hash != b.manifest.config_hash:
        header.append("note: configs differ; expect behavioral deltas")
    by_name_a = {inst.name: inst for inst in a.instruments}
    by_name_b = {inst.name: inst for inst in b.instruments}
    rows = []
    for name in sorted(set(by_name_a) | set(by_name_b)):
        in_a, in_b = by_name_a.get(name), by_name_b.get(name)
        if in_a is None or in_b is None:
            rows.append((name, _fmt(_scalar_of(in_a) if in_a else None),
                         _fmt(_scalar_of(in_b) if in_b else None),
                         "only in b" if in_a is None else "only in a"))
            continue
        value_a, value_b = _scalar_of(in_a), _scalar_of(in_b)
        if value_a is None or value_b is None:
            delta = "-"
        elif not (math.isfinite(value_a) and math.isfinite(value_b)):
            delta = "-"
        elif value_a == 0:
            delta = "-" if value_b == 0 else "new"
        else:
            delta = f"{100.0 * (value_b - value_a) / value_a:+.1f}%"
        rows.append((name, _fmt(value_a), _fmt(value_b), delta))
    table = render_table(("instrument", "a", "b", "delta"), rows)
    return "\n".join(header + ["", table])
