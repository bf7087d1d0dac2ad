"""Tests for markdown report generation."""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments.faults import FaultPlan, OutageWindow
from repro.experiments.report import (
    diagnostics_section,
    injected_downtime_note,
    markdown_table,
    overhead_section,
    render_report,
    throughput_section,
)
from repro.experiments.results import RunResult
from repro.experiments.runner import run_protocol
from repro.experiments.scenarios import SimulationScenarioConfig


def run(protocol, delivered, seed=1, probe_bytes=1000.0, counters=None):
    return RunResult(
        protocol=protocol,
        topology_seed=seed,
        duration_s=100.0,
        offered_packets=1000,
        expected_deliveries=3000,
        delivered_packets=delivered,
        delivered_bytes=delivered * 512,
        mean_delay_s=0.01,
        probe_bytes=probe_bytes,
        counters=counters or {
            "odmrp.data_forwarded": 500.0,
            "odmrp.data_duplicate": 200.0,
            "phy.rx_failed_collision": 50.0,
            "odmrp.query_forwarded": 30.0,
        },
    )


def sample_runs():
    return [
        run("odmrp", 1000, seed=1, probe_bytes=0.0),
        run("odmrp", 1100, seed=2, probe_bytes=0.0),
        run("spp", 1300, seed=1),
        run("spp", 1400, seed=2),
        run("ett", 1200, seed=1, probe_bytes=9000.0),
        run("ett", 1250, seed=2, probe_bytes=9000.0),
    ]


class TestMarkdownTable:
    def test_shape(self):
        table = markdown_table(("a", "b"), [(1, 2), (3, 4)])
        lines = table.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "|---|---|"
        assert lines[2] == "| 1 | 2 |"

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError):
            markdown_table(("a", "b"), [(1,)])


class TestSections:
    def test_throughput_section_normalizes(self):
        section = throughput_section(sample_runs(), {"spp": 1.18})
        assert "1.000" in section  # the baseline row
        # spp mean = 1350 / odmrp mean 1050 = 1.286
        assert "1.286" in section
        assert "1.180" in section  # paper column

    def test_overhead_section_excludes_baseline(self):
        section = overhead_section(sample_runs(), {"ett": 3.03})
        assert "odmrp" not in section
        assert "ett" in section and "3.03" in section

    def test_diagnostics_section_lists_counters(self):
        section = diagnostics_section(sample_runs())
        assert "collisions" in section
        assert "500" in section  # data forwarded mean


class TestRenderReport:
    def test_full_report_structure(self):
        report = render_report(
            sample_runs(),
            title="Demo sweep",
            paper_throughput={"spp": 1.18},
            paper_overhead={"ett": 3.03},
        )
        assert report.startswith("# Demo sweep")
        assert "2 topologies" in report
        assert "Normalized throughput" in report
        assert "Probing overhead" in report
        assert "diagnostics" in report

    def test_empty_runs_rejected(self):
        with pytest.raises(ValueError):
            render_report([])

    def test_protocol_order_follows_paper(self):
        report = render_report(sample_runs())
        assert report.index("odmrp") < report.index("ett")
        assert report.index("| ett") < report.index("| spp")


class TestInjectedDowntimeNote:
    """Runs of a hand-written fault plan carry ``faults.*`` counters
    that the report itemizes per protocol; clean runs add no note."""

    CONFIG = SimulationScenarioConfig(
        num_nodes=8,
        area_width_m=500.0,
        area_height_m=500.0,
        num_groups=1,
        members_per_group=4,
        duration_s=8.0,
        warmup_s=2.0,
        topology_seed=1,
    )

    @pytest.fixture(scope="class")
    def runs(self):
        faulted = dataclasses.replace(self.CONFIG, faults=FaultPlan(
            outages=(OutageWindow(3, 3.0, 5.0),),
        ))
        return {
            "faulted": [run_protocol(p, faulted) for p in ("odmrp", "spp")],
            "clean": [run_protocol(p, self.CONFIG) for p in ("odmrp", "spp")],
        }

    def test_injected_downtime_note(self, runs):
        note = injected_downtime_note(runs["faulted"])
        assert note is not None
        assert "Injected faults" in note
        for protocol in ("odmrp", "spp"):
            assert protocol in note

    def test_downtime_note_absent_for_clean_runs(self, runs):
        assert injected_downtime_note(runs["clean"]) is None
