"""Tests for markdown report generation."""

from __future__ import annotations

import pytest

from repro.experiments.report import (
    diagnostics_section,
    markdown_table,
    overhead_section,
    render_report,
    throughput_section,
)
from repro.experiments.results import RunResult


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
