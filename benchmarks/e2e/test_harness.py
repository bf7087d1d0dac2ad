"""Tests of the end-to-end benchmark's own machinery.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments import parallel, runner
from repro.experiments.executors import SweepExecutor
from repro.experiments.results import RunResult
from repro.experiments.runner import run_protocol
from repro.experiments.scenarios import SimulationScenarioConfig, build_simulation_scenario
from repro.mac.csma import CsmaMac
from repro.net.channel import WirelessChannel
from repro.net.node import Node
from repro.phy.reception import ReceptionModel
from repro.probing.neighbor_table import NeighborTable
from repro.sim.engine import Simulator
from repro.sim.events import EventHandle

from hostspeed import HostSpeed
from ledger import HANDLED_KINDS, Ledger
from tracing import Tracer
from verdicts import Comparison, percentile
from workloads import GOLDEN_PATH, TINY_CONFIG, golden_mismatches, result_digest, run_unit

MISSING = object()


class FakeClock:
    """Returns the scripted times in order."""

    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


class TestSelfTime:
    def test_nested_spans(self):
        # outer [0, 10] holds inner [1, 4] (which holds leaf [2, 3]) and
        # inner [5, 9]; the leftover is each span's self time.
        tracer = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
        leaf = tracer.wrap(lambda: None, "leaf", "b")
        inner = tracer.wrap(lambda first: leaf() if first else None, "inner", "b")
        outer = tracer.wrap(lambda: (inner(True), inner(False)), "outer", "a")
        outer()
        assert tracer.stats["outer"][:2] == [10 - 3 - 4, 1]
        assert tracer.stats["inner"][:2] == [(3 - 1) + 4, 2]
        assert tracer.stats["leaf"][:2] == [1, 1]
        assert tracer.total_seconds("inner") == 7
        assert tracer.self_seconds() == 10
        assert tracer.by_layer() == {"a": (3, 1), "b": (7, 3)}

    def test_exception_still_closes_span(self):
        tracer = Tracer(clock=FakeClock([0, 2]))

        def boom():
            raise RuntimeError("x")

        with pytest.raises(RuntimeError):
            tracer.wrap(boom, "boom", "a")()
        assert tracer.stats["boom"][:2] == [2, 1]
        assert tracer.stack == []

    def test_recorded_spans_link_parents(self, tmp_path):
        tracer = Tracer(clock=FakeClock([0, 1, 2, 3]))
        tracer.recording = True
        tracer.run_id = "r"
        inner = tracer.wrap(lambda: None, "inner", "b")
        tracer.wrap(inner, "outer", "a")()
        path = tmp_path / "spans.jsonl"
        assert tracer.write_spans(str(path), origin=0) == 2
        spans = {span["name"]: span for span in map(json.loads, path.read_text().splitlines())}
        assert spans["inner"]["parent"] == spans["outer"]["id"]
        assert (spans["outer"]["start"], spans["outer"]["end"]) == (0, 3)
        assert spans["inner"]["run"] == "r"


def test_percentile_of_400_samples():
    values = list(range(400, 0, -1))  # 1..400, unsorted
    assert percentile(values, 50) == 200.5
    assert percentile(values, 90) == pytest.approx(360.1)
    assert sum(1 for value in values if value > percentile(values, 90)) == 40


def tiny_config(**overrides) -> SimulationScenarioConfig:
    return SimulationScenarioConfig(**{**TINY_CONFIG, **overrides})


def handler_of(node, kind):
    seen = []
    node.wrap_handler(kind, lambda handler: seen.append(handler) or handler)
    return seen[0]


def test_uninstall_restores_every_patched_attribute():
    scenario = build_simulation_scenario("spp", tiny_config())
    channel = scenario.network.channel
    targets = [
        (Simulator, "run"), (Simulator, "schedule"), (Simulator, "schedule_at"),
        (EventHandle, "cancel"), (WirelessChannel, "begin_transmission"),
        (Node, "send_broadcast"), (Node, "send_unicast"), (Node, "deliver"),
        (ReceptionModel, "decide"), (CsmaMac, "enqueue"), (CsmaMac, "on_medium_state"),
        (CsmaMac, "on_tx_complete"), (NeighborTable, "link_cost"),
        (SweepExecutor, "execute"), (parallel, "cache_load"), (parallel, "cache_store"),
        (runner, "build_simulation_scenario"), (runner, "collect_result"),
        (channel.fading, "sample_link_gain"),
        (scenario.metric, "link_cost"), (scenario.metric, "combine"),
    ] + [(router, "on_deliver") for router in scenario.routers.values()]
    before = [vars(owner).get(attr, MISSING) for owner, attr in targets]
    handlers = [
        (node, kind, handler_of(node, kind))
        for node in scenario.network.nodes
        for kind in HANDLED_KINDS
    ]

    tracer = Tracer()
    ledger = Ledger(tracer)
    ledger.install()
    ledger.install_scenario(scenario)
    patched = {(id(owner), attr) for owner, attr, _ in tracer._patches}
    assert patched == {(id(owner), attr) for owner, attr in targets}
    assert Simulator.run is not before[0]
    assert all(handler_of(node, kind) is not handler for node, kind, handler in handlers)
    ledger.uninstall()

    after = [vars(owner).get(attr, MISSING) for owner, attr in targets]
    assert all(old is new for old, new in zip(before, after))
    assert all(handler_of(node, kind) is handler for node, kind, handler in handlers)


@pytest.mark.parametrize("protocol", ["spp", "odmrp"])
def test_traced_run_is_bit_identical(protocol):
    config = tiny_config(topology_seed=3)
    reference = result_digest(run_protocol(protocol, config))
    plain = run_unit(protocol, config, 0.05, HostSpeed())
    tracer = Tracer()
    ledger = Ledger(tracer)
    ledger.install()
    try:
        traced = run_unit(protocol, config, 0.05, HostSpeed(), build=ledger.build,
                          collect=ledger.collect, tracer=tracer, window_s=(5.0, 6.0))
    finally:
        ledger.uninstall()
    assert result_digest(plain.result) == reference
    assert result_digest(traced.result) == reference
    assert tracer.spans and all(span[2] is not None for span in tracer.spans)
    assert abs(tracer.self_seconds() - traced.raw_wall_s) < 0.05 * traced.raw_wall_s
    metrics = ledger.metrics(traced.raw_wall_s, traced.wall_s / plain.wall_s - 1.0)
    assert metrics["sim.events"][0] == plain.events
    assert metrics["net.transmissions"][0] > 0


def golden_results():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        golden = json.load(handle)
    results = [
        RunResult(
            protocol=run["protocol"], topology_seed=run["seed"], duration_s=12.0,
            offered_packets=run["offered"], expected_deliveries=run["expected"],
            delivered_packets=run["delivered_packets"],
            delivered_bytes=run["delivered_bytes"], mean_delay_s=run["mean_delay_s"],
            probe_bytes=run["probe_bytes"],
        )
        for run in golden["runs"]
    ]
    return golden, results


def test_golden_check_flags_a_tampered_record():
    golden, results = golden_results()
    assert golden_mismatches(results, golden) == []
    results[3].delivered_packets += 1
    problems = golden_mismatches(results, golden)
    assert len(problems) == 1 and "delivered_packets" in problems[0]


def test_golden_check_skips_cells_outside_the_sweep():
    golden, results = golden_results()
    assert golden_mismatches([r for r in results if r.topology_seed == 2], golden) == []


@pytest.mark.parametrize(
    "base, change, verdict",
    [
        ([10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10], [8] * 10, "improved"),
        ([10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10], [11.5] * 10, "worse"),
        ([10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10], [10.05] * 10, "unchanged"),
        ([8, 12, 8, 12, 8, 12, 8, 12, 8, 12], [10] * 10, "unresolved"),
    ],
)
def test_compare_verdicts(base, change, verdict):
    assert Comparison("w", "m", "s", base, change, "lower", 0.1).verdict == verdict
