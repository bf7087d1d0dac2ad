"""Tests for declarative experiment specs and the golden-seed regression.

Covers the serialization contract (spec -> dict -> TOML/JSON -> spec is
lossless and strict), the end-to-end registry-resolved MAODV sweep
through runner + cache + report + telemetry, and the bit-identity pin:
the six paper protocols must reproduce the pre-registry golden results
exactly, per seed.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments.report import render_report
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import SimulationScenarioConfig
from repro.experiments.spec import (
    ExperimentSpec,
    SpecError,
    toml_dumps,
)
from repro.telemetry.hub import TelemetryConfig

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_tiny_sweep.json"


def sample_spec() -> ExperimentSpec:
    """A spec exercising non-default values at every nesting level."""
    config = SimulationScenarioConfig(
        num_nodes=12,
        area_width_m=600.0,
        area_height_m=480.0,
        num_groups=1,
        members_per_group=4,
        duration_s=30.0,
        warmup_s=10.0,
        topology_seed=7,
    )
    config = replace(
        config,
        network=replace(config.network, rayleigh_fading=False),
        odmrp=replace(config.odmrp, refresh_interval_s=4.5),
        telemetry=TelemetryConfig(enabled=True, sample_interval_s=2.0),
    )
    return ExperimentSpec(
        name="sample",
        description="round-trip fixture",
        protocols=("odmrp", "spp", "maodv-etx"),
        seeds=(3, 5, 8),
        jobs=2,
        use_cache=True,
        config=config,
    )


class TestRoundTrip:
    def test_dict_round_trip(self):
        spec = sample_spec()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        spec = sample_spec()
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_toml_round_trip(self):
        spec = sample_spec()
        assert ExperimentSpec.from_toml(spec.to_toml()) == spec

    def test_default_spec_round_trips(self):
        spec = ExperimentSpec()
        assert ExperimentSpec.from_toml(spec.to_toml()) == spec
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_floats_round_trip_exactly(self):
        spec = sample_spec()
        spec.config = replace(spec.config, duration_s=0.1 + 0.2)  # 0.30000...4
        back = ExperimentSpec.from_toml(spec.to_toml())
        assert back.config.duration_s == spec.config.duration_s

    def test_file_round_trip_toml_and_json(self, tmp_path):
        spec = sample_spec()
        for filename in ("spec.toml", "spec.json"):
            path = str(tmp_path / filename)
            spec.save(path)
            assert ExperimentSpec.load(path) == spec

    def test_none_fields_omitted_from_serialized_form(self):
        data = sample_spec().to_dict()
        # NetworkConfig.propagation/fading are None -> must not appear.
        assert "propagation" not in data["config"]["network"]
        assert "fading" not in data["config"]["network"]


class TestStrictness:
    def test_unknown_top_level_key_rejected(self):
        data = sample_spec().to_dict()
        data["protocol"] = ["spp"]  # typo'd "protocols"
        with pytest.raises(SpecError) as excinfo:
            ExperimentSpec.from_dict(data)
        assert "protocol" in str(excinfo.value)

    @pytest.mark.parametrize("fmt", ["toml", "json"])
    def test_backend_key_names_the_removal(self, fmt):
        data = sample_spec().to_dict()
        if fmt == "toml":
            text = 'backend = "dir:///mnt/shared"\n' + sample_spec().to_toml()
            load = ExperimentSpec.from_toml
        else:
            text = json.dumps({**data, "backend": "dir:///mnt/shared"})
            load = ExperimentSpec.from_json
        with pytest.raises(SpecError) as excinfo:
            load(text)
        message = str(excinfo.value)
        assert "dir:// backend was removed" in message
        assert "unknown key" not in message
        for knob in ("jobs", "run_timeout_s", "--resume"):
            assert knob in message
        assert "max_retries" not in message

    @pytest.mark.parametrize("path, value, removed", [
        (("mobility_models",), ["static", "random-waypoint"], "mobility"),
        (("config", "mobility"), {"model": "random-waypoint"}, "mobility"),
        (("config", "energy"), {"enabled": True}, "energy accounting"),
        (("max_retries",), 1, "in-sweep retry"),
        (("config", "obstacles"), {"obstacles": [
            {"x_min_m": 100.0, "y_min_m": 0.0,
             "x_max_m": 120.0, "y_max_m": 10.0},
        ]}, "obstacle shadowing"),
    ], ids=["mobility_models", "config.mobility", "config.energy",
            "max_retries", "config.obstacles"])
    @pytest.mark.parametrize("suffix", [".toml", ".json"])
    def test_retired_key_names_the_removal(
        self, tmp_path, path, value, removed, suffix
    ):
        data = sample_spec().to_dict()
        table = data
        for key in path[:-1]:
            table = table[key]
        table[path[-1]] = value
        spec_path = tmp_path / f"old{suffix}"
        spec_path.write_text(
            json.dumps(data) if suffix == ".json" else toml_dumps(data)
        )
        with pytest.raises(SpecError) as excinfo:
            ExperimentSpec.load(str(spec_path))
        message = str(excinfo.value)
        assert f"key {path[-1]!r} is no longer supported" in message
        assert f"{removed} was removed" in message
        assert "unknown key" not in message

    @pytest.mark.parametrize("suffix", [".toml", ".json"])
    def test_removed_phy_backend_names_the_removal(self, tmp_path, suffix):
        data = sample_spec().to_dict()
        data["config"]["network"]["phy_backend"] = "vectorized"
        spec_path = tmp_path / f"old{suffix}"
        spec_path.write_text(
            json.dumps(data) if suffix == ".json" else toml_dumps(data)
        )
        with pytest.raises(SpecError) as excinfo:
            ExperimentSpec.load(str(spec_path))
        message = str(excinfo.value)
        assert (
            "config.network key 'phy_backend' is no longer supported"
            in message
        )
        assert "PHY backend selection was removed" in message
        assert "compiled PHY kernel wherever it loads" in message
        assert "unknown key" not in message

    def test_unknown_config_key_rejected(self):
        data = sample_spec().to_dict()
        data["config"]["num_node"] = 10  # typo'd "num_nodes"
        with pytest.raises(SpecError) as excinfo:
            ExperimentSpec.from_dict(data)
        assert "num_node" in str(excinfo.value)

    def test_unknown_nested_key_rejected(self):
        data = sample_spec().to_dict()
        data["config"]["network"]["datarate"] = 1.0
        with pytest.raises(SpecError):
            ExperimentSpec.from_dict(data)

    def test_unsupported_schema_rejected(self):
        data = sample_spec().to_dict()
        data["schema"] = 99
        with pytest.raises(SpecError):
            ExperimentSpec.from_dict(data)

    def test_model_instances_are_not_serializable(self):
        from repro.phy.propagation import TwoRayGroundPropagation

        spec = sample_spec()
        spec.config = replace(
            spec.config,
            network=replace(
                spec.config.network, propagation=TwoRayGroundPropagation()
            ),
        )
        with pytest.raises(SpecError):
            spec.to_dict()

    @pytest.mark.parametrize("key, value", [
        ("jobs", "2"),
        ("jobs", 2.0),
        ("jobs", True),
        ("use_cache", "false"),
        ("use_cache", 1),
        ("run_timeout_s", "5"),
        ("run_timeout_s", True),
        ("protocols", "odmrp"),
        ("protocols", ["odmrp", "spp", "odmrp"]),
        ("seeds", [1, 2, 1]),
    ])
    def test_mistyped_field_rejected(self, key, value):
        """A field a file can get wrong fails as a SpecError up front,
        not as a TypeError or a silently wrong sweep later."""
        data = sample_spec().to_dict()
        data[key] = value
        with pytest.raises(SpecError) as excinfo:
            ExperimentSpec.from_dict(data).validate()
        assert key in str(excinfo.value)

    @pytest.mark.parametrize("config, field", [
        ({"num_nodes": -3}, "num_nodes"),
        ({"num_nodes": 8.0}, "num_nodes"),
        ({"warmup_s": 10.0, "duration_s": 5.0}, "warmup_s"),
        ({"warmup_s": -1.0}, "warmup_s"),
        ({"duration_s": "x"}, "duration_s"),
        ({"faults": {"outages": [
            {"node_id": 99, "start_s": 12.0, "end_s": 14.0},
        ]}}, "node 99"),
    ], ids=["negative-nodes", "float-nodes", "warmup-after-end",
            "negative-warmup", "text-duration", "fault-on-missing-node"])
    def test_unrunnable_scenario_rejected(self, config, field):
        """A scenario every run of which would raise in its worker
        fails validation, so --dry-run and ``repro validate --spec``
        catch it before a sweep quarantines every run."""
        data = sample_spec().to_dict()
        data["config"].update(config)
        with pytest.raises(SpecError) as excinfo:
            ExperimentSpec.from_dict(data).validate()
        assert field in str(excinfo.value)

    @pytest.mark.parametrize("config, field", [
        ({"members_per_group": 11, "sources_per_group": 2},
         "members_per_group + config.sources_per_group"),
        ({"rate_pps": 0.0}, "rate_pps"),
        ({"rate_pps": -5.0}, "rate_pps"),
        ({"packet_size_bytes": 0}, "packet_size_bytes"),
        ({"num_groups": 0}, "num_groups"),
    ], ids=["group-larger-than-mesh", "zero-rate", "negative-rate",
            "empty-packets", "no-groups"])
    def test_unrunnable_traffic_rejected(self, config, field):
        """Traffic and group settings every run would reject (or, with
        no group, run with nothing offered) fail validation and name
        the field."""
        data = sample_spec().to_dict()
        data["config"].update(config)
        with pytest.raises(SpecError) as excinfo:
            ExperimentSpec.from_dict(data).validate()
        assert f"config.{field}" in str(excinfo.value)

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_non_positive_jobs_means_one_per_cpu(self, jobs):
        data = sample_spec().to_dict()
        data["jobs"] = jobs
        assert ExperimentSpec.from_dict(data).validate().jobs == jobs

    def test_invalid_toml_raises_spec_error(self):
        with pytest.raises(SpecError):
            ExperimentSpec.from_toml("name = [unclosed")

    def test_invalid_json_raises_spec_error(self):
        with pytest.raises(SpecError):
            ExperimentSpec.from_json("{not json")

    def test_validate_rejects_empty_protocols(self):
        with pytest.raises(SpecError):
            ExperimentSpec(protocols=()).validate()

    def test_validate_rejects_empty_seeds(self):
        with pytest.raises(SpecError):
            ExperimentSpec(seeds=()).validate()

    def test_validate_rejects_non_integer_seeds(self):
        with pytest.raises(SpecError):
            ExperimentSpec(seeds=(1, True)).validate()

    def test_validate_resolves_protocols_through_registry(self):
        with pytest.raises(ValueError) as excinfo:
            ExperimentSpec(protocols=("odmrp", "sppp")).validate()
        assert "did you mean" in str(excinfo.value)


class TestSpecSurface:
    def test_total_runs_and_describe(self):
        spec = sample_spec()
        assert spec.total_runs == 9
        text = spec.describe()
        assert "3 protocols x 3 topologies = 9" in text
        assert "maodv-etx" in text
        assert "MaodvRouter" in text

    def test_with_overrides_keeps_unset_fields(self):
        spec = sample_spec()
        derived = spec.with_overrides(protocols=("spp",), jobs=4)
        assert derived.protocols == ("spp",)
        assert derived.jobs == 4
        assert derived.seeds == spec.seeds
        assert derived.use_cache == spec.use_cache
        assert spec.protocols == ("odmrp", "spp", "maodv-etx")

    def test_toml_dumps_quotes_exotic_keys(self):
        text = toml_dumps({"plain": 1, "needs quoting": "x"})
        assert 'plain = 1' in text
        assert '"needs quoting" = "x"' in text

    def test_toml_dumps_rejects_non_finite_floats(self):
        with pytest.raises(SpecError):
            toml_dumps({"bad": float("nan")})


class TestMaodvSweepEndToEnd:
    """Acceptance: a registry-resolved MAODV metric sweep runs through
    runner, parallel cache, report, and telemetry export."""

    def test_sweep_with_cache_report_and_telemetry(self, tmp_path):
        telemetry_dir = tmp_path / "telemetry"
        cache_dir = tmp_path / "cache"
        config = SimulationScenarioConfig(
            num_nodes=8,
            area_width_m=450.0,
            area_height_m=450.0,
            num_groups=1,
            members_per_group=3,
            duration_s=10.0,
            warmup_s=4.0,
            topology_seed=1,
            telemetry=TelemetryConfig(
                enabled=True, export_dir=str(telemetry_dir)
            ),
        )
        spec = ExperimentSpec(
            name="maodv metric sweep",
            protocols=("maodv", "maodv-etx", "maodv-spp"),
            seeds=(1,),
            use_cache=True,
            config=config,
        )
        runs = run_experiment(spec, cache_dir=str(cache_dir))
        assert [run.protocol for run in runs] == list(spec.protocols)
        assert all(run.error is None for run in runs)
        assert all(run.offered_packets > 0 for run in runs)

        # Telemetry artifacts exist and carry registry provenance.
        for run in runs:
            assert run.telemetry_path is not None
            assert os.path.exists(run.telemetry_path)
            with open(run.telemetry_path, encoding="utf-8") as handle:
                manifest = json.loads(handle.readline())
            assert manifest["protocol"] == run.protocol
            assert manifest["family"] == "maodv"
            assert manifest["extra"]["protocol_spec"]["router"].endswith(
                "MaodvRouter"
            )

        # Second execution replays from the cache, bit-identically.
        cached = run_experiment(spec, cache_dir=str(cache_dir))
        assert [
            (r.protocol, r.delivered_packets, r.mean_delay_s) for r in cached
        ] == [
            (r.protocol, r.delivered_packets, r.mean_delay_s) for r in runs
        ]

        # And the report renders with registry ordering.
        report = render_report(runs, title=spec.name)
        assert "maodv metric sweep" in report
        assert "maodv-etx" in report


class TestGoldenRegression:
    """The six paper protocols are bit-identical to pre-registry results."""

    def test_paper_protocols_match_golden(self):
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        config = SimulationScenarioConfig(**golden["config"])
        protocols = sorted(
            {run["protocol"] for run in golden["runs"]},
            key=[r["protocol"] for r in golden["runs"]].index,
        )
        runs = run_experiment(ExperimentSpec(
            protocols=protocols, seeds=tuple(golden["seeds"]), config=config,
        ))
        measured = {
            (run.protocol, run.topology_seed): run for run in runs
        }
        assert len(measured) == len(golden["runs"])
        for expected in golden["runs"]:
            run = measured[(expected["protocol"], expected["seed"])]
            label = f"{expected['protocol']}/seed{expected['seed']}"
            assert run.error is None, label
            assert run.offered_packets == expected["offered"], label
            assert run.expected_deliveries == expected["expected"], label
            assert run.delivered_packets == expected["delivered_packets"], label
            assert run.delivered_bytes == expected["delivered_bytes"], label
            assert run.mean_delay_s == expected["mean_delay_s"], label
            assert run.probe_bytes == expected["probe_bytes"], label
