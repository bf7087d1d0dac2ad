"""Tests for the protocol registry (repro.protocols)."""

from __future__ import annotations

import pytest

from repro.core.metrics import (
    EtxMetric,
    WcettSingleChannelMetric,
    metric_by_name,
    metric_type_by_name,
    register_metric,
)
from repro.maodv.protocol import MaodvRouter
from repro.odmrp.config import OdmrpConfig
from repro.odmrp.protocol import OdmrpRouter
from repro.protocols import (
    REGISTRY,
    DuplicateProtocolError,
    ProtocolRegistry,
    ProtocolSpec,
    UnknownProtocolError,
    maodv_protocol_names,
    paper_protocol_names,
    protocol_by_name,
    protocol_names,
    register_protocol,
    registers,
)


class TestSeededRegistry:
    """The default registry ships the paper's variants pre-registered."""

    def test_paper_six_in_registration_order(self):
        assert paper_protocol_names() == (
            "odmrp", "ett", "etx", "metx", "pp", "spp"
        )

    def test_maodv_family(self):
        assert maodv_protocol_names() == (
            "maodv", "maodv-ett", "maodv-etx", "maodv-metx",
            "maodv-pp", "maodv-spp",
        )

    def test_wcett_entry(self):
        spec = protocol_by_name("wcett")
        assert spec.family == "multichannel"
        assert spec.metric == "wcett"
        assert spec.router is OdmrpRouter

    def test_all_names_unique_and_lowercase(self):
        names = protocol_names()
        assert len(names) == len(set(names))
        assert all(name == name.lower() for name in names)

    def test_baseline_specs_resolve_routers_and_metrics(self):
        odmrp = protocol_by_name("odmrp")
        assert odmrp.router is OdmrpRouter
        assert odmrp.metric is None
        assert odmrp.build_metric() is None
        spp = protocol_by_name("spp")
        assert spp.router is OdmrpRouter
        assert spp.build_metric().name == "spp"
        maodv_etx = protocol_by_name("maodv-etx")
        assert maodv_etx.router is MaodvRouter
        assert maodv_etx.build_metric().name == "etx"

    def test_lookup_is_case_insensitive(self):
        assert protocol_by_name("SPP") is protocol_by_name("spp")

    def test_contains_and_len(self):
        assert "spp" in REGISTRY
        assert "dsdv" not in REGISTRY
        assert 17 not in REGISTRY
        assert len(REGISTRY) >= 13


class TestRegistration:
    def test_duplicate_name_rejected(self):
        registry = ProtocolRegistry()
        register_protocol("demo", OdmrpRouter, registry=registry)
        with pytest.raises(DuplicateProtocolError):
            register_protocol("demo", MaodvRouter, registry=registry)
        # The original registration survives the failed attempt.
        assert registry.get("demo").router is OdmrpRouter

    def test_replace_overrides(self):
        registry = ProtocolRegistry()
        register_protocol("demo", OdmrpRouter, registry=registry)
        register_protocol(
            "demo", MaodvRouter, registry=registry, replace=True
        )
        assert registry.get("demo").router is MaodvRouter

    def test_unknown_name_error_lists_valid_names(self):
        registry = ProtocolRegistry()
        register_protocol("odmrp", OdmrpRouter, registry=registry)
        register_protocol("spp", OdmrpRouter, metric="spp", registry=registry)
        with pytest.raises(UnknownProtocolError) as excinfo:
            registry.get("dsdv")
        message = str(excinfo.value)
        assert "dsdv" in message
        assert "odmrp" in message and "spp" in message

    def test_unknown_name_error_suggests_close_match(self):
        with pytest.raises(UnknownProtocolError) as excinfo:
            protocol_by_name("sppp")
        assert "did you mean" in str(excinfo.value)
        assert "'spp'" in str(excinfo.value)

    def test_unknown_protocol_error_is_a_value_error(self):
        # Pre-registry callers caught ValueError; keep that contract.
        with pytest.raises(ValueError):
            protocol_by_name("nope")

    def test_registers_decorator(self):
        registry = ProtocolRegistry()

        @registers("demo-router", metric="etx", family="experimental",
                   registry=registry)
        class DemoRouter(OdmrpRouter):
            pass

        spec = registry.get("demo-router")
        assert spec.router is DemoRouter
        assert spec.metric == "etx"
        assert spec.family == "experimental"

    def test_unregister_then_missing(self):
        registry = ProtocolRegistry()
        register_protocol("demo", OdmrpRouter, registry=registry)
        registry.unregister("demo")
        assert "demo" not in registry
        registry.unregister("demo")  # idempotent

    def test_iteration_preserves_registration_order(self):
        registry = ProtocolRegistry()
        for name in ("zeta", "alpha", "mid"):
            register_protocol(name, OdmrpRouter, registry=registry)
        assert registry.names() == ("zeta", "alpha", "mid")
        assert [spec.name for spec in registry] == ["zeta", "alpha", "mid"]


class TestProtocolSpec:
    def test_rejects_uppercase_name(self):
        with pytest.raises(ValueError):
            ProtocolSpec(name="SPP", router=OdmrpRouter)

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            ProtocolSpec(name="", router=OdmrpRouter)

    def test_rejects_unknown_metric_at_construction(self):
        with pytest.raises(ValueError) as excinfo:
            ProtocolSpec(name="x", router=OdmrpRouter, metric="airtime")
        assert "unknown metric" in str(excinfo.value)

    def test_rejects_unknown_override_field(self):
        with pytest.raises(ValueError) as excinfo:
            ProtocolSpec(
                name="x", router=OdmrpRouter,
                overrides={"not_a_field": 1},
            )
        assert "not_a_field" in str(excinfo.value)

    def test_overrides_applied_on_top_of_base_config(self):
        spec = ProtocolSpec(
            name="x", router=OdmrpRouter,
            overrides={"refresh_interval_s": 7.5},
        )
        base = OdmrpConfig()
        derived = spec.protocol_config(base)
        assert derived.refresh_interval_s == 7.5
        assert base.refresh_interval_s != 7.5

    def test_no_overrides_returns_base_unchanged(self):
        spec = ProtocolSpec(name="x", router=OdmrpRouter)
        base = OdmrpConfig()
        assert spec.protocol_config(base) is base

    def test_airtime_metric_gets_packet_parameters(self):
        spec = ProtocolSpec(name="x", router=OdmrpRouter, metric="ett")
        metric = spec.build_metric(
            packet_size_bytes=1024, default_bandwidth_bps=1_000_000.0
        )
        assert metric.packet_size_bytes == 1024
        assert metric.default_bandwidth_bps == 1_000_000.0

    def test_to_record_is_json_friendly(self):
        import json

        record = protocol_by_name("maodv-spp").to_record()
        assert record["name"] == "maodv-spp"
        assert record["metric"] == "spp"
        assert record["family"] == "maodv"
        assert record["router"].endswith("MaodvRouter")
        json.dumps(record)  # must not raise


class TestMetricRegistry:
    def test_metric_by_name_unknown_lists_valid_names(self):
        with pytest.raises(ValueError) as excinfo:
            metric_by_name("airtime")
        message = str(excinfo.value)
        assert "unknown metric" in message
        for name in ("etx", "ett", "metx", "pp", "spp"):
            assert name in message

    def test_metric_by_name_suggests_close_match(self):
        with pytest.raises(ValueError) as excinfo:
            metric_by_name("ets")
        assert "did you mean" in str(excinfo.value)

    def test_register_metric_is_idempotent_for_same_class(self):
        assert register_metric(EtxMetric) is EtxMetric

    def test_register_metric_rejects_name_squatting(self):
        class Impostor(EtxMetric):
            name = "etx"

        with pytest.raises(ValueError) as excinfo:
            register_metric(Impostor)
        assert "already taken" in str(excinfo.value)

    def test_wcett_registered_as_extension_metric(self):
        assert metric_type_by_name("wcett") is WcettSingleChannelMetric
        assert WcettSingleChannelMetric.__module__ == "repro.core.metrics"
        metric = metric_by_name("wcett")
        assert metric.name == "wcett"
