"""Smoke tests for the example scripts, tools and shipped spec files.

Each example script is importable (no work at import time) and exposes
a ``main()``; every ``scripts/*.py`` tool and ``benchmarks/bench_*.py``
module imports, so a package name they use that goes away fails here
rather than in CI or a benchmark run.  The fast ones are executed end-to-end; the slow ones
(multi-minute sweeps) are only imported -- their underlying entry points
are exercised by the benchmark suite anyway.  Every ``examples/*.toml``
experiment spec must load, validate against the protocol registry, and
round-trip.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES_DIR = REPO_ROOT / "examples"

ALL_EXAMPLES = [
    "quickstart",
    "metric_comparison",
    "testbed_emulation",
    "link_probing_demo",
]


def load_example(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"examples.{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestExamplesImport:
    @pytest.mark.parametrize("name", ALL_EXAMPLES)
    def test_importable_with_main(self, name):
        module = load_example(name)
        assert callable(module.main)


TOOLS = sorted(
    [*(REPO_ROOT / "scripts").glob("*.py"),
     *(REPO_ROOT / "benchmarks").glob("bench_*.py")]
)


class TestToolsImport:
    @pytest.mark.parametrize(
        "path", TOOLS, ids=[f"{p.parent.name}/{p.stem}" for p in TOOLS]
    )
    def test_importable(self, path, monkeypatch):
        # Benchmarks import ``benchmarks.conftest`` and each other.
        monkeypatch.syspath_prepend(str(REPO_ROOT))
        monkeypatch.syspath_prepend(str(path.parent))
        spec = importlib.util.spec_from_file_location(
            f"_import_smoke_{path.stem}", path
        )
        spec.loader.exec_module(importlib.util.module_from_spec(spec))


SPEC_EXAMPLES = sorted(EXAMPLES_DIR.glob("*.toml"))


class TestExampleSpecs:
    def test_spec_examples_are_shipped(self):
        names = {path.name for path in SPEC_EXAMPLES}
        assert {"paper_spec.toml", "maodv_sweep.toml"} <= names

    @pytest.mark.parametrize(
        "path", SPEC_EXAMPLES, ids=[p.stem for p in SPEC_EXAMPLES]
    )
    def test_spec_loads_validates_and_round_trips(self, path):
        from repro.experiments.spec import ExperimentSpec

        spec = ExperimentSpec.load(str(path)).validate()
        assert spec.total_runs > 0
        assert ExperimentSpec.from_toml(spec.to_toml()) == spec
        # The dry-run plan renders without touching a simulator.
        assert spec.name in spec.describe()

    def test_paper_spec_is_the_section_41_baseline(self):
        from repro.experiments.spec import ExperimentSpec

        spec = ExperimentSpec.load(str(EXAMPLES_DIR / "paper_spec.toml"))
        assert spec.protocols == ("odmrp", "ett", "etx", "metx", "pp", "spp")
        assert len(spec.seeds) == 10
        assert spec.config.num_nodes == 50
        assert spec.config.duration_s == 400.0


class TestFastExamplesRun:
    def test_link_probing_demo_runs(self, capsys):
        module = load_example("link_probing_demo")
        module.main()
        out = capsys.readouterr().out
        assert "t = 400 s" in out
        assert "terrible" in out

    def test_quickstart_runs(self, capsys):
        module = load_example("quickstart")
        module.main()
        out = capsys.readouterr().out
        assert "ODMRP_SPP delivers" in out
        # The headline direction must hold in the shipped example.
        assert "+";  # gain sign rendered
        assert "throughput" in out
