"""The compiled receiver kernel: the same bits as the Python passes.

``phy_backend="compiled"`` runs the scalar PHY's fused frame-start pass
in C (:mod:`repro.phy.kernel`).  These tests pin it to the pure-Python
reference:

* the kernel's MT19937 reproduces ``random.Random`` -- ``random()``,
  ``gauss`` pairs, the 624-word regeneration, a clone taken mid-stream,
  state round trips -- and the channel's stream is the one the
  simulator's registry hands out;
* backend resolution: "auto" compiles small meshes when the kernel
  loads and the fused pass applies, and stays scalar, with identical
  results, on a machine without a compiler, where a forced "compiled"
  names the reason;
* the loader: an edited source gets a new artifact name, compiler
  output never reaches stdout, and two processes building at once both
  load a valid module;
* whole runs on the kernel equal scalar runs for channels the fused pass
  does not take (i.i.d. fading, no fading, a custom power model) and
  keep the invariant monitors green;
* the kernel's frame-end withdrawal equals the Python one
  (``WirelessChannel._withdraw``) on hand-built ledgers and frame by
  frame over a run with overlapping frames, receivers that start their
  own frame mid-frame and radios that go down mid-frame.

Run-level parity of the fused pass itself lives in
``tests/test_phy_fanout.py`` (``TestCompiledRunParity``) and
``tests/test_vectorized_phy.py`` (``TestRunParity``).
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import random
import shutil
import subprocess
import sys

import pytest

from repro.experiments.faults import FaultPlan, FlappingSpec, OutageWindow
from repro.experiments.runner import collect_result, run_protocol
from repro.experiments.scenarios import (
    SimulationScenarioConfig,
    build_simulation_scenario,
)
from repro.experiments.spec import ExperimentSpec
from repro.net.channel import ChannelError, PhyLedger, WirelessChannel
from repro.net.network import Network, NetworkConfig
from repro.net.topology import random_topology
from repro.phy import kernel
from tests.conftest import make_loss_network, requires_kernel

#: The ``src`` directory, for child interpreters.
SRC = os.path.dirname(os.path.dirname(os.path.dirname(kernel.SOURCE)))

CONFIG = SimulationScenarioConfig(
    num_nodes=10,
    area_width_m=500.0,
    area_height_m=500.0,
    num_groups=1,
    members_per_group=3,
    rate_pps=10.0,
    duration_s=6.0,
    warmup_s=2.0,
)


def forced(config, backend, **network):
    return dataclasses.replace(
        config,
        network=dataclasses.replace(
            config.network, phy_backend=backend, **network
        ),
    )


def small_network(backend, **config):
    positions = random_topology(
        12, 600.0, 600.0, rng=random.Random(4), connectivity_range_m=250.0,
    )
    return Network(
        positions, seed=1, config=NetworkConfig(phy_backend=backend, **config)
    )


@requires_kernel
class TestKernelStream:
    def test_random_matches_random_random(self):
        for seed in (0, 1, 12345):
            reference = random.Random(seed)
            stream = kernel.KernelRandom(seed)
            # 2,000 draws take 4,000 words: six regenerations.
            assert [stream.random() for _ in range(2000)] == [
                reference.random() for _ in range(2000)
            ]
            assert stream.getstate() == reference.getstate()

    def test_gauss_pairs_match(self):
        reference = random.Random(9)
        stream = kernel.KernelRandom.continuing(random.Random(9))
        for sigma in (1.0, 0.5 ** 0.5, 0.03):
            assert [stream.gauss(0.0, sigma) for _ in range(1001)] == [
                reference.gauss(0.0, sigma) for _ in range(1001)
            ]
        # An odd count leaves the pair's second half cached on both.
        assert stream.getstate() == reference.getstate()
        assert stream.expovariate(1.0) == reference.expovariate(1.0)

    def test_regeneration_boundary(self):
        """The state handed over sits exactly at the 624-word boundary,
        so the kernel's first draw regenerates the whole block."""
        reference = random.Random(3)
        for _ in range(312):  # 624 words: the block is used up
            reference.random()
        assert reference.getstate()[1][-1] == 624
        stream = kernel.KernelRandom.continuing(reference)
        assert [stream.random() for _ in range(700)] == [
            reference.random() for _ in range(700)
        ]

    def test_clone_resumes_mid_stream(self):
        reference = random.Random(7)
        for _ in range(123):
            reference.random()
        reference.gauss(0.0, 1.0)  # a cached second half travels too
        stream = kernel.KernelRandom.continuing(reference)
        shadow = random.Random()
        shadow.setstate(reference.getstate())
        assert stream.gauss(0.0, 1.0) == shadow.gauss(0.0, 1.0)
        assert [stream.random() for _ in range(97)] == [
            shadow.random() for _ in range(97)
        ]

    def test_bits_ranges_and_pickling(self):
        reference = random.Random(11)
        stream = kernel.KernelRandom(11)
        sizes = (0, 1, 5, 31, 32, 33, 64, 100, 1000)
        assert [stream.getrandbits(k) for k in sizes] == [
            reference.getrandbits(k) for k in sizes
        ]
        assert [stream.randrange(1000) for _ in range(50)] == [
            reference.randrange(1000) for _ in range(50)
        ]
        copy = pickle.loads(pickle.dumps(stream))
        assert isinstance(copy, kernel.KernelRandom)
        assert copy.random() == stream.random() == reference.random()


class TestBackendResolution:
    @requires_kernel
    def test_auto_compiles_small_meshes(self):
        network = small_network("auto")
        channel = network.channel
        assert channel.phy_backend_resolved == "compiled"
        assert isinstance(channel._fading_rng, kernel.KernelRandom)
        assert network.sim.rng.stream("phy.fading") is channel._fading_rng
        stream = channel._fading_rng
        channel.finalize()  # a re-finalize keeps the kernel's stream
        assert channel._fading_rng is stream

    @requires_kernel
    def test_auto_stays_scalar_without_the_fused_pass(self):
        for config in (
            {"fading_coherence_time_s": 0.0},  # i.i.d. Rayleigh
            {"rayleigh_fading": False},
        ):
            network = small_network("auto", **config)
            assert network.channel.phy_backend_resolved == "scalar"

    @requires_kernel
    def test_no_compiler_auto_runs_scalar_with_identical_results(
        self, request
    ):
        compiled = run_protocol("spp", CONFIG)
        kernel_module = request.getfixturevalue("no_kernel")
        assert kernel_module.load() is None
        assert "/bin/false" in kernel_module.unavailable_reason()
        assert small_network("auto").channel.phy_backend_resolved == "scalar"
        scalar = run_protocol("spp", CONFIG)
        assert compiled.error is None
        assert scalar == compiled

    def test_forced_compiled_without_a_compiler_names_the_reason(
        self, no_kernel
    ):
        with pytest.raises(ChannelError, match="compiled.*/bin/false"):
            small_network("compiled")


class TestLoader:
    def test_edited_source_gets_a_new_artifact(self, tmp_path):
        copy = tmp_path / "_rxkernel.c"
        shutil.copy(kernel.SOURCE, copy)
        build_dir = str(tmp_path / "build")
        original = kernel.artifact_path(str(copy), build_dir)
        assert os.path.basename(original) == os.path.basename(
            kernel.artifact_path()
        )
        copy.write_text(copy.read_text() + "\n/* edited */\n")
        edited = kernel.artifact_path(str(copy), build_dir)
        assert edited != original
        if kernel.load() is not None:
            assert kernel.build(str(copy), build_dir) == edited
            assert not os.path.exists(original)

    def test_compiler_output_is_captured(self, tmp_path, capfd):
        broken = tmp_path / "_rxkernel.c"
        broken.write_text("this is not C;\n")
        with pytest.raises(kernel.KernelBuildError, match="compiler"):
            kernel.build(str(broken), str(tmp_path / "build"))
        captured = capfd.readouterr()
        assert captured.out == "" and captured.err == ""
        assert os.listdir(tmp_path / "build") == []

    @requires_kernel
    def test_concurrent_builds_both_load(self, tmp_path):
        build_dir = str(tmp_path / "build")
        script = (
            "import random, sys\n"
            "from repro.phy import kernel\n"
            "module = kernel.import_artifact(kernel.build(None, sys.argv[1]))\n"
            "reference = random.Random(5)\n"
            "stream = module.Stream(reference.getstate()[1])\n"
            "assert stream.random() == reference.random()\n"
            "print(module.__file__)\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        children = [
            subprocess.Popen(
                [sys.executable, "-c", script, build_dir],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env=env,
            )
            for _ in range(2)
        ]
        outputs = [child.communicate(timeout=120) for child in children]
        for child, (out, err) in zip(children, outputs):
            assert child.returncode == 0, err
        paths = {out.strip() for out, _err in outputs}
        assert paths == {kernel.artifact_path(None, build_dir)}
        assert os.listdir(build_dir) == [os.path.basename(paths.pop())]


@requires_kernel
class TestCompiledRuns:
    @pytest.mark.parametrize("network", [
        {"fading_coherence_time_s": 0.0},
        {"rayleigh_fading": False},
    ], ids=["iid-rayleigh", "no-fading"])
    def test_unfused_channels_equal_scalar(self, network):
        results = [
            run_protocol("etx", forced(CONFIG, backend, **network))
            for backend in ("scalar", "compiled")
        ]
        assert results[0].error is None
        assert results[0].delivered_packets > 0
        assert results[0] == results[1]

    def test_custom_power_model_channel_equals_scalar(self):
        from repro.net.packet import Packet, PacketKind

        totals = []
        for backend in ("scalar", "compiled"):
            network = make_loss_network(4, {
                frozenset((0, 1)): 0.2, frozenset((1, 2)): 0.5,
                frozenset((2, 3)): 0.1,
            })
            network.channel.phy_backend = backend
            network.channel.finalize()
            assert network.channel.phy_backend_resolved == backend
            for node in network.nodes:
                for k in range(20):
                    network.sim.schedule(
                        0.01 * k + 0.002 * node.node_id,
                        lambda n=node: n.send_broadcast(
                            Packet(PacketKind.DATA, n.node_id, 200, n.sim.now)
                        ),
                    )
            network.run(1.0)
            totals.append((
                network.total_counter_prefix("rx."),
                network.total_counter_prefix("phy."),
            ))
        assert totals[0] == totals[1]
        assert totals[0][0]

    def test_invariant_monitors_watch_the_kernel(self):
        """channel-conservation's power ledgers and rng-isolation's
        stream audit over runs whose passes run in C."""
        from repro.validation.fuzzing import run_with_invariants

        spec = ExperimentSpec(
            name="phy-monitors-compiled",
            description="invariant monitors over the compiled backend",
            protocols=("odmrp", "spp"),
            seeds=(1,),
            config=forced(CONFIG, "compiled"),
        )
        results = run_with_invariants(
            spec, monitors=("channel-conservation", "rng-isolation")
        )
        assert all(result.error is None for result in results)


class _Mac:
    """A MAC stand-in that records the sense flips passed to it."""

    def __init__(self, awaited_sense=None):
        self.awaited_sense = awaited_sense
        self.calls = []

    def on_medium_state(self, busy):
        self.calls.append(busy)


def _hand_ledger(rows):
    """A ledger of ``(power, on_air, busy, transmitting, sense, mac)`` rows."""
    ledger = PhyLedger()
    for power, on_air, busy, transmitting, sense, mac in rows:
        ledger.power_mw.append(power)
        ledger.on_air.append(on_air)
        ledger.busy.append(busy)
        ledger.transmitting.append(transmitting)
        ledger.sense_mw.append(sense)
        ledger.macs.append(mac)
        ledger.pending.append({})
        ledger.nodes.append(None)
    return ledger


def _ledger_state(ledger):
    return (
        list(ledger.power_mw), list(ledger.on_air), list(ledger.busy),
        list(ledger.transmitting),
        [(mac.awaited_sense, mac.calls) for mac in ledger.macs],
    )


#: Rows covering every branch of the withdrawal: the last frame on the
#: air (reset to exactly 0.0), float drift below zero (clamped), a flip
#: to idle the MAC awaits, one it does not, a transmitting receiver that
#: stays busy, and receivers still over and exactly at their sense
#: threshold.
HAND_ROWS = [
    (3e-9, 1, True, False, 1e-9, "awaits-idle"),
    (2e-9, 2, False, False, 1e-9, None),
    (5e-9, 2, True, False, 1e-9, None),
    (5e-9, 1, True, True, 1e-9, "awaits-idle"),
    (9e-9, 2, True, False, 1e-9, "awaits-idle"),
    (2e-9, 2, True, False, 1e-9, "awaits-idle"),
]
HAND_FRAME = (
    [0, 1, 2, 3, 4, 5], [3e-9, 2e-9 + 1e-24, 4.5e-9, 5e-9, 1e-9, 1e-9],
)


def _hand_rows():
    return [
        row[:5] + (_Mac(False if row[5] else None),) for row in HAND_ROWS
    ]


@requires_kernel
class TestFrameEndParity:
    def test_hand_built_ledger(self):
        module = kernel.load()
        compiled = _hand_ledger(_hand_rows())
        python = _hand_ledger(_hand_rows())
        module.frame_end(*HAND_FRAME, compiled.columns)
        WirelessChannel._withdraw(
            type("Channel", (), {"ledger": python})(), *HAND_FRAME
        )
        assert _ledger_state(compiled) == _ledger_state(python)
        power, on_air, busy, _, macs = _ledger_state(compiled)
        assert power[0] == 0.0 and power[1] == 0.0 and on_air[:2] == [0, 1]
        assert busy == [False, False, False, True, True, True]
        assert macs[0] == (False, [False]) and macs[3] == (False, [])
        assert macs[2] == (None, [])

    def test_bad_receiver_id_raises(self):
        module = kernel.load()
        ledger = _hand_ledger(_hand_rows())
        with pytest.raises(IndexError, match="not a row"):
            module.frame_end([7], [1e-9], ledger.columns)
        with pytest.raises(TypeError, match="columns"):
            module.frame_end([0], [1e-9], ledger.columns[:-1])

    def test_run_frame_by_frame(self):
        """Two compiled runs, one withdrawing in C and one in Python:
        the ledger after every frame end and the results are equal."""
        config = forced(SimulationScenarioConfig(
            num_nodes=30, duration_s=10.0, warmup_s=3.0, topology_seed=3,
            faults=FaultPlan(
                outages=(OutageWindow(3, 4.0, 7.5),),
                flapping=(FlappingSpec(7, 3.0, 1.5, 0.4, 10.0),),
            ),
        ), "compiled")
        runs = [_recorded_run(config, python_end) for python_end in (False, True)]
        (frames, seen, result), (python_frames, _, python_result) = runs
        assert frames == python_frames
        assert result.error is None and result.delivered_packets > 0
        assert result == python_result
        assert seen == {"overlapping", "half-duplex", "down"}


def _recorded_run(config, python_end):
    """Run spp recording the ledger after each frame end; also note which
    of the parity cases the run's frame ends covered."""
    scenario = build_simulation_scenario("spp", config)
    channel = scenario.network.channel
    module = channel._kernel
    ledger = channel.ledger
    frames = []
    seen = set()

    class Recording:
        frame_start = module.frame_start

        @staticmethod
        def frame_end(touched, powers, columns):
            for rid in touched:
                if ledger.on_air[rid] > 1:
                    seen.add("overlapping")
                if ledger.transmitting[rid]:
                    seen.add("half-duplex")
                if not ledger.nodes[rid].active:
                    seen.add("down")
            if python_end:
                channel._withdraw(touched, powers)
            else:
                module.frame_end(touched, powers, columns)
            frames.append((
                list(ledger.power_mw), list(ledger.on_air),
                list(ledger.busy), list(ledger.transmitting),
                [mac.awaited_sense for mac in ledger.macs],
            ))

    channel._kernel = Recording
    scenario.run()
    assert frames
    return frames, seen, collect_result(scenario)
