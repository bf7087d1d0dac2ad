"""The compiled receiver kernel: the same bits as the Python passes.

Every channel finalized where :func:`repro.phy.kernel.load` returns the
kernel runs its frame passes in C; inside :func:`repro.phy.kernel.disabled`
(or without a compiler) the same channel runs the pure-Python passes,
the "python" path below.  These tests pin the kernel to that reference:

* the kernel's MT19937 reproduces ``random.Random`` -- ``random()``,
  ``gauss`` pairs, the 624-word regeneration, a clone taken mid-stream,
  state round trips -- and the channel's stream is the one the
  simulator's registry hands out, continuing the Python channel's
  stream draw for draw;
* path resolution: every channel compiles wherever the kernel loads --
  small meshes, city scale without importing numpy, i.i.d. and no
  fading, a custom power model -- and ``finalize()`` runs once; a
  machine without a compiler, or a ``disabled()`` block, runs the
  Python passes with identical results; only correlated Rayleigh
  fading on the stock power model takes the fused draw; a spec that
  still names a backend is refused with the removal;
* the loader: an edited source gets a new artifact name, compiler
  output never reaches stdout, and two processes building at once both
  load a valid module;
* whole runs on the kernel equal Python runs: the six paper protocols
  through ``differential_check``'s ``phy-python`` pass, and channels the
  fused draw does not take (i.i.d. fading, no fading, a custom power
  model); the invariant monitors stay green on both paths;
* the kernel's frame end equals the Python one
  (``WirelessChannel._withdraw`` then ``_decide``) on hand-built
  ledgers -- every decision fate, and a delivery upcall that starts a
  frame at a receiver still waiting for its decision -- and frame by
  frame, tallies included, over a run with overlapping frames and
  receivers that start their own frame mid-frame;
* a channel whose reception model is not the stock one -- a subclass,
  or ``ReceptionModel.decide`` wrapped at class level before the build
  -- decides in Python, once per decision, with the results of a
  Python run.

Run-level parity of the fused draw against per-link draws lives in
``tests/test_phy_fanout.py`` (``TestCompiledRunParity``).
"""

from __future__ import annotations

import dataclasses
import math
import os
import pickle
import random
import shutil
import subprocess
import sys
from array import array

import pytest

from repro.experiments.runner import collect_result, run_protocol
from repro.experiments.scenarios import (
    PROTOCOL_NAMES,
    SimulationScenarioConfig,
    build_simulation_scenario,
)
from repro.experiments.spec import ExperimentSpec, SpecError, config_from_dict
from repro.mac.csma import BROADCAST_ID
from repro.net.channel import ChannelError, PhyLedger, WirelessChannel, _FanOut
from repro.net.network import Network, NetworkConfig
from repro.net.packet import Packet, PacketKind
from repro.net.topology import random_topology
from repro.phy import kernel
from repro.phy.fading import CorrelatedRayleighFading
from repro.phy.radio import RadioParams
from repro.phy.reception import ReceptionModel
from repro.sim.engine import Simulator
from repro.sim.trace import CounterSet
from repro.validation.fuzzing import differential_check
from tests.conftest import (
    KERNEL_UNAVAILABLE,
    make_loss_network,
    phy_path,
    requires_kernel,
)

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


def with_network(config, **network):
    return dataclasses.replace(
        config, network=dataclasses.replace(config.network, **network),
    )


def run_on(backend, protocol, config):
    """``run_protocol`` on the PHY path ``backend`` names."""
    with phy_path(backend):
        return run_protocol(protocol, config)


def small_network(seed=1, **config):
    positions = random_topology(
        12, 600.0, 600.0, rng=random.Random(4), connectivity_range_m=250.0,
    )
    return Network(positions, seed=seed, config=NetworkConfig(**config))


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


@requires_kernel
class TestUniformStream:
    def test_bit_identical_to_random_random(self):
        """A compiled channel's fading stream continues the Python
        channel's ``random.Random`` for the same seed, draw for draw."""
        for seed in (0, 1, 12345):
            with kernel.disabled():
                python = small_network(seed=seed).channel._fading_rng
            compiled = small_network(seed=seed).channel._fading_rng
            assert type(python) is random.Random
            assert isinstance(compiled, kernel.KernelRandom)
            assert [compiled.random() for _ in range(500)] == [
                python.random() for _ in range(500)
            ]
            assert compiled.getstate() == python.getstate()

    def test_clone_resumes_mid_stream(self):
        # Offsets either side of the 624-word block a regeneration refills.
        for offset in (0, 123, 311, 312, 313, 1000):
            reference = random.Random(7)
            for _ in range(offset):
                reference.random()
            shadow = random.Random()
            shadow.setstate(reference.getstate())
            stream = kernel.KernelRandom.continuing(reference)
            assert [stream.random() for _ in range(97)] == [
                shadow.random() for _ in range(97)
            ]
            assert stream.getstate() == shadow.getstate()


class TestPathResolution:
    @requires_kernel
    def test_small_meshes_compile(self):
        network = small_network()
        channel = network.channel
        assert channel.compiled
        assert channel._fused_start
        assert isinstance(channel._fading_rng, kernel.KernelRandom)
        assert network.sim.rng.stream("phy.fading") is channel._fading_rng

    def test_finalize_runs_once(self):
        with pytest.raises(ChannelError, match="runs once"):
            small_network().channel.finalize()

    @requires_kernel
    def test_every_fading_model_compiles(self):
        """The kernel takes channels its fused draw cannot: their frames
        draw through the batch call on the kernel's stream."""
        for config in (
            {"fading_coherence_time_s": 0.0},  # i.i.d. Rayleigh
            {"rayleigh_fading": False},
        ):
            channel = small_network(**config).channel
            assert channel.compiled
            assert isinstance(channel._fading_rng, kernel.KernelRandom)
            assert not channel._fused_start

    def test_no_kernel_runs_python(self, no_kernel):
        channel = small_network().channel
        assert not channel.compiled
        assert type(channel._fading_rng) is random.Random
        assert not channel._fused_start

    @requires_kernel
    def test_no_compiler_runs_python_with_identical_results(
        self, request
    ):
        compiled = run_protocol("spp", CONFIG)
        kernel_module = request.getfixturevalue("no_kernel")
        assert kernel_module.load() is None
        assert "/bin/false" in kernel_module.unavailable_reason()
        assert not small_network().channel.compiled
        python = run_protocol("spp", CONFIG)
        assert compiled.error is None
        assert python == compiled

    @requires_kernel
    def test_disabled_block_keeps_its_channels_in_python(self):
        """Channels finalized inside ``disabled()`` run in Python for
        life; the loader's cached module is untouched."""
        module = kernel.load()
        with kernel.disabled():
            assert kernel.load() is None
            assert "disabled" in kernel.unavailable_reason()
            channel = small_network().channel
        assert kernel.load() is module
        assert kernel.unavailable_reason() is None
        assert not channel.compiled
        assert type(channel._fading_rng) is random.Random

    def test_deterministic_channel_draws_nothing(self):
        """NoFading keeps no link state and draws nothing: every frame's
        powers are the mean powers, on the kernel or not."""
        network = small_network(rayleigh_fading=False)
        channel = network.channel
        assert channel.compiled is (KERNEL_UNAVAILABLE is None)
        assert not channel._fused_start
        drawn = channel._fading_rng.getstate()
        sender = network.nodes[0]
        tx = channel.begin_transmission(
            sender, Packet(PacketKind.DATA, 0, 100, 0.0), BROADCAST_ID,
            0.001, notify_sender=False,
        )
        audible = channel.audible_neighbors(sender.node_id)
        assert tx.powers == [mean_mw for _, mean_mw in audible]
        assert channel._fanout[sender.node_id].states == array("d")
        assert channel._fading_rng.getstate() == drawn

    def test_sampled_power_override_takes_no_fast_draw(self):
        class CustomChannel(WirelessChannel):
            def _sampled_power(self, sender, receiver, mean_mw):
                return mean_mw

        # The override keeps the channel off the fused draw and the
        # fading model's batch; its frame ends still run in C where the
        # kernel loads.
        channel = CustomChannel(Simulator(seed=1), fading=CorrelatedRayleighFading())
        channel.finalize()
        assert channel.compiled is (KERNEL_UNAVAILABLE is None)
        assert channel._custom_power
        assert not channel._fused_start

    def test_city_scale_build_compiles_without_numpy(self):
        """The path has no node-count switch: a city-scale mesh compiles
        (or, with no kernel, runs in Python), and nothing imports
        numpy."""
        script = (
            "import sys\n"
            "from repro.experiments.scenarios import (\n"
            "    build_simulation_scenario, macro_flood_config)\n"
            "config = macro_flood_config(num_nodes=200, duration_s=1.0,\n"
            "                            warmup_s=0.5, members_per_group=5)\n"
            "scenario = build_simulation_scenario('odmrp', config)\n"
            "scenario.network.sim.run(until=0.6)\n"
            "print(scenario.network.channel.compiled,\n"
            "      'numpy' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=SRC), timeout=300,
        )
        assert out.returncode == 0, out.stderr
        expected = str(KERNEL_UNAVAILABLE is None)
        assert out.stdout.split() == [expected, "False"]

    def test_removed_vectorized_backend_names_the_removal(self):
        with pytest.raises(TypeError):
            NetworkConfig(phy_backend="vectorized")
        with pytest.raises(TypeError):
            WirelessChannel(Simulator(seed=1), phy_backend="vectorized")
        with pytest.raises(SpecError, match=(
            "'phy_backend' is no longer supported: PHY backend selection "
            "was removed"
        )):
            config_from_dict({"network": {"phy_backend": "vectorized"}})

    def test_unknown_backend_rejected(self):
        # Every value is refused, the formerly valid ones included: the
        # key itself is retired, so no spec silently keeps a stale pin.
        for backend in ("auto", "scalar", "compiled", "simd"):
            with pytest.raises(SpecError, match="no longer supported"):
                config_from_dict({"network": {"phy_backend": backend}})


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
            run_on(backend, "etx", with_network(CONFIG, **network))
            for backend in ("python", "kernel")
        ]
        assert results[0].error is None
        assert results[0].delivered_packets > 0
        assert results[0] == results[1]

    def test_custom_power_model_channel_equals_scalar(self):
        totals = []
        for backend in ("python", "kernel"):
            with phy_path(backend):
                network = make_loss_network(4, {
                    frozenset((0, 1)): 0.2, frozenset((1, 2)): 0.5,
                    frozenset((2, 3)): 0.1,
                })
            assert network.channel.compiled is (backend == "kernel")
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
            description="invariant monitors over the compiled kernel",
            protocols=("odmrp", "spp"),
            seeds=(1,),
            config=CONFIG,
        )
        results = run_with_invariants(
            spec, monitors=("channel-conservation", "rng-isolation")
        )
        assert all(result.error is None for result in results)


@requires_kernel
class TestRunParity:
    """Python and compiled runs, result for result."""

    def test_all_paper_protocols_bit_identical(self, tmp_path):
        """differential_check's compiled oracle against its phy-python
        pass, across the six paper protocol variants."""
        spec = ExperimentSpec(
            name="phy-parity",
            description="Python vs compiled across the paper protocols",
            protocols=tuple(PROTOCOL_NAMES),
            seeds=(1,),
            config=CONFIG,
        )
        divergences = differential_check(
            spec, jobs=2, work_dir=str(tmp_path)
        )
        assert divergences == [], "\n".join(divergences)

    def test_invariant_monitors_watch_the_batched_path(self):
        """channel-conservation's power ledgers and rng-isolation's
        stream audit on both paths, over runs whose frames take the
        fused draw (on the kernel) and the batch call (in Python)."""
        from repro.validation.fuzzing import run_with_invariants

        config = dataclasses.replace(CONFIG, duration_s=8.0)
        for backend in ("python", "kernel"):
            spec = ExperimentSpec(
                name="phy-monitors",
                description="invariant monitors over the batched path",
                protocols=("odmrp",),
                seeds=(1,),
                config=config,
            )
            with phy_path(backend):
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


#: The radio of the hand-built ledgers' decision rule.
PARAMS = RadioParams()


def _hand_ledger(rows, nodes=None):
    """A ledger of ``(power, on_air, busy, transmitting, sense, mac)`` rows,
    with ``nodes`` (default none) deciding by ``PARAMS``' stock rule."""
    ledger = PhyLedger()
    for k, (power, on_air, busy, transmitting, sense, mac) in enumerate(rows):
        ledger.power_mw.append(power)
        ledger.on_air.append(on_air)
        ledger.busy.append(busy)
        ledger.transmitting.append(transmitting)
        ledger.sense_mw.append(sense)
        ledger.macs.append(mac)
        ledger.pending.append({} if nodes is None else nodes[k].pending)
        ledger.nodes.append(None if nodes is None else nodes[k])
        ledger.rx_thr_mw.append(PARAMS.rx_threshold_mw)
        ledger.noise_mw.append(PARAMS.noise_mw)
        ledger.sinr_linear.append(PARAMS.sinr_threshold_linear)
    return ledger


#: The packet every hand-built frame carries.
PACKET = Packet(PacketKind.DATA, 9, 100, 0.0)


class _Frame:
    """A transmission stand-in: what the kernel's passes read and set."""

    def __init__(self, touched=(), powers=(), decoding=(), start_time=0.0):
        self.touched = list(touched)
        self.powers = list(powers)
        self.decoding = list(decoding)
        self.start_time = start_time
        self.packet = PACKET
        self.sender_id = 9
        self.dest_id = BROADCAST_ID


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
        module.frame_end(_Frame(*HAND_FRAME), compiled.columns, False)
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
            module.frame_end(_Frame([7], [1e-9]), ledger.columns, False)
        with pytest.raises(TypeError, match="columns"):
            module.frame_end(_Frame([0], [1e-9]), ledger.columns[:-1], False)

    def test_run_frame_by_frame(self):
        """Two compiled runs, one ending frames in C and one in Python:
        the ledger and the deciding receivers' tallies after every frame
        end, every node's tallies and the results are equal."""
        config = SimulationScenarioConfig(
            num_nodes=30, duration_s=10.0, warmup_s=3.0, topology_seed=3,
        )
        runs = [_recorded_run(config, python_end) for python_end in (False, True)]
        (frames, tallies, seen, result), (
            python_frames, python_tallies, _, python_result
        ) = runs
        assert frames == python_frames
        assert tallies == python_tallies
        assert result.error is None and result.delivered_packets > 0
        assert result == python_result
        # A killed reception is too rare in a run to pin here; the
        # hand-built decision case covers it.
        assert seen >= {
            "overlapping", "half-duplex", "phy.rx_ok",
            "phy.rx_failed_collision",
        }


#: The decision fates, one tally each.  A rejected decision is a
#: collision, below the receive threshold or not.
FATES = ("phy.rx_ok", "phy.rx_failed_collision", "phy.rx_failed_half_duplex")


def _fates(node):
    return tuple(node.counters.get(fate) for fate in FATES)


def _recorded_run(config, python_end):
    """Run spp recording the ledger and the deciding receivers' tallies
    after each frame end, withdrawing and deciding in C or in Python;
    also note which of the parity cases the run's frame ends covered."""
    scenario = build_simulation_scenario("spp", config)
    channel = scenario.network.channel
    assert channel._decide_in_kernel
    module = channel._kernel
    ledger = channel.ledger
    frames = []
    seen = set()

    class Recording:
        frame_start = module.frame_start

        @staticmethod
        def frame_end(tx, columns, decide):
            assert decide
            for rid in tx.touched:
                if ledger.on_air[rid] > 1:
                    seen.add("overlapping")
                if ledger.transmitting[rid]:
                    seen.add("half-duplex")
            if python_end:
                channel._withdraw(tx.touched, tx.powers)
                channel._decide(tx)
            else:
                module.frame_end(tx, columns, decide)
            frames.append((
                list(ledger.power_mw), list(ledger.on_air),
                list(ledger.busy), list(ledger.transmitting),
                [mac.awaited_sense for mac in ledger.macs],
                [(rid, _fates(ledger.nodes[rid])) for rid in tx.decoding],
            ))

    channel._kernel = Recording
    scenario.run()
    assert frames
    tallies = [_fates(node) for node in ledger.nodes]
    seen.update(
        fate for k, fate in enumerate(FATES)
        if sum(counts[k] for counts in tallies)
    )
    return frames, tallies, seen, collect_result(scenario)


class _Receiver:
    """A node stand-in deciding by ``PARAMS``' stock rule; a delivery is
    logged, then runs ``upcall`` when one is set."""

    def __init__(self):
        self.params = PARAMS
        self.reception_model = ReceptionModel(PARAMS)
        self.counters = CounterSet()
        self.pending = {}
        self.delivered = []
        self.upcall = None

    def deliver(self, packet, sender_id, dest_id, rx_power_mw):
        self.delivered.append((packet, sender_id, dest_id, rx_power_mw))
        if self.upcall is not None:
            self.upcall()


#: Signal and peak interference of each hand-built pending reception, in
#: decision order: a zeroed signal (half duplex), a clear frame whose
#: delivery starts a frame at receiver 3, one below the receive
#: threshold (no run starts one; it is a collision), a clear frame the
#: upcall's frame then destroys, and one already drowned.
THR = PARAMS.rx_threshold_mw
DECISION_ROWS = [
    [0.0, 0.0], [4 * THR, 0.0], [THR / 2, 0.0], [4 * THR, 0.0],
    [4 * THR, 4 * THR],
]


def _decision_case(in_kernel):
    """Decide the hand-built frame in C or in Python; the state after."""
    receivers = [_Receiver() for _ in DECISION_ROWS]
    powers = [2 * THR] + [row[0] for row in DECISION_ROWS[1:]]
    ledger = _hand_ledger(
        [(power, 1, False, False, PARAMS.carrier_sense_threshold_mw, _Mac())
         for power in powers],
        receivers,
    )
    tx = _Frame(range(5), powers, range(5), start_time=1.0)
    for receiver, row in zip(receivers, DECISION_ROWS):
        receiver.pending[tx] = list(row)
    module = kernel.load()
    rng = random.Random(5)
    stream = module.Stream(rng.getstate()[1])
    fading = CorrelatedRayleighFading()
    channel = type("Channel", (), {
        "ledger": ledger, "nodes": ledger.nodes, "_fading_rng": rng,
        "fading": fading, "_custom_power": False,
    })()
    late = _Frame(start_time=1.5)
    # A sender's first frame to one receiver.
    fan = _FanOut()
    fan.receiver_ids.append(3)
    fan.mean_mw.append(100 * THR)
    fan.states = fading.link_states(1)

    def upcall():
        if in_kernel:
            module.frame_start(
                stream, late, fan.receiver_ids, fan.mean_mw, fan.states,
                *fading.coefficients(fan.time, late.start_time),
                ledger.columns,
            )
        else:
            WirelessChannel._batched_start(channel, late, fan)

    receivers[1].upcall = upcall
    if in_kernel:
        module.frame_end(tx, ledger.columns, True)
    else:
        WirelessChannel._withdraw(channel, tx.touched, tx.powers)
        WirelessChannel._decide(channel, tx)
    return (
        [_fates(receiver) for receiver in receivers],
        [receiver.delivered for receiver in receivers],
        [list(receiver.pending.values()) for receiver in receivers],
        late.powers, late.decoding,
        list(ledger.power_mw), list(ledger.on_air), list(ledger.busy),
    )


@requires_kernel
class TestDecisionParity:
    def test_every_fate_and_a_mid_loop_frame_start(self):
        compiled = _decision_case(in_kernel=True)
        assert compiled == _decision_case(in_kernel=False)
        fates, delivered, pending, late_powers, late_decoding = compiled[:5]
        ok, collision, half_duplex = (
            tuple(int(fate == wanted) for fate in FATES)
            for wanted in FATES
        )
        assert fates == [half_duplex, ok, collision, collision, collision]
        assert delivered == [[], [(PACKET, 9, BROADCAST_ID, 4 * THR)], [], [], []]
        # The upcall's frame reached receiver 3 before its decision: its
        # row was still pending, so the new power destroyed it.
        assert late_decoding == [3]
        assert pending == [[], [], [], [[late_powers[0], 0.0]], []]
        assert late_powers[0] - 4 * THR > 0.4 * THR

    def test_bad_rows_ids_and_columns_raise(self):
        module = kernel.load()

        def case(decoding=(0,), row=(5 * THR, 0.0), column=None, value=None):
            receiver = _Receiver()
            ledger = _hand_ledger([(0.0, 0, False, False, 1.0, _Mac())],
                                  [receiver])
            if column is not None:
                getattr(ledger, column)[0] = value
            tx = _Frame(decoding=decoding)
            if row is not None:
                receiver.pending[tx] = list(row)
            return tx, ledger.columns

        with pytest.raises(IndexError, match="not a row"):
            module.frame_end(*case(decoding=[7]), True)
        with pytest.raises(TypeError, match="columns"):
            tx, columns = case()
            module.frame_end(tx, columns[:-1], True)
        with pytest.raises(KeyError):
            module.frame_end(*case(row=None), True)
        with pytest.raises(TypeError, match="signal_mw, peak_interference_mw"):
            module.frame_end(*case(row=(5 * THR,)), True)
        with pytest.raises(TypeError):
            module.frame_end(*case(column="noise_mw", value="loud"), True)
        with pytest.raises(TypeError, match="must be a dict"):
            module.frame_end(*case(column="pending", value=[]), True)
        tx, columns = case()
        module.frame_end(tx, columns, True)
        assert columns[7][0].counters.get("phy.rx_ok") == 1

    def test_frame_start_reads_means_only_as_doubles(self):
        """``means`` is the fan-out's ``array('d')``: a list, or an array
        of any other item type, is refused before any draw or write."""
        module = kernel.load()
        ledger = _hand_ledger([(0.0, 0, False, False, 1.0, _Mac())],
                              [_Receiver()])
        stream = module.Stream(random.Random(3).getstate()[1])
        drawn = stream.getstate()
        states = array("d", [0.0, 0.0, 0.0])
        for means in ([4 * THR], array("f", [4 * THR]),
                      array("q", [1]), b"\0" * 8):
            tx = _Frame(start_time=1.0)
            with pytest.raises(TypeError):
                module.frame_start(stream, tx, [0], means, states, 0.0,
                                   math.sqrt(0.5), ledger.columns)
            assert tx.powers == [] and tx.decoding == []
        assert stream.getstate() == drawn
        assert list(states) == [0.0, 0.0, 0.0]
        assert ledger.power_mw == [0.0]
        tx = _Frame(start_time=1.0)
        module.frame_start(stream, tx, [0], array("d", [4 * THR]), states,
                           0.0, math.sqrt(0.5), ledger.columns)
        assert tx.touched == [0] and len(tx.powers) == 1
        assert ledger.power_mw == tx.powers


def _counted(rule, calls):
    def decide(model, signal_mw, interference_mw):
        calls.append(1)
        return rule(model, signal_mw, interference_mw)

    return decide


def _decisions(network):
    return sum(
        node.counters.get(fate)
        for node in network.nodes for fate in FATES[:2]
    )


@requires_kernel
class TestPythonDecisions:
    """Reception models the kernel does not decide for."""

    def _run(self, calls):
        scenario = build_simulation_scenario("spp", CONFIG)
        channel = scenario.network.channel
        assert channel.compiled
        assert not channel._decide_in_kernel
        scenario.run()
        assert len(calls) == _decisions(scenario.network) > 0
        assert collect_result(scenario) == run_on("python", "spp", CONFIG)

    def test_stock_model_decides_in_the_kernel(self):
        compiled = build_simulation_scenario("spp", CONFIG)
        assert compiled.network.channel._decide_in_kernel
        with kernel.disabled():
            python = build_simulation_scenario("spp", CONFIG)
        assert not python.network.channel._decide_in_kernel

    def test_subclass_decides_in_python(self, monkeypatch):
        from repro.net import node as node_module

        calls = []

        class Counting(ReceptionModel):
            decide = _counted(ReceptionModel.decide, calls)

        monkeypatch.setattr(node_module, "ReceptionModel", Counting)
        self._run(calls)

    def test_class_level_wrapper_decides_in_python(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            ReceptionModel, "decide", _counted(ReceptionModel.decide, calls)
        )
        self._run(calls)
