"""Scalar <-> vectorized PHY parity: bit-identical, not approximately.

The vectorized reception backend (:mod:`repro.phy.vectorized`) promises
the *same bits* as the per-receiver scalar loop, at every level:

* the cloned uniform stream reproduces ``random.Random.random()``,
* each batched fading sampler reproduces its scalar model's draw
  sequence under arbitrary interleavings of times and link subsets,
* full runs of all six paper protocols produce equal ``RunResult``
  rows whichever backend is forced -- scalar, compiled (where the
  kernel builds) or vectorized -- (via ``differential_check``'s
  ``phy_backend`` axis), also under faults and across a re-finalize,
* and backend resolution refuses configurations it cannot replicate
  (custom fading models, channels overriding ``_sampled_power``).

numpy is a hard dependency (pyproject), so these tests import
``repro.phy.vectorized`` unconditionally.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

import repro.net.channel as channel_module
from repro.experiments.runner import run_protocol
from repro.experiments.scenarios import (
    PROTOCOL_NAMES,
    SimulationScenarioConfig,
)
from repro.experiments.spec import ExperimentSpec
from repro.net.channel import (
    ChannelError,
    WirelessChannel,
    backend_unavailable,
)
from repro.net.network import Network, NetworkConfig
from repro.net.topology import random_topology
from repro.phy.fading import (
    CorrelatedRayleighFading,
    FadingModel,
    NoFading,
    RayleighFading,
    RicianFading,
)
from repro.phy.vectorized import MtUniformStream, build_sampler
from repro.sim.engine import Simulator
from repro.validation.fuzzing import differential_check

PARITY_CONFIG = SimulationScenarioConfig(
    num_nodes=10,
    area_width_m=500.0,
    area_height_m=500.0,
    num_groups=1,
    members_per_group=3,
    rate_pps=10.0,
    duration_s=8.0,
    warmup_s=2.0,
)


#: The forced backends the run-parity tests compare; "compiled" only
#: where the kernel builds.
BACKENDS = tuple(
    backend for backend in ("scalar", "compiled", "vectorized")
    if backend_unavailable(backend) is None
)


def forced(config: SimulationScenarioConfig, backend: str):
    return dataclasses.replace(
        config, network=dataclasses.replace(config.network,
                                            phy_backend=backend)
    )


class TestUniformStream:
    def test_bit_identical_to_random_random(self):
        for seed in (0, 1, 12345):
            reference = random.Random(seed)
            stream = MtUniformStream(random.Random(seed))
            expected = [reference.random() for _ in range(500)]
            got = stream.uniforms(500).tolist()
            assert got == expected

    def test_clone_resumes_mid_stream(self):
        reference = random.Random(7)
        for _ in range(123):  # advance to an arbitrary stream offset
            reference.random()
        stream = MtUniformStream(reference)
        shadow = random.Random(7)
        for _ in range(123):
            shadow.random()
        assert stream.uniforms(97).tolist() == [
            shadow.random() for _ in range(97)
        ]

    def test_batch_boundaries_do_not_matter(self):
        a = MtUniformStream(random.Random(42))
        b = MtUniformStream(random.Random(42))
        chunked = (
            a.uniforms(1).tolist()
            + a.uniforms(63).tolist()
            + a.uniforms(0).tolist()
            + a.uniforms(36).tolist()
        )
        assert chunked == b.uniforms(100).tolist()


#: (now, selected link positions or None) interleavings that exercise
#: full batches, strict subsets, repeated times (dt == 0, the AR(1)
#: zero-innovation branch) and late first touches of individual links.
SAMPLE_PATTERNS = [
    [(0.0, None), (1.0, None), (4.5, None)],
    [(0.0, [0, 1, 2]), (2.0, [2, 3, 4, 5]), (2.0, [0, 5]),
     (3.0, None), (3.0, None)],
    [(10.0, [5]), (10.5, [0, 5]), (11.0, [1, 2, 3]), (30.0, None)],
]


def scalar_gain_sequence(fading: FadingModel, seed: int, count: int,
                         pattern):
    rng = random.Random(seed)
    out = []
    for now, sel in pattern:
        positions = range(count) if sel is None else sel
        out.append([
            fading.sample_link_gain((0, position), now, rng)
            for position in positions
        ])
    return out


def vectorized_gain_sequence(fading: FadingModel, seed: int, count: int,
                             pattern):
    sampler = build_sampler(fading, random.Random(seed))
    slot = sampler.new_slot(count)
    return [
        sampler.gains(slot, count, sel, now).tolist()
        for now, sel in pattern
    ]


class TestSamplerParity:
    @pytest.mark.parametrize("make_fading", [
        RayleighFading,
        lambda: RicianFading(k_factor=3.0),
        lambda: RicianFading(k_factor=0.0),
        lambda: CorrelatedRayleighFading(coherence_time_s=10.0),
        lambda: CorrelatedRayleighFading(coherence_time_s=0.25),
    ])
    @pytest.mark.parametrize("pattern", SAMPLE_PATTERNS)
    @pytest.mark.parametrize("seed", [1, 99])
    def test_gains_bit_identical(self, make_fading, pattern, seed):
        count = 6
        scalar = scalar_gain_sequence(make_fading(), seed, count, pattern)
        batched = vectorized_gain_sequence(
            make_fading(), seed, count, pattern
        )
        assert batched == scalar

    def test_correlated_state_migration(self):
        """dump_state/load_state round-trips the AR(1) processes."""
        fading = CorrelatedRayleighFading(coherence_time_s=5.0)
        sampler = build_sampler(fading, random.Random(3))
        slot = sampler.new_slot(4)
        sampler.gains(slot, 4, [0, 2], 1.0)
        states = sampler.dump_state(slot)
        assert states[1] is None and states[3] is None
        # Rebuild a slot with the links permuted, as a re-finalize does.
        rebuilt = sampler.new_slot(3)
        sampler.load_state(rebuilt, 0, states[2])
        sampler.load_state(rebuilt, 2, states[0])
        migrated = sampler.dump_state(rebuilt)
        assert migrated[0] == states[2]
        assert migrated[2] == states[0]
        assert migrated[1] is None

    def test_unsupported_model_gets_no_sampler(self):
        class OddFading(FadingModel):
            def sample_power_gain(self, rng):
                return 2.0

        class SubclassedRayleigh(RayleighFading):
            def sample_link_gain(self, link_key, now, rng):
                return 0.5

        assert build_sampler(OddFading(), random.Random(1)) is None
        # Exact-type matching: a subclass may have changed the math.
        assert build_sampler(SubclassedRayleigh(), random.Random(1)) is None
        assert build_sampler(NoFading(), random.Random(1)) is None


class TestBackendResolution:
    def _network(self, backend, num_nodes=12, **config_kwargs):
        positions = random_topology(
            num_nodes, 600.0, 600.0, rng=random.Random(4),
            connectivity_range_m=250.0,
        )
        config = NetworkConfig(phy_backend=backend, **config_kwargs)
        return Network(positions, seed=1, config=config)

    def test_auto_stays_scalar_on_small_meshes(self, no_kernel):
        # With the compiled kernel "auto" compiles small meshes instead
        # (tests/test_compiled_phy.py); it never vectorizes them.
        network = self._network("auto")
        assert network.channel.phy_backend_resolved == "scalar"

    def test_auto_vectorizes_above_threshold(self, monkeypatch):
        monkeypatch.setattr(channel_module, "VECTOR_MIN_NODES", 4)
        network = self._network("auto")
        assert network.channel.phy_backend_resolved == "vectorized"

    def test_forced_vectorized_on_tiny_mesh(self):
        network = self._network("vectorized")
        assert network.channel.phy_backend_resolved == "vectorized"

    def test_deterministic_channel_resolves_scalar(self):
        # NoFading has nothing stochastic to batch; even a forced
        # "vectorized" request runs the sample-free scalar loop.
        network = self._network(
            "vectorized", rayleigh_fading=False,
        )
        assert network.channel.phy_backend_resolved == "scalar"

    def test_forced_vectorized_rejects_custom_fading(self):
        class OddFading(FadingModel):
            def sample_power_gain(self, rng):
                return 1.0

        with pytest.raises(ChannelError, match="no bit-identical"):
            self._network("vectorized", fading=OddFading())

    def test_forced_vectorized_rejects_sampled_power_override(self):
        class CustomChannel(WirelessChannel):
            def _sampled_power(self, sender, receiver, mean_mw):
                return mean_mw

        sim = Simulator(seed=1)
        channel = CustomChannel(sim, phy_backend="vectorized")
        with pytest.raises(ChannelError, match="_sampled_power"):
            channel.finalize()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ChannelError, match="unknown phy_backend"):
            WirelessChannel(Simulator(seed=1), phy_backend="simd")


class TestRunParity:
    def test_all_paper_protocols_bit_identical(self, tmp_path):
        """The satellite gate: differential_check's phy_backend axis
        across the six paper protocol variants."""
        spec = ExperimentSpec(
            name="phy-parity",
            description="scalar vs vectorized across the paper protocols",
            protocols=tuple(PROTOCOL_NAMES),
            seeds=(1,),
            config=PARITY_CONFIG,
        )
        divergences = differential_check(
            spec, jobs=2, work_dir=str(tmp_path), phy_backends=BACKENDS,
        )
        assert divergences == [], "\n".join(divergences)

    def test_invariant_monitors_watch_the_batched_path(self):
        """channel-conservation's power ledgers and rng-isolation's
        stream audit must keep working when reception is batched."""
        from repro.validation.fuzzing import run_with_invariants

        spec = ExperimentSpec(
            name="phy-monitors",
            description="invariant monitors over the vectorized backend",
            protocols=("odmrp",),
            seeds=(1,),
            config=forced(PARITY_CONFIG, "vectorized"),
        )
        results = run_with_invariants(
            spec, monitors=("channel-conservation", "rng-isolation")
        )
        assert all(result.error is None for result in results)

    def test_parity_under_faults(self):
        """Outages flip receivers inactive mid-run; the batched path
        must mask exactly the draws the scalar path skips."""
        from repro.experiments.faults import (
            FaultPlan, FlappingSpec, OutageWindow,
        )
        config = dataclasses.replace(
            PARITY_CONFIG,
            faults=FaultPlan(
                outages=(OutageWindow(node_id=2, start_s=3.0, end_s=5.0),),
                flapping=(FlappingSpec(node_id=5, start_s=2.0,
                                       period_s=2.0, down_fraction=0.4,
                                       until_s=7.0),),
            ),
        )
        results = [
            run_protocol("etx", forced(config, backend))
            for backend in BACKENDS
        ]
        assert all(result == results[0] for result in results)
        assert results[0].error is None

    def test_parity_across_refinalize(self):
        """Re-running finalize() migrates the vectorized AR(1) state by
        receiver id, exactly as the scalar model's keyed dict survives
        a re-finalize."""
        positions = random_topology(
            12, 600.0, 600.0, rng=random.Random(8),
            connectivity_range_m=250.0,
        )
        from repro.net.packet import Packet, PacketKind

        totals = {}
        for backend in BACKENDS:
            network = Network(
                positions, seed=5, config=NetworkConfig(phy_backend=backend)
            )
            for node in network.nodes:
                node.sim.schedule(
                    0.01 * (node.node_id + 1),
                    lambda n=node: n.send_broadcast(
                        Packet(PacketKind.DATA, n.node_id, 256, n.sim.now)
                    ),
                )
            network.run(until=1.0)
            network.channel.finalize()  # the only legal topology "change"
            for node in network.nodes:
                node.sim.schedule(
                    0.01 * (node.node_id + 1),
                    lambda n=node: n.send_broadcast(
                        Packet(PacketKind.DATA, n.node_id, 256, n.sim.now)
                    ),
                )
            network.run(until=2.5)
            totals[backend] = {
                "rx": network.total_counter_prefix("rx."),
                "tx": network.total_counter_prefix("tx."),
                "channel": dict(network.channel.counters.as_dict()),
                "power": [node.current_power_mw for node in network.nodes],
            }
        assert all(total == totals["scalar"] for total in totals.values())
