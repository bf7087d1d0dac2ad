"""What the retired "vectorized" PHY backend promised, held of its successors.

The numpy backend batched each frame's fading draws on a clone of the
``phy.fading`` stream.  It is gone: asking for it fails naming the
removal, and "auto" compiles the PHY kernel wherever it builds.  The
guarantees it was held to still hold, now of the compiled kernel and
of the scalar path:

* the stream a compiled channel draws from is ``random.Random``'s own
  sequence, from the first draw and after a hand-over mid-stream;
* fading models a fast path cannot mirror bit for bit (custom models,
  subclasses that changed the math, the deterministic channel) get no
  fused pass and draw per link;
* backend resolution: a small mesh without the kernel, or a channel
  with nothing stochastic to draw, runs scalar, and a forced
  "vectorized" is refused, a custom ``_sampled_power`` or not.

Scalar-vs-compiled run parity lives in ``tests/test_compiled_phy.py``
and the batch-vs-per-link draws in ``tests/test_phy_fanout.py``.
"""

from __future__ import annotations

import random

import pytest

from repro.net.channel import ChannelError, WirelessChannel
from repro.net.network import Network, NetworkConfig
from repro.net.topology import random_topology
from repro.phy import kernel
from repro.phy.fading import (
    CorrelatedRayleighFading,
    FadingModel,
    NoFading,
    RayleighFading,
)
from repro.sim.engine import Simulator
from tests.conftest import requires_kernel


def _network(backend, seed=1, **config_kwargs):
    positions = random_topology(
        12, 600.0, 600.0, rng=random.Random(4), connectivity_range_m=250.0,
    )
    config = NetworkConfig(phy_backend=backend, **config_kwargs)
    return Network(positions, seed=seed, config=config)


@requires_kernel
class TestUniformStream:
    def test_bit_identical_to_random_random(self):
        """A compiled channel's fading stream continues the scalar
        channel's ``random.Random`` for the same seed, draw for draw."""
        for seed in (0, 1, 12345):
            scalar = _network("scalar", seed=seed).channel._fading_rng
            compiled = _network("compiled", seed=seed).channel._fading_rng
            assert type(scalar) is random.Random
            assert isinstance(compiled, kernel.KernelRandom)
            assert [compiled.random() for _ in range(500)] == [
                scalar.random() for _ in range(500)
            ]
            assert compiled.getstate() == scalar.getstate()

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


class TestSamplerParity:
    def test_unsupported_model_gets_no_sampler(self):
        class OddFading(FadingModel):
            def sample_power_gain(self, rng):
                return 2.0 * rng.random()

        class SubclassedRayleigh(RayleighFading):
            def sample_link_gain(self, link_key, now, rng):
                return 0.5

        class SubclassedCorrelated(CorrelatedRayleighFading):
            def sample_link_gain(self, link_key, now, rng):
                return 0.25

        receivers = [3, 1, 4]
        for make in (OddFading, SubclassedRayleigh, NoFading,
                     lambda: SubclassedCorrelated(coherence_time_s=5.0)):
            batched_rng, per_link_rng = random.Random(5), random.Random(5)
            batched = make().sample_link_gains(0, receivers, 1.0, batched_rng)
            fading = make()
            assert batched == [
                fading.sample_link_gain((0, rid), 1.0, per_link_rng)
                for rid in receivers
            ]
            assert batched_rng.getstate() == per_link_rng.getstate()
        # Exact-type matching: a subclass may have changed the math, so
        # it gets no fused row either.
        fading = SubclassedCorrelated(coherence_time_s=5.0)
        assert fading.uniform_row(0, receivers, 1.0, random.Random(5)) is None
        for fading in (OddFading(), NoFading()):
            assert _network("auto", fading=fading).channel._fused_fading is None


class TestBackendResolution:
    def test_auto_stays_scalar_on_small_meshes(self, no_kernel):
        # With the compiled kernel "auto" compiles small meshes instead
        # (tests/test_compiled_phy.py).
        channel = _network("auto").channel
        assert channel.phy_backend_resolved == "scalar"
        assert type(channel._fading_rng) is random.Random

    def test_deterministic_channel_resolves_scalar(self):
        # NoFading has nothing stochastic to draw: "auto" runs the
        # sample-free scalar loop whether or not the kernel builds.
        channel = _network("auto", rayleigh_fading=False).channel
        assert channel.phy_backend_resolved == "scalar"
        assert channel._deterministic_power
        assert channel._fused_fading is None

    def test_forced_vectorized_rejects_sampled_power_override(self):
        class CustomChannel(WirelessChannel):
            def _sampled_power(self, sender, receiver, mean_mw):
                return mean_mw

        with pytest.raises(ChannelError, match="'vectorized' is no longer"):
            CustomChannel(Simulator(seed=1), phy_backend="vectorized")
        # Under "auto" the override keeps the channel off every fast path.
        channel = CustomChannel(Simulator(seed=1), phy_backend="auto")
        channel.finalize()
        assert channel.phy_backend_resolved == "scalar"
        assert channel._fused_fading is None
        assert not channel._inline_fading
