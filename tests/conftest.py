"""Shared test fixtures, Hypothesis profiles, and network helpers."""

from __future__ import annotations

import contextlib
import os
from typing import Dict, FrozenSet, Optional, Sequence

import pytest
from hypothesis import settings
from hypothesis.database import DirectoryBasedExampleDatabase

from repro.net.network import Network, NetworkConfig
from repro.net.topology import Position, chain_topology
from repro.phy import kernel
from repro.sim.engine import Simulator
from repro.testbed.linkmodel import (
    EmpiricalChannel,
    LinkProfile,
    TimeVaryingLoss,
    testbed_radio_params,
)

# ----------------------------------------------------------------------
# Hypothesis: one shared profile instead of per-test @settings noise.
#
# Simulation-backed properties routinely exceed Hypothesis's default
# per-example deadline (a single example builds and runs a network), so
# the deadline is off globally.  The example database lives inside the
# repo's .hypothesis/ (gitignored) so shrunk counterexamples replay
# across local runs; CI selects the derandomized "ci" profile via
# HYPOTHESIS_PROFILE for reproducible, bounded jobs.

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
settings.register_profile(
    "repro",
    deadline=None,
    database=DirectoryBasedExampleDatabase(
        os.path.join(_REPO_ROOT, ".hypothesis", "examples")
    ),
)
settings.register_profile(
    "ci",
    parent=settings.get_profile("repro"),
    derandomize=True,
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "repro"))


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path_factory, monkeypatch):
    """Keep the experiment result cache out of the repo during tests.

    CLI commands cache by default; without this, tests exercising them
    would write .repro_cache/ into the working tree.
    """
    monkeypatch.setenv(
        "REPRO_CACHE_DIR",
        str(tmp_path_factory.mktemp("repro-cache")),
    )


@pytest.fixture
def sim() -> Simulator:
    return Simulator(seed=1234)


#: Skips a test that needs the compiled PHY kernel when it cannot be
#: built here (no compiler, or ``CC=/bin/false``).
KERNEL_UNAVAILABLE = kernel.unavailable_reason()
requires_kernel = pytest.mark.skipif(
    KERNEL_UNAVAILABLE is not None,
    reason=f"the compiled PHY kernel is unavailable: {KERNEL_UNAVAILABLE}",
)


def phy_path(name: str):
    """A block whose channels run the PHY path ``name``: "scalar" is the
    pure-Python passes (the kernel disabled), "compiled" the kernel
    wherever it loads."""
    return kernel.disabled() if name == "scalar" else contextlib.nullcontext()


@pytest.fixture
def no_kernel(tmp_path, monkeypatch):
    """The compiled PHY kernel as a machine without a compiler sees it.

    The loader forgets its outcome, looks for artifacts in an empty
    directory and compiles with ``/bin/false``; the test sees a fresh
    :func:`repro.phy.kernel.load` fail, and the loader's state comes
    back afterwards.
    """
    monkeypatch.setattr(kernel, "BUILD_DIR", str(tmp_path / "kernel"))
    monkeypatch.setattr(kernel, "_loaded", None)
    monkeypatch.setenv("CC", "/bin/false")
    return kernel


def make_clean_network(
    positions: Sequence[Position],
    seed: int = 7,
    config: Optional[NetworkConfig] = None,
) -> Network:
    """A network with deterministic (no-fading) radios."""
    if config is None:
        config = NetworkConfig(rayleigh_fading=False)
    return Network(positions, seed=seed, config=config)


def make_chain_network(
    num_nodes: int = 4, spacing_m: float = 200.0, seed: int = 7
) -> Network:
    """No-fading chain; adjacent nodes connected, others out of range."""
    return make_clean_network(chain_topology(num_nodes, spacing_m), seed=seed)


def make_loss_network(
    num_nodes: int,
    losses: Dict[FrozenSet[int], float],
    seed: int = 7,
) -> Network:
    """A network with exact, constant per-link loss probabilities.

    Links absent from ``losses`` do not exist.  This is the workhorse for
    protocol tests that need engineered topologies (e.g. the Figure 1 and
    Figure 3 examples as live networks).
    """

    class _FixedLoss(TimeVaryingLoss):
        def __init__(self, value: float) -> None:
            self._fixed = value

        def loss_at(self, now: float) -> float:  # noqa: D401
            return self._fixed

    profiles = {
        key: LinkProfile(loss=_FixedLoss(value))
        for key, value in losses.items()
    }
    positions = [Position(float(i * 10), 0.0) for i in range(num_nodes)]
    return Network(
        positions,
        seed=seed,
        channel_factory=lambda sim: EmpiricalChannel(sim, profiles),
        radio_params=testbed_radio_params(),
    )


def link(a: int, b: int) -> FrozenSet[int]:
    return frozenset((a, b))


@pytest.fixture
def dead_pid() -> int:
    """The pid of a child process that has exited and been reaped."""
    import multiprocessing

    proc = multiprocessing.get_context().Process(target=int)
    proc.start()
    proc.join()
    return proc.pid


@pytest.fixture
def process_starts(monkeypatch):
    """Every child process started while the test runs, in start order."""
    import multiprocessing.process

    started = []
    original = multiprocessing.process.BaseProcess.start

    def recording_start(self):
        started.append(self)
        original(self)

    monkeypatch.setattr(
        multiprocessing.process.BaseProcess, "start", recording_start
    )
    return started
