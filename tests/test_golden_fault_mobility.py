"""Golden result digests for fault-plan and mobility runs.

The benchmark's stored digests pin static, fault-free meshes.  These pin
the paths they miss -- radio outages plus flapping on the scalar PHY,
and random-waypoint mobility on the scalar (30 nodes) and vectorized
(80 nodes) PHY -- for ODMRP, SPP and METX, so a speed-only change to the
channel, node or MAC bookkeeping cannot shift a result there unseen.
The scalar cases also run on the compiled kernel against the same
digests.

Regenerate after an *intentional* change of results with::

    PYTHONPATH=src python tests/data/make_golden_fault_mobility.py
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent / "data"))

from make_golden_fault_mobility import (  # noqa: E402
    CASES,
    GOLDEN_PATH,
    PROTOCOLS,
    result_digest,
)

from repro.experiments.runner import run_protocol  # noqa: E402
from tests.conftest import requires_kernel  # noqa: E402

GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)
    for case in CASES:
        assert sorted(GOLDEN[case]) == sorted(PROTOCOLS)


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_run_matches_golden_digest(case, protocol):
    result = run_protocol(protocol, CASES[case])
    assert result.error is None
    assert result.delivered_packets > 0
    assert result_digest(result) == GOLDEN[case][protocol]


@requires_kernel
@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize(
    "case", sorted(case for case in CASES if case.endswith("-scalar"))
)
def test_compiled_run_matches_scalar_golden(case, protocol):
    """The compiled kernel reproduces the scalar goldens bit for bit."""
    config = CASES[case]
    config = dataclasses.replace(config, network=dataclasses.replace(
        config.network, phy_backend="compiled",
    ))
    result = run_protocol(protocol, config)
    assert result_digest(result) == GOLDEN[case][protocol]
