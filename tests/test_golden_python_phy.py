"""Golden result digests for the pure-Python PHY passes.

The benchmark's stored digests pin runs on the compiled kernel.  These
pin the path they miss -- a static, failure-free 30-node mesh on the
pure-Python PHY passes -- for ODMRP, SPP and METX, so a speed-only
change to the channel, node or MAC bookkeeping cannot shift a result
there unseen.  The same cases also run on the compiled kernel against
the same digests.

Regenerate after an *intentional* change of results with::

    PYTHONPATH=src python tests/data/make_golden_python_phy.py
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent / "data"))

from make_golden_python_phy import (  # noqa: E402
    CASES,
    GOLDEN_PATH,
    PROTOCOLS,
    result_digest,
)

from repro.experiments.runner import run_protocol  # noqa: E402
from repro.phy import kernel  # noqa: E402
from tests.conftest import requires_kernel  # noqa: E402

GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)
    for case in CASES:
        assert sorted(GOLDEN[case]) == sorted(PROTOCOLS)


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_run_matches_golden_digest(case, protocol):
    with kernel.disabled():
        result = run_protocol(protocol, CASES[case])
    assert result.error is None
    assert result.delivered_packets > 0
    assert result_digest(result) == GOLDEN[case][protocol]


@requires_kernel
@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_compiled_run_matches_scalar_golden(case, protocol):
    """The compiled kernel reproduces the Python-path goldens bit for
    bit."""
    result = run_protocol(protocol, CASES[case])
    assert result_digest(result) == GOLDEN[case][protocol]
