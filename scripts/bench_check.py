"""Smoke gate for the parallel runner and the PHY reception paths.

Two always-on guards, each failing the script (exit 1) on violation:

1. **Differential oracle** -- a few-second mini-sweep through
   :func:`repro.validation.fuzzing.differential_check`: serially (the
   oracle, on the compiled PHY kernel where it loads), with a pool of 2
   workers, on the pure-Python PHY passes, stored cold into the disk
   cache by that pool and replayed warm inline,
   interrupted after its first run and resumed from the journal, and
   with telemetry on; every pass must produce ``RunResult`` rows
   bit-identical to the serial baseline.
2. **PHY paths** -- the dense-mesh micro benchmark from
   ``benchmarks/bench_perf_engine.py`` run once per reception path (the
   pure-Python passes, "scalar", under ``repro.phy.kernel.disabled()``,
   and the compiled kernel where it builds); the compiled results must
   be bit-identical to the scalar ones, and the compiled wall time must
   not exceed the scalar wall time by more than a tolerance (10% by
   default, for timer noise on loaded CI hosts).  Both wall times are
   corrected for host speed as the e2e benchmark corrects them.  This
   is the gate that the kernel every channel runs wherever it loads
   stays an optimization, not just an alternative.

The oracle also runs on the same mini-sweep under pytest as the
``perfsmoke`` marker (``pytest -m perfsmoke``); it is deselected from the default
tier-1 run to keep that fast.

Usage: PYTHONPATH=src python scripts/bench_check.py [--jobs N]
       [--skip-phy] [--phy-tolerance FRAC]
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

from repro.validation.fuzzing import consistency_spec, differential_check

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                    "benchmarks")
)


def check_phy_backends(tolerance: float) -> int:
    from bench_perf_engine import phy_backend_micro

    start = time.perf_counter()
    runs = phy_backend_micro()
    elapsed = time.perf_counter() - start

    wall_scalar = runs["scalar"].wall_s
    scalar = runs["scalar"].result
    if scalar.error is not None:
        print(
            f"bench_check: FAIL -- micro benchmark errored: {scalar.error}",
            file=sys.stderr,
        )
        return 1
    for backend, unit in runs.items():
        if unit.result != scalar:
            print(
                f"bench_check: FAIL ({elapsed:.1f}s) -- scalar and {backend} "
                "paths produced different results",
                file=sys.stderr,
            )
            return 1
    if "compiled" not in runs:
        print(
            f"bench_check: OK ({elapsed:.1f}s) -- scalar only: the compiled "
            "kernel cannot be built here, so there is nothing to gate"
        )
        return 0
    wall_compiled = runs["compiled"].wall_s
    budget = wall_scalar * (1.0 + tolerance)
    if wall_compiled > budget:
        print(
            f"bench_check: FAIL ({elapsed:.1f}s) -- compiled kernel is "
            f"slower than scalar: {wall_compiled:.2f}s vs "
            f"{wall_scalar:.2f}s (budget {budget:.2f}s at "
            f"{tolerance:.0%} tolerance)",
            file=sys.stderr,
        )
        return 1
    others = ", ".join(
        f"{backend} {wall_scalar / unit.wall_s:.2f}x ({unit.wall_s:.2f}s)"
        for backend, unit in runs.items() if backend != "scalar"
    )
    print(
        f"bench_check: OK ({elapsed:.1f}s) -- {', '.join(runs)} paths "
        f"bit-identical; vs scalar ({wall_scalar:.2f}s): {others}"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=2,
                        help="pool size for the parallel pass (default 2)")
    parser.add_argument("--skip-phy", action="store_true",
                        help="skip the PHY micro gate")
    parser.add_argument("--phy-tolerance", type=float, default=0.10,
                        help="allowed compiled-over-scalar wall overrun "
                             "(fraction, default 0.10)")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="repro-bench-check-") as work:
        divergences = differential_check(
            consistency_spec(), jobs=args.jobs, work_dir=work
        )
    elapsed = time.perf_counter() - start

    if divergences:
        print(f"bench_check: FAIL ({elapsed:.1f}s)", file=sys.stderr)
        for line in divergences:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(
        f"bench_check: OK ({elapsed:.1f}s) -- serial, jobs={args.jobs}, "
        "PHY-python, cache, resume and telemetry passes are "
        "bit-identical"
    )

    if not args.skip_phy:
        return check_phy_backends(args.phy_tolerance)
    return 0


if __name__ == "__main__":
    sys.exit(main())
