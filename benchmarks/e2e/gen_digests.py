"""Regenerate ``digests.json``: the reference results the benchmark checks.

Each digest is taken from ``run_protocol`` -- the program's own
build -> run -> collect path, unchunked -- on the workload's config for
one topology seed.  Run from the repository root, on the commit whose
results are the reference::

    PYTHONPATH=src python3 benchmarks/e2e/gen_digests.py

A change meant only to make the simulator faster must leave every
digest identical; regenerate only for a deliberate change of results.
"""

from __future__ import annotations

import json
import subprocess
import sys

from repro.experiments.runner import run_protocol

from workloads import DIGESTS_PATH, WORKLOADS, result_digest

#: Topology seeds covered per workload.  A run at ``--seed N`` checks
#: every unit whose topology seed is in the table.
SEEDS = {"paper-spp": range(1, 65), "paper-odmrp": range(1, 65), "city-flood": range(1, 17)}


def main() -> int:
    digests = {}
    for name, seeds in SEEDS.items():
        workload = WORKLOADS[name]
        digests[name] = {}
        for seed in seeds:
            result = run_protocol(workload.protocol, workload.make_config(seed))
            digests[name][str(seed)] = result_digest(result)
            print(f"{name} topology={seed} {digests[name][str(seed)][:16]}", file=sys.stderr)
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True
    ).stdout.strip()
    with open(DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump({"commit": commit, "digests": digests}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
