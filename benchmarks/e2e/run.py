"""End-to-end benchmark of the multicast mesh simulator.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed N] \\
        [--seconds S] [--trace [0|1]] [--out FILE]
    python3 benchmarks/e2e/run.py --compare BASE.json... -- CHANGE.json...

Each workload runs in a fresh subprocess, so peak memory and warm state
are its own.  Every end-to-end metric is printed as ``workload metric
value unit``; with ``--trace`` the workload runs untraced and then traced
and the per-layer ledger is printed instead.  Output checks (stored
result digests, the golden tiny sweep, warm replays equal to the cold
sweep) are part of every run: a failed check is named, counts as a
failed operation, and makes the command exit non-zero.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full result goes to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")
BENCHMARK_JSON = os.path.join(REPO, "BENCHMARK.json")
#: A workload process that outlives this is killed and counts as failed.
CHILD_TIMEOUT_S = 170


def load_benchmark() -> dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def parse_args(argv: List[str], workload_names: List[str], seconds: int) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=workload_names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="shifts every topology seed (default 1)")
    parser.add_argument("--seconds", type=float, default=seconds,
                        help="measurement budget per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="report the traced per-layer ledger instead")
    parser.add_argument("--out", help="result file (default: out/<time>-seed<N>.json)")
    parser.add_argument("--child", choices=workload_names, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_child(args: argparse.Namespace) -> None:
    """Measure one workload in this process; print its result as JSON."""
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.child]
    if args.trace:
        spans_path = f"{os.path.splitext(args.out)[0]}.{args.child}.spans.jsonl"
        measurement = workload.trace(args.seed, spans_path)
    else:
        measurement = workload.measure(args.seed, args.seconds)
    print(json.dumps({
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in measurement.metrics.items()},
        "extras": {name: {"value": value, "unit": unit}
                   for name, (value, unit) in measurement.extras.items()},
        "attempted": measurement.attempted,
        "failures": measurement.failures,
        "digests": measurement.digests,
    }))


def run_workload(name: str, args: argparse.Namespace) -> Optional[dict]:
    """Run one workload in a fresh interpreter; None if it crashed."""
    command = [
        sys.executable, os.path.abspath(__file__), "--child", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--out", args.out,
    ]
    print(f"[{name}] seed={args.seed} seconds={args.seconds:g} trace={args.trace}",
          file=sys.stderr, flush=True)
    try:
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                               timeout=CHILD_TIMEOUT_S, cwd=REPO)
    except subprocess.TimeoutExpired:
        print(f"[{name}] killed after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        print(f"[{name}] exited with code {child.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def measure(args: argparse.Namespace, workload_names: List[str]) -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"run.py: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    if args.out is None:
        stamp = time.strftime("%Y%m%d-%H%M%S")
        args.out = os.path.join(HERE, "out", f"{stamp}-seed{args.seed}.json")
    args.out = os.path.abspath(args.out)
    os.makedirs(os.path.dirname(args.out), exist_ok=True)

    names = args.workload or workload_names
    reports: Dict[str, dict] = {}
    for name in names:
        report = run_workload(name, args)
        if report is None:
            return 1
        reports[name] = report
        for metric, entry in {**report["metrics"], **report["extras"]}.items():
            print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
        for topology_seed, digest in report["digests"].items():
            print(f"{name} digest topology={topology_seed} {digest}")
        for failure in report["failures"]:
            print(f"{name} CHECK FAILED: {failure}")

    failed = sum(len(report["failures"]) for report in reports.values())
    attempted = sum(report["attempted"] for report in reports.values())
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump({"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                   "workloads": reports}, handle, indent=1, sort_keys=True)
    if len(names) == 1:
        metrics = reports[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{metric}": entry
                   for name, report in reports.items()
                   for metric, entry in report["metrics"].items()}
    print(f"result file: {args.out}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def compare(base_paths: List[str], change_paths: List[str]) -> int:
    """Print medians, quartiles, pair wins and a verdict per metric."""
    from verdicts import Comparison, quartiles

    declared = {metric["name"]: metric for metric in load_benchmark()["end_to_end"]}

    def load(paths: List[str]) -> Dict[tuple, List[float]]:
        values: Dict[tuple, List[float]] = {}
        for path in paths:
            with open(path, encoding="utf-8") as handle:
                result = json.load(handle)
            for workload, report in result["workloads"].items():
                for metric, entry in report["metrics"].items():
                    values.setdefault((workload, metric, entry["unit"]), []).append(entry["value"])
        return values

    base, change = load(base_paths), load(change_paths)
    print(f"{'workload':<12} {'metric':<14} {'base median [Q1, Q3]':<40} "
          f"{'change median [Q1, Q3]':<40} {'wins':>7}  verdict")
    for key in sorted(base.keys() & change.keys()):
        workload, metric, unit = key
        spec = declared.get(metric, {})
        row = Comparison(workload, metric, unit, base[key], change[key],
                         spec.get("better"), spec.get("bound"))
        cells = []
        for values in (row.base, row.change):
            q1, q2, q3 = quartiles(values)
            cells.append(f"{q2:.6g} [{q1:.6g}, {q3:.6g}] {unit}")
        wins, pairs = row.pair_wins
        print(f"{workload:<12} {metric:<14} {cells[0]:<40} {cells[1]:<40} "
              f"{wins:>3}/{pairs:<3}  {row.verdict}")
    return 0


def main(argv: List[str]) -> int:
    if "--compare" in argv:
        rest = argv[argv.index("--compare") + 1:]
        if "--" not in rest:
            print("usage: run.py --compare BASE.json... -- CHANGE.json...", file=sys.stderr)
            return 2
        split = rest.index("--")
        return compare(rest[:split], rest[split + 1:])
    benchmark = load_benchmark()
    workload_names = [workload["name"] for workload in benchmark["workloads"]]
    args = parse_args(argv, workload_names, benchmark["run_seconds"])
    if args.child:
        run_child(args)
        return 0
    return measure(args, workload_names)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
