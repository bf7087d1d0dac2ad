"""Command-line interface for the reproduction experiments.

Run as ``python -m repro.cli <command>`` (or the ``repro`` console script
when installed).  Every command prints paper-vs-measured tables built by
:mod:`repro.experiments.figures`.

Commands::

    fig1        Figure 1 (METX vs SPP, analytic -- instant)
    fig3        Figure 3 (ETX vs SPP, analytic -- instant)
    fig2-sim    Figure 2 throughput + delay columns (simulation sweep)
    table1      Table 1 probing overhead (simulation sweep)
    testbed     Figure 2 testbed column (Section 5 emulation)
    fig4        Figure 4 ping-based link classification
    fig5        Figure 5 tree edges, ODMRP vs ODMRP_PP
    run         Execute a declarative experiment spec (TOML/JSON)
    validate    Invariant-monitored runs + differential scenario fuzzing
    protocols   List the registered router x metric combinations
    telemetry   Inspect exported run telemetry (summarize / diff)

``repro run --spec examples/paper_spec.toml`` executes a serialized
:class:`~repro.experiments.spec.ExperimentSpec`; ``--protocols``/
``--seeds`` narrow it, ``--dry-run`` prints the resolved plan without
simulating.  ``--run-timeout`` kills and quarantines a run past its
wall-clock budget and journals the sweep; ``--resume`` replays a
previously interrupted sweep from that journal and re-dispatches its
failed runs.  Protocol names everywhere resolve through the registry
(:mod:`repro.protocols`), so MAODV and WCETT variants sweep through the
same pipeline as the paper's six.

Simulation commands accept ``--telemetry-dir DIR`` to capture one JSONL
trace per run (see :mod:`repro.telemetry`); ``repro telemetry summarize``
renders them.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.analysis.tables import render_comparison, render_table
from repro.experiments import figures
from repro.experiments.results import aggregate_runs, normalized_metric_table
from repro.experiments.scenarios import (
    PROTOCOL_NAMES,
    SimulationScenarioConfig,
)
from repro.protocols import REGISTRY, UnknownProtocolError
from repro.telemetry import TelemetryConfig, package_version
from repro.testbed.emulator import TestbedScenarioConfig


def _simulation_config(args: argparse.Namespace) -> SimulationScenarioConfig:
    telemetry = TelemetryConfig()
    if getattr(args, "telemetry_dir", None):
        telemetry = TelemetryConfig(
            enabled=True, export_dir=args.telemetry_dir
        )
    return SimulationScenarioConfig(
        num_nodes=args.nodes,
        duration_s=args.duration,
        warmup_s=min(30.0, args.duration / 4),
        telemetry=telemetry,
    )


def _seeds(args: argparse.Namespace) -> tuple:
    return tuple(range(1, args.topologies + 1))


def _warn_failed_runs(runs) -> bool:
    """Surface error-annotated runs (parallel sweeps don't raise).

    Returns True when at least one run succeeded, so callers can bail
    out before aggregating an empty sweep.
    """
    failed = [run for run in runs if run.error is not None]
    if not failed:
        return True
    from repro.experiments.resilience import classify_failure

    print(
        f"WARNING: {len(failed)} run(s) failed and are excluded "
        "from the averages:"
    )
    for run in failed:
        reason = run.error.strip().splitlines()[-1]
        kind = classify_failure(run.error)
        tag = f" [{kind.value}]" if kind is not None else ""
        print(f"  {run.protocol} seed={run.topology_seed}{tag}: {reason}")
    if len(failed) == len(list(runs)):
        print("ERROR: every run failed; nothing to aggregate.")
        return False
    return True


def cmd_fig1(args: argparse.Namespace) -> int:
    result = figures.figure1_metx_vs_spp()
    print(render_comparison(
        result.measured, result.paper, value_label="path cost",
        title="Figure 1: METX vs 1/SPP",
    ))
    print(result.notes)
    return 0


def cmd_fig3(args: argparse.Namespace) -> int:
    result = figures.figure3_etx_vs_spp()
    print(render_comparison(
        result.measured, result.paper, value_label="path cost",
        title="Figure 3: ETX vs SPP",
    ))
    print(result.notes)
    return 0


def cmd_fig2_sim(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_experiment
    from repro.experiments.spec import ExperimentSpec

    config = _simulation_config(args)
    seeds = _seeds(args)
    print(
        f"running {len(PROTOCOL_NAMES)} protocols x {len(seeds)} topologies "
        f"({config.num_nodes} nodes, {config.duration_s:.0f} s each, "
        f"jobs={args.jobs}) ..."
    )
    runs = run_experiment(ExperimentSpec(
        seeds=seeds, jobs=args.jobs, use_cache=not args.no_cache,
        config=config,
    ))
    if not _warn_failed_runs(runs):
        return 1
    aggregates = aggregate_runs(runs)
    throughput = normalized_metric_table(aggregates, "throughput")
    print()
    print(render_comparison(
        throughput,
        figures.PAPER_THROUGHPUT_SIMULATIONS,
        title="Figure 2 / Throughput-simulations",
    ))
    print()
    from repro.analysis.charts import render_bar_chart

    print(render_bar_chart(
        throughput, baseline=1.0,
        title="normalized throughput (| marks the ODMRP baseline)",
    ))
    print()
    print(render_comparison(
        normalized_metric_table(aggregates, "delay"),
        figures.PAPER_DELAY,
        title="Figure 2 / Delay (paper values approximate)",
    ))
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    config = _simulation_config(args)
    result = figures.table1_probing_overhead(
        config, _seeds(args), jobs=args.jobs, use_cache=not args.no_cache
    )
    if not _warn_failed_runs(result.runs):
        return 1
    print(render_comparison(
        result.measured, result.paper, value_label="overhead %",
        title="Table 1 / probing overhead",
    ))
    return 0


def cmd_testbed(args: argparse.Namespace) -> int:
    config = TestbedScenarioConfig(
        duration_s=args.duration, warmup_s=min(30.0, args.duration / 4)
    )
    seeds = tuple(range(1, args.runs + 1))
    print(
        f"running {len(PROTOCOL_NAMES)} protocols x {len(seeds)} "
        "testbed runs ..."
    )
    result = figures.figure2_throughput_testbed(config, seeds)
    print()
    print(render_comparison(
        result.measured, result.paper,
        title="Figure 2 / Throughput-testbed",
    ))
    return 0


def cmd_fig4(args: argparse.Namespace) -> int:
    from repro.testbed.emulator import build_testbed_scenario
    from repro.testbed.floormap import testbed_links
    from repro.testbed.ping import (
        classify_links_by_ping,
        symmetric_classification,
    )

    scenario = build_testbed_scenario(
        "odmrp", TestbedScenarioConfig(run_seed=args.seed)
    )
    directed = classify_links_by_ping(scenario.network, pings_per_node=150)
    merged = symmetric_classification(directed)
    truth = {link.key: link.lossy for link in testbed_links()}
    rows = []
    for key, verdict in sorted(merged.items(), key=lambda kv: sorted(kv[0])):
        a, b = sorted(scenario.index_to_label[i] for i in key)
        rows.append((
            f"{a}-{b}",
            f"{verdict.loss_rate:.0%}",
            "lossy" if verdict.lossy else "low-loss",
            "lossy" if truth[frozenset((a, b))] else "low-loss",
        ))
    print(render_table(
        ("link", "ping loss", "classified", "figure 4"), rows,
        title="Figure 4: link classification by ping",
    ))
    return 0


def cmd_fig5(args: argparse.Namespace) -> int:
    config = TestbedScenarioConfig(
        duration_s=args.duration, warmup_s=min(30.0, args.duration / 4),
        run_seed=args.seed,
    )
    trees = figures.figure5_tree_edges(config, ("odmrp", "pp"))
    from repro.testbed.floormap import lossy_link_keys

    lossy = set(lossy_link_keys())
    for protocol, tree in trees.items():
        rows = [
            (
                f"{src}->{dst}", f"{share:.2f}",
                "lossy" if frozenset((src, dst)) in lossy else "low-loss",
            )
            for src, dst, share in tree[:10]
        ]
        print()
        print(render_table(
            ("link", "data share", "class"), rows,
            title=f"Figure 5: heavily used links under {protocol}",
        ))
        print(
            "lossy-link share: "
            f"{figures.lossy_link_data_share(tree):.1%}"
        )
    return 0


def _parse_csv(text: Optional[str]) -> Optional[list]:
    if text is None:
        return None
    return [item.strip() for item in text.split(",") if item.strip()]


def _valid(spec) -> bool:
    """Validate ``spec``; print why it is invalid and return False."""
    from repro.experiments.spec import SpecError

    try:
        spec.validate()
    except (UnknownProtocolError, SpecError) as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return False
    return True


def cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.report import render_report
    from repro.experiments.runner import run_experiment
    from repro.experiments.spec import ExperimentSpec, SpecError

    if args.spec:
        try:
            spec = ExperimentSpec.load(args.spec)
        except (OSError, SpecError) as exc:
            print(f"ERROR: {args.spec}: {exc}", file=sys.stderr)
            return 1
    else:
        spec = ExperimentSpec(name="paper-baseline-defaults")

    seeds = None
    if args.seeds:
        try:
            seeds = [int(seed) for seed in _parse_csv(args.seeds)]
        except ValueError:
            print(f"ERROR: --seeds must be integers: {args.seeds!r}",
                  file=sys.stderr)
            return 1
    spec = spec.with_overrides(
        protocols=_parse_csv(args.protocols),
        seeds=seeds,
        jobs=args.jobs,
        use_cache=False if args.no_cache else None,
        run_timeout_s=args.run_timeout,
    )
    if getattr(args, "adaptive", False) and spec.adaptive is None:
        from dataclasses import replace

        from repro.experiments.adaptive import AdaptiveConfig

        spec = replace(spec, adaptive=AdaptiveConfig())
    if getattr(args, "telemetry_dir", None):
        from dataclasses import replace

        spec.config = replace(
            spec.config,
            telemetry=TelemetryConfig(
                enabled=True, export_dir=args.telemetry_dir
            ),
        )

    if not _valid(spec):
        return 1
    print(spec.describe())
    if args.dry_run:
        print("\ndry run: spec is valid; no simulations executed.")
        return 0

    print()

    def progress(protocol: str, seed: int) -> None:
        print(f"  running {protocol} seed={seed} ...", flush=True)

    plan = None
    try:
        if spec.adaptive is not None:
            from repro.experiments.adaptive import run_adaptive_experiment

            plan = run_adaptive_experiment(
                spec, progress=progress, resume=args.resume
            )
            runs = plan.runs
        else:
            runs = run_experiment(spec, progress=progress, resume=args.resume)
    except KeyboardInterrupt as interrupt:
        # The sweep engine stops with its journal consistent, so
        # tell the user how to pick the sweep back up.
        detail = str(interrupt)
        print(f"\ninterrupted: {detail}" if detail else "\ninterrupted",
              file=sys.stderr)
        print("re-run the same command with --resume to continue",
              file=sys.stderr)
        return 130
    if not _warn_failed_runs(runs):
        return 1
    report = render_report(runs, title=spec.name, adaptive=plan)
    print()
    print(report)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"report written to {args.report}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    import tempfile

    from repro.experiments.spec import ExperimentSpec, SpecError
    from repro.validation.fuzzing import (
        default_validation_spec,
        differential_check,
        random_spec,
        run_with_invariants,
        write_replay_spec,
    )
    from repro.validation.invariants import InvariantViolation, monitor_names

    monitors: tuple = ()
    run_invariants = True
    if args.invariants and args.invariants.lower() == "none":
        run_invariants = False
    elif args.invariants and args.invariants.lower() != "all":
        monitors = tuple(_parse_csv(args.invariants))
        unknown = set(monitors) - set(monitor_names())
        if unknown:
            print(
                f"ERROR: unknown monitor(s) {sorted(unknown)}; known: "
                + ", ".join(monitor_names()),
                file=sys.stderr,
            )
            return 1

    specs = []
    if args.spec:
        try:
            spec = ExperimentSpec.load(args.spec)
        except (OSError, SpecError) as exc:
            print(f"ERROR: {args.spec}: {exc}", file=sys.stderr)
            return 1
        if not _valid(spec):
            return 1
        specs.append(spec)
    elif not args.fuzz:
        specs.append(default_validation_spec())
    specs += [
        random_spec(index, master_seed=args.fuzz_seed)
        for index in range(args.fuzz)
    ]

    failures = 0
    for spec in specs:
        print(f"== {spec.name}: {spec.total_runs} run(s), "
              f"protocols {', '.join(spec.protocols)}")
        if run_invariants:
            try:
                run_with_invariants(
                    spec, monitors=monitors,
                    check_interval_s=args.check_interval,
                )
                print("   invariants: ok")
            except InvariantViolation as violation:
                failures += 1
                print("   invariants: VIOLATION")
                print(violation.report())
                replay_path = f"replay-{spec.name}.json"
                write_replay_spec(violation, replay_path)
                print(f"   replay spec written to {replay_path}")
                continue
        if not args.skip_differential:
            with tempfile.TemporaryDirectory() as work_dir:
                errors = differential_check(
                    spec, jobs=args.jobs, work_dir=work_dir
                )
            if errors:
                failures += 1
                print("   differential: DIVERGED")
                for error in errors:
                    print(f"     {error}")
            else:
                print("   differential: ok")

    total = len(specs)
    print(f"\n{total - failures}/{total} spec(s) clean")
    return 1 if failures else 0


def cmd_protocols(args: argparse.Namespace) -> int:
    rows = [
        (
            spec.name,
            spec.family,
            spec.metric or "min-hop",
            spec.router.__name__,
            spec.description,
        )
        for spec in REGISTRY
    ]
    print(render_table(
        ("name", "family", "metric", "router", "description"), rows,
        title=f"{len(REGISTRY)} registered protocols",
    ))
    return 0


def cmd_telemetry_summarize(args: argparse.Namespace) -> int:
    from repro.telemetry import TraceFormatError, read_trace, summarize_trace

    status = 0
    for index, path in enumerate(args.paths):
        if index:
            print()
        try:
            trace = read_trace(path)
        except (OSError, TraceFormatError) as exc:
            print(f"ERROR: {path}: {exc}", file=sys.stderr)
            status = 1
            continue
        print(f"== {path}")
        print(summarize_trace(trace))
    return status


def cmd_telemetry_diff(args: argparse.Namespace) -> int:
    from repro.telemetry import TraceFormatError, diff_traces, read_trace

    try:
        trace_a = read_trace(args.a)
        trace_b = read_trace(args.b)
    except (OSError, TraceFormatError) as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 1
    print(diff_traces(trace_a, trace_b))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce tables and figures from 'High-Throughput Multicast "
            "Routing Metrics in Wireless Mesh Networks' (ICDCS 2006)."
        ),
    )
    parser.add_argument(
        "--version", action="version",
        version=f"%(prog)s {package_version()}",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, *, sim=False, testbed=False):
        sub = subparsers.add_parser(name, help=help_text)
        sub.set_defaults(handler=handler)
        if sim:
            sub.add_argument("--nodes", type=int, default=50,
                             help="network size (paper: 50)")
            sub.add_argument("--duration", type=float, default=150.0,
                             help="seconds of simulated time (paper: 400)")
            sub.add_argument("--topologies", type=int, default=1,
                             help="random topologies (paper: 10)")
            sub.add_argument("--jobs", type=int, default=1,
                             help="parallel worker processes "
                                  "(0 = one per CPU; default 1, serial)")
            sub.add_argument("--no-cache", action="store_true",
                             help="recompute every run instead of reusing "
                                  "the on-disk result cache (.repro_cache/)")
            sub.add_argument("--telemetry-dir", metavar="DIR", default=None,
                             help="capture per-run telemetry traces (JSONL) "
                                  "into DIR; disabled when omitted")
        if testbed:
            sub.add_argument("--duration", type=float, default=400.0,
                             help="seconds of simulated time (paper: 400)")
            sub.add_argument("--runs", type=int, default=2,
                             help="repetitions (paper: 5)")
            sub.add_argument("--seed", type=int, default=1)
        return sub

    add("fig1", cmd_fig1, "Figure 1: METX vs SPP (analytic)")
    add("fig3", cmd_fig3, "Figure 3: ETX vs SPP (analytic)")
    add("fig2-sim", cmd_fig2_sim,
        "Figure 2 simulation columns (throughput + delay)", sim=True)
    add("table1", cmd_table1, "Table 1 probing overhead", sim=True)
    add("testbed", cmd_testbed, "Figure 2 testbed column", testbed=True)
    add("fig4", cmd_fig4, "Figure 4 link classification", testbed=True)
    add("fig5", cmd_fig5, "Figure 5 tree edges", testbed=True)

    run = subparsers.add_parser(
        "run", help="execute a declarative experiment spec (TOML/JSON)"
    )
    run.set_defaults(handler=cmd_run)
    run.add_argument("--spec", metavar="PATH", default=None,
                     help="spec file (.toml or .json); omitted = the "
                          "paper baseline at default scale")
    run.add_argument("--protocols", metavar="A,B,...", default=None,
                     help="override the spec's protocol list (registry "
                          "names, e.g. maodv,maodv-etx,maodv-spp)")
    run.add_argument("--seeds", metavar="1,2,...", default=None,
                     help="override the spec's topology seeds")
    run.add_argument("--jobs", type=int, default=None,
                     help="override the spec's worker-process count "
                          "(0 = one per CPU)")
    run.add_argument("--no-cache", action="store_true",
                     help="force recomputation even if the spec enables "
                          "the result cache")
    run.add_argument("--dry-run", action="store_true",
                     help="validate and print the resolved run plan "
                          "without simulating")
    run.add_argument("--telemetry-dir", metavar="DIR", default=None,
                     help="capture per-run telemetry traces (JSONL) "
                          "into DIR")
    run.add_argument("--report", metavar="PATH", default=None,
                     help="also write the markdown report to PATH")
    run.add_argument("--run-timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="per-run wall-clock budget; a run exceeding it "
                          "is killed and quarantined (journals the sweep; "
                          "--resume re-dispatches it)")
    run.add_argument("--adaptive", action="store_true",
                     help="run under the sequential planner: seeds in "
                          "batches, CI-driven stopping per protocol, "
                          "paired common-random-number comparisons "
                          "(defaults apply unless the spec has an "
                          "[adaptive] section)")
    run.add_argument("--resume", action="store_true",
                     help="replay completed runs from the sweep journal "
                          "(.repro_cache/runs/journal.jsonl) and execute "
                          "only the rest")

    validate = subparsers.add_parser(
        "validate",
        help="run invariant monitors + differential fuzzing over specs",
    )
    validate.set_defaults(handler=cmd_validate)
    validate.add_argument("--spec", metavar="PATH", default=None,
                          help="validate this spec file (.toml or .json); "
                               "omitted = a built-in paper-protocol "
                               "mini-sweep (unless --fuzz is given)")
    validate.add_argument("--fuzz", type=int, default=0, metavar="N",
                          help="also validate N randomly generated specs "
                               "(deterministic per --fuzz-seed)")
    validate.add_argument("--fuzz-seed", type=int, default=0,
                          help="master seed for the fuzz-case generator")
    validate.add_argument("--jobs", type=int, default=2,
                          help="pool size for the differential jobs=N pass")
    validate.add_argument("--invariants", metavar="A,B,... | all | none",
                          default="all",
                          help="invariant monitors to attach ('all' = every "
                               "registered monitor, 'none' = skip the "
                               "monitored pass)")
    validate.add_argument("--check-interval", type=float, default=1.0,
                          help="simulated seconds between invariant sweeps")
    validate.add_argument("--skip-differential", action="store_true",
                          help="only run the invariant-monitored pass")

    protocols_cmd = subparsers.add_parser(
        "protocols", help="list the registered router x metric combinations"
    )
    protocols_cmd.set_defaults(handler=cmd_protocols)

    telemetry = subparsers.add_parser(
        "telemetry", help="inspect exported run telemetry traces"
    )
    telemetry_sub = telemetry.add_subparsers(
        dest="telemetry_command", required=True
    )
    summarize = telemetry_sub.add_parser(
        "summarize", help="render manifest + instrument summary per trace"
    )
    summarize.add_argument("paths", nargs="+", metavar="TRACE.jsonl")
    summarize.set_defaults(handler=cmd_telemetry_summarize)
    diff = telemetry_sub.add_parser(
        "diff", help="instrument-by-instrument comparison of two traces"
    )
    diff.add_argument("a", metavar="A.jsonl")
    diff.add_argument("b", metavar="B.jsonl")
    diff.set_defaults(handler=cmd_telemetry_diff)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    for arg in sys.argv[1:] if argv is None else argv:
        if arg.split("=", 1)[0] == "--max-retries":
            from repro.experiments.spec import _REMOVED_SPEC_KEYS

            parser.error(
                "option --max-retries is no longer supported: "
                + _REMOVED_SPEC_KEYS["max_retries"]
            )
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
