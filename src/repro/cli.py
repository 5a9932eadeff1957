"""Command-line interface: run demos and campaigns from a shell.

Usage::

    python -m repro demo [--containers N] [--gpus N] [--seed S]
    python -m repro campaign [--seed S]
    python -m repro stats
    python -m repro report [--faults N]
    python -m repro status [--faults N]
    python -m repro trace [--faults N] [--out FILE] [--explain]
    python -m repro export-metrics [--faults N]
    python -m repro verify [--issue NAME] [--lint | --flow [paths...]]
    python -m repro bench [--quick] [--out FILE]
    python -m repro chaos [--quick] [--out FILE]
    python -m repro gray [--quick] [--out FILE]
    python -m repro run [--shards N] [--backend inproc|mp] [--faults N]
    python -m repro shard-status [--shards N] [--kill SHARD]
    python -m repro bench-shard [--quick] [--out FILE]
    python -m repro fleet run [--jobs N] [--workers N]
    python -m repro fleet status [--jobs N] [--workers N] [--kill W]
    python -m repro fleet bench [--quick] [--out FILE]
    python -m repro record [--out FILE] [--seed S] [--issue NAME]
    python -m repro replay RECORDING [--no-verify]
    python -m repro tail [--shards N] [--plain]

``demo`` monitors one training task, applies skeleton inference, injects
an RNIC failure, and reports the diagnosis.  ``campaign`` sweeps every
catalogued issue — the 19 Table-1 types plus the gray-failure families.
``stats`` prints the production-statistics summaries behind the paper's
motivation figures.

The last four commands run a monitored scenario with observability
enabled and surface the run from the operator's side (§6 dashboards):
``report`` prints the incident timeline, ``status`` the run-wide
counters and pipeline timings, ``trace`` the JSONL event/span trace
(``--explain`` renders the evidence chain behind every diagnosis), and
``export-metrics`` the registry in Prometheus text format.

``verify`` runs the static fabric-verification passes (zero findings on
a healthy default cluster; injected inconsistencies are named by
component) or, with ``--lint``, the determinism lint over the source.
With ``--flow`` it runs the interprocedural determinism analyzer
instead: a call-graph taint analysis proving nondeterminism (wall
clock, unseeded RNG, process identity, unordered iteration) never
reaches monitor-plane state and that every stochastic value in
``network``/``chaos``/``workloads`` derives from the keyed-draw API.

``bench`` measures the probing fast path (batched vs sequential rounds)
and the columnar detector's window throughput, verifies batched probing
is bit-identical to sequential, and fails if batching is ever slower or
the detector's LOF scores drift beyond 1e-10 from the full-rebuild
reference.  ``--quick`` is the CI smoke configuration.

``chaos`` runs the monitor-plane degradation gate: the fault campaign
twice — perfect monitor vs standard chaos weather (telemetry + report
loss, one agent crash) — and fails unless detection recall and the
localization rate stay within the committed bounds
(``BENCH_chaos.json``).

``gray`` runs the gray-failure degradation gate: each gray family (PFC
storm, congestion collapse, partial link degradation) is injected under
spraying ECMP and scored against the clean static-ECMP baseline, and
run through the shard plane; distribution-aware tomography voting is
compared with naive voting and the Flock-style probabilistic baseline
is scored side by side (``BENCH_gray.json``).

The last three commands drive the sharded monitoring plane
(:mod:`repro.shard`): ``run`` executes a faulted scenario across N
shard workers and prints the merged events, verdicts, and per-shard
summary; ``shard-status`` runs a short plane (optionally killing a
shard mid-run) and renders the coordinator's heartbeat/failover view;
``bench-shard`` runs the shard-equivalence gate plus the scaling sweep
behind ``BENCH_shard.json``.

``fleet`` drives the multi-tenant plane (:mod:`repro.fleet`): ``fleet
run`` executes many concurrent churning jobs on one shared fabric
under a global probe budget and prints the merged per-tenant
diagnosis and coverage; ``fleet status`` renders the coordinator's
placement, worker failover, and budget view; ``fleet bench`` runs the
fleet-equivalence gate plus the jobs x endpoints scaling sweep behind
``BENCH_fleet.json``.

The last three commands drive the telemetry bus (:mod:`repro.bus`):
``record`` runs the standard chaos campaign leg and persists every bus
topic to a versioned JSONL recording; ``replay`` reconstructs
detection + localization from a recording without re-simulating the
fabric and (by default) fails on any verdict or event drift; ``tail``
runs a live scenario with a terminal dashboard of rounds, verdicts,
breaker states, quarantine events, and — with ``--shards`` — shard
health.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from repro.network.issues import (
    IssueType,
    all_issue_types,
    lookup_issue,
    spec_of,
)
from repro.workloads.production import ProductionStatistics
from repro.workloads.scenarios import build_scenario, standard_fault_target

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SkeletonHunter reproduction: monitor simulated "
        "containerized training clusters and diagnose network failures.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    demo = commands.add_parser(
        "demo", help="monitor a task, inject a fault, print the diagnosis"
    )
    demo.add_argument("--containers", type=int, default=8)
    demo.add_argument("--gpus", type=int, default=8)
    demo.add_argument("--pp", type=int, default=2)
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument(
        "--issue", default="RNIC_PORT_DOWN",
        choices=[i.name for i in all_issue_types()],
    )

    campaign = commands.add_parser(
        "campaign", help="inject every catalogued issue type "
        "(Table 1 + gray families) and score"
    )
    campaign.add_argument("--seed", type=int, default=0)

    commands.add_parser(
        "stats", help="print the production-statistics summaries"
    )

    def add_scenario_args(command) -> None:
        command.add_argument("--containers", type=int, default=4)
        command.add_argument("--gpus", type=int, default=4)
        command.add_argument("--seed", type=int, default=0)
        command.add_argument(
            "--faults", type=int, default=2,
            help="number of faults to inject during the run",
        )

    report = commands.add_parser(
        "report", help="run a monitored scenario and print the "
        "operator incident report"
    )
    add_scenario_args(report)

    status = commands.add_parser(
        "status", help="run a monitored scenario and print run-wide "
        "counters, open incidents, and pipeline timings"
    )
    add_scenario_args(status)

    trace = commands.add_parser(
        "trace", help="run a monitored scenario and dump the JSONL "
        "trace (events + spans)"
    )
    add_scenario_args(trace)
    trace.add_argument(
        "--out", default=None,
        help="write the JSONL trace to this file instead of stdout",
    )
    trace.add_argument(
        "--explain", action="store_true",
        help="render the evidence chain behind every diagnosis "
        "instead of the raw trace",
    )

    export = commands.add_parser(
        "export-metrics", help="run a monitored scenario and print its "
        "metrics in Prometheus text format"
    )
    add_scenario_args(export)

    verify = commands.add_parser(
        "verify", help="statically verify a constructed fabric "
        "(or run the determinism lint with --lint)"
    )
    from repro.verify.cli import add_verify_arguments

    add_verify_arguments(verify)

    bench = commands.add_parser(
        "bench", help="measure the probing fast path (batched vs "
        "sequential) and detector window cost"
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="small sizes and single rounds (the CI smoke mode)",
    )
    bench.add_argument(
        "--out", default="BENCH_probing.json",
        help="write the JSON report here (default: BENCH_probing.json)",
    )
    bench.add_argument("--seed", type=int, default=0)

    chaos = commands.add_parser(
        "chaos", help="run the monitor-plane degradation gate "
        "(clean vs chaotic monitoring, bounded accuracy loss)"
    )
    chaos.add_argument(
        "--quick", action="store_true",
        help="one issue per layer instead of the full Table-1 sweep "
        "(the CI smoke mode)",
    )
    chaos.add_argument(
        "--out", default="BENCH_chaos.json",
        help="write the JSON report here (default: BENCH_chaos.json)",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--telemetry-loss", type=float, default=0.10,
        help="telemetry and probe-report loss rate (default 0.10)",
    )

    gray = commands.add_parser(
        "gray", help="run the gray-failure degradation gate "
        "(clean static-ECMP vs gray faults under spraying ECMP)"
    )
    gray.add_argument(
        "--quick", action="store_true",
        help="one seed and the reduced family sweep (the CI smoke "
        "mode)",
    )
    gray.add_argument(
        "--out", default="BENCH_gray.json",
        help="write the JSON report here (default: BENCH_gray.json)",
    )
    gray.add_argument("--seed", type=int, default=0)

    def add_shard_args(command) -> None:
        command.add_argument(
            "--shards", type=int, default=4,
            help="number of shard workers (default 4)",
        )
        command.add_argument(
            "--backend", default="inproc", choices=["inproc", "mp"],
            help="run shards in-process or as forked worker processes",
        )
        command.add_argument("--containers", type=int, default=16)
        command.add_argument("--gpus", type=int, default=4)
        command.add_argument("--rounds", type=int, default=30)
        command.add_argument("--seed", type=int, default=0)
        command.add_argument(
            "--chunk-rounds", type=int, default=5,
            help="probe rounds per dispatch/heartbeat chunk",
        )

    run_cmd = commands.add_parser(
        "run", help="run a faulted scenario on the sharded monitoring "
        "plane and print the merged diagnosis"
    )
    add_shard_args(run_cmd)
    run_cmd.add_argument(
        "--faults", type=int, default=3,
        help="how many standard schedule faults to inject (0-3)",
    )

    shard_status = commands.add_parser(
        "shard-status", help="run a short sharded plane (with an "
        "optional scripted shard kill) and render the coordinator's "
        "heartbeat and failover view"
    )
    add_shard_args(shard_status)
    shard_status.add_argument(
        "--kill", type=int, default=None, metavar="SHARD",
        help="kill this shard at the start of the second chunk "
        "(default: shard 1 when running multiple shards; -1 disables)",
    )

    bench_shard = commands.add_parser(
        "bench-shard", help="run the shard-equivalence gate and the "
        "shard-scaling benchmark"
    )
    bench_shard.add_argument(
        "--quick", action="store_true",
        help="small sizes (the CI smoke mode; no speedup gate)",
    )
    bench_shard.add_argument(
        "--out", default="BENCH_shard.json",
        help="write the JSON report here (default: BENCH_shard.json)",
    )
    bench_shard.add_argument("--seed", type=int, default=0)

    fleet = commands.add_parser(
        "fleet", help="drive the multi-tenant fleet plane: many "
        "concurrent jobs on one shared fabric under a global probe "
        "budget"
    )
    fleet_commands = fleet.add_subparsers(
        dest="fleet_command", required=True
    )

    def add_fleet_args(command) -> None:
        command.add_argument(
            "--jobs", type=int, default=4,
            help="number of concurrent tenant jobs (default 4)",
        )
        command.add_argument(
            "--workers", type=int, default=2,
            help="number of fleet workers tenants are sharded over",
        )
        command.add_argument("--containers", type=int, default=8)
        command.add_argument("--gpus", type=int, default=4)
        command.add_argument("--rounds", type=int, default=8)
        command.add_argument("--seed", type=int, default=0)

    fleet_run = fleet_commands.add_parser(
        "run", help="run a churning multi-tenant fleet and print the "
        "merged per-tenant diagnosis and coverage"
    )
    add_fleet_args(fleet_run)

    fleet_status = fleet_commands.add_parser(
        "status", help="run a short fleet (with an optional scripted "
        "worker kill) and render the coordinator's placement, "
        "failover, and budget view"
    )
    add_fleet_args(fleet_status)
    fleet_status.add_argument(
        "--kill", type=int, default=None, metavar="WORKER",
        help="kill this worker at the start of the second chunk "
        "(default: worker 0 when running multiple workers; "
        "-1 disables)",
    )

    fleet_bench = fleet_commands.add_parser(
        "bench", help="run the fleet-equivalence gate and the "
        "jobs x endpoints scaling sweep behind BENCH_fleet.json"
    )
    fleet_bench.add_argument(
        "--quick", action="store_true",
        help="small fabric and job grid (the CI smoke mode; "
        "no speedup gate)",
    )
    fleet_bench.add_argument(
        "--out", default="BENCH_fleet.json",
        help="write the JSON report here (default: BENCH_fleet.json)",
    )
    fleet_bench.add_argument("--seed", type=int, default=0)

    def add_record_args(command) -> None:
        command.add_argument("--seed", type=int, default=0)
        command.add_argument(
            "--issue", default="RNIC_PORT_DOWN",
            choices=[i.name for i in all_issue_types()],
        )
        command.add_argument(
            "--telemetry-loss", type=float, default=0.10,
            help="monitor-plane loss rate (default 0.10; the PR-5 "
            "standard chaos schedule)",
        )
        command.add_argument("--containers", type=int, default=4)
        command.add_argument("--gpus", type=int, default=4)
        command.add_argument(
            "--warm-s", type=float, default=200.0,
            help="fault-free warm-up before skeleton inference",
        )
        command.add_argument(
            "--fault-s", type=float, default=120.0,
            help="how long the injected fault stays active",
        )
        command.add_argument(
            "--cool-s", type=float, default=40.0,
            help="post-clear cool-down",
        )

    record = commands.add_parser(
        "record", help="run the standard chaos campaign leg and "
        "persist every bus topic to a JSONL recording"
    )
    record.add_argument(
        "--out", default="recording.jsonl",
        help="recording path (default: recording.jsonl)",
    )
    add_record_args(record)

    replay = commands.add_parser(
        "replay", help="reconstruct detection + localization from a "
        "recording and check it against the recorded verdicts"
    )
    replay.add_argument("recording", help="JSONL recording to replay")
    replay.add_argument(
        "--no-verify", action="store_true",
        help="report the replay without failing on drift",
    )

    tail = commands.add_parser(
        "tail", help="run a live scenario with a terminal dashboard "
        "of verdicts, breakers, quarantines, and shard health"
    )
    add_record_args(tail)
    tail.add_argument(
        "--shards", type=int, default=0,
        help="run the sharded plane with this many workers instead "
        "of the single-process hunter (default 0: single-process)",
    )
    tail.add_argument(
        "--rounds", type=int, default=30,
        help="total probe rounds in --shards/--fleet mode "
        "(default 30)",
    )
    tail.add_argument(
        "--fleet", type=int, default=0, metavar="JOBS",
        help="run the multi-tenant fleet plane with this many jobs "
        "instead of the single-process hunter (default 0: off)",
    )
    tail.add_argument(
        "--workers", type=int, default=2,
        help="fleet workers in --fleet mode (default 2)",
    )
    tail.add_argument(
        "--plain", action="store_true",
        help="append frames as plain text instead of repainting "
        "in place (automatic when stdout is not a TTY)",
    )
    return parser


# The shared target resolution lives with the scenario builder so the
# chaos degradation gate injects exactly what the CLI campaigns inject.
_target_for = standard_fault_target


def _run_demo(args: argparse.Namespace) -> int:
    issue = lookup_issue(args.issue)
    scenario = build_scenario(
        num_containers=args.containers, gpus_per_container=args.gpus,
        pp=args.pp, seed=args.seed,
    )
    print(f"monitoring {scenario.task.id}: "
          f"{scenario.workload.config.describe()}")
    scenario.run_for(200)
    skeleton = scenario.apply_skeleton()
    print(f"skeleton: DP={skeleton.dp}, stages={skeleton.num_stages}, "
          f"{len(skeleton.edges)} probe pairs")
    fault = scenario.inject(issue, _target_for(scenario, issue))
    print(f"injected {issue.name} "
          f"({spec_of(issue).symptom.value})")
    scenario.run_for(120)
    scenario.clear(fault)
    scenario.run_for(40)
    score, outcomes = scenario.score()
    outcome = outcomes[0]
    print(f"detected: {outcome.detected} "
          f"(delay {outcome.detection_delay_s}s)")
    print(f"localized: {outcome.localized} "
          f"-> {outcome.localized_component}")
    print(f"precision={score.precision:.3f} recall={score.recall:.3f}")
    return 0 if outcome.detected and outcome.localized else 1


def _run_campaign(args: argparse.Namespace) -> int:
    detected = localized = 0
    issues = all_issue_types()
    for issue in issues:
        scenario = build_scenario(
            num_containers=4, gpus_per_container=4, pp=2,
            seed=args.seed * 100 + issue.value, hosts_per_segment=4,
        )
        scenario.run_for(200)
        fault = scenario.inject(issue, _target_for(scenario, issue))
        scenario.run_for(120)
        scenario.clear(fault)
        scenario.run_for(40)
        _, outcomes = scenario.score()
        outcome = outcomes[0]
        detected += outcome.detected
        localized += outcome.localized
        status = "ok" if outcome.localized else (
            "DETECTED-ONLY" if outcome.detected else "MISSED"
        )
        print(f"{issue.value:>3} {issue.name.lower():<30} {status}")
    total = len(issues)
    print(f"\ndetected {detected}/{total}, localized {localized}/{total}")
    return 0 if detected == total else 1


def _run_stats(_: argparse.Namespace) -> int:
    stats = ProductionStatistics(seed=0)
    summary = stats.lifetime_summary()
    print("container lifetimes (Figure 2):")
    print(f"  small tasks under 60 min: "
          f"{summary['small_tasks_under_60min']:.1%}")
    print(f"  all containers under 100 min: "
          f"{summary['all_under_100min']:.1%}")
    allocations = stats.rnic_allocations()
    print("RNIC allocation (Figure 5):")
    for count in (8, 4, 2, 1):
        print(f"  {count} RNICs: "
              f"{float(np.mean(allocations == count)):.1%}")
    items = stats.flow_table_items()
    print(f"flow tables (Figure 6): mean {items.mean():.0f}, "
          f"max {items.max()}")
    sizes = stats.job_gpu_counts()
    print(f"job sizes (Figure 12): all multiples of 8; "
          f"128/512/1024 hold "
          f"{float(np.mean(np.isin(sizes, [128, 512, 1024]))):.1%}")
    return 0


def _observed_run(args: argparse.Namespace):
    """Build, fault, and run the scenario the operator commands share."""
    scenario = build_scenario(
        num_containers=args.containers, gpus_per_container=args.gpus,
        pp=2, seed=args.seed, observe=True,
    )
    scenario.run_for(200)
    issues = [IssueType.RNIC_PORT_DOWN,
              IssueType.HUGEPAGE_MISCONFIGURATION,
              IssueType.OFFLOADING_FAILURE,
              IssueType.CONTAINER_CRASH]
    for index in range(max(0, args.faults)):
        issue = issues[index % len(issues)]
        fault = scenario.inject(issue, _target_for(scenario, issue))
        scenario.run_for(80)
        scenario.clear(fault)
        scenario.run_for(140)
    return scenario


def _run_report(args: argparse.Namespace) -> int:
    from repro.core.reporting import build_report, render_report

    scenario = _observed_run(args)
    print(render_report(build_report(scenario.hunter)))
    return 0


def _run_status(args: argparse.Namespace) -> int:
    scenario = _observed_run(args)
    obs = scenario.observability
    hunter = scenario.hunter
    print(f"status @ {scenario.engine.now:.0f}s simulated")
    print("counters:")
    for name, value in sorted(obs.metrics.counters().items()):
        print(f"  {name:<24} {value:.0f}")
    print(f"monitored pairs: {len(hunter.monitored_pairs())}")
    open_events = hunter.analyzer.open_events()
    print(f"open incidents: {len(open_events)}")
    for event in open_events:
        print(f"  {event.pair.src}<->{event.pair.dst} "
              f"({event.symptom.value} since "
              f"{event.first_detected_at:.0f}s)")
    print("pipeline timings (wall clock):")
    for name in ("probe_round", "analyzer.flush", "localize.run"):
        spans = [s for s in obs.spans(name) if s.closed]
        if not spans:
            continue
        total_ms = sum(s.wall_duration_s for s in spans) * 1e3
        print(f"  {name:<16} {len(spans):>5} spans, "
              f"total {total_ms:.1f} ms, "
              f"mean {total_ms / len(spans):.3f} ms")
    return 0


def _run_trace(args: argparse.Namespace) -> int:
    from repro.obs.explain import explain_report
    from repro.obs.export import to_jsonl, write_jsonl

    scenario = _observed_run(args)
    obs = scenario.observability
    if args.explain:
        reports = scenario.hunter.reports
        if not reports:
            print("no localization reports: nothing to explain")
            return 0
        for when, report in reports:
            print(f"=== localization @ {when:.0f}s ===")
            print(explain_report(report, obs))
        return 0
    if args.out:
        try:
            rows = write_jsonl(obs, args.out)
        except OSError as error:
            print(f"cannot write trace to {args.out}: {error}",
                  file=sys.stderr)
            return 1
        print(f"wrote {rows} trace rows to {args.out}")
        return 0
    print(to_jsonl(obs))
    return 0


def _run_export_metrics(args: argparse.Namespace) -> int:
    from repro.obs.export import to_prometheus

    scenario = _observed_run(args)
    print(to_prometheus(scenario.observability), end="")
    return 0


def _run_bench(args: argparse.Namespace) -> int:
    from repro.perf import format_report, run_benchmark

    try:
        report = run_benchmark(
            quick=args.quick, seed=args.seed, out=args.out
        )
    except AssertionError as error:
        print(f"fast-path equivalence check failed: {error}",
              file=sys.stderr)
        return 1
    print(format_report(report))
    print(f"wrote {args.out}")
    slow = [
        row for row in report["probing"] if row["speedup"] < 1.0
    ]
    if slow:
        sizes = ", ".join(str(row["endpoints"]) for row in slow)
        print(f"REGRESSION: batched rounds slower than sequential at "
              f"{sizes} endpoints", file=sys.stderr)
        return 1
    drifted = [
        row for row in report["detector"]
        if row["score_drift"] > 1e-10
    ]
    if drifted:
        print("REGRESSION: columnar detector scores drifted beyond "
              "1e-10 from the full-rebuild LOF reference",
              file=sys.stderr)
        return 1
    return 0


def _run_chaos(args: argparse.Namespace) -> int:
    from repro.chaos.gate import format_report, run_chaos_benchmark

    report = run_chaos_benchmark(
        quick=args.quick, seed=args.seed, out=args.out,
        telemetry_loss=args.telemetry_loss,
    )
    print(format_report(report))
    print(f"wrote {args.out}")
    return 0 if report["summary"]["passed"] else 1


def _run_gray(args: argparse.Namespace) -> int:
    from repro.chaos.gray import format_report, run_gray_benchmark

    try:
        report = run_gray_benchmark(
            quick=args.quick, seed=args.seed, out=args.out
        )
    except AssertionError as error:
        print(f"gray equivalence gate failed: {error}",
              file=sys.stderr)
        return 1
    print(format_report(report))
    print(f"wrote {args.out}")
    return 0 if report["summary"]["passed"] else 1


def _shard_spec(args: argparse.Namespace, num_faults: int):
    """A :class:`ShardScenarioSpec` for the CLI's size/seed arguments,
    carrying up to three faults from the standard schedule (an RNIC
    port failure, a switch access-link failure, a container crash)."""
    from repro.cluster.identifiers import LinkId
    from repro.shard import FaultSpec, ShardScenarioSpec, build_replica

    base = ShardScenarioSpec(
        num_containers=args.containers,
        gpus_per_container=args.gpus,
        seed=args.seed,
        total_rounds=args.rounds,
    )
    if num_faults <= 0:
        return base
    probe = build_replica(base)
    endpoints = args.containers * args.gpus
    horizon = max(args.rounds, 1)

    def at(fraction: float) -> int:
        return max(1, round(horizon * fraction))

    rnic = probe.rnic_of_rank(3 % endpoints)
    other = probe.rnic_of_rank(8 % endpoints)
    victim = sorted(probe.task.containers)[5 % args.containers]
    schedule = (
        FaultSpec(
            issue=IssueType.RNIC_PORT_DOWN.name, target=rnic,
            start_round=at(0.13), end_round=at(0.6),
        ),
        FaultSpec(
            issue=IssueType.SWITCH_PORT_DOWN.name,
            target=LinkId.between(other, probe.topology.tor_of(other)),
            start_round=at(0.26),
        ),
        FaultSpec(
            issue=IssueType.CONTAINER_CRASH.name, target=victim,
            start_round=at(0.36), end_round=at(0.73),
        ),
    )
    return ShardScenarioSpec(
        num_containers=args.containers,
        gpus_per_container=args.gpus,
        seed=args.seed,
        total_rounds=args.rounds,
        faults=schedule[:num_faults],
    )


def _render_shard_table(result) -> List[str]:
    """The per-shard status rows shared by ``run`` and
    ``shard-status``."""
    lines = [
        f"  {'shard':>5} {'token':>8} {'pairs':>6} {'agents':>6} "
        f"{'chunks':>6} {'round':>5} {'heartbeat':>10} "
        f"{'adopted':>7} state"
    ]
    for shard_id in sorted(result.statuses):
        status = result.statuses[shard_id]
        lines.append(
            f"  {status.shard_id:>5} {status.token:>8} "
            f"{status.pair_count:>6} {status.agent_count:>6} "
            f"{status.chunks_completed:>6} {status.last_round:>5} "
            f"{status.last_sim_time:>9.1f}s {status.adopted_pairs:>7} "
            f"{'alive' if status.alive else 'dead'}"
        )
    return lines


def _run_sharded(args: argparse.Namespace) -> int:
    from repro.shard import run_plane

    spec = _shard_spec(args, args.faults)
    result = run_plane(
        spec, args.shards, backend=args.backend,
        chunk_rounds=args.chunk_rounds,
    )
    counters = result.metrics.counters()
    print(
        f"sharded plane: {args.shards} shard(s) on '{args.backend}', "
        f"{len(spec.faults)} fault(s), {args.rounds} rounds over "
        f"{sum(result.plan.pair_counts())} pairs"
    )
    print(f"events opened: {len(result.events)}")
    for record in result.events:
        print(
            f"  {record.src}<->{record.dst} {record.symptom.lower()} "
            f"@ {record.first_detected_at:.0f}s"
        )
    print(f"localization verdicts: {len(result.verdicts)}")
    for when, report in result.verdicts:
        for diagnosis in report.diagnoses:
            print(
                f"  @ {when:.0f}s {diagnosis.component} "
                f"({diagnosis.component_class.value}, "
                f"{diagnosis.layer}) "
                f"confidence={diagnosis.confidence:.2f}"
            )
        if report.unexplained:
            print(f"  @ {when:.0f}s unexplained events: "
                  f"{len(report.unexplained)}")
    print("shards:")
    for line in _render_shard_table(result):
        print(line)
    print(f"probes: {counters.get('probes.sent', 0):.0f} sent, "
          f"{counters.get('probes.lost', 0):.0f} lost")
    return 0


def _run_shard_status(args: argparse.Namespace) -> int:
    from repro.shard import run_plane

    kill = args.kill
    if kill is None:
        kill = 1 if args.shards > 1 else -1
    kill_schedule = {kill: 2} if 0 <= kill < args.shards else None
    spec = _shard_spec(args, 2)
    result = run_plane(
        spec, args.shards, backend=args.backend,
        chunk_rounds=args.chunk_rounds,
        kill_schedule=kill_schedule,
    )
    print(
        f"shard plane after {args.rounds} rounds "
        f"({args.shards} shard(s), backend '{args.backend}', "
        f"seed {args.seed})"
    )
    for line in _render_shard_table(result):
        print(line)
    print(f"reassignments: {len(result.reassignments)}")
    for move in result.reassignments:
        print(
            f"  chunk {move.chunk} (round {move.round_index}): "
            f"shard {move.from_shard} -> shard {move.to_shard}, "
            f"{move.pair_count} pairs"
        )
    print("plane counters:")
    counters = result.metrics.counters()
    for name in ("shard.heartbeats", "shard.deaths",
                 "shard.reassignments", "events.opened",
                 "diagnoses.made"):
        print(f"  {name:<20} {counters.get(name, 0):.0f}")
    votes = result.vote_table.as_dict()
    for group in ("hard", "soft"):
        top = sorted(
            votes[group].items(), key=lambda kv: (-kv[1], kv[0])
        )[:5]
        if top:
            rendered = ", ".join(
                f"{link}={count}" for link, count in top
            )
            print(f"top {group} link votes: {rendered}")
    return 0


def _run_bench_shard(args: argparse.Namespace) -> int:
    from repro.shard.bench import format_report, run_shard_benchmark

    try:
        report = run_shard_benchmark(
            quick=args.quick, seed=args.seed, out=args.out
        )
    except AssertionError as error:
        print(f"shard equivalence gate failed: {error}",
              file=sys.stderr)
        return 1
    print(format_report(report))
    print(f"wrote {args.out}")
    if not args.quick:
        slow = [
            row for row in report["scaling"]
            if row["shards"] == 4 and row["backend"] == "inproc"
            and row["speedup"] < 2.0
        ]
        if slow:
            print(
                "REGRESSION: 4-shard probe rounds are less than 2x "
                "the single-shard throughput", file=sys.stderr,
            )
            return 1
    return 0


def _fleet_spec(args: argparse.Namespace):
    """A churning multi-tenant spec for the CLI's size arguments, on
    the smoke fabric."""
    from repro.fleet.bench import QUICK_FABRIC, fleet_bench_spec

    return fleet_bench_spec(
        args.jobs, QUICK_FABRIC,
        containers_per_job=args.containers,
        gpus_per_container=args.gpus,
        total_rounds=args.rounds,
        seed=args.seed,
    )


def _render_fleet_coverage(spec, result) -> List[str]:
    lines = [
        f"  {'tenant':<10} {'floor':>6} {'min round':>10} "
        f"{'cumulative':>11}"
    ]
    for name, min_cov, cumulative in result.coverage_summary:
        floor = spec.tenant(name).coverage_floor
        flag = "" if min_cov + 1e-9 >= floor else "  BELOW FLOOR"
        lines.append(
            f"  {name:<10} {floor:>6.2f} {min_cov:>10.3f} "
            f"{cumulative:>11.3f}{flag}"
        )
    return lines


def _run_fleet_run(args: argparse.Namespace) -> int:
    from repro.fleet.equivalence import run_fleet

    spec = _fleet_spec(args)
    result = run_fleet(spec, num_workers=args.workers)
    peak = max((len(r.admitted) for r in result.rollups), default=0)
    print(
        f"fleet: {len(spec.tenants)} job(s) over {args.workers} "
        f"worker(s) on {spec.num_hosts} hosts "
        f"({spec.endpoint_capacity} endpoint capacity), "
        f"{spec.total_rounds} rounds, "
        f"budget {spec.probe_budget_per_round} probes/round"
    )
    print(f"peak concurrent tenants: {peak}; "
          f"probes: {result.probes_sent} sent, "
          f"{result.probes_lost} lost")
    if result.rejections:
        print("rejected at admission:")
        for name, reason in result.rejections:
            print(f"  {name}: {reason}")
    print(f"events opened: {len(result.event_summary)}")
    for tenant, src, dst, at, symptom in result.event_summary:
        print(f"  [{tenant}] {src}<->{dst} {symptom.lower()} "
              f"@ {at:.0f}s")
    print(f"localization verdicts: {len(result.verdict_summary)}")
    for tenant, when, diagnoses, unexplained in result.verdict_summary:
        for component, klass, layer, confidence in diagnoses:
            print(f"  [{tenant}] @ {when:.0f}s {component} "
                  f"({klass}, {layer}) confidence={confidence:.2f}")
        if unexplained:
            print(f"  [{tenant}] @ {when:.0f}s unexplained events: "
                  f"{unexplained}")
    if result.blacklist_summary:
        print("blacklisted components:")
        for tenant, component in result.blacklist_summary:
            print(f"  [{tenant}] {component}")
    print("per-tenant skeleton coverage:")
    for line in _render_fleet_coverage(spec, result):
        print(line)
    return 0


def _run_fleet_status(args: argparse.Namespace) -> int:
    from repro.fleet.coordinator import FleetCoordinator

    kill = args.kill
    if kill is None:
        kill = 0 if args.workers > 1 else -1
    kill_schedule = (
        {1: kill} if 0 <= kill < args.workers else None
    )
    spec = _fleet_spec(args)
    coordinator = FleetCoordinator(
        spec, num_workers=args.workers, kill_schedule=kill_schedule,
    )
    result = coordinator.run()
    print(
        f"fleet plane after {spec.total_rounds} rounds "
        f"({len(spec.tenants)} job(s), {args.workers} worker(s), "
        f"seed {args.seed})"
    )
    print(f"  {'worker':>6} {'tenants':>7} {'chunks':>6} "
          f"{'round':>5} {'adopted':>7} state")
    for worker_id in sorted(coordinator.statuses):
        status = coordinator.statuses[worker_id]
        print(
            f"  {status.worker_id:>6} {len(status.tenants):>7} "
            f"{status.chunks_completed:>6} "
            f"{status.rounds_completed:>5} "
            f"{status.adopted_tenants:>7} "
            f"{'alive' if status.alive else 'dead'}"
        )
    print(f"reassignments: {len(result.reassignments)}")
    for move in result.reassignments:
        print(
            f"  chunk {move.chunk} (after round {move.round_index}): "
            f"worker {move.from_worker} -> worker {move.to_worker}, "
            f"{len(move.tenants)} tenant(s): "
            f"{', '.join(move.tenants)}"
        )
    if result.rollups:
        last = result.rollups[-1]
        print(
            f"budget @ round {last.round_index}: "
            f"{last.granted}/{last.budget} probes granted "
            f"({last.utilization:.0%} utilization), "
            f"{len(last.admitted)} tenant(s) admitted"
        )
    print("per-tenant skeleton coverage:")
    for line in _render_fleet_coverage(spec, result):
        print(line)
    return 0


def _run_fleet_bench(args: argparse.Namespace) -> int:
    from repro.fleet.bench import format_report, run_fleet_benchmark

    try:
        report = run_fleet_benchmark(
            quick=args.quick, seed=args.seed, out=args.out
        )
    except AssertionError as error:
        print(f"fleet equivalence gate failed: {error}",
              file=sys.stderr)
        return 1
    print(format_report(report))
    print(f"wrote {args.out}")
    below = [
        row for row in report["coverage"] if not row["floor_ok"]
    ]
    if below:
        names = ", ".join(str(row["tenant"]) for row in below)
        print(f"REGRESSION: coverage floor violated for {names}",
              file=sys.stderr)
        return 1
    if not args.quick:
        slow = [
            row for row in report["scaling"]
            if row["jobs"] == 16 and row["workers"] == 8
            and row["speedup"] < 2.0
        ]
        if slow:
            print(
                "REGRESSION: 8-worker fleet rounds are less than 2x "
                "the single-worker critical path", file=sys.stderr,
            )
            return 1
    return 0


def _run_fleet(args: argparse.Namespace) -> int:
    if args.fleet_command == "run":
        return _run_fleet_run(args)
    if args.fleet_command == "status":
        return _run_fleet_status(args)
    return _run_fleet_bench(args)


def _record_config(args: argparse.Namespace) -> dict:
    """The :func:`standard_run_config` overrides shared by ``record``
    and single-process ``tail``."""
    return dict(
        seed=args.seed,
        issue=args.issue,
        telemetry_loss=args.telemetry_loss,
        num_containers=args.containers,
        gpus_per_container=args.gpus,
        warm_s=args.warm_s,
        fault_s=args.fault_s,
        cool_s=args.cool_s,
    )


def _run_record(args: argparse.Namespace) -> int:
    from repro.bus.replay import record_standard_run

    try:
        summary = record_standard_run(args.out, **_record_config(args))
    except OSError as error:
        print(f"cannot write recording to {args.out}: {error}",
              file=sys.stderr)
        return 1
    print(f"recorded {summary['records']} records to {summary['path']}")
    print(f"  verdicts: {summary['verdicts']}  "
          f"events: {summary['events']}  "
          f"breaker transitions: {summary['breaker_transitions']}")
    print(f"  config fingerprint: {summary['fingerprint']}")
    return 0


def _run_replay(args: argparse.Namespace) -> int:
    from repro.bus.recorder import RecordingError, load_recording
    from repro.bus.replay import Replayer

    try:
        recording = load_recording(args.recording)
        replayer = Replayer(recording)
    except (OSError, RecordingError) as error:
        print(f"cannot replay {args.recording}: {error}",
              file=sys.stderr)
        return 1
    result = replayer.replay()
    print(f"replayed {args.recording}: schema {recording.schema}, "
          f"seed {recording.seed}, {len(recording.records)} records")
    print(f"  {result.rounds} rounds, {result.probes_ingested} probes, "
          f"{result.faults_applied} fault(s) re-applied, "
          f"{len(result.breaker_transitions)} breaker transition(s)")
    print(f"  verdicts: {len(result.recorded_verdicts)} recorded / "
          f"{len(result.replayed_verdicts)} replayed;  "
          f"events: {len(result.recorded_events)} recorded / "
          f"{len(result.replayed_events)} replayed")
    problems = result.divergences()
    if problems:
        for problem in problems[:5]:
            print(problem, file=sys.stderr)
        print(f"replay diverged: {len(problems)} difference(s)",
              file=sys.stderr)
        return 0 if args.no_verify else 1
    if not result.recorded_verdicts and not args.no_verify:
        print("recording contains no verdicts to compare — the gate "
              "would pass vacuously", file=sys.stderr)
        return 1
    print("replay is bit-exact: every verdict and event matches")
    return 0


def _run_tail(args: argparse.Namespace) -> int:
    from repro.bus.core import TelemetryBus
    from repro.bus.tail import TailDashboard

    bus = TelemetryBus()
    ansi = False if args.plain else None
    with TailDashboard(bus, ansi=ansi) as dashboard:
        if args.fleet > 0:
            from repro.fleet.bench import QUICK_FABRIC, fleet_bench_spec
            from repro.fleet.equivalence import run_fleet

            spec = fleet_bench_spec(
                args.fleet, QUICK_FABRIC,
                containers_per_job=args.containers,
                total_rounds=args.rounds, seed=args.seed,
            )
            run_fleet(spec, num_workers=args.workers, bus=bus)
        elif args.shards > 0:
            from repro.shard import run_plane

            spec = _shard_spec(args, 2)
            run_plane(spec, args.shards, bus=bus)
        else:
            from repro.bus.replay import (
                drive_standard_run,
                standard_run_config,
            )

            config = standard_run_config(**_record_config(args))
            drive_standard_run(bus, config)
        dashboard.render()  # the final frame, after the run settles
    print(f"run complete: {dashboard.frames_rendered} frames from "
          f"{bus.published} bus records")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "demo":
        return _run_demo(args)
    if args.command == "campaign":
        return _run_campaign(args)
    if args.command == "stats":
        return _run_stats(args)
    if args.command == "report":
        return _run_report(args)
    if args.command == "status":
        return _run_status(args)
    if args.command == "trace":
        return _run_trace(args)
    if args.command == "export-metrics":
        return _run_export_metrics(args)
    if args.command == "verify":
        from repro.verify.cli import run_flow, run_lint, run_verify

        if args.flow:
            return run_flow(args)
        return run_lint(args) if args.lint else run_verify(args)
    if args.command == "bench":
        return _run_bench(args)
    if args.command == "chaos":
        return _run_chaos(args)
    if args.command == "gray":
        return _run_gray(args)
    if args.command == "run":
        return _run_sharded(args)
    if args.command == "shard-status":
        return _run_shard_status(args)
    if args.command == "bench-shard":
        return _run_bench_shard(args)
    if args.command == "fleet":
        return _run_fleet(args)
    if args.command == "record":
        return _run_record(args)
    if args.command == "replay":
        return _run_replay(args)
    if args.command == "tail":
        return _run_tail(args)
    return 2  # unreachable: argparse enforces the choices


if __name__ == "__main__":
    sys.exit(main())
