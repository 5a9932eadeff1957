"""The four benchmark workloads, driven through ``repro``'s public API.

Each workload builds its inputs from the seed alone, sets up
``SETUP_REPEATS`` times (the median is ``setup_s``), then times a fixed,
seed-determined amount of work: the operation count is the workload's
calibrated rate times ``--seconds``, so two runs of one seed do the
same work and produce the same output digest.

* ``steady`` — one long-lived 16x8 job, warm rounds (ping-list
  selection dominates).
* ``campaign`` — every catalogue issue x {static, spray} ECMP x 2
  seeds, one short-lived 4x4 job per case (cold caches, skeleton,
  inject/clear, localization); also the accuracy guard.
* ``fleet_churn`` — 16 tenants on a 2048-endpoint fabric with churn,
  a crash and report loss (lifecycle writes keep the flow cache cold).
* ``shard_faults`` — a 512-endpoint job on 2 shards with overlapping
  faults (process boundaries, result transfer, merge).

A traced run passes a :class:`~tracing.LayerTracer`; it is installed
for the timed phase only and every operation runs under its root span.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from tracing import CALIBRATION_SPAN

SETUP_REPEATS = 3
PROBE_INTERVAL_S = 2.0
#: A fresh job whose flow cache still misses after this many rounds
#: never warms up; the steady workload refuses to time it.
MAX_COLD_ROUNDS = 10

#: Operations per second of ``--seconds``, calibrated on a 2-CPU x86
#: host at the commit that introduced the benchmark: at the default 20
#: s a run times 100 steady rounds, all 88 campaign cases, 100 fleet
#: rounds and 80 shard rounds.
STEADY_ROUNDS_PER_S = 5.0
CAMPAIGN_CASES_PER_S = 4.4
FLEET_ROUNDS_PER_S = 5.0
SHARD_ROUNDS_PER_S = 4.0

#: Campaign issues the pipeline detects but never localizes, at every
#: seed swept so far (a documented limitation, not a failed case).
KNOWN_MISSES = frozenset({
    "RNIC_FIRMWARE_NOT_RESPONDING",
    "SUBOPTIMAL_FLOW_OFFLOADING",
})


@dataclass
class Outcome:
    """What one workload run measured and produced."""

    #: Wall time of each set-up and of each timed operation, and the
    #: host-clock sample taken just before each.
    setup_s: List[float]
    setup_marks: List[int]
    op_s: List[float]
    op_marks: List[int]
    #: Wall time of the whole timed phase, calibration samples excluded.
    run_s: float
    #: Probes sent during the timed phase.
    probes: int
    failed: int
    #: The workload's end-to-end metrics under their own names:
    #: name -> (value, unit).
    metrics: Dict[str, Tuple[float, str]]
    #: Named output checks; the run is correct only if all hold.
    checks: Dict[str, bool]
    digest: str
    clock: "HostClock"
    facts: Dict[str, object] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.op_s)

    @property
    def setup_ref_s(self) -> List[float]:
        """Set-up times at the reference host speed."""
        return [self.clock.at_reference(wall, mark)
                for wall, mark in zip(self.setup_s, self.setup_marks)]

    @property
    def op_ref_s(self) -> List[float]:
        """Operation times at the reference host speed."""
        return [self.clock.at_reference(wall, mark)
                for wall, mark in zip(self.op_s, self.op_marks)]

    @property
    def host_factor(self) -> float:
        """How much slower than the reference the host ran the ops."""
        return sum(self.op_s) / sum(self.op_ref_s)


def operations(seconds: float, rate: float, minimum: int) -> int:
    """The seed-independent operation count for a run of ``seconds``."""
    return max(minimum, int(round(rate * seconds)))


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (statistics' exclusive method)."""
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=100)[q - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(*parts) -> str:
    """A stable hash of the run's outputs (reprs of sorted rows)."""
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def event_rows(events) -> List[tuple]:
    """Comparable (src, dst, first detected, symptom) rows."""
    return sorted(
        (str(e.pair.src), str(e.pair.dst), e.first_detected_at,
         e.symptom.name)
        for e in events
    )


def verdict_rows(reports) -> List[tuple]:
    """Comparable (time, diagnoses, unexplained) rows."""
    return [
        (
            at,
            tuple(
                (d.component, d.component_class.value, d.layer,
                 round(d.confidence, 9))
                for d in report.diagnoses
            ),
            len(report.unexplained),
        )
        for at, report in reports
    ]


#: Median duration of one :func:`_calibration_kernel` call on the host
#: the baseline was measured on (2-vCPU x86_64 VM, Python 3.11).
REFERENCE_KERNEL_S = 0.0036


def _calibration_kernel() -> int:
    """Fixed pure-Python work shaped like the round loop: building,
    sorting and indexing tuples of strings."""
    data = [(f"ep-{(i * 7919) % 2003}", i) for i in range(3000)]
    data.sort()
    index = dict(data)
    return sum(index[key] for key, _ in data)


class HostClock:
    """How fast the (shared) host runs while the workload runs.

    The host's speed swings by up to 1.5x over seconds to minutes as
    other machines load it, and every wall time swings with it.  The
    clock times a fixed kernel between operations; an operation's wall
    time times :data:`REFERENCE_KERNEL_S` over the mean of the kernel
    times just before and just after it is its time at the reference
    host speed.  Sampling time is kept out of every measured wall time.
    """

    def __init__(self, tracer=None) -> None:
        self.samples: List[float] = []
        self.spent_s = 0.0
        self._tracer = tracer

    def sample(self) -> int:
        """Time the kernel now; returns the sample's index."""
        started = time.perf_counter()
        # Inside a traced operation the sample is its own span, so it
        # lands in neither a layer nor round.other_s.
        span = (self._tracer.span(CALIBRATION_SPAN)
                if self._tracer is not None else nullcontext())
        with span:
            gc.disable()  # collect the workload's garbage on its own time
            try:
                best = None
                for _ in range(2):
                    began = time.perf_counter()
                    _calibration_kernel()
                    took = time.perf_counter() - began
                    best = took if best is None else min(best, took)
            finally:
                gc.enable()
        self.samples.append(best)
        self.spent_s += time.perf_counter() - started
        return len(self.samples) - 1

    def at_reference(self, wall_s: float, mark: int) -> float:
        """``wall_s``, timed right after sample ``mark``, at the
        reference host speed."""
        before = self.samples[mark]
        after = self.samples[min(mark + 1, len(self.samples) - 1)]
        return wall_s * REFERENCE_KERNEL_S * 2.0 / (before + after)


def _timed_setup(
    build: Callable[[], object], clock: HostClock
) -> Tuple[object, List[float], List[int]]:
    """Run ``build`` ``SETUP_REPEATS`` times; keep the last result."""
    times: List[float] = []
    marks: List[int] = []
    built = None
    for _ in range(SETUP_REPEATS):
        built = None  # let the previous copy go before building again
        marks.append(clock.sample())
        started = time.perf_counter()
        built = build()
        times.append(time.perf_counter() - started)
    gc.collect()
    return built, times, marks


def _root(tracer):
    return tracer.root() if tracer is not None else nullcontext()


def _installed(tracer):
    return tracer.installed() if tracer is not None else nullcontext()


def _report_failure(what: str) -> None:
    print(f"perfbench: {what} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _cache_facts(hits: int, misses: int) -> Dict[str, object]:
    lookups = hits + misses
    return {
        "cache_hits": hits,
        "cache_misses": misses,
        "cache_hit_rate": hits / lookups if lookups else None,
    }


# ----------------------------------------------------------------------
# steady
# ----------------------------------------------------------------------


def steady(seed: int, seconds: float, tracer=None) -> Outcome:
    """One warm 16x8 job probing its basic ping list, round by round."""
    from repro import build_scenario

    first_rounds: List[float] = []
    cold_rounds: List[int] = []

    def build():
        scenario = build_scenario(
            num_containers=16, gpus_per_container=8, seed=seed
        )
        cache = scenario.fabric.resolution_cache
        # Rounds with any flow-cache miss are cold; warm-up ends at the
        # first all-hit round.
        for index in range(MAX_COLD_ROUNDS + 1):
            misses = cache.misses
            started = time.perf_counter()
            scenario.run_for(PROBE_INTERVAL_S)
            if index == 0:
                first_rounds.append(time.perf_counter() - started)
            if cache.misses == misses:
                cold_rounds.append(index)
                return scenario
        raise RuntimeError(
            f"flow cache still cold after {MAX_COLD_ROUNDS} rounds"
        )

    clock = HostClock(tracer)
    scenario, setup_s, setup_marks = _timed_setup(build, clock)
    fabric = scenario.fabric
    cache = fabric.resolution_cache
    pairs = len(scenario.hunter.monitored_pairs())
    rounds = operations(seconds, STEADY_ROUNDS_PER_S, 3)
    sent0, lost0 = fabric.probes_sent, fabric.probes_lost
    hits0, misses0 = cache.hits, cache.misses
    op_s: List[float] = []
    op_marks: List[int] = []
    failed = 0
    with _installed(tracer):
        began, spent0 = time.perf_counter(), clock.spent_s
        for _ in range(rounds):
            op_marks.append(clock.sample())
            started = time.perf_counter()
            try:
                with _root(tracer):
                    scenario.run_for(PROBE_INTERVAL_S)
            except Exception:  # noqa: BLE001 - a raised round is a failed op
                _report_failure("steady round")
                failed += 1
            op_s.append(time.perf_counter() - started)
        clock.sample()  # the last round's after-sample
        run_s = time.perf_counter() - began - (clock.spent_s - spent0)
    sent = fabric.probes_sent - sent0
    lost = fabric.probes_lost - lost0
    hunter = scenario.hunter
    false_events = len(hunter.events)
    warm_lookups = (cache.hits - hits0) + (cache.misses - misses0)
    return Outcome(
        setup_s=setup_s,
        setup_marks=setup_marks,
        op_s=op_s,
        op_marks=op_marks,
        run_s=run_s,
        probes=sent,
        failed=failed,
        clock=clock,
        metrics={
            "setup_s": (statistics.median(setup_s), "s"),
            "first_round_s": (statistics.median(first_rounds), "s"),
            "round_s_p50": (statistics.median(op_s), "s"),
            "round_s_p90": (percentile(op_s, 90), "s"),
            "probes_per_s": (sent / run_s, "1/s"),
            "false_events": (false_events, "count"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        },
        checks={
            # A healthy static fabric: nothing to detect, nothing lost,
            # and every active pair probed once per round.
            "no_false_events": false_events == 0,
            "no_probes_lost": lost == 0,
            "every_pair_probed_each_round": sent == rounds * pairs,
        },
        # A healthy run has no events or verdicts to hash, so the
        # state of every random stream stands in for the probe draws.
        digest=digest(
            event_rows(hunter.events), verdict_rows(hunter.reports),
            fabric.probes_sent, fabric.probes_lost,
            [(name, scenario.rng.stream(name).bit_generator.state)
             for name in scenario.rng.names()],
        ),
        facts={
            "ecmp_mode": fabric.ecmp_mode,
            "analyzer_backend": hunter.analyzer.backend,
            "endpoints": len(scenario.task.endpoints()),
            "pairs": pairs,
            "agents": len(hunter.controller.agents_of(scenario.task.id)),
            "cold_rounds": statistics.median(cold_rounds),
            "warm_hit_rate": (
                (cache.hits - hits0) / warm_lookups if warm_lookups else None
            ),
            **_cache_facts(cache.hits, cache.misses),
        },
    )


# ----------------------------------------------------------------------
# campaign
# ----------------------------------------------------------------------

#: The chaos gate's clean-case timeline (simulated seconds).
PRELOAD_S = 200.0
FAULT_S = 120.0
RECOVERY_S = 40.0


def campaign_cases(seed: int, count: Optional[int] = None) -> List[tuple]:
    """(case seed, ECMP mode, issue) for benchmark seed ``seed``.

    Benchmark seed ``n`` sweeps case seeds ``2n`` and ``2n + 1``, so seed
    0 is the chaos gate's seeds 0-1; ``count`` keeps a prefix.
    """
    from repro.network.issues import all_issue_types

    cases = [
        (case_seed, mode, issue)
        for case_seed in (2 * seed, 2 * seed + 1)
        for mode in ("static", "spray")
        for issue in all_issue_types()
    ]
    return cases[:count] if count is not None else cases


def _case_scenario(case_seed: int, mode: str, issue):
    from repro import build_scenario

    # The chaos gate's case-seed derivation and clean-case shape.
    return build_scenario(
        num_containers=4, gpus_per_container=4, pp=2,
        seed=case_seed * 100 + issue.value, hosts_per_segment=4,
        ecmp_mode=mode,
    )


def _run_case(case_seed: int, mode: str, issue) -> dict:
    from repro.workloads.scenarios import standard_fault_target

    scenario = _case_scenario(case_seed, mode, issue)
    scenario.run_for(PRELOAD_S)
    scenario.apply_skeleton()
    fault = scenario.inject(issue, standard_fault_target(scenario, issue))
    scenario.run_for(FAULT_S)
    scenario.clear(fault)
    scenario.run_for(RECOVERY_S)
    score, outcomes = scenario.score()
    outcome = outcomes[0]
    fabric = scenario.fabric
    return {
        "observable": outcome.observable,
        "detected": outcome.detected,
        "localized": outcome.localized,
        "delay_s": outcome.detection_delay_s,
        "false_events": score.false_positive_events,
        "sent": fabric.probes_sent,
        "lost": fabric.probes_lost,
        "cache": (fabric.resolution_cache.hits,
                  fabric.resolution_cache.misses),
        "analyzer_backend": scenario.hunter.analyzer.backend,
        "rows": (
            event_rows(scenario.hunter.events),
            verdict_rows(scenario.hunter.reports),
        ),
    }


def campaign(seed: int, seconds: float, tracer=None) -> Outcome:
    """The fault campaign: one fresh job per (seed, ECMP mode, issue)."""
    cases = campaign_cases(
        seed, operations(seconds, CAMPAIGN_CASES_PER_S, 2)
    )

    def build():
        # Set-up is a cold job start in the campaign's shape: build and
        # preload the first case's job.
        scenario = _case_scenario(*cases[0])
        scenario.run_for(PRELOAD_S)
        return scenario

    clock = HostClock(tracer)
    _, setup_s, setup_marks = _timed_setup(build, clock)
    op_s: List[float] = []
    op_marks: List[int] = []
    rows: List[tuple] = []
    results: List[Optional[dict]] = []
    with _installed(tracer):
        began, spent0 = time.perf_counter(), clock.spent_s
        for case_seed, mode, issue in cases:
            op_marks.append(clock.sample())
            started = time.perf_counter()
            try:
                with _root(tracer):
                    result = _run_case(case_seed, mode, issue)
            except Exception:  # noqa: BLE001 - a raised case is a failed op
                _report_failure(f"campaign case {issue.name}/{mode}")
                result = None
            op_s.append(time.perf_counter() - started)
            results.append(result)
        clock.sample()  # the last case's after-sample
        run_s = time.perf_counter() - began - (clock.spent_s - spent0)

    failed = 0
    missed: List[str] = []
    for (case_seed, mode, issue), result in zip(cases, results):
        if result is None:
            failed += 1
            continue
        rows.append((case_seed, mode, issue.name, result["detected"],
                     result["localized"], result["delay_s"],
                     result["sent"], result["lost"], result["rows"]))
        if not result["localized"]:
            missed.append(f"{case_seed}/{mode}/{issue.name}")
        if not result["detected"] or (
            not result["localized"] and issue.name not in KNOWN_MISSES
        ):
            failed += 1
    done = [r for r in results if r is not None]
    delays = [r["delay_s"] for r in done if r["delay_s"] is not None]
    false_events = sum(r["false_events"] for r in done)
    hits = sum(r["cache"][0] for r in done)
    misses = sum(r["cache"][1] for r in done)
    return Outcome(
        setup_s=setup_s,
        setup_marks=setup_marks,
        op_s=op_s,
        op_marks=op_marks,
        run_s=run_s,
        probes=sum(r["sent"] for r in done),
        failed=failed,
        clock=clock,
        metrics={
            "setup_s": (statistics.median(setup_s), "s"),
            "case_s_p50": (statistics.median(op_s), "s"),
            "case_s_p90": (percentile(op_s, 90), "s"),
            "faults_detected": (sum(r["detected"] for r in done), "count"),
            "faults_localized": (
                sum(r["localized"] for r in done), "count"
            ),
            "detect_delay_s_p50": (
                statistics.median(delays) if delays else 0.0, "sim_s"
            ),
            "false_events": (false_events, "count"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        },
        checks={
            "every_case_ran": len(done) == len(cases),
            "every_fault_observable": all(r["observable"] for r in done),
            "no_false_events": false_events == 0,
        },
        digest=digest(rows),
        facts={
            "cases": len(cases),
            "case_seeds": sorted({case[0] for case in cases}),
            "ecmp_modes": sorted({case[1] for case in cases}),
            "not_localized": missed,
            "known_misses": sorted(KNOWN_MISSES),
            "analyzer_backend": sorted({r["analyzer_backend"] for r in done}),
            "cold_rounds": "every case starts cold",
            **_cache_facts(hits, misses),
        },
    )


# ----------------------------------------------------------------------
# fleet_churn
# ----------------------------------------------------------------------

#: (segments, hosts per segment, rails per host): 2048 endpoints.
FLEET_FABRIC = (64, 8, 4)
FLEET_TENANTS = 16
FLEET_WORKERS = 2


def _round_clock(bus, topic: str, clock: HostClock) -> List[tuple]:
    """Wall-clock stamps around a host-clock sample at every ``topic``
    record the bus publishes.

    The coordinators publish one record per merged chunk; with one-round
    chunks the gaps between samples are the per-round wall times.
    """
    edges: List[tuple] = []

    def on_record(record) -> None:
        before = time.perf_counter()
        clock.sample()
        edges.append((before, time.perf_counter()))

    bus.subscribe(on_record, topic)
    return edges


def _gaps(began: float, edges: List[tuple]) -> List[float]:
    """Per-round wall times between samples, the samples left out."""
    gaps = []
    for before, after in edges:
        gaps.append(before - began)
        began = after
    return gaps


def fleet_churn(seed: int, seconds: float, tracer=None) -> Outcome:
    """The multi-tenant fleet under churn, a crash and report loss."""
    from repro.bus import TelemetryBus, Topic
    from repro.fleet.bench import fleet_bench_spec
    from repro.fleet.coordinator import FleetCoordinator

    rounds = operations(seconds, FLEET_ROUNDS_PER_S, 8)
    spec = fleet_bench_spec(
        FLEET_TENANTS, FLEET_FABRIC, containers_per_job=16,
        gpus_per_container=4, total_rounds=rounds, seed=seed,
    )

    def build():
        bus = TelemetryBus()
        return bus, FleetCoordinator(
            spec, num_workers=FLEET_WORKERS, chunk_rounds=1, bus=bus
        )

    clock = HostClock(tracer)
    (bus, coordinator), setup_s, setup_marks = _timed_setup(build, clock)
    edges = _round_clock(bus, Topic.FLEET, clock)
    result = None
    with _installed(tracer):
        first = clock.sample()
        began, spent0 = time.perf_counter(), clock.spent_s
        try:
            with _root(tracer):
                result = coordinator.run()
        except Exception:  # noqa: BLE001 - the whole run failed
            _report_failure("fleet run")
        run_s = time.perf_counter() - began - (clock.spent_s - spent0)
    if result is None:
        op_s, op_marks = [run_s] * rounds, [first] * rounds
    else:
        # Round i runs between sample first+i and the one its record
        # triggers.
        op_s = _gaps(began, edges)
        op_marks = [first + i for i in range(len(op_s))]

    caches = [
        worker.replica.fabric.resolution_cache
        for worker in coordinator.workers.values()
    ]
    if result is None:
        floor_misses = len(spec.tenants)
        failed = rounds
        probes = 0
        out = ""
    else:
        floor_misses = sum(
            1 for name, min_cov, _ in result.coverage_summary
            if min_cov + 1e-9 < spec.tenant(name).coverage_floor
        )
        # A round fails if it granted more probes than the budget.
        failed = sum(
            1 for rollup in result.rollups if rollup.granted > rollup.budget
        )
        probes = result.probes_sent
        out = digest(result.comparable(), result.probes_sent,
                     result.probes_lost)
    return Outcome(
        setup_s=setup_s,
        setup_marks=setup_marks,
        op_s=op_s,
        op_marks=op_marks,
        run_s=run_s,
        probes=probes,
        failed=failed,
        clock=clock,
        metrics={
            "setup_s": (statistics.median(setup_s), "s"),
            "probes_per_s": (probes / run_s, "1/s"),
            "run_s": (run_s, "s"),
            "coverage_floor_misses": (floor_misses, "count"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        },
        checks={
            "run_completed": result is not None,
            "one_record_per_round": len(op_s) == rounds,
            "coverage_floors_met": floor_misses == 0,
            "events_raised": bool(result and result.event_summary),
        },
        digest=out,
        facts={
            "rounds": rounds,
            "tenants": len(spec.tenants),
            "workers": FLEET_WORKERS,
            "endpoint_capacity": spec.endpoint_capacity,
            "probe_budget_per_round": spec.probe_budget_per_round,
            "analyzer_backend": spec.analyzer_backend,
            "ecmp_mode": caches[0].ecmp_mode if caches else None,
            "cold_rounds": "lifecycle writes invalidate the cache",
            "worker_s": [
                [worker, round(s, 6)]
                for worker, s in (result.worker_seconds if result else ())
            ],
            **_cache_facts(sum(cache.hits for cache in caches),
                           sum(cache.misses for cache in caches)),
        },
    )


# ----------------------------------------------------------------------
# shard_faults
# ----------------------------------------------------------------------

SHARDS = 2


def shard_spec(seed: int, rounds: int):
    """A 64x8 job on ``ring_chord`` pairs with four overlapping faults.

    The windows are fractions of the run, so every size injects and
    clears each fault; the ToR-uplink PFC storm fails many pairs at
    once.  The schedule is replayed in-process on a throwaway replica
    first: under the mp backend a bad target only surfaces as "all
    shards dead".
    """
    from repro.cluster.identifiers import LinkId
    from repro.shard.spec import (
        FaultScheduleRunner, FaultSpec, ShardScenarioSpec, build_replica,
    )

    base = ShardScenarioSpec(
        num_containers=64, gpus_per_container=8, seed=seed,
        total_rounds=rounds,
    )
    probe = build_replica(base)
    topology = probe.topology
    port_rnic = probe.rnic_of_rank(3)
    tor_rnic = probe.rnic_of_rank(8 * 9 + 2)
    storm_rnic = probe.rnic_of_rank(8 * 40 + 5)
    victim = sorted(probe.task.containers)[20]

    def at(share: float) -> int:
        return max(1, int(round(share * rounds)))

    faults = (
        FaultSpec("RNIC_PORT_DOWN", port_rnic, at(0.1), at(0.4)),
        FaultSpec(
            "SWITCH_PORT_DOWN",
            LinkId.between(tor_rnic, topology.tor_of(tor_rnic)),
            at(0.2), at(0.65),
        ),
        FaultSpec("CONTAINER_CRASH", victim, at(0.3), at(0.6)),
        FaultSpec(
            "PFC_STORM",
            LinkId.between(topology.tor_of(storm_rnic), topology.spines[1]),
            at(0.5), at(0.85),
        ),
    )
    spec = ShardScenarioSpec(
        num_containers=base.num_containers,
        gpus_per_container=base.gpus_per_container,
        seed=seed, total_rounds=rounds, faults=faults,
    )
    FaultScheduleRunner(probe, spec).advance_to(rounds)
    return spec


def shard_faults(seed: int, seconds: float, tracer=None) -> Outcome:
    """The sharded plane: mp workers untraced, in-process when traced.

    Wrappers installed after an mp worker forks are invisible to it, so
    the traced run uses the in-process backend with the same shard
    count; shard equivalence makes its outputs identical.
    """
    from repro.bus import TelemetryBus, Topic
    from repro.core.evaluation import CampaignScorer
    from repro.shard.backend import backend_named
    from repro.shard.coordinator import ShardCoordinator

    rounds = operations(seconds, SHARD_ROUNDS_PER_S, 6)
    spec = shard_spec(seed, rounds)
    backend_name = "inproc" if tracer is not None else "mp"
    coordinators: List[object] = []

    def build():
        for stale in coordinators:
            for handle in stale.handles.values():
                if handle.alive:
                    handle.stop()
        coordinators.clear()
        bus = TelemetryBus()
        coordinator = ShardCoordinator(
            spec, SHARDS, backend=backend_named(backend_name),
            chunk_rounds=1, bus=bus,
        )
        coordinators.append(coordinator)
        return bus, coordinator

    clock = HostClock(tracer)
    (bus, coordinator), setup_s, setup_marks = _timed_setup(build, clock)
    edges = _round_clock(bus, Topic.SHARD_HEALTH, clock)
    result = None
    with _installed(tracer):
        first = clock.sample()
        began, spent0 = time.perf_counter(), clock.spent_s
        try:
            with _root(tracer):
                result = coordinator.run()
        except Exception:  # noqa: BLE001 - the whole run failed
            _report_failure("shard run")
            for handle in coordinator.handles.values():
                if handle.alive:
                    handle.stop()
        run_s = time.perf_counter() - began - (clock.spent_s - spent0)

    metrics: Dict[str, Tuple[float, str]] = {
        "setup_s": (statistics.median(setup_s), "s"),
    }
    if result is None:
        return Outcome(
            setup_s=setup_s, setup_marks=setup_marks,
            op_s=[run_s] * rounds, op_marks=[first] * rounds,
            run_s=run_s, probes=0, failed=rounds,
            metrics=metrics, checks={"run_completed": False}, digest="",
            clock=clock,
        )
    reference = coordinator.reference
    score, outcomes = CampaignScorer(
        reference.cluster, reference.fabric
    ).score(
        reference.injector.all_faults(),
        [record.to_failure_event() for record in result.events],
        result.verdicts,
        coordinator.all_pairs,
    )
    probes = int(result.metrics.counter("probes.sent"))
    lost = int(result.metrics.counter("probes.lost"))
    delays = [o.detection_delay_s for o in outcomes if o.detected]
    metrics.update({
        "probes_per_s": (probes / run_s, "1/s"),
        "run_s": (run_s, "s"),
        "faults_detected": (score.detected_faults, "count"),
        "faults_localized": (score.localized_faults, "count"),
        "detect_delay_s_p50": (
            statistics.median(delays) if delays else 0.0, "sim_s"
        ),
        "false_events": (score.false_positive_events, "count"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    })
    return Outcome(
        setup_s=setup_s,
        setup_marks=setup_marks,
        op_s=_gaps(began, edges),
        op_marks=[first + i for i in range(len(edges))],
        run_s=run_s,
        probes=probes,
        clock=clock,
        # A chunk a shard died in had to be replayed by a survivor.
        failed=len(result.reassignments),
        metrics=metrics,
        checks={
            "run_completed": True,
            "one_record_per_round": len(edges) == rounds,
            "every_fault_detected": score.detected_faults == len(outcomes),
            "no_false_events": score.false_positive_events == 0,
        },
        digest=digest(
            result.event_summary(), result.verdict_summary(),
            result.vote_table.as_dict(), probes, lost,
        ),
        facts={
            "rounds": rounds,
            "shards": SHARDS,
            "backend": backend_name,
            "endpoints": spec.num_containers * spec.gpus_per_container,
            "pairs": len(coordinator.all_pairs),
            "analyzer_backend": spec.analyzer_backend,
            "ecmp_mode": spec.ecmp_mode,
            "faults": [
                [o.fault.issue.name, o.detected, o.localized]
                for o in outcomes
            ],
            "cold_rounds": "flow caches live in the shard workers",
        },
    )


WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "steady": steady,
    "campaign": campaign,
    "fleet_churn": fleet_churn,
    "shard_faults": shard_faults,
}
