"""The fleet controller: many tenants, one fabric, one probe budget.

A :class:`FleetController` drives one replica of the shared fabric
through the run's rounds.  Every round it

1. replays the lifecycle plan (admissions / departures / container
   reschedules) and the network-fault schedule against the replica;
2. asks the :class:`~repro.fleet.budget.ProbeBudgetScheduler` to split
   the global probe budget over the admitted tenants; and
3. for each *monitored* tenant, probes that tenant's budgeted pair
   window and feeds the results through the tenant's **own** analyzer,
   localizer, and failure handler.

Per-tenant isolation is structural, not cooperative: each tenant gets
a private :class:`~repro.core.analyzer.Analyzer` (so one tenant's
anomaly windows never mix with another's), a private
:class:`~repro.core.localization.Localizer` batch stream, and a
:class:`~repro.core.handling.Blacklist` scoped by tenant name (so two
tenants blaming the same host hold two distinct entries — see
satellite work in :mod:`repro.core.handling`).  Verdicts are recorded,
never acted on mid-run: recovery migrations would mutate the shared
fabric based on one tenant's private diagnosis, which a worker that
doesn't monitor that tenant could not replay.  Churn comes only from
the keyed lifecycle schedule, which everyone replays.

``monitor_tenants`` restricts which tenants this controller probes —
the fleet coordinator builds one controller per shard worker, each
covering a disjoint tenant subset, and the same class with
``monitor_tenants=None`` is the single-process reference.  Because
probe outcomes are pairwise-keyed and the lifecycle/fault replay is
identical everywhere, a tenant's event and verdict streams are
bit-identical no matter which worker monitors it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.analyzer import Analyzer
from repro.core.handling import Blacklist, FailureHandler
from repro.core.localization import Localizer, healthy_pairs_for
from repro.core.pinglist import ProbePair
from repro.core.probing import ResilientProber
from repro.core.resilience import CircuitBreaker, RetryPolicy
from repro.fleet.budget import (
    BudgetAllocation,
    ProbeBudgetScheduler,
    TenantDemand,
)
from repro.fleet.lifecycle import (
    FleetLifecyclePlan,
    demand_table,
    plan_lifecycle,
)
from repro.fleet.runtime import (
    FleetFaultRunner,
    FleetReplica,
    build_fleet_chaos,
    build_fleet_replica,
)
from repro.fleet.spec import FleetSpec, tenant_pairs
from repro.cluster.topology import UnderlayPath
from repro.shard.monitor import EventRecord

__all__ = [
    "FleetChunkResult",
    "FleetController",
    "RoundRollup",
    "TenantRuntime",
]

#: One verdict batch in picklable, comparable form:
#: ``(tenant, at, ((component, class, layer, confidence), ...),
#: unexplained_count)``.
VerdictRow = Tuple[str, float, Tuple[Tuple[str, str, str, float], ...],
                   int]


@dataclass
class TenantRuntime:
    """One monitored tenant's private diagnosis pipeline."""

    name: str
    pairs: Tuple[ProbePair, ...]
    analyzer: Analyzer
    localizer: Localizer
    handler: FailureHandler
    prober: Optional[ResilientProber] = None
    probes_sent: int = 0
    probes_lost: int = 0
    #: Lowest granted per-round coverage while admitted.
    min_coverage: float = 1.0
    #: Distinct pairs probed at least once (cumulative coverage).
    probed_pairs: Set[ProbePair] = field(default_factory=set)
    _reported: Set[Tuple[ProbePair, float]] = field(default_factory=set)
    events: List[Tuple[str, EventRecord]] = field(default_factory=list)
    verdicts: List[VerdictRow] = field(default_factory=list)

    @property
    def blacklist(self) -> Blacklist:
        """The tenant-scoped blacklist behind the failure handler."""
        return self.handler.blacklist

    def cumulative_coverage(self) -> float:
        """Fraction of the pair universe probed at least once."""
        if not self.pairs:
            return 1.0
        return len(self.probed_pairs) / len(self.pairs)


@dataclass(frozen=True)
class RoundRollup:
    """Fleet-wide stats for one round (picklable, bus-publishable)."""

    round_index: int
    sim_time: float
    admitted: Tuple[str, ...]
    budget: int
    granted: int
    #: Per monitored tenant, name-sorted:
    #: ``(name, demand, floor, quota, lost, open_events, blacklisted)``.
    tenant_rows: Tuple[Tuple[str, int, int, int, int, int, int], ...]

    @property
    def utilization(self) -> float:
        """Granted fraction of the round budget."""
        return self.granted / self.budget if self.budget else 0.0


@dataclass(frozen=True)
class FleetChunkResult:
    """One fleet worker's report for a chunk of rounds."""

    worker_id: int
    start_round: int
    end_round: int
    sim_time: float
    tenant_names: Tuple[str, ...]
    probes_sent: int
    probes_lost: int
    #: Fresh failure events this chunk: ``(tenant, record)`` rows.
    events: Tuple[Tuple[str, EventRecord], ...]
    #: Fresh verdict batches this chunk.
    verdicts: Tuple[VerdictRow, ...]
    rollups: Tuple[RoundRollup, ...]
    replayed: bool = False


class FleetController:
    """Drives the multi-tenant monitoring loop over one replica."""

    def __init__(
        self,
        spec: FleetSpec,
        monitor_tenants: Optional[Iterable[str]] = None,
        worker_id: int = 0,
        recorder=None,
        bus=None,
    ) -> None:
        self.spec = spec
        self.worker_id = worker_id
        self.recorder = recorder
        self.bus = bus
        self.plan: FleetLifecyclePlan = plan_lifecycle(spec)
        self.demands: Dict[str, TenantDemand] = demand_table(spec)
        self.scheduler = ProbeBudgetScheduler(
            spec.probe_budget_per_round
        )
        all_names = [tenant.name for tenant in spec.tenants]
        if monitor_tenants is None:
            self.monitor_tenants: Tuple[str, ...] = tuple(all_names)
        else:
            wanted = set(monitor_tenants)
            unknown = wanted - set(all_names)
            if unknown:
                raise KeyError(
                    f"unknown tenants {sorted(unknown)!r}"
                )
            self.monitor_tenants = tuple(
                name for name in all_names if name in wanted
            )
        self.rounds_completed = 0
        self._build()

    # ------------------------------------------------------------------
    # Replica construction / rebuild (failover)
    # ------------------------------------------------------------------

    def _build(self) -> None:
        self.replica: FleetReplica = build_fleet_replica(self.spec)
        self.faults = FleetFaultRunner(self.replica)
        self.chaos = build_fleet_chaos(self.spec)
        self._retry = (
            RetryPolicy(seed=self.spec.seed)
            if self.chaos is not None else None
        )
        self.tenants: Dict[str, TenantRuntime] = {}
        self.allocations: List[BudgetAllocation] = []
        self.rollups: List[RoundRollup] = []
        self.rounds_completed = 0
        # Chunk-fresh buffers, drained by run_rounds.
        self._chunk_events: List[Tuple[str, EventRecord]] = []
        self._chunk_verdicts: List[VerdictRow] = []
        self._chunk_rollups: List[RoundRollup] = []

    def _tenant_runtime(self, name: str) -> TenantRuntime:
        runtime = self.tenants.get(name)
        if runtime is not None:
            return runtime
        tenant = self.spec.tenant(name)
        pairs = tuple(
            tenant_pairs(tenant, self.spec.task_id_of(name))
        )
        blacklist = Blacklist(scope=name)
        runtime = TenantRuntime(
            name=name,
            pairs=pairs,
            analyzer=Analyzer(config=self.spec.detector),
            localizer=Localizer(
                self.replica.cluster, self.replica.fabric,
            ),
            handler=FailureHandler(blacklist=blacklist),
            prober=(
                None if self.chaos is None else ResilientProber(
                    self.chaos,
                    retry=self._retry,
                    breaker=CircuitBreaker(),
                )
            ),
        )
        self.tenants[name] = runtime
        return runtime

    # ------------------------------------------------------------------
    # Round loop
    # ------------------------------------------------------------------

    def run_rounds(
        self, start_round: int, end_round: int, replayed: bool = False
    ) -> FleetChunkResult:
        """Run rounds ``start_round..end_round`` inclusive and report."""
        if start_round != self.rounds_completed + 1:
            raise ValueError(
                f"fleet worker {self.worker_id} is at round "
                f"{self.rounds_completed}, cannot start at {start_round}"
            )
        sent0 = sum(rt.probes_sent for rt in self.tenants.values())
        lost0 = sum(rt.probes_lost for rt in self.tenants.values())
        for round_index in range(start_round, end_round + 1):
            self._run_round(round_index)
        result = FleetChunkResult(
            worker_id=self.worker_id,
            start_round=start_round,
            end_round=end_round,
            sim_time=self.spec.round_time(end_round),
            tenant_names=tuple(self.monitor_tenants),
            probes_sent=sum(
                rt.probes_sent for rt in self.tenants.values()
            ) - sent0,
            probes_lost=sum(
                rt.probes_lost for rt in self.tenants.values()
            ) - lost0,
            events=tuple(self._chunk_events),
            verdicts=tuple(self._chunk_verdicts),
            rollups=tuple(self._chunk_rollups),
            replayed=replayed,
        )
        self._chunk_events = []
        self._chunk_verdicts = []
        self._chunk_rollups = []
        return result

    def _run_round(self, round_index: int) -> None:
        spec = self.spec
        at = spec.round_time(round_index)
        # 1. World transitions, identically replayed by every worker.
        self.replica.apply_lifecycle(
            self.plan.events_at(round_index)
        )
        self.faults.advance_to(round_index)
        self.replica.engine.run_until(at)
        # 2. Budget split across everyone admitted (monitored or not:
        #    the allocation must be the global one so each worker's
        #    quota matches the single-process reference).
        admitted = self.plan.admitted_at(round_index)
        allocation = self.scheduler.allocate(
            round_index, [self.demands[name] for name in admitted]
        )
        self.allocations.append(allocation)
        # 3. Per-tenant probing + diagnosis for monitored tenants.
        tenant_rows = []
        for name in admitted:
            if name not in self.monitor_tenants:
                continue
            runtime = self._tenant_runtime(name)
            quota = allocation.quota_of(name)
            floor = self.demands[name].floor
            demand = self.demands[name].demand
            if demand > 0:
                runtime.min_coverage = min(
                    runtime.min_coverage, quota / demand
                )
            lost = self._probe_tenant(runtime, quota, round_index, at)
            fresh = self._collect_events(runtime)
            self._localize(runtime, fresh)
            tenant_rows.append((
                name, demand, floor, quota, lost,
                len(runtime.analyzer.open_events()),
                len(runtime.blacklist.active()),
            ))
        rollup = RoundRollup(
            round_index=round_index,
            sim_time=at,
            admitted=admitted,
            budget=allocation.budget,
            granted=allocation.total_granted,
            tenant_rows=tuple(sorted(tenant_rows)),
        )
        self.rollups.append(rollup)
        self._chunk_rollups.append(rollup)
        self._publish(rollup)
        self.rounds_completed = round_index

    def _probe_tenant(
        self,
        runtime: TenantRuntime,
        quota: int,
        round_index: int,
        at: float,
    ) -> int:
        """Probe the tenant's budget window; returns lost-probe count."""
        selected = self.scheduler.select_pairs(
            runtime.pairs, quota, round_index
        )
        if not selected:
            return 0
        if runtime.prober is None:
            results = self.replica.fabric.send_probe_batch(
                selected, at, 0
            )
        else:
            results = runtime.prober.execute(
                self.replica.fabric, selected, at, 0
            )
        for result in results:
            runtime.analyzer.ingest(result)
        runtime.analyzer.flush(at)
        runtime.probes_sent += len(selected)
        runtime.probed_pairs.update(
            ProbePair.canonical(pair.src, pair.dst)
            for pair in selected
        )
        delivered_ok = sum(1 for r in results if not r.lost)
        lost = len(selected) - delivered_ok
        runtime.probes_lost += lost
        return lost

    def _collect_events(
        self, runtime: TenantRuntime
    ) -> List[EventRecord]:
        fresh = sorted(
            (
                event for event in runtime.analyzer.events
                if event.key not in runtime._reported
            ),
            key=lambda event: (event.first_detected_at, event.pair),
        )
        records: List[EventRecord] = []
        for event in fresh:
            runtime._reported.add(event.key)
            path = self.replica.fabric.traceroute(
                event.pair.src, event.pair.dst
            )
            record = EventRecord(
                src=event.pair.src,
                dst=event.pair.dst,
                first_detected_at=event.first_detected_at,
                symptom=event.symptom.name,
                path_devices=(
                    path.devices if path is not None else None
                ),
            )
            records.append(record)
            runtime.events.append((runtime.name, record))
            self._chunk_events.append((runtime.name, record))
        return records

    def _localize(
        self, runtime: TenantRuntime, fresh: List[EventRecord]
    ) -> None:
        """Diagnose the tenant's fresh events, batch per detection time.

        Only tenant-local inputs feed the localizer — its own events,
        its own healthy pairs — so the verdict stream is identical no
        matter which worker computes it, and one tenant's incidents
        can never enter another tenant's vote tables.
        """
        if not fresh:
            return
        groups: Dict[float, List[EventRecord]] = {}
        for record in fresh:
            groups.setdefault(record.first_detected_at, []).append(
                record
            )
        for at in sorted(groups):
            records = sorted(groups[at], key=lambda r: r.pair)
            events = [r.to_failure_event() for r in records]
            paths = {
                record.pair: UnderlayPath.through(record.path_devices)
                for record in records
                if record.path_devices is not None
            }
            healthy = healthy_pairs_for(events, runtime.pairs)
            report = runtime.localizer.localize(
                events, healthy, now=at, paths=paths
            )
            runtime.handler.handle(at, report)
            row: VerdictRow = (
                runtime.name,
                at,
                tuple(
                    (
                        d.component, d.component_class.value,
                        d.layer, round(d.confidence, 9),
                    )
                    for d in report.diagnoses
                ),
                len(report.unexplained),
            )
            runtime.verdicts.append(row)
            self._chunk_verdicts.append(row)

    def _publish(self, rollup: RoundRollup) -> None:
        if self.recorder is not None:
            self.recorder.event(
                "fleet.round",
                sim_time=rollup.sim_time,
                round=rollup.round_index,
                admitted=len(rollup.admitted),
                granted=rollup.granted,
                budget=rollup.budget,
            )
            self.recorder.metrics.increment("fleet.rounds")
            self.recorder.metrics.increment(
                "fleet.probes_granted", rollup.granted
            )
        if self.bus is not None:
            from repro.bus.core import Topic

            self.bus.publish(
                Topic.FLEET,
                sim_time=rollup.sim_time,
                round=rollup.round_index,
                admitted=list(rollup.admitted),
                budget=rollup.budget,
                granted=rollup.granted,
                utilization=round(rollup.utilization, 6),
                tenants=[
                    {
                        "name": row[0],
                        "demand": row[1],
                        "floor": row[2],
                        "quota": row[3],
                        "lost": row[4],
                        "open_events": row[5],
                        "blacklisted": row[6],
                    }
                    for row in rollup.tenant_rows
                ],
            )

    # ------------------------------------------------------------------
    # Failover adoption
    # ------------------------------------------------------------------

    def adopt(
        self, tenants: Iterable[str], upto_round: int
    ) -> Optional[FleetChunkResult]:
        """Take over ``tenants`` from a dead worker.

        Rebuilds a fresh replica monitoring the union tenant set and
        replays rounds ``1..upto_round`` — probe outcomes are pure in
        (seed, pair, time) and the lifecycle plan is pure in the spec,
        so after the replay this controller's per-tenant state is
        identical to having monitored the union from round one.
        """
        merged = set(self.monitor_tenants) | set(tenants)
        ordered = [
            tenant.name for tenant in self.spec.tenants
            if tenant.name in merged
        ]
        self.monitor_tenants = tuple(ordered)
        self._build()
        if upto_round < 1:
            return None
        return self.run_rounds(1, upto_round, replayed=True)

    # ------------------------------------------------------------------
    # Summaries (comparable across shard counts)
    # ------------------------------------------------------------------

    def event_summary(
        self,
    ) -> List[Tuple[str, str, str, float, str]]:
        """Every tenant event as comparable rows, sorted."""
        rows = []
        for name in self.monitor_tenants:
            runtime = self.tenants.get(name)
            if runtime is None:
                continue
            for _, record in runtime.events:
                rows.append((
                    name, str(record.src), str(record.dst),
                    record.first_detected_at, record.symptom,
                ))
        return sorted(rows)

    def verdict_summary(self) -> List[VerdictRow]:
        """Every verdict batch as comparable rows, sorted."""
        rows: List[VerdictRow] = []
        for name in self.monitor_tenants:
            runtime = self.tenants.get(name)
            if runtime is None:
                continue
            rows.extend(runtime.verdicts)
        return sorted(rows)

    def blacklist_summary(self) -> List[Tuple[str, str]]:
        """Active ``(tenant, component)`` blacklist rows, sorted."""
        rows = []
        for name in self.monitor_tenants:
            runtime = self.tenants.get(name)
            if runtime is None:
                continue
            for component in runtime.blacklist.active():
                rows.append((name, component))
        return sorted(rows)

    def coverage_summary(
        self,
    ) -> List[Tuple[str, float, float]]:
        """Per tenant: ``(name, min round coverage, cumulative)``."""
        rows = []
        for name in self.monitor_tenants:
            runtime = self.tenants.get(name)
            if runtime is None:
                continue
            rows.append((
                name,
                round(runtime.min_coverage, 9),
                round(runtime.cumulative_coverage(), 9),
            ))
        return sorted(rows)
