"""The fleet coordinator: tenants sharded over fleet workers.

The unit of placement is a whole *tenant*: its pairs, analyzer and
localizer stay on one worker, so its diagnosis stream is
self-contained and the merge is a disjoint union.  Tenants are placed
by steady-state probe quota with the LPT balancer
(:func:`repro.shard.partition.place_tenants`).  Every worker replays
the full lifecycle and fault schedule on its own replica but probes
only its tenants, so per-tenant results are bit-identical at any
worker count (:func:`repro.shard.equivalence.verify_equivalence`).

The coordinator runs on the shard plane's worker loop
(:mod:`repro.shard.plane`) with in-process handles: chunks are
dispatched to every live worker and collected one after another, and
kills and failover are the plane's.  The fleet supplies the split — a
dead worker's tenants go heaviest first onto the least-loaded survivor
— and the merge: per-round rollups and per-tenant replay dedup.  The
final merge reads the controllers' summaries in-process.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Dict, List, Optional, Set, Tuple, cast

from repro.fleet.budget import ProbeBudgetScheduler, TenantDemand
from repro.fleet.controller import (
    FleetChunkResult,
    FleetController,
    RoundRollup,
    VerdictRow,
)
from repro.fleet.lifecycle import demand_table
from repro.fleet.spec import FleetSpec
from repro.shard.backend import InProcessBackend, InProcessHandle
from repro.shard.partition import TenantPlacement, place_tenants
from repro.shard.plane import Reassignment, WorkerPlane

__all__ = [
    "FleetRunResult",
    "FleetCoordinator",
    "FleetWorkerStatus",
]


@dataclass
class FleetWorkerStatus:
    """Liveness and progress of one fleet worker."""

    worker_id: int
    tenants: Tuple[str, ...]
    alive: bool = True
    rounds_completed: int = 0
    chunks_completed: int = 0
    adopted_tenants: int = 0

    def adopt(self, owned: Tuple[str, ...], moved: int) -> None:
        """Take on ``moved`` orphaned tenants; ``owned`` is the new set."""
        self.tenants = owned
        self.adopted_tenants += moved


@dataclass(frozen=True)
class FleetRunResult:
    """The merged outcome of a fleet run (comparable across shapes)."""

    num_workers: int
    total_rounds: int
    #: ``(tenant, src, dst, first_detected_at, symptom)`` rows, sorted.
    event_summary: Tuple[Tuple[str, str, str, float, str], ...]
    #: Per-tenant verdict batches, sorted.
    verdict_summary: Tuple[VerdictRow, ...]
    #: Active ``(tenant, component)`` blacklist rows, sorted.
    blacklist_summary: Tuple[Tuple[str, str], ...]
    #: ``(tenant, min round coverage, cumulative coverage)``, sorted.
    coverage_summary: Tuple[Tuple[str, float, float], ...]
    #: Fleet-wide rollups, one per round, tenant rows merged.
    rollups: Tuple[RoundRollup, ...]
    probes_sent: int
    probes_lost: int
    reassignments: Tuple[Reassignment, ...]
    #: Tenants admission control rejected, with reasons.
    rejections: Tuple[Tuple[str, str], ...]
    #: Wall-clock seconds each worker spent probing (failover replays
    #: excluded).  The workers run one after another.
    worker_seconds: Tuple[Tuple[int, float], ...]

    def comparable(self) -> Tuple:
        """The per-tenant outputs that must match across worker counts
        and failover."""
        return (
            self.event_summary,
            self.verdict_summary,
            self.blacklist_summary,
            self.coverage_summary,
            self.rollups,
            self.rejections,
        )

    def surfaces(self) -> Dict[str, object]:
        """What the equivalence gate compares: :meth:`comparable`'s
        parts by name, plus the probe counts."""
        names = (
            "events", "verdicts", "blacklists", "coverage", "rollups",
            "rejections",
        )
        return {
            **dict(zip(names, self.comparable())),
            "probes": (self.probes_sent, self.probes_lost),
        }


class FleetCoordinator(WorkerPlane):
    """Drives N fleet workers to the run horizon, merging results."""

    name = "fleet"

    def __init__(
        self,
        spec: FleetSpec,
        num_workers: int = 1,
        chunk_rounds: Optional[int] = None,
        kill_schedule: Optional[Dict[int, int]] = None,
        recorder=None,
        bus=None,
    ) -> None:
        """``kill_schedule`` maps worker id -> chunk index (1-based) at
        whose start the worker is killed."""
        super().__init__(
            spec, num_workers, chunk_rounds or spec.chunk_rounds,
            InProcessBackend(),
            kill_schedule=kill_schedule, recorder=recorder, bus=bus,
        )
        self.num_workers = num_workers
        self.demands: Dict[str, TenantDemand] = demand_table(spec)
        # Balance workers by what each tenant will actually *probe*
        # per round — its steady-state granted quota with everyone
        # admitted — not its raw demand: coverage floors and weights
        # skew quotas.
        scheduler = ProbeBudgetScheduler(spec.probe_budget_per_round)
        steady = scheduler.allocate(
            1, sorted(self.demands.values(), key=lambda d: d.name)
        )
        weights = {
            name: max(1, steady.quota_of(name))
            for name in self.demands
        }
        self.placement: TenantPlacement = place_tenants(
            weights, num_workers
        )
        for worker_id in range(num_workers):
            tenants = self.placement.tenants_of(worker_id)
            self._spawn(
                worker_id, tenants,
                partial(
                    FleetController, spec,
                    monitor_tenants=tenants, worker_id=worker_id,
                ),
            )
            self.statuses[worker_id] = FleetWorkerStatus(
                worker_id=worker_id, tenants=self.owned[worker_id]
            )
        self.chunk_results: List[FleetChunkResult] = []
        self._published_rounds = 0
        self._seen_events: Dict[str, Set[tuple]] = {}

    @property
    def workers(self) -> Dict[int, FleetController]:
        """Every worker's controller (in-process), by worker id."""
        return {
            worker_id: cast(InProcessHandle, handle).worker
            for worker_id, handle in self.handles.items()
        }

    def run(self) -> FleetRunResult:
        """Run every chunk to the spec horizon and merge the results."""
        self._drive()
        return self._merge()

    # ------------------------------------------------------------------
    # What the fleet supplies to the shared loop
    # ------------------------------------------------------------------

    def _split(
        self, orphaned: Tuple[str, ...], survivors: List[int]
    ) -> Dict[int, List[str]]:
        """Heaviest orphaned tenant first onto the least-loaded
        survivor — the same LPT rule initial placement used."""
        loads = {
            worker_id: sum(
                self.demands[name].demand
                for name in self.owned[worker_id]
            )
            for worker_id in survivors
        }
        additions: Dict[int, List[str]] = {
            worker_id: [] for worker_id in survivors
        }
        for name in sorted(
            orphaned, key=lambda n: (-self.demands[n].demand, n)
        ):
            target = min(survivors, key=lambda w: (loads[w], w))
            additions[target].append(name)
            loads[target] += self.demands[name].demand
        return additions

    def _merge_chunk(
        self, chunk: int, start: int, end: int,
        results: List[FleetChunkResult],
    ) -> None:
        for result in results:
            if result.replayed:
                # An adopter's replay re-detects what the dead worker
                # already reported, and its rounds' probes and rollups
                # were counted when they first ran: keep only events
                # the plane has not seen.
                result = replace(
                    result, probes_sent=0, probes_lost=0, rollups=(),
                    events=tuple(
                        (tenant, record)
                        for tenant, record in result.events
                        if record.key
                        not in self._seen_events.get(tenant, set())
                    ),
                )
            else:
                status = self.statuses[result.worker_id]
                status.rounds_completed = result.end_round
                status.chunks_completed += 1
            for tenant, record in result.events:
                self._seen_events.setdefault(tenant, set()).add(record.key)
            self.chunk_results.append(result)
        self.metrics.increment("fleet.chunks")
        self._publish_chunk(chunk, end)

    def _publish_chunk(self, chunk: int, end_round: int) -> None:
        if self.bus is None:
            return
        from repro.bus.core import Topic

        merged = self._merged_rollups()
        for rollup in merged:
            if rollup.round_index <= self._published_rounds:
                continue
            self._published_rounds = rollup.round_index
            self.bus.publish(
                Topic.FLEET,
                sim_time=rollup.sim_time,
                round=rollup.round_index,
                admitted=list(rollup.admitted),
                budget=rollup.budget,
                granted=rollup.granted,
                utilization=round(rollup.utilization, 6),
                workers=len(self._live()),
                tenants=[
                    {
                        "name": row[0], "demand": row[1],
                        "floor": row[2], "quota": row[3],
                        "lost": row[4], "open_events": row[5],
                        "blacklisted": row[6],
                    }
                    for row in rollup.tenant_rows
                ],
            )

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------

    def _merged_rollups(self) -> List[RoundRollup]:
        """Union the workers' per-round rollups (disjoint tenants)."""
        by_round: Dict[int, List[RoundRollup]] = {}
        for result in self.chunk_results:
            for rollup in result.rollups:
                by_round.setdefault(rollup.round_index, []).append(
                    rollup
                )
        merged: List[RoundRollup] = []
        for round_index in sorted(by_round):
            parts = by_round[round_index]
            first = parts[0]
            rows: List[tuple] = []
            for part in parts:
                rows.extend(part.tenant_rows)
            merged.append(RoundRollup(
                round_index=round_index,
                sim_time=first.sim_time,
                admitted=first.admitted,
                budget=first.budget,
                granted=first.granted,
                tenant_rows=tuple(sorted(set(rows))),
            ))
        return merged

    def _merge(self) -> FleetRunResult:
        events: List[Tuple[str, str, str, float, str]] = []
        verdicts: List[VerdictRow] = []
        blacklists: List[Tuple[str, str]] = []
        coverage: List[Tuple[str, float, float]] = []
        workers = self.workers
        live = self._live()
        for worker_id in live:
            worker = workers[worker_id]
            events.extend(worker.event_summary())
            verdicts.extend(worker.verdict_summary())
            blacklists.extend(worker.blacklist_summary())
            coverage.extend(worker.coverage_summary())
        plan = workers[live[0]].plan if live else None
        return FleetRunResult(
            num_workers=self.num_workers,
            total_rounds=self.spec.total_rounds,
            event_summary=tuple(sorted(events)),
            verdict_summary=tuple(sorted(verdicts)),
            blacklist_summary=tuple(sorted(blacklists)),
            coverage_summary=tuple(sorted(coverage)),
            rollups=tuple(self._merged_rollups()),
            probes_sent=sum(
                r.probes_sent for r in self.chunk_results
            ),
            probes_lost=sum(
                r.probes_lost for r in self.chunk_results
            ),
            reassignments=tuple(self.reassignments),
            rejections=(
                plan.rejections if plan is not None else ()
            ),
            worker_seconds=tuple(sorted(self.worker_seconds.items())),
        )
