"""The fleet plane's gate scenario and configurations.

The multi-tenant claim mirrors the shard plane's: sharding tenants
over workers — and failing a worker over mid-run — changes *who*
monitors a tenant, never what the tenant's diagnosis pipeline sees.
The one differential gate (:func:`repro.shard.equivalence.
verify_equivalence`) proves it: it runs the same
:class:`~repro.fleet.spec.FleetSpec` single-worker, at each
configuration of :func:`fleet_gate`, and requires every surface of
:meth:`~repro.fleet.coordinator.FleetRunResult.surfaces` — per-tenant
events, verdicts, blacklists, coverage, per-round rollups, rejections,
and probe counts — to match exactly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.fleet.coordinator import FleetCoordinator, FleetRunResult
from repro.fleet.spec import FleetSpec, TenantSpec
from repro.shard.equivalence import PlaneConfig
from repro.shard.spec import FaultSpec, MonitorFaultSpec

__all__ = [
    "default_fleet_spec",
    "fleet_gate",
    "run_fleet",
]


def default_fleet_spec(
    seed: int = 0,
    total_rounds: int = 12,
    with_chaos: bool = True,
) -> FleetSpec:
    """The smoke-scale fleet: 4 tenants on a 512-endpoint fabric.

    Exercises every lifecycle edge the gate cares about: a long-lived
    churning tenant, a mid-run arrival, a mid-run departure, and a
    tenant with a demanding coverage floor, plus one network fault and
    (optionally) a monitor-plane fault window.
    """
    tenants = (
        TenantSpec(
            name="anchor", num_containers=8, gpus_per_container=4,
            churn_rate=0.25,
        ),
        TenantSpec(
            name="burst", num_containers=8, gpus_per_container=4,
            arrival_round=3, departure_round=10,
        ),
        TenantSpec(
            name="late", num_containers=8, gpus_per_container=4,
            arrival_round=5, coverage_floor=0.5,
        ),
        TenantSpec(
            name="steady", num_containers=8, gpus_per_container=4,
            weight=2.0,
        ),
    )
    from repro.cluster.identifiers import ContainerId, TaskId

    monitor_faults: Tuple[MonitorFaultSpec, ...] = ()
    if with_chaos:
        monitor_faults = (
            MonitorFaultSpec(
                issue="PROBE_REPORT_LOSS",
                start_round=4,
                end_round=9,
                rate=0.25,
            ),
        )
    return FleetSpec(
        seed=seed,
        total_rounds=total_rounds,
        num_segments=16,            # 128 hosts x 4 rails = 512 endpoints
        hosts_per_segment=8,
        rails_per_host=4,
        probe_budget_per_round=120,  # binding: peak demand is 160
        chunk_rounds=4,
        tenants=tenants,
        faults=(
            FaultSpec(
                issue="CONTAINER_CRASH",
                target=ContainerId(TaskId(0), 2),
                start_round=4,
                end_round=9,
            ),
        ),
        monitor_faults=monitor_faults,
    )


def run_fleet(
    spec: FleetSpec,
    num_workers: int = 1,
    chunk_rounds: Optional[int] = None,
    kill_schedule: Optional[Dict[int, int]] = None,
    recorder=None,
    bus=None,
) -> FleetRunResult:
    """Run the fleet once with the given execution shape."""
    coordinator = FleetCoordinator(
        spec,
        num_workers=num_workers,
        chunk_rounds=chunk_rounds,
        kill_schedule=kill_schedule,
        recorder=recorder,
        bus=bus,
    )
    return coordinator.run()


def fleet_gate(
    worker_counts: Sequence[int] = (2, 4), failover: bool = True
) -> List[PlaneConfig]:
    """The fleet's gate: every worker count, plus — with ``failover`` —
    a run at the largest count in which worker 0 is killed at chunk 2,
    forcing tenant reassignment and a replay-adoption."""
    configs = [PlaneConfig(count) for count in worker_counts]
    if failover:
        count = max(worker_counts) if worker_counts else 2
        configs.append(PlaneConfig(count, kills=((0, 2),)))
    return configs
