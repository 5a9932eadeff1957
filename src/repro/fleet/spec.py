"""Frozen, picklable recipes for fleet-scale multi-tenant runs.

SkeletonHunter's deployment setting is a multi-tenant training cloud:
many jobs with heterogeneous parallelism shapes share one fabric, each
arriving, churning containers, and departing on its own schedule.  A
:class:`FleetSpec` captures an entire such run — fabric dimensions, a
global probes-per-round budget, and one :class:`TenantSpec` per job —
as a pure value, so any process (the fleet controller, a shard worker,
a failover replica) can rebuild the identical world from it.

Everything downstream hangs off two purity properties:

* tenant endpoints are a function of ``(task id, shape)`` alone
  (:func:`tenant_endpoints`), so a tenant's probe-pair universe — and
  therefore its budget demand — is known *before* placement; and
* all lifecycle randomness (container churn) is drawn through
  ``keyed_uniform`` with round-stamped keys (see
  :mod:`repro.fleet.lifecycle`), never from call-order-dependent RNG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, List, Optional, Tuple

from repro.cluster.identifiers import ContainerId, EndpointId, TaskId
from repro.core.detection import DetectorConfig
from repro.core.pinglist import ProbePair
from repro.shard.spec import FaultSpec, MonitorFaultSpec, ring_chord_pairs

__all__ = [
    "FleetSpec",
    "TenantSpec",
    "tenant_endpoints",
    "tenant_pairs",
]


@dataclass(frozen=True)
class TenantSpec:
    """One training job sharing the fleet's fabric.

    ``tp`` defaults to ``gpus_per_container`` (standard intra-node
    tensor parallelism); ``dp`` is derived so TP x PP x DP covers the
    job's GPUs, mirroring :func:`repro.workloads.scenarios.build_scenario`.
    The tenant is present for rounds ``[arrival_round,
    departure_round)`` (half-open; ``None`` = until the run ends) and
    reschedules one container per round with probability
    ``churn_rate``.  ``coverage_floor`` is the fraction of its probe
    pairs the budget scheduler must let it probe every round it is
    admitted; ``weight`` biases its share of leftover budget.
    """

    name: str
    num_containers: int = 4
    gpus_per_container: int = 4
    pp: int = 2
    ep: int = 1
    arrival_round: int = 1
    departure_round: Optional[int] = None
    churn_rate: float = 0.0
    coverage_floor: float = 0.25
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.num_containers < 2:
            raise ValueError(
                f"tenant {self.name!r} needs >= 2 containers to form "
                f"probe pairs, got {self.num_containers}"
            )
        if self.gpus_per_container < 1:
            raise ValueError(
                f"tenant {self.name!r} needs >= 1 GPU per container"
            )
        total = self.num_containers * self.gpus_per_container
        if total % (self.gpus_per_container * self.pp) != 0:
            raise ValueError(
                f"tenant {self.name!r}: tp*pp="
                f"{self.gpus_per_container * self.pp} must divide "
                f"{total} GPUs"
            )
        if self.arrival_round < 1:
            raise ValueError(
                f"tenant {self.name!r}: rounds are 1-based, "
                f"arrival_round={self.arrival_round}"
            )
        if (
            self.departure_round is not None
            and self.departure_round <= self.arrival_round
        ):
            raise ValueError(
                f"tenant {self.name!r}: departure_round must be after "
                f"arrival_round (got [{self.arrival_round}, "
                f"{self.departure_round}))"
            )
        if not 0.0 <= self.churn_rate <= 1.0:
            raise ValueError(
                f"tenant {self.name!r}: churn_rate must be in [0, 1]"
            )
        if not 0.0 < self.coverage_floor <= 1.0:
            raise ValueError(
                f"tenant {self.name!r}: coverage_floor must be in "
                f"(0, 1]"
            )
        if self.weight <= 0.0:
            raise ValueError(
                f"tenant {self.name!r}: weight must be positive"
            )

    @property
    def endpoints(self) -> int:
        """Endpoint count (containers x RNIC slots)."""
        return self.num_containers * self.gpus_per_container

    def present_at(self, round_index: int) -> bool:
        """Whether the tenant's job runs during ``round_index``."""
        if round_index < self.arrival_round:
            return False
        return (
            self.departure_round is None
            or round_index < self.departure_round
        )


@dataclass(frozen=True)
class FleetSpec:
    """Everything needed to rebuild a multi-tenant fleet run anywhere."""

    seed: int = 0
    total_rounds: int = 30
    probe_interval_s: float = 2.0
    #: Fabric shape.  ``num_segments=None`` sizes the fabric to fit
    #: every tenant's containers with one-third headroom for churn.
    hosts_per_segment: int = 8
    rails_per_host: int = 4
    num_spines: int = 4
    num_segments: Optional[int] = None
    #: Global probes-per-round budget shared by every admitted tenant.
    probe_budget_per_round: int = 256
    chunk_rounds: int = 5
    detector: Optional[DetectorConfig] = None
    tenants: Tuple[TenantSpec, ...] = ()
    #: Network fault schedule (round-numbered, replayable); targets are
    #: identifiers, exactly as in the shard plane.
    faults: Tuple[FaultSpec, ...] = ()
    #: Monitor-plane (chaos) schedule applied to every tenant's probe
    #: path; empty keeps the unhardened direct-batch path.
    monitor_faults: Tuple[MonitorFaultSpec, ...] = ()
    #: The detection implementation every tenant runs (a constant, not
    #: a field: there is one analyzer).
    analyzer_backend: ClassVar[str] = "columnar"

    def __post_init__(self) -> None:
        if self.total_rounds < 1:
            raise ValueError("total_rounds must be at least 1")
        if self.probe_budget_per_round < 1:
            raise ValueError("probe_budget_per_round must be positive")
        names = [tenant.name for tenant in self.tenants]
        if len(names) != len(set(names)):
            raise ValueError("tenant names must be unique")
        for tenant in self.tenants:
            if tenant.gpus_per_container > self.rails_per_host:
                raise ValueError(
                    f"tenant {tenant.name!r} wants "
                    f"{tenant.gpus_per_container} GPUs per container "
                    f"but hosts have {self.rails_per_host} rails"
                )

    def round_time(self, round_index: int) -> float:
        """Simulated time of round ``round_index`` (1-based)."""
        if round_index < 1:
            raise ValueError(f"rounds are 1-based, got {round_index}")
        return round_index * self.probe_interval_s

    @property
    def segments(self) -> int:
        """The fabric's segment count (derived when not pinned)."""
        if self.num_segments is not None:
            return self.num_segments
        peak = self.peak_containers()
        wanted = math.ceil(peak * 4 / 3 / self.hosts_per_segment)
        return max(2, wanted)

    @property
    def num_hosts(self) -> int:
        """Host count of the fabric."""
        return self.segments * self.hosts_per_segment

    @property
    def endpoint_capacity(self) -> int:
        """Fabric endpoint capacity (hosts x rails)."""
        return self.num_hosts * self.rails_per_host

    def peak_containers(self) -> int:
        """Maximum concurrently-placed containers over the schedule.

        One container occupies one host, so this bounds the host count
        the fabric needs.  Rejected tenants still count — admission is
        a budget decision made at arrival time, after capacity sizing.
        """
        peak = 0
        for round_index in range(1, self.total_rounds + 1):
            live = sum(
                tenant.num_containers
                for tenant in self.tenants
                if tenant.present_at(round_index)
            )
            peak = max(peak, live)
        return max(peak, 1)

    def tenant(self, name: str) -> TenantSpec:
        """The tenant spec named ``name``."""
        for tenant in self.tenants:
            if tenant.name == name:
                return tenant
        raise KeyError(f"unknown tenant {name!r}")

    def task_id_of(self, name: str) -> TaskId:
        """The deterministic task id of tenant ``name`` (spec order)."""
        for index, tenant in enumerate(self.tenants):
            if tenant.name == name:
                return TaskId(index)
        raise KeyError(f"unknown tenant {name!r}")


def tenant_endpoints(
    tenant: TenantSpec, task_id: TaskId
) -> List[EndpointId]:
    """The tenant's endpoints, sorted — knowable before placement.

    Endpoint identity is ``(container id, RNIC slot)``; container ids
    are ``(task id, rank)``.  Neither mentions a host, which is what
    lets the budget scheduler compute demands (and admission-control
    floors) without building a cluster, and keeps probe-pair identity
    stable across container migrations.
    """
    return sorted(
        EndpointId(ContainerId(task_id, rank), slot)
        for rank in range(tenant.num_containers)
        for slot in range(tenant.gpus_per_container)
    )


def tenant_pairs(
    tenant: TenantSpec, task_id: TaskId
) -> List[ProbePair]:
    """The tenant's skeleton-like probe-pair universe, sorted.

    The same ring-plus-chords construction the shard plane benchmarks
    with (:func:`repro.shard.spec.ring_chord_pairs`): O(n) pairs that
    touch every endpoint, which is what a per-tenant coverage floor is
    measured against.
    """
    return ring_chord_pairs(tenant_endpoints(tenant, task_id))
