"""The sharded monitoring control plane (scale-out of §6).

Splits the probe-pair universe into topology-aware shards, runs each
shard's probe rounds and detection independently (in-process or in
forked worker processes), and recombines per-shard evidence — merged
tomography votes, global localization, failover of dead shards — in a
coordinator.  The chunk loop, kills and failover live in
:mod:`repro.shard.plane`, which the fleet coordinator runs on too.  For
a fixed run seed, the plane's opened events and localization verdicts
are bit-identical across shard counts and backends;
:mod:`repro.shard.equivalence` enforces exactly that.
"""

from repro.shard.backend import (
    InProcessBackend,
    MultiprocessingBackend,
    ShardDeadError,
    backend_named,
)
from repro.shard.coordinator import (
    MergedVoteTable,
    ShardCoordinator,
    ShardRunResult,
    ShardStatus,
)
from repro.shard.equivalence import (
    EquivalenceError,
    PlaneConfig,
    default_equivalence_spec,
    run_plane,
    shard_gate,
    verify_equivalence,
)
from repro.shard.monitor import ChunkResult, EventRecord, ShardMonitor
from repro.shard.partition import (
    PartitionPlan,
    TenantPlacement,
    TopologyPartitioner,
    cross_shard_links,
    place_tenants,
    rebalance_tenants,
)
from repro.shard.plane import PlaneError, Reassignment, WorkerPlane
from repro.shard.spec import (
    FaultScheduleRunner,
    FaultSpec,
    ShardScenarioSpec,
    build_replica,
    pair_universe,
)

__all__ = [
    "ChunkResult",
    "EquivalenceError",
    "EventRecord",
    "FaultScheduleRunner",
    "FaultSpec",
    "InProcessBackend",
    "MergedVoteTable",
    "MultiprocessingBackend",
    "PartitionPlan",
    "PlaneConfig",
    "PlaneError",
    "Reassignment",
    "ShardCoordinator",
    "ShardDeadError",
    "ShardMonitor",
    "ShardRunResult",
    "ShardScenarioSpec",
    "ShardStatus",
    "TenantPlacement",
    "TopologyPartitioner",
    "WorkerPlane",
    "backend_named",
    "build_replica",
    "cross_shard_links",
    "default_equivalence_spec",
    "pair_universe",
    "place_tenants",
    "rebalance_tenants",
    "run_plane",
    "shard_gate",
    "verify_equivalence",
]
