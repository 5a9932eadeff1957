"""The differential gate both planes run.

For a fixed run seed, what a plane diagnoses must not depend on its
worker count, backend, or failover history.  :func:`verify_equivalence`
runs a single-worker in-process baseline and every :class:`PlaneConfig`
(workers, backend, kill schedule), compares each run's named
``surfaces()`` with the baseline's, and raises :class:`EquivalenceError`
on the first divergence.  A configuration with kills must also produce
reassignments, or failover never ran.  ``repro bench-shard`` and
``repro fleet bench`` run it before timing anything.

This module also holds the shard plane's gate scenario
(:func:`default_equivalence_spec`) and configurations
(:func:`shard_gate`); the fleet's are in :mod:`repro.fleet.equivalence`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.cluster.identifiers import LinkId
from repro.network.issues import IssueType
from repro.shard.backend import backend_named
from repro.shard.coordinator import ShardCoordinator, ShardRunResult
from repro.shard.spec import FaultSpec, ShardScenarioSpec, build_replica

__all__ = [
    "EquivalenceError",
    "PlaneConfig",
    "default_equivalence_spec",
    "run_plane",
    "shard_gate",
    "verify_equivalence",
]


class EquivalenceError(AssertionError):
    """A plane configuration diverged from its single-worker baseline."""


@dataclass(frozen=True)
class PlaneConfig:
    """One gate configuration: worker count, backend, kill schedule."""

    workers: int
    backend: str = "inproc"
    #: ``(worker id, 1-based chunk)`` kills, as in ``kill_schedule``.
    kills: Tuple[Tuple[int, int], ...] = ()

    @property
    def kill_schedule(self) -> Optional[Dict[int, int]]:
        return dict(self.kills) or None

    def __str__(self) -> str:
        return f"workers={self.workers} backend={self.backend}" + "".join(
            f" kill={worker}@chunk{chunk}" for worker, chunk in self.kills
        )


def run_plane(
    spec: ShardScenarioSpec,
    num_shards: int,
    backend: str = "inproc",
    chunk_rounds: int = 5,
    kill_schedule: Optional[Dict[int, int]] = None,
    recorder=None,
    bus=None,
) -> ShardRunResult:
    """Run the spec'd scenario on the sharded plane, start to finish."""
    coordinator = ShardCoordinator(
        spec,
        num_shards,
        backend=backend_named(backend),
        chunk_rounds=chunk_rounds,
        recorder=recorder,
        kill_schedule=kill_schedule,
        bus=bus,
    )
    return coordinator.run()


def default_equivalence_spec(
    seed: int = 0, total_rounds: int = 30
) -> ShardScenarioSpec:
    """The smoke scenario the gate runs: a 64-endpoint task with one
    hard fault on a switch link, one RNIC port failure, and a container
    crash — enough symptom diversity to exercise overlay, tomography,
    and fast-loss paths without slowing CI down."""
    base = ShardScenarioSpec(
        num_containers=16,
        gpus_per_container=4,
        seed=seed,
        total_rounds=total_rounds,
    )
    probe = build_replica(base)
    rnic = probe.rnic_of_rank(3)
    other_rnic = probe.rnic_of_rank(8)
    tor_link = LinkId.between(
        other_rnic, probe.topology.tor_of(other_rnic)
    )
    victim = sorted(probe.task.containers)[5]
    faults = (
        FaultSpec(
            issue=IssueType.RNIC_PORT_DOWN.name,
            target=rnic,
            start_round=4,
            end_round=18,
        ),
        FaultSpec(
            issue=IssueType.SWITCH_PORT_DOWN.name,
            target=tor_link,
            start_round=8,
        ),
        FaultSpec(
            issue=IssueType.CONTAINER_CRASH.name,
            target=victim,
            start_round=11,
            end_round=22,
        ),
    )
    return ShardScenarioSpec(
        num_containers=base.num_containers,
        gpus_per_container=base.gpus_per_container,
        seed=seed,
        total_rounds=total_rounds,
        faults=faults,
    )


def shard_gate(
    shard_counts: Tuple[int, ...] = (2, 4),
    backends: Tuple[str, ...] = ("inproc",),
    with_failover: bool = True,
) -> List[PlaneConfig]:
    """The shard plane's gate: every (shard count, backend) pair, plus
    — with ``with_failover`` — a 4-shard run per backend in which shard
    1 is killed at chunk 2 and its pairs fail over."""
    configs = [
        PlaneConfig(count, backend)
        for backend in backends for count in shard_counts
    ]
    if with_failover:
        configs += [
            PlaneConfig(4, backend, kills=((1, 2),)) for backend in backends
        ]
    return configs


def _rows(surface) -> set:
    items = surface.items() if isinstance(surface, dict) else surface
    return {repr(row) for row in items}


def _compare(label: str, baseline: Any, candidate: Any) -> None:
    expected = baseline.surfaces()
    for name, got in candidate.surfaces().items():
        want = expected[name]
        if got == want:
            continue
        missing = sorted(_rows(want) - _rows(got))[:3]
        extra = sorted(_rows(got) - _rows(want))[:3]
        raise EquivalenceError(
            f"{label}: {name} diverged from the single-worker baseline "
            f"(missing={missing}, extra={extra})"
        )


def verify_equivalence(
    run: Callable[[PlaneConfig], Any], configs: Iterable[PlaneConfig]
) -> Tuple[Any, List[str]]:
    """Run the gate; raises :class:`EquivalenceError` on any diff.

    ``run`` executes one configuration and returns its run result,
    which has ``surfaces()`` and ``reassignments``.  Every
    configuration's surfaces must equal those of the ``PlaneConfig(1)``
    baseline.  Returns the baseline result and the labels of the
    configurations compared.
    """
    baseline = run(PlaneConfig(1))
    compared: List[str] = []
    for config in configs:
        label = str(config)
        candidate = run(config)
        if config.kills and not candidate.reassignments:
            raise EquivalenceError(
                f"{label}: the scripted kill produced no reassignments "
                "— failover never ran"
            )
        _compare(label, baseline, candidate)
        compared.append(label)
    return baseline, compared
