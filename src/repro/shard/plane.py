"""The worker plane both coordinators run on.

:class:`WorkerPlane` drives N workers — shard monitors or fleet
controllers behind :class:`~repro.shard.backend.ShardHandle` handles —
to the spec's horizon in chunks of ``chunk_rounds`` rounds.  Each chunk
is dispatched to every live worker before any result is collected, so
a parallel backend overlaps their rounds.  ``kill_schedule`` maps a
worker id to the 1-based chunk at whose start that worker is killed.

A dead worker (killed, or seen dead at dispatch or collect through
:class:`ShardDeadError`, never a wall-clock timeout) has what it owned
split among the survivors, each of which rebuilds and replays rounds
``1..r``: ``r`` is the last round the survivors completed, ``start - 1``
for a kill at a chunk's start, the chunk's ``end`` for a death seen
mid-chunk.  Replay is exact (probe outcomes are pure functions of seed,
pair and time).  Failover is a worklist: an adopter that dies
mid-rebuild re-orphans its whole set, and running out of survivors
raises :class:`PlaneError`.

A coordinator supplies only how orphans are split
(:meth:`WorkerPlane._split`) and what a chunk merges into
(:meth:`WorkerPlane._merge_chunk`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.shard.backend import ShardDeadError, ShardHandle, WorkerBuilder
from repro.sim.metrics import MetricRegistry

__all__ = ["PlaneError", "Reassignment", "WorkerPlane"]


class PlaneError(RuntimeError):
    """The plane cannot make progress (every worker died)."""


@dataclass(frozen=True)
class Reassignment:
    """One failover move: part of a dead worker's set to a survivor."""

    chunk: int
    #: The last round replayed by the adopter.
    round_index: int
    from_shard: int
    to_shard: int
    #: What moved: probe pairs on the shard plane, tenant names on the
    #: fleet.
    items: Tuple[Any, ...]

    @property
    def pair_count(self) -> int:
        """How many items moved."""
        return len(self.items)


class WorkerPlane:
    """The chunk loop, kills and failover shared by both coordinators.

    Subclasses spawn workers with :meth:`_spawn` and keep one status
    per worker in ``statuses``, with an ``alive`` flag and an
    ``adopt(owned, moved)`` method.
    """

    #: Prefix of the plane's metrics and recorder events.
    name = "plane"

    def __init__(
        self,
        spec,
        num_workers: int,
        chunk_rounds: int,
        backend,
        kill_schedule: Optional[Dict[int, int]] = None,
        recorder=None,
        bus=None,
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"need at least one worker, got {num_workers}")
        if chunk_rounds < 1:
            raise ValueError("chunks must contain at least one round")
        self.kill_schedule = dict(kill_schedule or {})
        for worker_id, chunk in sorted(self.kill_schedule.items()):
            if not 0 <= worker_id < num_workers or chunk < 1:
                raise ValueError(
                    f"kill_schedule {{{worker_id}: {chunk}}}: ids run "
                    f"0..{num_workers - 1}, chunks are 1-based"
                )
        self.spec = spec
        self.chunk_rounds = chunk_rounds
        self.backend = backend
        self.recorder = recorder
        # Coordinators publish to the bus from their merge step only,
        # so it sees one interleaving however the workers were run.
        self.bus = bus
        self.metrics = (
            recorder.metrics if recorder is not None else MetricRegistry()
        )
        self.handles: Dict[int, ShardHandle] = {}
        #: What each live worker owns, sorted: pairs or tenant names.
        self.owned: Dict[int, Tuple[Any, ...]] = {}
        self.statuses: Dict[int, Any] = {}
        self.reassignments: List[Reassignment] = []
        #: Wall-clock seconds spent collecting each worker's chunks: an
        #: in-process worker's probing time, or the wait for a process.
        self.worker_seconds: Dict[int, float] = {
            worker_id: 0.0 for worker_id in range(num_workers)
        }

    def _spawn(
        self, worker_id: int, items: Sequence, build: WorkerBuilder
    ) -> None:
        self.handles[worker_id] = self.backend.spawn(worker_id, build)
        self.owned[worker_id] = tuple(sorted(items))

    # ------------------------------------------------------------------
    # What a plane supplies
    # ------------------------------------------------------------------

    def _split(
        self, orphaned: Tuple[Any, ...], survivors: List[int]
    ) -> Dict[int, List[Any]]:
        """Divide a dead worker's set among the survivors."""
        raise NotImplementedError

    def _merge_chunk(
        self, chunk: int, start: int, end: int, results: List[Any]
    ) -> None:
        """Fold a chunk's results (failover replays included) in."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # The run loop
    # ------------------------------------------------------------------

    def _live(self) -> List[int]:
        return sorted(
            worker_id
            for worker_id, status in self.statuses.items()
            if status.alive
        )

    def _drive(self) -> None:
        """Run every chunk to the horizon, then stop the workers."""
        total = self.spec.total_rounds
        chunk = 0
        start = 1
        try:
            while start <= total:
                chunk += 1
                end = min(start + self.chunk_rounds - 1, total)
                self._run_chunk(chunk, start, end)
                start = end + 1
        finally:
            for handle in self.handles.values():
                if handle.alive:
                    handle.stop()

    def _run_chunk(self, chunk: int, start: int, end: int) -> None:
        killed = [
            worker_id
            for worker_id, at_chunk in sorted(self.kill_schedule.items())
            if at_chunk == chunk and self.statuses[worker_id].alive
        ]
        for worker_id in killed:
            self.handles[worker_id].kill()
            self._mark_dead(worker_id, start - 1)
        results = self._failover(chunk, killed, start - 1)

        dispatched: List[int] = []
        dead: List[int] = []
        for worker_id in self._live():
            try:
                self.handles[worker_id].begin_chunk(start, end)
                dispatched.append(worker_id)
            except ShardDeadError:
                self._mark_dead(worker_id, end)
                dead.append(worker_id)
        for worker_id in dispatched:
            began = time.perf_counter()
            try:
                results.append(self.handles[worker_id].finish_chunk())
            except ShardDeadError:
                self._mark_dead(worker_id, end)
                dead.append(worker_id)
                continue
            self.worker_seconds[worker_id] += time.perf_counter() - began
        results.extend(self._failover(chunk, dead, end))
        self._merge_chunk(chunk, start, end, results)

    def _mark_dead(self, worker_id: int, round_index: int) -> None:
        status = self.statuses[worker_id]
        if not status.alive:
            return
        status.alive = False
        # Handles normally mark themselves dead when they raise, but
        # failover correctness (no item left unowned, worklist
        # termination) must not depend on backend discipline.
        self.handles[worker_id].alive = False
        self.metrics.increment(f"{self.name}.deaths")
        if self.recorder is not None:
            self.recorder.event(
                f"{self.name}.dead",
                sim_time=self.spec.round_time(max(round_index, 1)),
                worker=worker_id,
            )

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------

    def _failover(
        self, chunk: int, dead: List[int], upto_round: int
    ) -> List[Any]:
        """Hand the dead workers' sets to survivors; returns replays."""
        replays: List[Any] = []
        pending = sorted(set(dead))
        while pending:
            survivors = self._live()
            if not survivors:
                raise PlaneError(
                    f"all {self.name} workers dead at chunk {chunk}; "
                    "cannot continue"
                )
            adopters: Dict[int, int] = {}
            for dead_id in pending:
                orphaned = self.owned.pop(dead_id, ())
                if not orphaned:
                    continue
                split = self._split(orphaned, survivors)
                for target in sorted(split):
                    moved = tuple(split[target])
                    if moved:
                        self._move(chunk, upto_round, dead_id, target, moved)
                        adopters[target] = (
                            adopters.get(target, 0) + len(moved)
                        )
            pending = []
            for target in sorted(adopters):
                owned = self.owned[target]
                self.statuses[target].adopt(owned, adopters[target])
                try:
                    replay = self.handles[target].rebuild(owned, upto_round)
                except ShardDeadError:
                    self._mark_dead(target, upto_round)
                    pending.append(target)
                    continue
                if replay is not None:
                    replays.append(replay)
        return replays

    def _move(
        self,
        chunk: int,
        upto_round: int,
        from_worker: int,
        to_worker: int,
        moved: Tuple[Any, ...],
    ) -> None:
        self.owned[to_worker] = tuple(
            sorted(set(self.owned[to_worker]) | set(moved))
        )
        self.reassignments.append(Reassignment(
            chunk, upto_round, from_worker, to_worker, moved
        ))
        self.metrics.increment(f"{self.name}.reassignments")
        if self.recorder is not None:
            self.recorder.event(
                f"{self.name}.reassign",
                sim_time=self.spec.round_time(max(upto_round, 1)),
                from_worker=from_worker,
                to_worker=to_worker,
                items=len(moved),
            )
