"""Execution backends for the workers of a plane.

A worker is anything with ``run_rounds(start, end)`` and
``adopt(items, upto_round)``: a :class:`~repro.shard.monitor.ShardMonitor`
on the shard plane, a :class:`~repro.fleet.controller.FleetController`
on the fleet.  A backend's ``spawn`` takes the worker's id and a
zero-argument callable that builds it, and returns a handle.  Two
interchangeable backends exist:

* :class:`InProcessBackend` builds every worker in the coordinator's
  process — zero IPC, ideal for tests and for hosts where the python
  interpreter is the bottleneck anyway; and
* :class:`MultiprocessingBackend` forks one worker process per handle
  (the builder must then be picklable) and speaks a tiny command
  protocol over a pipe, isolating each worker's replica (a crash or
  kill of one worker never takes down the plane — the coordinator sees
  the dead pipe and fails the worker over).

Both expose the same two-phase chunk API (``begin_chunk`` dispatches,
``finish_chunk`` collects) so the coordinator can overlap all workers'
rounds before collecting any result.  Death is signalled exclusively
by :class:`ShardDeadError` — there are no wall-clock timeouts anywhere
(the plane must stay deterministic), so a worker death is either a
real crash or a scripted :meth:`kill` from a chaos test.
"""

from __future__ import annotations

import multiprocessing as mp
import traceback
from typing import Any, Callable, Optional, Sequence, Tuple

__all__ = [
    "InProcessBackend",
    "InProcessHandle",
    "MultiprocessingBackend",
    "ShardDeadError",
    "ShardHandle",
    "WorkerBuilder",
]


class ShardDeadError(RuntimeError):
    """The shard can no longer execute rounds (crashed or killed)."""


#: Builds one worker: a shard monitor or a fleet controller.
WorkerBuilder = Callable[[], Any]


class ShardHandle:
    """One worker as the coordinator sees it (backend-agnostic)."""

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.alive = True

    def begin_chunk(self, start_round: int, end_round: int) -> None:
        raise NotImplementedError

    def finish_chunk(self):
        """The worker's result for the dispatched chunk."""
        raise NotImplementedError

    def rebuild(self, items: Sequence, upto_round: int):
        """Rebuild the worker for ``items`` and replay rounds
        ``1..upto_round``; returns the replay's result (or ``None``)."""
        raise NotImplementedError

    def kill(self) -> None:
        """Simulate a shard crash (chaos/failover testing)."""
        raise NotImplementedError

    def stop(self) -> None:
        """Orderly shutdown."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# In-process backend
# ----------------------------------------------------------------------


class InProcessHandle(ShardHandle):
    """A worker living in the coordinator's process."""

    def __init__(self, shard_id: int, build: WorkerBuilder) -> None:
        super().__init__(shard_id)
        self.worker = build()
        self._pending: Optional[Tuple[int, int]] = None

    def begin_chunk(self, start_round: int, end_round: int) -> None:
        if not self.alive:
            raise ShardDeadError(f"shard {self.shard_id} is dead")
        self._pending = (start_round, end_round)

    def finish_chunk(self):
        if not self.alive:
            raise ShardDeadError(f"shard {self.shard_id} is dead")
        if self._pending is None:
            raise RuntimeError("finish_chunk without begin_chunk")
        start_round, end_round = self._pending
        self._pending = None
        return self.worker.run_rounds(start_round, end_round)

    def rebuild(self, items: Sequence, upto_round: int):
        if not self.alive:
            raise ShardDeadError(f"shard {self.shard_id} is dead")
        return self.worker.adopt(items, upto_round)

    def kill(self) -> None:
        self.alive = False

    def stop(self) -> None:
        self.alive = False


class InProcessBackend:
    """Runs every worker inside the coordinator's process."""

    name = "inproc"

    def spawn(self, shard_id: int, build: WorkerBuilder) -> ShardHandle:
        return InProcessHandle(shard_id, build)


# ----------------------------------------------------------------------
# Multiprocessing backend
# ----------------------------------------------------------------------


def _worker_main(conn, build: WorkerBuilder) -> None:
    """Worker entry point: serve chunk/rebuild commands over the pipe.

    Runs in a forked child.  Must stay deterministic — no wall clocks,
    no process ids, no unseeded RNG (enforced by the determinism lint's
    ``worker-determinism`` rule).  Any exception is shipped back as an
    ``("err", traceback)`` reply and ends the worker; the coordinator
    treats it like a death and fails the shard over.
    """
    worker = build()
    while True:
        try:
            message = conn.recv()
        except EOFError:
            break
        command = message[0]
        if command == "stop":
            conn.send(("ok", None))
            break
        try:
            if command == "chunk":
                result = worker.run_rounds(message[1], message[2])
            elif command == "rebuild":
                result = worker.adopt(message[1], message[2])
            else:
                raise ValueError(f"unknown command {command!r}")
        except Exception:  # noqa: BLE001 - ship the crash, then die
            conn.send(("err", traceback.format_exc()))
            break
        conn.send(("ok", result))
    conn.close()


class MultiprocessingHandle(ShardHandle):
    """A worker in its own forked process."""

    def __init__(self, shard_id: int, build: WorkerBuilder, context) -> None:
        super().__init__(shard_id)
        self._parent_conn, child_conn = context.Pipe()
        self._process = context.Process(
            target=_worker_main,
            args=(child_conn, build),
            daemon=True,
        )
        self._process.start()
        child_conn.close()

    def _send(self, message) -> None:
        if not self.alive:
            raise ShardDeadError(f"shard {self.shard_id} is dead")
        try:
            self._parent_conn.send(message)
        except (BrokenPipeError, OSError) as error:
            self.alive = False
            raise ShardDeadError(
                f"shard {self.shard_id} worker is gone"
            ) from error

    def _recv(self):
        if not self.alive:
            raise ShardDeadError(f"shard {self.shard_id} is dead")
        try:
            kind, payload = self._parent_conn.recv()
        except (EOFError, OSError) as error:
            self.alive = False
            raise ShardDeadError(
                f"shard {self.shard_id} worker died"
            ) from error
        if kind == "err":
            self.alive = False
            raise ShardDeadError(
                f"shard {self.shard_id} worker crashed:\n{payload}"
            )
        return payload

    def begin_chunk(self, start_round: int, end_round: int) -> None:
        self._send(("chunk", start_round, end_round))

    def finish_chunk(self):
        return self._recv()

    def rebuild(self, items: Sequence, upto_round: int):
        self._send(("rebuild", tuple(items), upto_round))
        return self._recv()

    def kill(self) -> None:
        if self._process.is_alive():
            self._process.terminate()
            self._process.join()
        self.alive = False

    def stop(self) -> None:
        if self.alive and self._process.is_alive():
            try:
                self._parent_conn.send(("stop",))
                self._parent_conn.recv()
            except (BrokenPipeError, EOFError, OSError):
                pass
        if self._process.is_alive():
            self._process.terminate()
        self._process.join()
        self.alive = False


class MultiprocessingBackend:
    """Runs each worker in its own process.

    Workers default to ``fork`` where the platform offers it (cheapest:
    the builder is inherited, not pickled) and fall back to ``spawn``
    elsewhere — ``fork`` does not exist on Windows and is fragile with
    threads on macOS.  Both methods are correct; the protocol ships the
    builder explicitly either way.
    """

    name = "mp"

    def __init__(self, start_method: Optional[str] = None) -> None:
        if start_method is None:
            start_method = (
                "fork"
                if "fork" in mp.get_all_start_methods()
                else "spawn"
            )
        self._context = mp.get_context(start_method)

    def spawn(self, shard_id: int, build: WorkerBuilder) -> ShardHandle:
        return MultiprocessingHandle(shard_id, build, self._context)


def backend_named(name: str):
    """The backend registered under ``name`` ("inproc" or "mp")."""
    if name == "inproc":
        return InProcessBackend()
    if name == "mp":
        return MultiprocessingBackend()
    raise ValueError(f"unknown shard backend {name!r}")

