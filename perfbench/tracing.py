"""Layer tracer for the traced benchmark run.

Wraps the public entry points of each ``repro`` layer on the round loop
from outside the package: class attributes are swapped for timing
wrappers on :meth:`LayerTracer.install` and put back on
:meth:`LayerTracer.uninstall`.  Nothing under ``src/`` changes.

Spans nest on one stack (the round loop is single-threaded), so each
span's *self* time is its duration minus the time its child spans
cover.  The benchmark opens one root span per operation; the root's
self time is the part of the operation no wrapped layer accounts for
(controller, sim engine, series, bus) and is reported as
``round.other_s``.  Self times of every span therefore add up to the
sum of the root durations, which the stage-sum check compares against
the independently measured wall time of the timed phase.
"""

from __future__ import annotations

import inspect
import pickle
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple

ROOT = "op"
#: Host-speed calibration samples taken inside an operation; timed but
#: kept out of the stage sum, as they are kept out of the wall time.
CALIBRATION_SPAN = "host.calibration"

#: Reported layer times (per-layer metric -> span name).  Self times,
#: except the shard and fleet worker spans, whose metrics are the
#: coordinator's view of a call (inclusive time).
SELF_TIMES = {
    "pinglist.select_s": "pinglist.select",
    "fabric.probe_s": "fabric.probe",
    "fabric.resolve_s": "fabric.resolve",
    "fabric.trace_s": "fabric.trace",
    "analyzer.ingest_s": "analyzer.ingest",
    "analyzer.flush_s": "analyzer.flush",
    "localize.s": "localize",
    "skeleton.infer_s": "skeleton.infer",
    "build.s": "build",
    "round.other_s": ROOT,
    "fleet.allocate_s": "fleet.allocate",
    "fleet.select_s": "fleet.select",
    "fleet.lifecycle_s": "fleet.lifecycle",
}


class LayerTracer:
    """Span stack plus per-layer counters for one traced run."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.worker_s: Dict[int, float] = defaultdict(float)
        self._stack: List[List] = []
        #: Flow caches and analyzers seen during the traced phase, with
        #: their counters at first sight (work before it is not traced).
        self._caches: Dict[int, Tuple[object, int, int]] = {}
        self._analyzers: Dict[int, Tuple[object, int]] = {}
        self._restore: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def _enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self) -> float:
        name, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    @contextmanager
    def span(self, name: str):
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def root(self):
        """One benchmark operation (a round, a case, a coordinator run)."""
        return self.span(ROOT)

    def _timed(
        self, name: str, func: Callable, before=None, after=None
    ) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            tracer._enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                duration = tracer._exit()
            if after is not None:
                after(duration, result, args)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def _wrap_attr(
        self, owner, attr: str, name: str, before=None, after=None
    ) -> None:
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(
                self._timed(name, raw.__func__, before, after)
            )
        else:
            wrapped = self._timed(name, raw, before, after)
        self._restore.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def _wrap_function(self, func: Callable, name: str) -> None:
        """Rebind a module-level function in every ``repro`` module that
        imported it by name, so callers anywhere hit the wrapper."""
        wrapped = self._timed(name, func)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            if getattr(module, func.__name__, None) is func:
                self._restore.append((module, func.__name__, func))
                setattr(module, func.__name__, wrapped)

    def install(self) -> None:
        """Wrap every layer's public entry points."""
        from repro.cluster.overlay import OverlayNetwork
        from repro.core.agent import OverlayAgent
        from repro.core.analyzer import Analyzer
        from repro.core.localization import Localizer
        from repro.core.skeleton import SkeletonInference
        from repro.fleet.budget import ProbeBudgetScheduler
        from repro.fleet.controller import FleetController
        from repro.fleet.runtime import FleetReplica
        from repro.network.fabric import DataPlaneFabric, FlowResolutionCache
        from repro.shard.backend import InProcessHandle, MultiprocessingHandle
        from repro.workloads.scenarios import build_scenario

        count = self.counts

        def pairs_returned(_, result, __):
            count["pinglist.pairs_returned"] += len(result)

        def seen_cache(args):
            cache = args[0]
            if id(cache) not in self._caches:
                self._caches[id(cache)] = (cache, cache.hits, cache.misses)

        def seen_analyzer(args):
            analyzer = args[0]
            if id(analyzer) not in self._analyzers:
                self._analyzers[id(analyzer)] = (
                    analyzer, len(analyzer.events)
                )

        def localized(_, __, args):
            count["localize.calls"] += 1
            count["localize.events_in"] += len(args[1])

        def worker_ran(duration, _, args):
            self.worker_s[args[0].worker_id] += duration

        def chunk_size(_, result, __):
            count["shard.result_bytes"] += len(pickle.dumps(result))

        self._wrap_attr(OverlayAgent, "my_pairs", "pinglist.select",
                        after=pairs_returned)
        self._wrap_attr(DataPlaneFabric, "send_probe_batch", "fabric.probe")
        self._wrap_attr(FlowResolutionCache, "resolve", "fabric.resolve",
                        before=seen_cache)
        self._wrap_attr(OverlayNetwork, "trace", "fabric.trace")
        self._wrap_attr(Analyzer, "ingest", "analyzer.ingest",
                        before=seen_analyzer)
        self._wrap_attr(Analyzer, "flush", "analyzer.flush",
                        before=seen_analyzer)
        self._wrap_attr(Localizer, "localize", "localize", after=localized)
        self._wrap_attr(SkeletonInference, "infer", "skeleton.infer")
        self._wrap_function(build_scenario, "build")
        for handle in (InProcessHandle, MultiprocessingHandle):
            self._wrap_attr(handle, "begin_chunk", "shard.dispatch")
            self._wrap_attr(handle, "finish_chunk", "shard.wait",
                            after=chunk_size)
        self._wrap_attr(ProbeBudgetScheduler, "allocate", "fleet.allocate")
        self._wrap_attr(ProbeBudgetScheduler, "select_pairs", "fleet.select")
        self._wrap_attr(FleetReplica, "apply_lifecycle", "fleet.lifecycle")
        self._wrap_attr(FleetController, "run_rounds", "fleet.worker",
                        after=worker_ran)

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def cache_counters(self) -> Tuple[int, int]:
        """(hits, misses) of every flow cache since the tracer first saw
        it resolve."""
        caches = self._caches.values()
        return (
            sum(cache.hits - hits0 for cache, hits0, _ in caches),
            sum(cache.misses - misses0 for cache, _, misses0 in caches),
        )

    def stage_sum_s(self) -> float:
        """Self time of every span but calibration: the summed root
        durations, calibration samples excluded."""
        return sum(
            value for name, value in self.self_s.items()
            if name != CALIBRATION_SPAN
        )

    def layer_metrics(self, wall_s: float) -> Dict[str, float]:
        """The per-layer metrics of the traced timed phase, whose
        untraced-equivalent wall time is ``wall_s``."""
        metrics = {key: self.self_s.get(span, 0.0)
                   for key, span in SELF_TIMES.items()}
        hits, misses = self.cache_counters()
        lookups = hits + misses
        metrics["fabric.cache_hit_rate"] = hits / lookups if lookups else 0.0
        metrics["fabric.cache_misses"] = float(misses)
        metrics["analyzer.events_opened"] = float(sum(
            len(analyzer.events) - opened0
            for analyzer, opened0 in self._analyzers.values()
        ))
        for key in ("pinglist.pairs_returned", "localize.calls",
                    "localize.events_in", "shard.result_bytes"):
            metrics[key] = float(self.counts.get(key, 0.0))
        dispatch = self.total_s.get("shard.dispatch", 0.0)
        wait = self.total_s.get("shard.wait", 0.0)
        metrics["shard.dispatch_s"] = dispatch
        metrics["shard.wait_s"] = wait
        metrics["shard.coordinator_s"] = (
            wall_s - dispatch - wait if dispatch or wait else 0.0
        )
        workers = list(self.worker_s.values())
        metrics["fleet.worker_s_sum"] = float(sum(workers))
        metrics["fleet.worker_s_max"] = max(workers, default=0.0)
        return metrics
