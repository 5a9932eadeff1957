"""Shard-scaling measurements behind ``BENCH_shard.json``.

Measures probe-round throughput of the sharded plane at several shard
counts and backends, after first running the equivalence gate — a
speedup that changed results would be a correctness bug, so the gate
is not optional.

Each configuration is warmed up round by round until a round in which
no shard's flow-resolution cache missed (a fresh replica misses for its
first rounds while flows are installed and resolved), and only warm
rounds are timed.  The row keeps the cold side too: how many rounds
missed, the first round's wall time, and the timed rounds' hit rate.

What sharding buys on one host: an agent's per-round cost is its own
pairs (the ping list indexes active pairs by source), so the plane's
work is the same at any shard count and in-process shards only add
coordination.  The multiprocessing backend runs shards in parallel, so
its gain is bounded by the host's CPU count, which every row records.
The regression gate is therefore an absolute bound on the single-shard
round time, not a speedup.
"""

from __future__ import annotations

import gc
import json
import os
import time
from typing import Dict, List, Optional, Tuple

from repro.core.probing import estimate_sharded_round_duration
from repro.shard.backend import backend_named
from repro.shard.coordinator import ShardCoordinator
from repro.shard.equivalence import (
    default_equivalence_spec,
    run_plane,
    shard_gate,
    verify_equivalence,
)
from repro.shard.spec import ShardScenarioSpec

__all__ = [
    "bench_shard_round",
    "format_report",
    "run_shard_benchmark",
]

#: (endpoints, containers, gpus) sizes: quick for CI, full for the
#: committed artifact's 2048-endpoint acceptance row.
QUICK_SIZE = (128, 16, 8)
FULL_SIZE = (2048, 256, 8)
#: Upper bound on the warm 1-shard in-process round at each size, in
#: seconds; the full bound is ``repro bench-shard``'s regression gate.
FULL_ROUND_S_BOUND = 1.0
QUICK_ROUND_S_BOUND = 0.05
#: A plane whose flow caches still miss after this many rounds never
#: warms up; the benchmark refuses to time it.
MAX_COLD_ROUNDS = 10
#: (num_shards, backend) configurations measured per size.
CONFIGS: Tuple[Tuple[int, str], ...] = (
    (1, "inproc"),
    (4, "inproc"),
    (4, "mp"),
)


def _bench_spec(
    containers: int, gpus: int, rounds: int, seed: int
) -> ShardScenarioSpec:
    return ShardScenarioSpec(
        num_containers=containers,
        gpus_per_container=gpus,
        seed=seed,
        total_rounds=rounds,
        pair_mode="ring_chord",
    )


def bench_shard_round(
    containers: int,
    gpus: int,
    num_shards: int,
    backend: str,
    rounds: int = 2,
    seed: int = 0,
) -> Dict[str, object]:
    """Time ``rounds`` warm probe rounds across the whole plane.

    The coordinator and its shard replicas are built, and warm-up
    rounds run one at a time until no shard's flow cache misses,
    outside the timed region, so ``round_s`` is steady-state round
    throughput — the quantity that bounds how often the plane can probe
    at a given scale.  ``cold_round_s`` is the first round's wall time.
    """
    spec = _bench_spec(containers, gpus, MAX_COLD_ROUNDS + 1 + rounds, seed)
    coordinator = ShardCoordinator(
        spec,
        num_shards,
        backend=backend_named(backend),
        chunk_rounds=max(rounds, 1),
    )
    metrics = coordinator.metrics
    pairs = len(coordinator.all_pairs)
    try:
        cold_round_s = 0.0
        for warm in range(1, MAX_COLD_ROUNDS + 2):
            misses = metrics.counter("flow_cache.misses")
            started = time.perf_counter()
            coordinator._run_chunk(warm, warm, warm)
            if warm == 1:
                cold_round_s = time.perf_counter() - started
            if metrics.counter("flow_cache.misses") == misses:
                break
        else:
            raise RuntimeError(
                f"flow caches still cold after {MAX_COLD_ROUNDS} rounds"
            )
        hits0 = metrics.counter("flow_cache.hits")
        misses0 = metrics.counter("flow_cache.misses")
        gc.collect()
        started = time.perf_counter()
        coordinator._run_chunk(warm + 1, warm + 1, warm + rounds)
        elapsed = time.perf_counter() - started
        hits = metrics.counter("flow_cache.hits") - hits0
        lookups = hits + metrics.counter("flow_cache.misses") - misses0
    finally:
        for handle in coordinator.handles.values():
            if handle.alive:
                handle.stop()
    return {
        "endpoints": containers * gpus,
        "pairs_per_round": pairs,
        "shards": num_shards,
        "backend": backend,
        "cpu_count": os.cpu_count(),
        "cold_rounds": warm - 1,
        "cold_round_s": cold_round_s,
        "rounds": rounds,
        "elapsed_s": elapsed,
        "round_s": elapsed / rounds,
        "probes_per_s": pairs * rounds / elapsed,
        "warm_hit_rate": hits / lookups if lookups else None,
        "modeled_round_s": estimate_sharded_round_duration(
            coordinator.plan.assignments
        ),
    }


def run_shard_benchmark(
    quick: bool = False,
    seed: int = 0,
    out: Optional[str] = None,
) -> Dict[str, object]:
    """Run the gate plus the scaling sweep; optionally write JSON."""
    endpoints, containers, gpus = QUICK_SIZE if quick else FULL_SIZE
    rounds = 2
    gate_spec = default_equivalence_spec()
    baseline, compared = verify_equivalence(
        lambda config: run_plane(
            gate_spec, config.workers, config.backend,
            kill_schedule=config.kill_schedule,
        ),
        shard_gate(backends=("inproc", "mp")),
    )
    equivalence = {
        "baseline_events": len(baseline.events),
        "baseline_verdicts": len(baseline.verdicts),
        "compared": compared,
    }
    rows: List[Dict[str, object]] = [
        bench_shard_round(
            containers, gpus, num_shards, backend,
            rounds=rounds, seed=seed,
        )
        for num_shards, backend in CONFIGS
    ]
    baseline = rows[0]
    for row in rows:
        row["speedup"] = (
            float(baseline["round_s"]) / float(row["round_s"])
        )
    report: Dict[str, object] = {
        "benchmark": "shard-scaling",
        "quick": quick,
        "seed": seed,
        "endpoints": endpoints,
        "equivalence": equivalence,
        "scaling": rows,
    }
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report


def format_report(report: Dict[str, object]) -> str:
    """Human-readable summary of :func:`run_shard_benchmark` output."""
    lines = [
        f"shard scaling at {report['endpoints']} endpoints "
        "(probe-round throughput):",
        f"  {'shards':>7} {'backend':>8} {'pairs':>7} {'cold':>5} "
        f"{'cold s':>8} {'round s':>8} {'hit rate':>9} "
        f"{'probes/s':>10} {'speedup':>9}",
    ]
    for row in report["scaling"]:
        lines.append(
            f"  {row['shards']:>7} {row['backend']:>8} "
            f"{row['pairs_per_round']:>7} {row['cold_rounds']:>5} "
            f"{row['cold_round_s']:>8.3f} {row['round_s']:>8.3f} "
            f"{row['warm_hit_rate']:>9.3f} "
            f"{row['probes_per_s']:>10.0f} {row['speedup']:>8.2f}x"
        )
    lines.append(f"  host: {report['scaling'][0]['cpu_count']} CPU(s)")
    compared = report["equivalence"]["compared"]
    lines.append(
        f"equivalence: {len(compared)} configurations identical to the "
        "single-shard baseline "
        "(events, verdicts, and vote tables)"
    )
    return "\n".join(lines)
