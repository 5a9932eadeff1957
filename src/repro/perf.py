"""Probing fast-path performance measurement (``repro bench``).

Quantifies the two optimizations that keep skeleton-scale monitoring
cheap (the simulator-side analogue of the paper's §6 probing-overhead
argument, Figures 15-17):

* **Probe rounds** — one round over a skeleton-like pair list, measured
  sequentially with resolution/path caches disabled (the pre-fast-path
  cost: one full overlay walk + ECMP enumeration + fault scan per probe)
  against :meth:`~repro.network.fabric.DataPlaneFabric.send_probe_batch`
  with caches warm (the production configuration).
* **Detector windows** — the per-window work of the short-term
  detector in the columnar engine
  (:class:`~repro.core.columnar.ColumnarDetectionEngine`), which queues
  every pair's closed window and scores one flush-sized batch across
  all pairs at once.  Its LOF scores are pinned to the full-rebuild
  reference :func:`~repro.analysis.lof.lof_score_of_new_point`
  (``score_drift``).

Before timing anything, :func:`verify_equivalence` replays one round
both ways on identically seeded scenarios and insists on bit-identical
:class:`~repro.network.packet.ProbeResult` streams — a fast path is only
a fast path if it changes nothing but the clock.

Wall-clock measurement uses ``time.perf_counter`` (monotonic interval
timing is determinism-lint clean; only calendar time is banned).
"""

from __future__ import annotations

import gc
import json
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.lof import lof_score_of_new_point
from repro.cluster.identifiers import EndpointId
from repro.core.columnar import ColumnarDetectionEngine
from repro.core.detection import DetectorConfig
from repro.core.pinglist import ProbePair
from repro.sim.metrics import TimeSeries
from repro.sim.rng import RngRegistry
from repro.workloads.scenarios import MonitoredScenario, build_scenario

__all__ = [
    "bench_detector",
    "bench_probing",
    "format_report",
    "run_benchmark",
    "verify_equivalence",
]

#: Endpoint counts the full benchmark sweeps (§6-scale probing rounds).
FULL_SIZES = (128, 512, 2048)
#: Endpoint counts the CI smoke run sweeps.
QUICK_SIZES = (128,)

_GPUS_PER_CONTAINER = 8


def _build(num_endpoints: int, seed: int) -> MonitoredScenario:
    if num_endpoints % _GPUS_PER_CONTAINER:
        raise ValueError(
            f"num_endpoints must be a multiple of {_GPUS_PER_CONTAINER}"
        )
    return build_scenario(
        num_containers=num_endpoints // _GPUS_PER_CONTAINER,
        gpus_per_container=_GPUS_PER_CONTAINER,
        seed=seed,
        start_monitoring=False,
    )


def _round_pairs(
    endpoints: List[EndpointId],
) -> List[Tuple[EndpointId, EndpointId]]:
    """A skeleton-like probing round: ring plus a long-stride chord.

    Mirrors what an optimized ping list looks like — O(n) pairs, a mix
    of same-ToR and cross-segment flows — without depending on skeleton
    inference (whose cost is not what this benchmark measures).
    """
    n = len(endpoints)
    pairs: List[Tuple[EndpointId, EndpointId]] = []
    for i, src in enumerate(endpoints):
        ring = endpoints[(i + 1) % n]
        if ring != src:
            pairs.append((src, ring))
        chord = endpoints[(i + n // 3 + 1) % n]
        if chord != src and chord != ring:
            pairs.append((src, chord))
    return pairs


def verify_equivalence(num_endpoints: int = 64, seed: int = 7) -> int:
    """Assert batch and sequential probing agree result-for-result.

    Runs the same two rounds on two identically seeded scenarios — one
    probe at a time on the first, one batch per round on the second —
    and compares the :class:`ProbeResult` streams for equality.  Returns
    the number of results compared; raises ``AssertionError`` on any
    mismatch.
    """
    seq = _build(num_endpoints, seed)
    bat = _build(num_endpoints, seed)
    pairs_seq = _round_pairs(seq.task.endpoints())
    pairs_bat = _round_pairs(bat.task.endpoints())
    compared = 0
    for round_index in range(2):
        at = float(round_index)
        seq_results = [
            seq.fabric.send_probe(src, dst, at) for src, dst in pairs_seq
        ]
        bat_results = bat.fabric.send_probe_batch(pairs_bat, at)
        if seq_results != bat_results:
            raise AssertionError(
                "sequential and batched probing diverged in round "
                f"{round_index}"
            )
        compared += len(seq_results)
    return compared


def bench_probing(
    num_endpoints: int, rounds: int = 3, seed: int = 0
) -> Dict[str, float]:
    """Time sequential (cold, uncached) vs batched (cached) rounds.

    Both variants run one warm-up round first (the pre-change sequential
    path also had its flow rules installed after round one), then
    ``rounds`` timed rounds over the same pair list.
    """
    scenario = _build(num_endpoints, seed)
    fabric = scenario.fabric
    pairs = _round_pairs(scenario.task.endpoints())

    # Sequential baseline: what every probe cost before the fast path —
    # full overlay walk, ECMP enumeration, and fault scan each time.
    fabric.resolution_cache.enabled = False
    fabric.resolution_cache.invalidate()
    scenario.topology.path_cache_enabled = False
    scenario.topology.invalidate_path_cache()
    for src, dst in pairs:
        fabric.send_probe(src, dst, 0.0)
    gc.collect()
    start = time.perf_counter()
    for r in range(rounds):
        at = float(r + 1)
        for src, dst in pairs:
            fabric.send_probe(src, dst, at)
    sequential_s = time.perf_counter() - start

    fabric.resolution_cache.enabled = True
    scenario.topology.path_cache_enabled = True
    fabric.send_probe_batch(pairs, float(rounds + 1))
    # Dead scenario graphs from earlier sweeps contain reference cycles
    # (health-change callbacks); collect them now so a cyclic-GC pass
    # does not land inside the short batched timing window.
    gc.collect()
    start = time.perf_counter()
    for r in range(rounds):
        fabric.send_probe_batch(pairs, float(rounds + 2 + r))
    batched_s = time.perf_counter() - start

    probes = len(pairs) * rounds
    return {
        "endpoints": num_endpoints,
        "pairs_per_round": len(pairs),
        "rounds": rounds,
        "sequential_s": sequential_s,
        "batched_s": batched_s,
        "sequential_probes_per_s": probes / max(sequential_s, 1e-9),
        "batched_probes_per_s": probes / max(batched_s, 1e-9),
        "speedup": sequential_s / max(batched_s, 1e-9),
    }


def _detector_pairs(num_pairs: int) -> List[ProbePair]:
    return [
        ProbePair.canonical(f"bench-{2 * i}", f"bench-{2 * i + 1}")
        for i in range(num_pairs)
    ]


def _detector_windows(
    num_pairs: int,
    windows_per_pair: int,
    probes_per_window: int,
    seed: int,
) -> np.ndarray:
    """Synthetic per-window latencies: mostly healthy, a few spiked.

    Continuous draws (no exact duplicates) so kNN neighbour sets are
    unambiguous; occasional 3x median shifts exercise the LOF anomaly
    branch.
    """
    rng = RngRegistry(seed).stream("bench.detector")
    lats = 18.0 + 2.0 * rng.random(
        (num_pairs, windows_per_pair, probes_per_window)
    )
    spiked = rng.random((num_pairs, windows_per_pair)) < 0.02
    lats[spiked] *= 3.0
    return lats


def bench_detector(
    num_pairs: int,
    windows_per_pair: int = 40,
    probes_per_window: int = 8,
    seed: int = 0,
) -> Dict[str, float]:
    """Time the columnar engine's batched window scoring.

    Replays the short-term detector's per-window work for ``num_pairs``
    monitored pairs over ``windows_per_pair`` flushes: every pair's
    closed window is enqueued into the :class:`ColumnarDetectionEngine`
    and scored by one batched ``collect`` per flush.

    A separate untimed pass replays the same windows in full-verdict
    mode and pins every LOF score to the full-rebuild reference,
    reporting the max ``score_drift``.
    """
    cfg = DetectorConfig()
    pairs = _detector_pairs(num_pairs)
    lats = _detector_windows(
        num_pairs, windows_per_pair, probes_per_window, seed
    )
    window_s = cfg.short_window_s

    gc.collect()
    start = time.perf_counter()
    anomalies = 0
    engine = ColumnarDetectionEngine(cfg)
    for w in range(windows_per_pair):
        for pair, row_lats in zip(pairs, lats[:, w]):
            engine.enqueue_window(
                pair, w * window_s, (w + 1) * window_s,
                probes_per_window, 0, row_lats,
            )
        for verdict in engine.collect():
            if verdict.anomaly is not None:
                anomalies += 1
    columnar_s = time.perf_counter() - start

    drift, reference_anomalies = _detector_score_drift(cfg, pairs, lats)
    if reference_anomalies != anomalies:
        raise AssertionError(
            f"detector benchmark diverged: reference flagged "
            f"{reference_anomalies} windows, columnar {anomalies}"
        )

    windows = num_pairs * windows_per_pair
    return {
        "pairs": num_pairs,
        "windows_per_pair": windows_per_pair,
        "anomalies": anomalies,
        "columnar_s": columnar_s,
        "columnar_windows_per_s": windows / max(columnar_s, 1e-9),
        "score_drift": drift,
    }


def _detector_score_drift(
    cfg: DetectorConfig, pairs: List[ProbePair], lats: np.ndarray
) -> Tuple[float, int]:
    """Max |columnar - reference| LOF score over every scored window.

    The reference replays the short-term detector's state machine per
    pair — scores from :func:`lof_score_of_new_point` rebuilt over the
    rolling look-back, anomalous windows kept out of the baseline —
    while the columnar engine replays the same windows in full-verdict
    mode.  Also insists both sides score the *same* windows; returns
    the drift and the reference's anomaly count.
    """
    windows_per_pair = lats.shape[1]
    window_s = cfg.short_window_s
    engine = ColumnarDetectionEngine(cfg)
    columnar: Dict[Tuple[ProbePair, float], float] = {}
    for w in range(windows_per_pair):
        for pair, row_lats in zip(pairs, lats[:, w]):
            engine.enqueue_window(
                pair, w * window_s, (w + 1) * window_s,
                lats.shape[2], 0, row_lats,
            )
    for verdict in engine.collect(full=True):
        if verdict.score is not None:
            columnar[(verdict.pair, verdict.window_end)] = (
                verdict.score
            )
    drift = 0.0
    scored = 0
    anomalies = 0
    for p, pair in enumerate(pairs):
        history: List[np.ndarray] = []
        for w in range(windows_per_pair):
            vec = np.asarray(
                TimeSeries.describe(lats[p, w]).as_vector()
            )
            anomalous = False
            if len(history) >= cfg.min_history_windows:
                points = np.vstack(history)
                score = lof_score_of_new_point(points, vec, k=cfg.lof_k)
                base = float(np.median(points[:, 1]))
                shifted = base <= 0 or (
                    (float(vec[1]) - base) / base
                    > cfg.median_shift_threshold
                )
                anomalous = score > cfg.lof_threshold and shifted
                got = columnar.get((pair, (w + 1) * window_s))
                if got is None:
                    raise AssertionError(
                        f"columnar skipped a window the reference "
                        f"scored: pair {pair}, window {w}"
                    )
                drift = max(drift, abs(got - score))
                scored += 1
            if anomalous:
                anomalies += 1
            else:
                history.append(vec)
                del history[:-cfg.lookback_windows]
    if scored != len(columnar):
        raise AssertionError(
            f"columnar scored {len(columnar)} windows, the reference "
            f"{scored}"
        )
    return drift, anomalies


def run_benchmark(
    quick: bool = False,
    sizes: Optional[Tuple[int, ...]] = None,
    seed: int = 0,
    out: Optional[str] = None,
) -> Dict[str, object]:
    """Run the full measurement suite; optionally write ``out`` as JSON."""
    chosen = sizes if sizes is not None else (
        QUICK_SIZES if quick else FULL_SIZES
    )
    rounds = 1 if quick else 3
    compared = verify_equivalence()
    report: Dict[str, object] = {
        "benchmark": "probing-fast-path",
        "quick": quick,
        "seed": seed,
        "equivalence_results_compared": compared,
        "probing": [
            bench_probing(size, rounds=rounds, seed=seed)
            for size in chosen
        ],
        "detector": [
            bench_detector(
                size, windows_per_pair=10 if quick else 40, seed=seed
            )
            for size in chosen
        ],
    }
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report


def format_report(report: Dict[str, object]) -> str:
    """Human-readable summary of a :func:`run_benchmark` report."""
    lines = [
        "probe rounds (sequential uncached vs batched cached):",
        f"  {'endpoints':>10} {'pairs':>7} {'seq probes/s':>14} "
        f"{'batch probes/s':>15} {'speedup':>9}",
    ]
    for row in report["probing"]:
        lines.append(
            f"  {row['endpoints']:>10} {row['pairs_per_round']:>7} "
            f"{row['sequential_probes_per_s']:>14.0f} "
            f"{row['batched_probes_per_s']:>15.0f} "
            f"{row['speedup']:>8.1f}x"
        )
    lines.append(
        "detector windows (columnar batches, drift vs full-rebuild LOF):"
    )
    lines.append(
        f"  {'pairs':>10} {'columnar win/s':>15} {'drift':>10}"
    )
    for row in report["detector"]:
        lines.append(
            f"  {row['pairs']:>10} "
            f"{row['columnar_windows_per_s']:>15.0f} "
            f"{row['score_drift']:>10.1e}"
        )
    lines.append(
        "equivalence: "
        f"{report['equivalence_results_compared']} results compared, "
        "batch == sequential"
    )
    return "\n".join(lines)
