"""Probing fast-path throughput (§6 probing overhead, Figures 15-17).

Not a paper figure by itself: this regenerates ``BENCH_probing.json``'s
numbers under pytest-benchmark, guarding the two optimizations that keep
skeleton-scale monitoring cheap —

* batched probe rounds over the :class:`FlowResolutionCache` fast path
  versus the pre-change sequential cost (caches disabled), and
* the columnar detector's batched window scoring, with its LOF scores
  pinned to the full-rebuild reference.

The batched path must beat sequential at every size (the committed
artifact's acceptance bar is 5x at 512 endpoints), and it must stay
result-for-result identical to sequential probing — speed that changed
results would be a correctness bug, not an optimization.
"""

from conftest import print_table, run_once
from repro.perf import (
    FULL_SIZES,
    bench_detector,
    bench_probing,
    verify_equivalence,
)

ROUNDS = 2


def test_probe_round_fast_path(benchmark):
    def experiment():
        return [
            bench_probing(size, rounds=ROUNDS) for size in FULL_SIZES
        ]

    rows = run_once(benchmark, experiment)

    print_table(
        "Probe rounds: sequential uncached vs batched cached",
        ["endpoints", "pairs", "seq probes/s", "batch probes/s", "speedup"],
        [[r["endpoints"], r["pairs_per_round"],
          f"{r['sequential_probes_per_s']:.0f}",
          f"{r['batched_probes_per_s']:.0f}",
          f"{r['speedup']:.1f}x"] for r in rows],
    )
    for row in rows:
        benchmark.extra_info[f"speedup_{row['endpoints']}"] = row["speedup"]
        # Hard floor: batched rounds must never lose to the sequential
        # uncached path.  (The committed artifact shows ~5-27x; the gate
        # here is loose because CI machines are noisy.)
        assert row["speedup"] > 1.0


def test_detector_window_fast_path(benchmark):
    def experiment():
        return [bench_detector(size) for size in FULL_SIZES]

    rows = run_once(benchmark, experiment)

    print_table(
        "Detector windows: columnar batches, drift vs full-rebuild LOF",
        ["pairs", "anomalies", "columnar win/s", "score drift"],
        [[r["pairs"], r["anomalies"],
          f"{r['columnar_windows_per_s']:.0f}",
          f"{r['score_drift']:.1e}"] for r in rows],
    )
    for row in rows:
        benchmark.extra_info[f"windows_per_s_{row['pairs']}"] = (
            row["columnar_windows_per_s"]
        )
        # The batched scores must agree with the full-rebuild reference
        # (any drift is pure float reassociation noise).
        assert row["score_drift"] <= 1e-10


def test_batch_equals_sequential(benchmark):
    compared = run_once(benchmark, verify_equivalence)
    benchmark.extra_info["results_compared"] = compared
    assert compared > 0
