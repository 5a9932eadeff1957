"""Gray-failure degradation gate under benchmark timing.

Regenerates ``BENCH_gray.json``'s numbers: every gray family (PFC
storm, congestion collapse, partial link degradation) is injected once
under static per-flow ECMP — the clean baseline — and once under
per-packet spraying, and the spraying leg's detection recall and
localization rate must stay within :class:`GrayBounds` of the
baseline's.  The sweep also pins shard-plane equivalence, the
distribution-aware-vs-naive voting comparison, and the Flock
probabilistic baseline.  The quick subset keeps CI fast; the committed
artifact covers both seeds and shard counts (2, 4).
"""

from conftest import print_table, run_once
from repro.chaos.gray import GrayBounds, run_gray_benchmark


def test_gray_degradation_gate(benchmark):
    def experiment():
        return run_gray_benchmark(quick=True, seed=0)

    report = run_once(benchmark, experiment)

    def leg(case):
        mark = "det" if case["detected"] else "MISS"
        return mark + ("+loc" if case["localized"] else "")

    print_table(
        "Gray gate: static-ECMP baseline vs spraying",
        ["family", "static", "spray", "naive", "flock"],
        [[row["issue"].lower(), leg(row["static"]), leg(row["spray"]),
          leg(row["spray_naive"]), leg(row["flock"])]
         for row in report["rows"]],
    )
    summary = report["summary"]
    for key in ("recall_ratio", "localization_ratio",
                "distribution_aware_localized", "naive_localized",
                "flock_detected", "flock_localized"):
        benchmark.extra_info[key] = summary[key]

    bounds = GrayBounds()
    assert summary["recall_ratio"] >= bounds.min_recall_ratio
    assert (
        summary["localization_ratio"] >= bounds.min_localization_ratio
    )
    # Distribution-aware voting is the point of the spraying pipeline:
    # it must never do worse than pretending probes ride pinned paths.
    assert (
        summary["distribution_aware_localized"]
        >= summary["naive_localized"]
    )
    assert summary["passed"]
