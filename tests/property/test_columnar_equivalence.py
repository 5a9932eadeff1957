"""Property test: the analyzer equals the eager reference analyzer.

For any probe stream — loss bursts, latency shifts, all-lost windows,
pairs that appear mid-run, and mid-stream ``reset_pairs_involving``
churn — the production (columnar, batch-scored) analyzer must produce
the same per-pair :class:`DetectedAnomaly` sequence and the same
incident history as the eager per-pair reference in
``tests/oracle/reference_analyzer.py`` (the retired per-pair detector's
semantics), with scores within the documented 1e-10 drift (see
docs/PERFORMANCE.md).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analyzer import Analyzer
from repro.core.detection import DetectorConfig
from repro.network.packet import ProbeResult

from tests.oracle.reference_analyzer import (
    ReferenceAnalyzer,
    assert_same_verdicts,
)

SCORE_TOL = 1e-10


@st.composite
def probe_scenarios(draw):
    """A compact generative scenario: config + phased probe behaviour."""
    seed = draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
    num_pairs = draw(st.integers(min_value=2, max_value=5))
    rounds = draw(st.integers(min_value=24, max_value=60))
    interval = draw(st.sampled_from([5.0, 10.0, 35.0]))
    config = DetectorConfig(
        long_window_s=draw(st.sampled_from([120.0, 300.0])),
        min_long_samples=8,
        min_history_windows=draw(st.integers(min_value=2, max_value=4)),
        lof_k=draw(st.integers(min_value=2, max_value=4)),
        fast_unconnectivity_probes=draw(st.sampled_from([0, 3])),
        min_probes_for_unconnectivity=draw(
            st.integers(min_value=2, max_value=4)
        ),
        # 1.5 makes partially/fully lost small windows "healthy",
        # exercising the stats=None verdict path on both analyzers.
        loss_rate_threshold=draw(st.sampled_from([0.01, 1.5])),
    )
    return {
        "seed": seed,
        "num_pairs": num_pairs,
        "rounds": rounds,
        "interval": interval,
        "config": config,
        "burst": draw(st.booleans()),
        "shift": draw(st.booleans()),
        "reset_round": draw(
            st.one_of(st.none(), st.integers(min_value=5, max_value=20))
        ),
        "late_join": draw(st.booleans()),
    }


def _run(analyzer, scenario):
    rng = random.Random(scenario["seed"])
    cfg = scenario["config"]
    num_pairs = scenario["num_pairs"]
    rounds = scenario["rounds"]
    interval = scenario["interval"]
    pair_ids = [(f"p{2 * i}", f"p{2 * i + 1}") for i in range(num_pairs)]
    join_round = rounds // 3 if scenario["late_join"] else 0
    burst_lo, burst_hi = rounds // 4, rounds // 2
    for r in range(rounds):
        at = r * interval
        for i, (src, dst) in enumerate(pair_ids):
            if i == num_pairs - 1 and r < join_round:
                continue  # pair churn: joins mid-run
            bursting = (
                scenario["burst"] and i == 0
                and burst_lo <= r < burst_hi
            )
            shifting = (
                scenario["shift"] and i == 1 and r >= rounds // 2
            )
            loss_p = 0.95 if bursting else 0.02
            lost = rng.random() < loss_p
            latency = (
                None if lost
                else (20.0 + 4.0 * rng.random())
                * (2.5 if shifting else 1.0)
            )
            analyzer.ingest(ProbeResult(
                src=src, dst=dst, sent_at=at,
                lost=lost, latency_us=latency,
            ))
        if scenario["reset_round"] == r:
            analyzer.reset_pairs_involving([pair_ids[0][0]], at)
        analyzer.flush(at)
    analyzer.flush(rounds * interval + cfg.long_window_s)
    return analyzer


@settings(max_examples=20, deadline=None)
@given(probe_scenarios())
def test_columnar_equals_legacy_verdict_for_verdict(scenario):
    cfg = scenario["config"]
    reference = _run(ReferenceAnalyzer(cfg), scenario)
    columnar = _run(Analyzer(config=cfg), scenario)

    assert_same_verdicts(columnar, reference, SCORE_TOL)
    assert columnar.monitored_pairs() == reference.monitored_pairs()
