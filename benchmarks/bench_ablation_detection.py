"""Ablation: LOF + log-normal Z-test vs a fixed latency threshold.

Design choice 4 (DESIGN.md): gradual degradation creeps slowly enough
that each 30-second window looks like its recent neighbours — a rolling
short-term baseline absorbs it, and a fixed "alert above X us" threshold
either misses the creep or false-fires on healthy long paths.  The
long-term log-normal Z-test compares against a *frozen* reference, so
the accumulated drift eventually deviates with high significance.
"""

import numpy as np

from conftest import print_table, run_once
from repro.cluster.identifiers import ContainerId, EndpointId, TaskId
from repro.core.analyzer import Analyzer
from repro.core.detection import DetectorConfig
from repro.core.pinglist import ProbePair
from repro.network.packet import ProbeResult

WINDOW_S = 30.0
PROBE_INTERVAL_S = 2.0


def _pair():
    return ProbePair.canonical(
        EndpointId(ContainerId(TaskId(0), 0), 0),
        EndpointId(ContainerId(TaskId(0), 1), 0),
    )


def test_ablation_gradual_degradation_detection(benchmark):
    rng = np.random.default_rng(55)
    pair = _pair()
    base_mu = np.log(16.0)

    def latencies(drift, n=15):
        return list(np.exp(rng.normal(base_mu, 0.05, n)) * drift)

    def experiment():
        # 60 short windows (30 minutes) drifting from 1.0x to 1.5x —
        # under +0.9% per window, invisible window-to-window.  The
        # long-term detector's reference is the first 10-minute block
        # (20 windows); each later block is Z-tested against it.
        drifts = np.linspace(1.0, 1.5, 60)
        analyzer = Analyzer(DetectorConfig(long_window_s=600.0))
        threshold_alarms = 0
        fixed_threshold_us = 40.0  # a "2.5x healthy" style static rule
        for index, drift in enumerate(drifts):
            window_samples = latencies(drift)
            start = index * WINDOW_S
            for j, latency in enumerate(window_samples):
                analyzer.ingest(ProbeResult(
                    src=pair.src, dst=pair.dst,
                    sent_at=start + j * PROBE_INTERVAL_S,
                    lost=False, latency_us=latency,
                ))
            analyzer.flush(start + WINDOW_S)
            if np.mean(window_samples) > fixed_threshold_us:
                threshold_alarms += 1
        short_alarms = sum(
            1 for a in analyzer.anomalies if a.detector == "short_term_lof"
        )
        # The last block (windows 40-59) against the first.
        long_term = [
            a for a in analyzer.anomalies
            if a.detector == "long_term_ztest"
            and a.detected_at == len(drifts) * WINDOW_S
        ]
        return short_alarms, threshold_alarms, long_term

    short_alarms, threshold_alarms, long_term = run_once(
        benchmark, experiment
    )
    long_z = long_term[0].score if long_term else 0.0

    print_table(
        "Ablation: detecting a +50% creep over 30 minutes",
        ["detector", "alarms", "verdict"],
        [
            ["short-term LOF (rolling baseline)", short_alarms,
             "absorbed" if short_alarms == 0 else "fired"],
            ["fixed 40 us threshold", threshold_alarms,
             "missed" if threshold_alarms == 0 else "fired"],
            ["long-term log-normal Z-test", len(long_term),
             f"z={long_z:.1f}, "
             f"{'ANOMALY' if long_term else 'missed'}"],
        ],
    )
    benchmark.extra_info["long_term_z"] = long_z

    # The rolling short-term baseline absorbs the creep (each window is
    # within tolerance of its neighbours)...
    assert short_alarms <= 2
    # ...the static threshold never trips (1.5 x 16 us = 24 < 40 us)...
    assert threshold_alarms == 0
    # ...and the frozen-reference Z-test flags it decisively (an
    # anomaly is only raised at p < alpha = 1e-4 with z > 0).
    assert long_term
    assert long_z > 10.0
