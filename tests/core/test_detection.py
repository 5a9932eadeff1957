"""Tests for window buffering and the §5.2 detector stack.

The detectors run inside the columnar engine (and, for incident-level
behaviour, the analyzer that owns it); each test class names the part of
the paper's detector it exercises: per-pair window monitoring, the
short-term loss rules + LOF, the long-term log-normal Z-test, and the
median-shift gate.
"""

import numpy as np
import pytest

from repro.cluster.identifiers import ContainerId, EndpointId, TaskId
from repro.core.analyzer import Analyzer
from repro.core.columnar import ColumnarDetectionEngine
from repro.core.detection import DetectorConfig
from repro.core.pinglist import ProbePair
from repro.network.issues import Symptom
from repro.network.packet import ProbeResult


def make_pair():
    a = EndpointId(ContainerId(TaskId(0), 0), 0)
    b = EndpointId(ContainerId(TaskId(0), 1), 0)
    return ProbePair.canonical(a, b)


def probe(pair, t, latency=10.0, lost=False):
    return ProbeResult(
        src=pair.src, dst=pair.dst, sent_at=t, lost=lost,
        latency_us=None if lost else latency,
    )


def observe(engine, pair, start=0.0, latencies=(10.0, 10.5, 9.8), lost=0):
    """Score one closed 30 s window; returns its anomaly or ``None``."""
    lats = np.asarray(latencies, dtype=float) if latencies else None
    engine.enqueue_window(
        pair, start, start + 30.0, len(latencies) + lost, lost, lats
    )
    [verdict] = engine.collect(full=True)
    return verdict.anomaly


class TestPairMonitor:
    def test_window_closes_after_30s(self):
        pair = make_pair()
        engine = ColumnarDetectionEngine()
        engine.ingest(pair, probe(pair, 0.0))
        assert not engine.has_pending()
        engine.ingest(pair, probe(pair, 31.0))
        [closed] = engine.collect(full=True)
        assert (closed.window_start, closed.window_end) == (0.0, 30.0)
        assert closed.sent == 1

    def test_flush_closes_elapsed_windows(self):
        pair = make_pair()
        analyzer = Analyzer()
        analyzer.ingest(probe(pair, 0.0, lost=True))
        analyzer.ingest(probe(pair, 1.0, lost=True))
        analyzer.ingest(probe(pair, 2.0, lost=True))
        assert analyzer.anomalies == []
        analyzer.flush(95.0)  # closes [0,30) [30,60) [60,90)
        # Only the probed window alarms; the two empty ones are
        # missing rounds, not evidence.
        [anomaly] = analyzer.anomalies
        assert anomaly.detector == "loss_rule"
        assert anomaly.detected_at == 30.0
        assert analyzer.open_events()[0].symptom is Symptom.UNCONNECTIVITY

    def test_loss_counted(self):
        pair = make_pair()
        engine = ColumnarDetectionEngine()
        engine.ingest(pair, probe(pair, 0.0, lost=True))
        engine.ingest(pair, probe(pair, 1.0))
        engine.close_elapsed(31.0)
        [closed] = engine.collect(full=True)
        assert closed.lost == 1
        assert closed.sent == 2
        assert closed.anomaly.score == 0.5  # the loss rate

    def test_consecutive_loss_counter(self):
        pair = make_pair()
        engine = ColumnarDetectionEngine()
        for t in range(3):
            row = engine.ingest(pair, probe(pair, float(t), lost=True))
        assert engine.consecutive_losses(row) == 3
        engine.ingest(pair, probe(pair, 4.0))
        assert engine.consecutive_losses(row) == 0

    def test_long_window_aggregation(self):
        pair = make_pair()
        config = DetectorConfig(long_window_s=120.0, min_long_samples=2)
        engine = ColumnarDetectionEngine(config)
        for t in range(0, 250, 10):
            row = engine.ingest(pair, probe(pair, float(t)))
            engine.queue_elapsed_longs(row, float(t))
        engine.close_elapsed(250.0)
        # [0, 120) becomes the reference fit; [120, 240) is tested.
        [tested] = [
            v for v in engine.collect(full=True) if v.kind == "long"
        ]
        assert (tested.window_start, tested.window_end) == (120.0, 240.0)
        assert tested.samples == 12  # samples in [120, 240)
        engine.close_elapsed(250.0)
        assert not engine.has_pending()


class TestShortTermDetector:
    def test_total_loss_is_unconnectivity(self):
        engine = ColumnarDetectionEngine()
        anomaly = observe(engine, make_pair(), latencies=(), lost=10)
        assert anomaly.symptom == Symptom.UNCONNECTIVITY

    def test_partial_loss_is_packet_loss(self):
        engine = ColumnarDetectionEngine()
        anomaly = observe(
            engine, make_pair(), latencies=(10.0,) * 9, lost=1
        )
        assert anomaly.symptom == Symptom.PACKET_LOSS
        assert anomaly.score == pytest.approx(0.1)

    def test_loss_below_threshold_ignored(self):
        config = DetectorConfig(loss_rate_threshold=0.2)
        engine = ColumnarDetectionEngine(config)
        anomaly = observe(
            engine, make_pair(), latencies=(10.0,) * 9, lost=1
        )
        assert anomaly is None

    def test_lof_needs_history(self):
        engine = ColumnarDetectionEngine()
        pair = make_pair()
        # First windows build the baseline; even an odd one passes.
        assert observe(engine, pair, latencies=(500.0,) * 5) is None
        assert engine.history_len(pair) == 1

    def test_latency_shift_detected_after_history(self):
        engine = ColumnarDetectionEngine()
        pair = make_pair()
        rng = np.random.default_rng(0)
        for i in range(6):
            observe(
                engine, pair, start=i * 30.0,
                latencies=tuple(rng.normal(10.0, 0.3, size=10)),
            )
        anomaly = observe(
            engine, pair, start=200.0,
            latencies=(120.0, 118.0, 122.0, 119.0),
        )
        assert anomaly is not None
        assert anomaly.symptom == Symptom.HIGH_LATENCY
        assert anomaly.detector == "short_term_lof"

    def test_anomalous_window_kept_out_of_baseline(self):
        engine = ColumnarDetectionEngine()
        pair = make_pair()
        rng = np.random.default_rng(0)
        for i in range(6):
            observe(
                engine, pair, start=i * 30.0,
                latencies=tuple(rng.normal(10.0, 0.3, size=10)),
            )
        slow = tuple(rng.normal(120.0, 0.5, size=10))
        first = observe(engine, pair, 200.0, slow)
        second = observe(engine, pair, 230.0, slow)
        # A persistent failure must not teach the detector it is normal.
        assert first is not None and second is not None
        assert engine.history_len(pair) == 6

    def test_unconnectivity_requires_min_probes(self):
        engine = ColumnarDetectionEngine(
            DetectorConfig(min_probes_for_unconnectivity=5)
        )
        anomaly = observe(engine, make_pair(), latencies=(), lost=2)
        assert anomaly is None or anomaly.symptom != Symptom.UNCONNECTIVITY


class TestLongTermDetector:
    CONFIG = DetectorConfig(long_window_s=1800.0)

    def _latencies(self, scale=1.0, n=200, seed=0):
        rng = np.random.default_rng(seed)
        return list(np.exp(rng.normal(np.log(10.0), 0.05, n)) * scale)

    def _long_verdicts(self, *windows):
        """Feed one 30-minute window per latency list; long verdicts."""
        engine = ColumnarDetectionEngine(self.CONFIG)
        pair = make_pair()
        long_s = self.CONFIG.long_window_s
        for index, latencies in enumerate(windows):
            step = long_s / len(latencies)
            for i, latency in enumerate(latencies):
                at = index * long_s + i * step
                row = engine.ingest(pair, probe(pair, at, latency))
                engine.queue_elapsed_longs(row, at)
        engine.close_elapsed(len(windows) * long_s)
        return [v for v in engine.collect(full=True) if v.kind == "long"]

    def test_first_window_becomes_reference(self):
        assert self._long_verdicts(self._latencies()) == []
        # The reference exists: the next window is Z-tested against it.
        [tested] = self._long_verdicts(
            self._latencies(seed=0), self._latencies(seed=1)
        )
        assert tested.window_end == 3600.0
        assert tested.score is not None

    def test_stable_latency_not_flagged(self):
        [tested] = self._long_verdicts(
            self._latencies(seed=0), self._latencies(seed=1)
        )
        assert tested.anomaly is None

    def test_gradual_degradation_flagged(self):
        [tested] = self._long_verdicts(
            self._latencies(seed=0), self._latencies(scale=1.25, seed=1)
        )
        anomaly = tested.anomaly
        assert anomaly is not None
        assert anomaly.detector == "long_term_ztest"
        assert anomaly.symptom == Symptom.HIGH_LATENCY

    def test_improvement_not_flagged(self):
        [tested] = self._long_verdicts(
            self._latencies(seed=0), self._latencies(scale=0.8, seed=1)
        )
        assert tested.anomaly is None  # only slow-downs are failures

    def test_small_windows_skipped(self):
        # Five samples cannot found a reference: the next full window
        # becomes the reference instead of being tested.
        assert self._long_verdicts(
            [10.0] * 5, self._latencies(seed=0)
        ) == []


class TestMedianShiftGate:
    def _prime(self, engine, pair, n=6):
        rng = np.random.default_rng(0)
        for i in range(n):
            observe(
                engine, pair, start=i * 30.0,
                latencies=tuple(rng.normal(10.0, 0.3, size=12)),
            )

    def test_single_probe_spike_does_not_alarm(self):
        """A transient congestion spike moves max/std but not the
        median: the gate keeps it out of the event stream (§5.2)."""
        engine = ColumnarDetectionEngine()
        pair = make_pair()
        self._prime(engine, pair)
        spiky = (10.1, 9.9, 10.0, 10.2, 9.8, 10.1, 10.0, 9.9, 72.0)
        assert observe(engine, pair, 300.0, spiky) is None

    def test_median_shift_still_alarms(self):
        engine = ColumnarDetectionEngine()
        pair = make_pair()
        self._prime(engine, pair)
        shifted = tuple(
            np.random.default_rng(1).normal(55.0, 0.5, size=12)
        )
        anomaly = observe(engine, pair, 300.0, shifted)
        assert anomaly is not None
        assert anomaly.symptom == Symptom.HIGH_LATENCY

    def test_small_shift_below_threshold_ignored(self):
        engine = ColumnarDetectionEngine(
            DetectorConfig(median_shift_threshold=0.5)
        )
        pair = make_pair()
        self._prime(engine, pair)
        mild = tuple(
            np.random.default_rng(1).normal(13.0, 0.3, size=12)
        )
        assert observe(engine, pair, 300.0, mild) is None

    def test_reset_forgets_baseline(self):
        analyzer = Analyzer()
        pair = make_pair()
        rng = np.random.default_rng(0)
        for t in range(0, 180, 2):
            analyzer.ingest(probe(pair, float(t), rng.normal(10.0, 0.3)))
        analyzer.flush(180.0)
        analyzer.reset_pairs_involving([pair.src], now=180.0)
        # Without history, even a wild window builds baseline silently.
        for t in range(180, 210, 2):
            analyzer.ingest(probe(pair, float(t), 120.0 + t % 3))
        analyzer.flush(210.0)
        assert analyzer.anomalies == []
