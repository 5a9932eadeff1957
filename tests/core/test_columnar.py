"""Unit tests for the columnar detection engine and its analyzer wiring."""

import numpy as np
import pytest

from repro.core.analyzer import Analyzer
from repro.core.columnar import ColumnarDetectionEngine
from repro.core.detection import DetectorConfig
from repro.core.pinglist import ProbePair
from repro.network.issues import Symptom
from repro.network.packet import ProbeResult


def pair_of(i=0):
    return ProbePair.canonical(f"col-{2 * i}", f"col-{2 * i + 1}")


def probe(pair, at, lost=False, latency=20.0):
    return ProbeResult(
        src=pair.src, dst=pair.dst, sent_at=at, lost=lost,
        latency_us=None if lost else latency,
    )


class TestIngestAndWindows:
    def test_ingest_registers_rows_in_first_probe_order(self):
        engine = ColumnarDetectionEngine()
        second, first = pair_of(1), pair_of(0)
        engine.ingest(second, probe(second, 0.0))
        engine.ingest(first, probe(first, 0.0))
        assert engine.pairs() == [second, first]
        assert engine.num_pairs == 2

    def test_probe_past_boundary_closes_window_into_pending(self):
        engine = ColumnarDetectionEngine()
        pair = pair_of()
        engine.ingest(pair, probe(pair, 0.0))
        assert not engine.has_pending()
        engine.ingest(pair, probe(pair, 31.0))
        assert engine.has_pending()
        [verdict] = engine.collect(full=True)
        assert (verdict.window_start, verdict.window_end) == (0.0, 30.0)
        assert verdict.sent == 1 and verdict.lost == 0

    def test_out_of_order_delivered_probe_rejected(self):
        engine = ColumnarDetectionEngine()
        pair = pair_of()
        engine.ingest(pair, probe(pair, 10.0))
        with pytest.raises(ValueError, match="time order"):
            engine.ingest(pair, probe(pair, 5.0))

    def test_close_elapsed_emits_every_gap_window(self):
        engine = ColumnarDetectionEngine()
        pair = pair_of()
        engine.ingest(pair, probe(pair, 0.0))
        engine.close_elapsed(95.0)
        verdicts = engine.collect(full=True)
        # Windows [0,30), [30,60), [60,90): one probed, two empty.
        assert [v.window_start for v in verdicts] == [0.0, 30.0, 60.0]
        assert [v.sent for v in verdicts] == [1, 0, 0]


class TestShortWindowClassification:
    def test_all_lost_window_is_unconnectivity(self):
        engine = ColumnarDetectionEngine()
        pair = pair_of()
        for i in range(4):
            engine.ingest(pair, probe(pair, float(i), lost=True))
        engine.close_elapsed(31.0)
        [verdict] = engine.collect()
        assert verdict.anomaly is not None
        assert verdict.anomaly.symptom is Symptom.UNCONNECTIVITY
        assert verdict.anomaly.score == 1.0

    def test_partial_loss_is_packet_loss_with_rate_score(self):
        engine = ColumnarDetectionEngine()
        pair = pair_of()
        for i in range(8):
            engine.ingest(pair, probe(pair, float(i), lost=i == 0))
        engine.close_elapsed(31.0)
        [verdict] = engine.collect()
        assert verdict.anomaly.symptom is Symptom.PACKET_LOSS
        assert verdict.anomaly.score == pytest.approx(1 / 8)

    def test_latency_outlier_flagged_after_history_builds(self):
        config = DetectorConfig(min_history_windows=4)
        engine = ColumnarDetectionEngine(config)
        pair = pair_of()
        rng = np.random.default_rng(5)
        for w in range(6):
            lats = 20.0 + rng.random(8)
            engine.enqueue_window(
                pair, w * 30.0, (w + 1) * 30.0, 8, 0, lats
            )
        engine.enqueue_window(
            pair, 180.0, 210.0, 8, 0, 200.0 + rng.random(8)
        )
        verdicts = engine.collect(full=True)
        assert verdicts[-1].anomaly is not None
        assert verdicts[-1].anomaly.symptom is Symptom.HIGH_LATENCY
        assert verdicts[-1].anomaly.detector == "short_term_lof"
        assert verdicts[-1].score > config.lof_threshold
        assert verdicts[-1].median_shifted is True

    def test_anomalous_window_kept_out_of_baseline(self):
        engine = ColumnarDetectionEngine()
        pair = pair_of()
        rng = np.random.default_rng(6)
        for w in range(5):
            engine.enqueue_window(
                pair, w * 30.0, (w + 1) * 30.0, 8, 0,
                20.0 + rng.random(8),
            )
        engine.collect()
        before = engine.history_len(pair)
        engine.enqueue_window(
            pair, 150.0, 180.0, 8, 0, 300.0 + rng.random(8)
        )
        [verdict] = engine.collect()
        assert verdict.anomaly is not None
        assert engine.history_len(pair) == before

    def test_history_ring_caps_at_lookback(self):
        config = DetectorConfig(lookback_windows=5)
        engine = ColumnarDetectionEngine(config)
        pair = pair_of()
        rng = np.random.default_rng(7)
        for w in range(12):
            engine.enqueue_window(
                pair, w * 30.0, (w + 1) * 30.0, 8, 0,
                20.0 + rng.random(8),
            )
        engine.collect()
        assert engine.history_len(pair) == 5


class TestLeanVerdictEmission:
    def build(self, windows=3):
        engine = ColumnarDetectionEngine()
        pair = pair_of()
        rng = np.random.default_rng(8)
        for w in range(windows):
            engine.enqueue_window(
                pair, w * 30.0, (w + 1) * 30.0, 8, 0,
                20.0 + rng.random(8),
            )
        return engine, pair

    def test_healthy_windows_suppressed_without_watchers(self):
        engine, _ = self.build()
        assert engine.collect() == []

    def test_full_mode_emits_every_window(self):
        engine, _ = self.build()
        assert len(engine.collect(full=True)) == 3

    def test_watched_pairs_emit_healthy_windows(self):
        engine, pair = self.build()
        verdicts = engine.collect(watch={pair: object()})
        assert len(verdicts) == 3
        assert all(v.anomaly is None for v in verdicts)


class TestLongWindows:
    def test_first_long_window_fits_later_ones_tested(self):
        config = DetectorConfig(
            long_window_s=120.0, min_long_samples=8
        )
        engine = ColumnarDetectionEngine(config)
        pair = pair_of()
        rng = np.random.default_rng(9)
        row = None
        for i in range(24):
            at = i * 10.0
            row = engine.ingest(
                pair, probe(pair, at, latency=20.0 + rng.random())
            )
            engine.queue_elapsed_longs(row, at)
        engine.close_elapsed(240.0)
        longs = [
            v for v in engine.collect(full=True) if v.kind == "long"
        ]
        # First long window becomes the fit (no verdict); the second is
        # Z-tested and emitted in full mode.
        assert len(longs) == 1
        assert longs[0].samples == 12
        assert longs[0].anomaly is None

    def test_shifted_long_window_alarms(self):
        config = DetectorConfig(
            long_window_s=120.0, min_long_samples=8
        )
        engine = ColumnarDetectionEngine(config)
        pair = pair_of()
        rng = np.random.default_rng(10)
        for i in range(24):
            at = i * 10.0
            slow = 5.0 if at >= 120.0 else 1.0
            row = engine.ingest(pair, probe(
                pair, at, latency=(20.0 + rng.random()) * slow
            ))
            engine.queue_elapsed_longs(row, at)
        engine.close_elapsed(240.0)
        longs = [
            v for v in engine.collect() if v.kind == "long"
        ]
        assert len(longs) == 1
        assert longs[0].anomaly.detector == "long_term_ztest"
        assert longs[0].anomaly.symptom is Symptom.HIGH_LATENCY


class TestRowLifecycle:
    def test_drop_clears_state_and_recycles_rows(self):
        engine = ColumnarDetectionEngine()
        pair, other = pair_of(0), pair_of(1)
        engine.ingest(pair, probe(pair, 0.0))
        engine.ingest(pair, probe(pair, 31.0))
        row = engine.row_of(pair)
        engine.drop(pair)
        assert engine.row_of(pair) is None
        assert not engine.has_pending()
        assert engine.ingest(other, probe(other, 0.0)) == row

    def test_dropped_pair_restarts_fresh(self):
        engine = ColumnarDetectionEngine()
        pair = pair_of()
        rng = np.random.default_rng(11)
        for w in range(6):
            engine.enqueue_window(
                pair, w * 30.0, (w + 1) * 30.0, 8, 0,
                20.0 + rng.random(8),
            )
        engine.collect()
        engine.drop(pair)
        engine.ingest(pair, probe(pair, 1000.0))
        assert engine.history_len(pair) == 0
        assert engine.consecutive_losses(engine.row_of(pair)) == 0


class TestAnalyzerColumnarWiring:
    def test_default_backend_is_columnar(self):
        assert Analyzer().backend == "columnar"

    def test_window_anomalies_surface_at_flush(self):
        analyzer = Analyzer()
        pair = pair_of()
        returned = []
        for i in range(4):
            returned.extend(analyzer.ingest(probe(
                pair, float(i), lost=True
            )))
        # Three losses stay below the fast threshold (4): nothing is
        # scored at ingest on the columnar backend...
        assert [a.detector for a in returned] == ["fast_loss"]
        flushed = analyzer.flush(35.0)
        assert [a.detector for a in flushed] == ["loss_rule"]
        assert analyzer.open_events()[0].symptom is (
            Symptom.UNCONNECTIVITY
        )

    def test_fast_loss_drains_pending_windows_first(self):
        config = DetectorConfig(fast_unconnectivity_probes=2)
        analyzer = Analyzer(config=config)
        pair = pair_of()
        analyzer.ingest(probe(pair, 0.0, lost=True))
        analyzer.ingest(probe(pair, 1.0, lost=True))
        analyzer.ingest(probe(pair, 2.0, lost=True))
        # Probe at t=31 closes window [0,30) *and* is the second loss
        # of a fresh run... consecutive run continues, so only the
        # window verdict lands; the event opened at the fast alarm.
        analyzer.flush(31.0)
        event = analyzer.events[0]
        assert event.first_detected_at == 1.0
        assert event.anomalies[0].detector == "fast_loss"
        assert {a.detector for a in event.anomalies} == {
            "fast_loss", "loss_rule"
        }

    def test_reset_scores_closed_windows_before_dropping(self):
        analyzer = Analyzer()
        pair = pair_of()
        for i in range(4):
            analyzer.ingest(probe(pair, float(i), lost=True))
        analyzer.ingest(probe(pair, 31.0, lost=True))
        analyzer.reset_pairs_involving([pair.src], 40.0)
        # The all-lost window [0,30) was pending at reset time; its
        # verdict must not be lost.
        assert any(
            a.detector == "loss_rule" for a in analyzer.anomalies
        )
        assert analyzer.monitored_pairs() == []
        assert all(not e.open for e in analyzer.events)
