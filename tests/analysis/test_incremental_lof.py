"""Tests for the rolling-window LOF the detector maintains.

The contract: scoring each new window against the pair's rolling
look-back with the batched kernel (:func:`lof_scores_fixed_batch`, what
the columnar engine runs) gives exactly the score of rebuilding
:func:`lof_score_of_new_point` from the same window — the detector
batches the work, not the semantics — and the engine's ring-buffered
baseline evicts its oldest window first.
"""

import numpy as np
import pytest

from repro.analysis.lof import lof_score_of_new_point, lof_scores_fixed_batch
from repro.core.columnar import ColumnarDetectionEngine
from repro.core.detection import DetectorConfig
from repro.core.pinglist import ProbePair
from repro.sim.metrics import TimeSeries


def _rolling_scores(stream, k, lookback, score):
    """``score(history, vec)`` for each vector over a rolling window."""
    scores = []
    history = []
    for vec in stream:
        scores.append(score(np.vstack(history), vec) if history else 1.0)
        history.append(vec)
        if len(history) > lookback:
            history.pop(0)
    return scores


def _reference(k):
    return lambda hist, vec: lof_score_of_new_point(hist, vec, k=k)


def _batched(k):
    return lambda hist, vec: float(
        lof_scores_fixed_batch(hist[None], vec[None], k=k)[0]
    )


class TestAgainstReference:
    @pytest.mark.parametrize(
        "k,lookback",
        [(4, 10), (5, 7), (2, 25), (8, 12), (1, 3)],
    )
    def test_rolling_window_scores_match(self, k, lookback):
        rng = np.random.default_rng(42)
        stream = 18.0 + rng.random((120, 7))
        expected = _rolling_scores(stream, k, lookback, _reference(k))
        actual = _rolling_scores(stream, k, lookback, _batched(k))
        np.testing.assert_array_equal(actual, expected)

    def test_outlier_still_stands_out(self):
        rng = np.random.default_rng(3)
        hist = rng.normal(0.0, 1.0, size=(20, 3))
        scores = lof_scores_fixed_batch(
            np.stack([hist, hist]),
            np.stack([np.full(3, 12.0), np.zeros(3)]), k=5,
        )
        assert scores[0] > 3.0
        assert scores[1] < 2.0


class TestRollingState:
    def test_capacity_evicts_oldest_first(self):
        # A huge threshold keeps every window healthy, so each one
        # joins the four-window baseline.
        config = DetectorConfig(
            lookback_windows=4, min_history_windows=4, lof_k=2,
            lof_threshold=1e12,
        )
        engine = ColumnarDetectionEngine(config)
        pair = ProbePair.canonical("lof-a", "lof-b")
        rng = np.random.default_rng(5)
        windows = [10.0 + i + rng.random(8) for i in range(8)]
        for i, lats in enumerate(windows):
            engine.enqueue_window(
                pair, i * 30.0, (i + 1) * 30.0, 8, 0, lats
            )
        scored = [
            v for v in engine.collect(full=True) if v.score is not None
        ]
        features = [
            np.asarray(TimeSeries.describe(lats).as_vector())
            for lats in windows
        ]
        assert engine.history_len(pair) == 4
        # The last window is scored against windows 3..6 — the oldest
        # three were evicted in arrival order.
        expected = lof_score_of_new_point(
            np.vstack(features[3:7]), features[7], k=2
        )
        assert scored[-1].score == pytest.approx(expected, abs=1e-10)
        stale = lof_score_of_new_point(
            np.vstack(features[:4]), features[7], k=2
        )
        assert scored[-1].score != pytest.approx(stale, abs=1e-6)

    def test_fewer_than_two_points_score_neutral(self):
        cand = np.array([[1.0, 2.0]])
        assert lof_scores_fixed_batch(
            np.empty((1, 0, 2)), cand, k=3
        ).tolist() == [1.0]
        assert lof_scores_fixed_batch(
            np.zeros((1, 1, 2)), cand, k=3
        ).tolist() == [1.0]


class TestFixedBatch:
    def test_small_histories_score_neutral(self):
        rng = np.random.default_rng(4)
        hist = rng.random((3, 1, 2))
        scores = lof_scores_fixed_batch(hist, rng.random((3, 2)), k=2)
        assert scores.tolist() == [1.0, 1.0, 1.0]
        assert lof_scores_fixed_batch(
            np.empty((0, 5, 2)), np.empty((0, 2))
        ).size == 0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            lof_scores_fixed_batch(
                np.ones((2, 3)), np.ones((2, 3))
            )
