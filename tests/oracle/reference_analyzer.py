"""A compact, eager reference for :class:`repro.core.analyzer.Analyzer`.

The production analyzer defers window scoring to a batched columnar
engine.  This reference spells out the §5.2 detector one pair and one
window at a time, using only the reference statistics
(:func:`~repro.analysis.lof.lof_score_of_new_point`,
:func:`~repro.analysis.stats.fit_lognormal`,
:func:`~repro.analysis.stats.z_test`,
:meth:`~repro.sim.metrics.TimeSeries.describe`), so tests can pin the
production analyzer to it verdict for verdict:

* 30-second windows close on the first probe (or flush) past their end
  and are scored at once: total loss is unconnectivity (given enough
  probes), loss above the rate threshold is packet loss, otherwise the
  window's seven-number summary is LOF-scored against the pair's last
  ``lookback_windows`` healthy windows and alarms when the score beats
  the threshold *and* the median shifted;
* anomalous windows never join the LOF baseline;
* a run of ``fast_unconnectivity_probes`` consecutive losses alarms
  immediately (after the windows that probe closed);
* 30-minute aggregates: the first becomes the pair's log-normal
  reference, later ones are Z-tested and alarm on a significant
  slow-down;
* anomalies pass the optional load filter, fold into one incident per
  pair, and an incident resolves once a healthy short window ends
  ``RESOLVE_AFTER_S`` after its last anomaly; an empty window is no
  evidence either way.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.lof import lof_score_of_new_point
from repro.analysis.stats import LognormalFit, fit_lognormal, z_test
from repro.core.analyzer import RESOLVE_AFTER_S
from repro.core.detection import DetectedAnomaly, DetectorConfig
from repro.core.pinglist import ProbePair
from repro.network.issues import Symptom
from repro.sim.metrics import TimeSeries

_PRECEDENCE = {
    Symptom.HIGH_LATENCY: 0,
    Symptom.PACKET_LOSS: 1,
    Symptom.UNCONNECTIVITY: 2,
}


@dataclass
class Incident:
    """One pair's folded anomalies (the reference ``FailureEvent``)."""

    pair: ProbePair
    first_detected_at: float
    symptom: Symptom
    anomalies: List[DetectedAnomaly] = field(default_factory=list)
    resolved_at: Optional[float] = None


@dataclass
class _PairState:
    window_start: float
    long_start: float
    latencies: List[float] = field(default_factory=list)
    sent: int = 0
    lost: int = 0
    consecutive_losses: int = 0
    long_times: List[float] = field(default_factory=list)
    long_values: List[float] = field(default_factory=list)
    history: List[np.ndarray] = field(default_factory=list)
    fit: Optional[LognormalFit] = None


class ReferenceAnalyzer:
    """Eager per-pair detection with the production analyzer's API."""

    def __init__(
        self, config: Optional[DetectorConfig] = None, load_filter=None
    ) -> None:
        self.config = config if config is not None else DetectorConfig()
        self.load_filter = load_filter
        self._pairs: Dict[ProbePair, _PairState] = {}
        self._open: Dict[ProbePair, Incident] = {}
        self.anomalies: List[DetectedAnomaly] = []
        self.events: List[Incident] = []

    # -- the analyzer call stream ---------------------------------------

    def ingest(self, result) -> None:
        cfg = self.config
        pair = ProbePair.canonical(result.src, result.dst)
        t = result.sent_at
        state = self._pairs.get(pair)
        if state is None:
            state = self._pairs[pair] = _PairState(t, t)
        self._close_windows(pair, state, t)
        state.sent += 1
        if result.lost:
            state.lost += 1
            state.consecutive_losses += 1
        else:
            state.consecutive_losses = 0
            state.latencies.append(result.latency_us)
            state.long_times.append(t)
            state.long_values.append(float(result.latency_us))
        if (
            result.lost
            and cfg.fast_unconnectivity_probes > 0
            and state.consecutive_losses == cfg.fast_unconnectivity_probes
        ):
            self._record(DetectedAnomaly(
                pair=pair, detected_at=t,
                symptom=Symptom.UNCONNECTIVITY, detector="fast_loss",
                score=float(cfg.fast_unconnectivity_probes),
                window_start=t,
            ))
        self._close_long_windows(pair, state, t)

    def flush(self, now: float) -> None:
        for pair, state in self._pairs.items():
            self._close_windows(pair, state, now)
            self._close_long_windows(pair, state, now)

    def reset_pairs_involving(self, endpoints, now: float):
        targets = set(endpoints)
        affected = [
            pair for pair in self._pairs
            if pair.src in targets or pair.dst in targets
        ]
        for pair in affected:
            del self._pairs[pair]
            incident = self._open.pop(pair, None)
            if incident is not None:
                incident.resolved_at = now
        return affected

    def monitored_pairs(self) -> List[ProbePair]:
        return sorted(self._pairs)

    # -- windows ----------------------------------------------------------

    def _close_windows(self, pair, state: _PairState, now: float) -> None:
        short_s = self.config.short_window_s
        while now >= state.window_start + short_s:
            start = state.window_start
            self._score_short(
                pair, state, start, start + short_s,
                state.sent, state.lost, state.latencies,
            )
            state.window_start = start + short_s
            state.latencies = []
            state.sent = 0
            state.lost = 0

    def _close_long_windows(
        self, pair, state: _PairState, now: float
    ) -> None:
        long_s = self.config.long_window_s
        while now >= state.long_start + long_s:
            end = state.long_start + long_s
            cut = sum(1 for t in state.long_times if t < end)
            values = state.long_values[:cut]
            del state.long_times[:cut]
            del state.long_values[:cut]
            state.long_start = end
            self._score_long(pair, state, end, values)

    # -- detectors --------------------------------------------------------

    def _score_short(
        self, pair, state: _PairState, start, end, sent, lost, latencies
    ) -> None:
        cfg = self.config
        if sent == 0:
            return
        anomaly = None
        if sent >= cfg.min_probes_for_unconnectivity and lost == sent:
            anomaly = DetectedAnomaly(
                pair=pair, detected_at=end,
                symptom=Symptom.UNCONNECTIVITY, detector="loss_rule",
                score=1.0, window_start=start,
            )
        elif lost / sent > cfg.loss_rate_threshold:
            anomaly = DetectedAnomaly(
                pair=pair, detected_at=end,
                symptom=Symptom.PACKET_LOSS, detector="loss_rule",
                score=lost / sent, window_start=start,
            )
        elif latencies:
            feature = np.asarray(
                TimeSeries.describe(latencies).as_vector()
            )
            history = state.history
            if len(history) >= cfg.min_history_windows:
                score = (
                    lof_score_of_new_point(
                        np.vstack(history), feature, k=cfg.lof_k
                    )
                    if history else 1.0
                )
                if score > cfg.lof_threshold and self._median_shifted(
                    history, feature
                ):
                    anomaly = DetectedAnomaly(
                        pair=pair, detected_at=end,
                        symptom=Symptom.HIGH_LATENCY,
                        detector="short_term_lof",
                        score=score, window_start=start,
                    )
            if anomaly is None:
                history.append(feature)
                del history[:-max(cfg.lookback_windows, 1)]
        if anomaly is not None and self._admit(anomaly):
            self._record(anomaly)
        else:
            self._maybe_resolve(pair, end)

    def _median_shifted(self, history, feature) -> bool:
        if not history:
            return True
        base = float(np.median([point[1] for point in history]))
        if base <= 0:
            return True
        shift = (float(feature[1]) - base) / base
        return shift > self.config.median_shift_threshold

    def _score_long(self, pair, state: _PairState, end, values) -> None:
        cfg = self.config
        if len(values) < max(cfg.min_long_samples, 2):
            return
        if state.fit is None:
            state.fit = fit_lognormal(values)
            return
        result = z_test(state.fit, values)
        if result.anomalous(cfg.ztest_alpha) and result.z > 0:
            anomaly = DetectedAnomaly(
                pair=pair, detected_at=end,
                symptom=Symptom.HIGH_LATENCY, detector="long_term_ztest",
                score=abs(result.z), window_start=end - cfg.long_window_s,
            )
            if self._admit(anomaly):
                self._record(anomaly)

    # -- incidents --------------------------------------------------------

    def _admit(self, anomaly: DetectedAnomaly) -> bool:
        if self.load_filter is None:
            return True
        threshold = {
            "short_term_lof": self.config.lof_threshold,
            "loss_rule": self.config.loss_rate_threshold,
            "long_term_ztest": self.config.ztest_alpha,
        }.get(anomaly.detector)
        return self.load_filter.admit(anomaly, threshold)

    def _record(self, anomaly: DetectedAnomaly) -> None:
        self.anomalies.append(anomaly)
        incident = self._open.get(anomaly.pair)
        if incident is None:
            incident = Incident(
                anomaly.pair, anomaly.detected_at, anomaly.symptom
            )
            self._open[anomaly.pair] = incident
            self.events.append(incident)
        elif _PRECEDENCE[anomaly.symptom] > _PRECEDENCE[incident.symptom]:
            incident.symptom = anomaly.symptom
        incident.anomalies.append(anomaly)

    def _maybe_resolve(self, pair, window_end: float) -> None:
        incident = self._open.get(pair)
        if incident is None:
            return
        last = max(a.detected_at for a in incident.anomalies)
        if window_end - last >= RESOLVE_AFTER_S:
            incident.resolved_at = window_end
            del self._open[pair]


def anomaly_sequences(analyzer) -> Dict[ProbePair, List[DetectedAnomaly]]:
    """Each pair's anomalies, in detection order."""
    sequences: Dict[ProbePair, List[DetectedAnomaly]] = {}
    for anomaly in analyzer.anomalies:
        sequences.setdefault(anomaly.pair, []).append(anomaly)
    return sequences


def event_signature(analyzer) -> List[tuple]:
    """The analyzer's incidents in an implementation-neutral form."""
    return sorted(
        (e.pair, e.first_detected_at, e.symptom.value, e.resolved_at,
         len(e.anomalies))
        for e in analyzer.events
    )


def assert_same_verdicts(analyzer, reference, score_tol: float) -> int:
    """Assert per-pair anomaly sequences and incidents match.

    Timing, symptom, detector and window must agree exactly, scores
    within ``score_tol``.  Returns the number of anomalies compared.
    """
    got = anomaly_sequences(analyzer)
    expected = anomaly_sequences(reference)
    assert set(got) == set(expected)
    for pair, want in expected.items():
        have = got[pair]
        assert [
            (a.detected_at, a.symptom, a.detector, a.window_start)
            for a in have
        ] == [
            (a.detected_at, a.symptom, a.detector, a.window_start)
            for a in want
        ], f"anomaly sequence diverged for {pair}"
        for mine, theirs in zip(have, want):
            assert abs(mine.score - theirs.score) <= score_tol
    assert event_signature(analyzer) == event_signature(reference)
    return len(reference.anomalies)
