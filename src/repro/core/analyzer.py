"""The analyzer: aggregates probing results and emits failure events.

Plays the role of the paper's log-service + real-time-computing analyzer
(§6): agents report probe results here; the columnar detection engine
closes every pair's 30-second and 30-minute windows and scores them in
batches; and consecutive anomalies on one pair are folded into a single
:class:`FailureEvent` so a persistent fault raises one incident, not one
alarm per window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

from repro.core.columnar import ColumnarDetectionEngine, ScoredWindow
from repro.core.detection import DetectedAnomaly, DetectorConfig
from repro.core.pinglist import ProbePair
from repro.network.issues import Symptom
from repro.network.packet import ProbeResult

__all__ = [
    "Analyzer",
    "FailureEvent",
    "HOT_UTILIZATION",
    "LOAD_HEADROOM",
    "LoadConditionedAdmission",
    "RESOLVE_AFTER_S",
    "ZTEST_BASE",
]

#: An open incident resolves once its pair has gone this long (sim
#: seconds) without a fresh anomaly while healthy windows keep closing.
RESOLVE_AFTER_S = 90.0
#: Mean bottleneck utilization at which a pair's path counts as hot.
HOT_UTILIZATION = 0.7
#: How much a fully hot path raises the latency threshold: the required
#: score is ``base * (1 + LOAD_HEADROOM * hotness)``.
LOAD_HEADROOM = 1.5
#: The z-test scores |z| but thresholds on alpha; 3.9 is the two-sided
#: critical value at the default alpha=1e-4.
ZTEST_BASE = 3.9


class LoadConditionedAdmission:
    """Raises latency thresholds on pairs whose paths run hot.

    Congestion on a heavily-utilized link inflates latency without any
    component having failed; admitting those anomalies at the standard
    thresholds misclassifies congestion collapse as a link failure.
    This filter conditions admission on a
    :class:`~repro.network.load.LinkLoadModel`: a ``HIGH_LATENCY``
    anomaly whose pair's path distribution averages at least
    :data:`HOT_UTILIZATION` bottleneck utilization must beat its
    detector's base threshold by a :data:`LOAD_HEADROOM`-scaled factor.
    Loss and unconnectivity anomalies are never suppressed — packets
    dropping is a failure signal regardless of load.

    The decision is pure arithmetic over the anomaly and the (static)
    load model, so it is identical across shard counts.  Pair
    utilizations are cached per fabric routing epoch: toggling the ECMP
    mode changes path distributions, so cached utilizations from the
    previous mode are discarded.
    """

    def __init__(self, load_model, fabric) -> None:
        self.load_model = load_model
        self.fabric = fabric
        self._cache: Dict[ProbePair, float] = {}
        self._cache_epoch: Optional[int] = None

    def pair_utilization(self, pair: ProbePair) -> float:
        """Mean bottleneck utilization over the pair's path distribution."""
        epoch = getattr(
            getattr(self.fabric, "resolution_cache", None),
            "routing_epoch", None,
        )
        if epoch != self._cache_epoch:
            self._cache.clear()
            self._cache_epoch = epoch
        cached = self._cache.get(pair)
        if cached is not None:
            return cached
        paths = self.fabric.path_distribution(pair.src, pair.dst)
        utilization = (
            self.load_model.distribution_utilization(paths)
            if paths else 0.0
        )
        self._cache[pair] = utilization
        return utilization

    def admit(self, anomaly, base_threshold: Optional[float]) -> bool:
        """Whether the anomaly survives load conditioning."""
        if anomaly.symptom is not Symptom.HIGH_LATENCY:
            return True
        utilization = self.pair_utilization(anomaly.pair)
        if utilization < HOT_UTILIZATION:
            return True
        if anomaly.detector == "long_term_ztest":
            base_threshold = ZTEST_BASE
        if base_threshold is None:
            return True
        hotness = (utilization - HOT_UTILIZATION) / max(
            1e-9, 1.0 - HOT_UTILIZATION
        )
        required = base_threshold * (1.0 + LOAD_HEADROOM * hotness)
        return abs(anomaly.score) >= required


@dataclass
class FailureEvent:
    """One incident: a pair misbehaving over a contiguous stretch."""

    pair: ProbePair
    first_detected_at: float
    symptom: Symptom
    anomalies: List[DetectedAnomaly] = field(default_factory=list)
    resolved_at: Optional[float] = None

    @property
    def open(self) -> bool:
        """Whether the incident is still active."""
        return self.resolved_at is None

    @property
    def key(self) -> Tuple[ProbePair, float]:
        """A stable identity for the incident.

        ``id(event)`` is unusable as a dedup key — CPython reuses object
        ids after garbage collection — but (pair, first detection time)
        uniquely names an incident: the analyzer never opens two events
        for one pair at the same instant.
        """
        return (self.pair, self.first_detected_at)

    @property
    def last_seen_at(self) -> float:
        """Time of the most recent anomaly in the incident."""
        if not self.anomalies:
            return self.first_detected_at
        return max(a.detected_at for a in self.anomalies)

    def absorb(self, anomaly: DetectedAnomaly) -> None:
        """Attach a further anomaly to the incident.

        Unconnectivity dominates packet loss dominates high latency when
        deciding the incident's overall symptom.
        """
        self.anomalies.append(anomaly)
        precedence = {
            Symptom.UNCONNECTIVITY: 2,
            Symptom.PACKET_LOSS: 1,
            Symptom.HIGH_LATENCY: 0,
        }
        if precedence[anomaly.symptom] > precedence[self.symptom]:
            self.symptom = anomaly.symptom


class Analyzer:
    """Routes probe results through the detectors into incidents.

    Every pair's windows live in one
    :class:`~repro.core.columnar.ColumnarDetectionEngine`; window
    scoring is *deferred* to :meth:`flush` (or an incident-ordering
    drain on the fast-unconnectivity path) and runs batched across
    pairs, so ``ingest`` returns only fast-path anomalies.  After any
    ``flush`` the ``anomalies`` / ``events`` state equals that of eager
    per-window scoring; the reference analyzer under ``tests/oracle``
    pins this verdict-for-verdict (scores within 1e-10; see
    docs/PERFORMANCE.md).
    """

    #: The detection implementation, reported in benchmark facts.
    backend: ClassVar[str] = "columnar"

    def __init__(
        self,
        config: Optional[DetectorConfig] = None,
        recorder=None,
        load_filter: Optional[LoadConditionedAdmission] = None,
    ) -> None:
        # Constructed per instance: a shared default instance would leak
        # one analyzer's tuning into every other (see repro.verify.lint,
        # rule "shared-instance-default").
        config = config if config is not None else DetectorConfig()
        self.config = config
        self.recorder = recorder
        # Optional load conditioning: anomalies are run through the
        # filter before entering the incident bookkeeping.  May also be
        # assigned after construction, before the first probe is
        # ingested.
        self.load_filter = load_filter
        # Detector-config flags are hoisted out of the per-probe path:
        # the fast-unconnectivity check runs on every probe and must
        # not re-derive them each time.
        self._fast_enabled = config.fast_unconnectivity_probes > 0
        self._fast_threshold = config.fast_unconnectivity_probes
        self._engine = ColumnarDetectionEngine(config)
        self._open_events: Dict[ProbePair, FailureEvent] = {}
        self.events: List[FailureEvent] = []
        self.anomalies: List[DetectedAnomaly] = []

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def ingest(self, result: ProbeResult) -> List[DetectedAnomaly]:
        """Feed one probe result; returns anomalies detected *now*.

        Window scoring is deferred to :meth:`flush`; only a
        fast-unconnectivity alarm (and the pair's queued windows it
        drains first) surfaces here.
        """
        pair = ProbePair.canonical(result.src, result.dst)
        engine = self._engine
        row = engine.ingest(pair, result)
        new: List[DetectedAnomaly] = []
        if (
            self._fast_enabled
            and result.lost
            and engine.consecutive_losses(row) == self._fast_threshold
        ):
            # Alarm the moment a run of consecutive losses looks like a
            # dead path, without waiting for the window to close.  The
            # pair's queued windows are scored *first*, so the
            # incident's first_detected_at matches eager per-window
            # scoring.
            new.extend(self._process_verdicts(engine.collect_rows(
                [row], full=self.recorder is not None,
                watch=self._open_events,
            )))
            anomaly = DetectedAnomaly(
                pair=pair, detected_at=result.sent_at,
                symptom=Symptom.UNCONNECTIVITY, detector="fast_loss",
                score=float(self._fast_threshold),
                window_start=result.sent_at,
            )
            self._record(anomaly)
            new.append(anomaly)
        engine.queue_elapsed_longs(row, result.sent_at)
        return new

    def flush(self, now: float) -> List[DetectedAnomaly]:
        """Close all elapsed windows across every monitored pair."""
        if self.recorder is None:
            return self._flush(now)
        with self.recorder.span("analyzer.flush", sim_time=now) as span:
            new = self._flush(now)
            span.set(pairs=self._engine.num_pairs, anomalies=len(new))
        return new

    def _flush(self, now: float) -> List[DetectedAnomaly]:
        self._engine.close_elapsed(now)
        return self._process_verdicts(self._engine.collect(
            full=self.recorder is not None, watch=self._open_events,
        ))

    def _process_verdicts(
        self, verdicts: Sequence[ScoredWindow]
    ) -> List[DetectedAnomaly]:
        """Fold batched engine verdicts into the incident bookkeeping.

        Per window, in order: a recorder event when it was scored,
        ``_record`` for an admitted anomaly, and a resolution check for
        a healthy (or load-suppressed) short window.
        """
        new: List[DetectedAnomaly] = []
        recorder = self.recorder
        cfg = self.config
        for v in verdicts:
            if v.kind == "short":
                if v.sent == 0:
                    # A window with no probes is a *missing* round
                    # (crashed agent, lost reports, pair dropped from
                    # the list), not a healthy one: it carries no
                    # evidence either way, so it neither feeds the
                    # detectors nor resolves an open event.
                    if recorder is not None:
                        recorder.count("windows.skipped_empty")
                    continue
                if v.score is not None and recorder is not None:
                    recorder.event(
                        "detect.lof", sim_time=v.window_end,
                        pair=f"{v.pair.src}<->{v.pair.dst}",
                        score=float(v.score),
                        threshold=cfg.lof_threshold,
                        median_shifted=bool(v.median_shifted),
                        anomalous=v.anomaly is not None,
                    )
                if v.anomaly is not None and self._admit(v.anomaly):
                    new.append(v.anomaly)
                    self._record(v.anomaly)
                else:
                    self._maybe_resolve(v.pair, v.window_end)
            else:
                if v.score is not None and recorder is not None:
                    recorder.event(
                        "detect.ztest", sim_time=v.window_end,
                        pair=f"{v.pair.src}<->{v.pair.dst}",
                        z=float(v.score), alpha=cfg.ztest_alpha,
                        samples=v.samples,
                        anomalous=v.anomaly is not None,
                    )
                if v.anomaly is not None and self._admit(v.anomaly):
                    new.append(v.anomaly)
                    self._record(v.anomaly)
        return new

    # ------------------------------------------------------------------
    # Scoring and incident management
    # ------------------------------------------------------------------

    def _admit(self, anomaly: DetectedAnomaly) -> bool:
        """Run the anomaly through load conditioning, if configured.

        A suppressed window counts as healthy for incident resolution:
        load explained the latency, so the pair is not misbehaving.
        """
        if self.load_filter is None:
            return True
        if self.load_filter.admit(
            anomaly, self._threshold_of(anomaly.detector)
        ):
            return True
        if self.recorder is not None:
            self.recorder.count("anomalies.suppressed_load")
            self.recorder.event(
                "detect.suppressed_load",
                sim_time=anomaly.detected_at,
                pair=f"{anomaly.pair.src}<->{anomaly.pair.dst}",
                detector=anomaly.detector,
                score=float(anomaly.score),
            )
        return False

    def _record(self, anomaly: DetectedAnomaly) -> None:
        self.anomalies.append(anomaly)
        recorder = self.recorder
        if recorder is not None:
            recorder.count("anomalies.detected")
            recorder.event(
                "detect.anomaly", sim_time=anomaly.detected_at,
                pair=f"{anomaly.pair.src}<->{anomaly.pair.dst}",
                detector=anomaly.detector,
                symptom=anomaly.symptom.value,
                score=float(anomaly.score),
                threshold=self._threshold_of(anomaly.detector),
                window_start=anomaly.window_start,
            )
        event = self._open_events.get(anomaly.pair)
        if event is not None and event.open:
            event.absorb(anomaly)
            return
        event = FailureEvent(
            pair=anomaly.pair,
            first_detected_at=anomaly.detected_at,
            symptom=anomaly.symptom,
        )
        event.anomalies.append(anomaly)
        self._open_events[anomaly.pair] = event
        self.events.append(event)
        if recorder is not None:
            recorder.count("events.opened")
            recorder.event(
                "detect.event_opened", sim_time=anomaly.detected_at,
                pair=f"{event.pair.src}<->{event.pair.dst}",
                symptom=event.symptom.value,
            )

    def _threshold_of(self, detector: str) -> Optional[float]:
        """The alarm threshold the named detector applied."""
        return {
            "short_term_lof": self.config.lof_threshold,
            "loss_rule": self.config.loss_rate_threshold,
            "fast_loss": float(self.config.fast_unconnectivity_probes),
            "long_term_ztest": self.config.ztest_alpha,
        }.get(detector)

    def _maybe_resolve(self, pair: ProbePair, window_end: float) -> None:
        event = self._open_events.get(pair)
        if event is None or not event.open:
            return
        if window_end - event.last_seen_at >= RESOLVE_AFTER_S:
            event.resolved_at = window_end
            del self._open_events[pair]
            if self.recorder is not None:
                self.recorder.count("events.resolved")
                self.recorder.event(
                    "detect.event_resolved",
                    sim_time=window_end,
                    pair=f"{event.pair.src}<->{event.pair.dst}",
                    duration_s=window_end - event.first_detected_at,
                )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def open_events(self) -> List[FailureEvent]:
        """Incidents that are still active."""
        return [e for e in self._open_events.values() if e.open]

    def reset_pairs_involving(self, endpoints, now: float) -> List[
        ProbePair
    ]:
        """Invalidate monitoring state for pairs touching ``endpoints``.

        Called when the control plane *changed* the data path (e.g. a
        container migration): the old latency baseline is no longer
        meaningful, so the pair's windows, detector baselines, and any
        open incident are discarded and rebuilt from fresh probes.
        """
        targets = set(endpoints)
        engine = self._engine
        affected = [
            pair for pair in engine.pairs()
            if pair.src in targets or pair.dst in targets
        ]
        # Score what already closed before discarding: eager per-window
        # scoring would have seen those windows, so dropping them here
        # would silently lose verdicts.
        rows = [engine.row_of(pair) for pair in affected]
        self._process_verdicts(engine.collect_rows(
            [r for r in rows if r is not None],
            full=self.recorder is not None,
            watch=self._open_events,
        ))
        for pair in affected:
            engine.drop(pair)
            event = self._open_events.pop(pair, None)
            if event is not None and event.open:
                event.resolved_at = now
        return affected

    def events_between(
        self, start: float, end: float
    ) -> List[FailureEvent]:
        """Incidents first detected inside [start, end)."""
        return [
            e for e in self.events if start <= e.first_detected_at < end
        ]

    def monitored_pairs(self) -> List[ProbePair]:
        """Every pair that has reported at least one probe."""
        return sorted(self._engine.pairs())
