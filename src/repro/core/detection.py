"""Connectivity anomaly detection (§5.2 of the paper): shared types.

Probe results stream into per-pair buffers.  Every 30 seconds a window
closes and yields a seven-number latency summary plus loss counts; the
detectors then decide whether the pair misbehaves:

* **Loss rules** — a window where every probe died is *unconnectivity*;
  a window with loss above a small threshold is *packet loss*.
* **Short-term LOF** — the window's summary vector is scored with the
  Local Outlier Factor against the last five minutes of healthy windows;
  a high score flags a *high-latency* anomaly.  Flagged windows are kept
  out of the baseline so a persistent failure cannot teach the detector
  that broken is normal.
* **Long-term Z-test** — thirty-minute aggregates are Z-tested against a
  log-normal fit of the pair's reference period, catching gradual
  degradation that creeps slowly enough to hide inside the LOF baseline.

The detectors themselves run batched across all pairs in
:class:`~repro.core.columnar.ColumnarDetectionEngine`; this module holds
the verdict type and the tunables they share.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.pinglist import ProbePair
from repro.network.issues import Symptom

__all__ = [
    "DetectedAnomaly",
    "DetectorConfig",
]


@dataclass(frozen=True)
class DetectedAnomaly:
    """A detector verdict for one pair and window."""

    pair: ProbePair
    detected_at: float
    symptom: Symptom
    detector: str
    score: float
    window_start: float


@dataclass(frozen=True)
class DetectorConfig:
    """Tunables shared by the detector stack."""

    short_window_s: float = 30.0
    long_window_s: float = 1800.0
    lookback_windows: int = 10          # 5 minutes of 30 s windows
    min_history_windows: int = 4
    lof_k: int = 4
    lof_threshold: float = 4.5
    # A window must also shift its *median* latency to alarm: transient
    # congestion spikes perturb max/std but leave the median untouched
    # (§5.2: transient spikes must be filtered out).
    median_shift_threshold: float = 0.15
    loss_rate_threshold: float = 0.01
    min_probes_for_unconnectivity: int = 3
    fast_unconnectivity_probes: int = 4  # consecutive losses -> alarm now
    ztest_alpha: float = 1e-4
    min_long_samples: int = 50
