"""Columnar storage + batched scoring for the §5.2 detectors.

Every monitored pair closes a 30-second window every 30 s; scoring each
one as its own object (a seven-number summary, an O(k·n) LOF score, a
median check, a baseline append — each a handful of small numpy calls)
lets interpreter overhead dominate at thousands of pairs.  This module
instead keeps every pair's detection state in a *columnar* store
indexed by a pair→row table:

* **Open-window columns** — one ``(pairs × samples)`` latency matrix
  plus sent/lost/consecutive-loss counters per row; ``ingest`` appends
  into the row, closing elapsed windows into a per-row pending queue.
* **Ring-buffered LOF history** — a ``(pairs × lookback × 7)`` feature
  matrix with per-row fill counts and eviction heads; the short-term
  baseline for *every* pair lives in one array.
* **Long-term aggregates** — per-row latency buffers consumed into
  30-minute windows, with the log-normal fits stored as ``mu``/``sigma``
  columns.

Scoring is deferred to :meth:`ColumnarDetectionEngine.collect`, which
drains the pending queues in *waves* (the i-th pending window of every
row), so the summary statistics, LOF (:func:`lof_scores_fixed_batch`),
median-shift checks, baseline appends, and long-term Z-tests
(:func:`z_test_rows`) each run as a few numpy calls over all pairs at
once instead of per-pair Python loops.  Per-row window ordering — the
thing detector state depends on — is preserved because wave w+1 never
runs before every row's wave-w window has been scored and (if healthy)
admitted to the baseline.

The semantics are pinned by a compact eager reference analyzer under
``tests/oracle`` (full-rebuild :func:`lof_score_of_new_point`,
:func:`fit_lognormal`/:func:`z_test` per pair and window): verdicts
match anomaly-for-anomaly and scores agree within the documented 1e-10
drift — batched reductions reassociate float sums (numpy pairwise vs.
Python sequential), which moves results by ~1e-15 relative but never
past a detection threshold for continuously distributed latencies.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.lof import lof_scores_fixed_batch
from repro.analysis.stats import fit_lognormal_rows, z_test_rows
from repro.core.detection import DetectedAnomaly, DetectorConfig
from repro.core.pinglist import ProbePair
from repro.network.issues import Symptom
from repro.network.packet import ProbeResult

__all__ = ["ColumnarDetectionEngine", "ScoredWindow"]

#: Feature dimensionality: (p25, p50, p75, min, mean, std, max).
_FEATURES = 7
#: Pending-entry kind tags (index 0 of the entry tuple).
_SHORT = 0
_LONG = 1


class ScoredWindow(NamedTuple):
    """One detector verdict the engine hands back to the analyzer.

    ``kind`` is ``"short"`` (a 30-second window: loss rules + LOF) or
    ``"long"`` (a 30-minute Z-tested aggregate).  ``score`` carries the
    LOF score (short) or the Z statistic (long) when the window was
    actually scored; loss-rule and unscored windows leave it ``None``.
    ``samples`` is the long window's sample count (0 for short).
    """

    pair: ProbePair
    kind: str
    window_start: float
    window_end: float
    sent: int
    lost: int
    anomaly: Optional[DetectedAnomaly]
    score: Optional[float]
    median_shifted: Optional[bool]
    samples: int


class ColumnarDetectionEngine:
    """All pairs' detection state in matrices, scored in batches.

    The engine owns storage and scoring; incident bookkeeping (events,
    resolution, recorder spans) stays in :class:`~repro.core.analyzer.
    Analyzer`, which consumes the ordered :class:`ScoredWindow` stream.
    Windows close *lazily*: ``ingest`` queues them (so no probe ever
    pollutes an elapsed window) and ``collect`` scores every queued
    window across all pairs at once — per-pair verdicts are identical
    to eager per-window scoring, they just materialize at the next
    ``Analyzer.flush`` (or immediately, via :meth:`collect_rows`, when
    the fast-unconnectivity path needs in-order draining).
    """

    #: Initial open-window latency capacity (columns); grows by
    #: doubling when a window outgrows it.
    _INITIAL_SAMPLES = 32

    def __init__(self, config: Optional[DetectorConfig] = None) -> None:
        # Per-instance default (lint rule "shared-instance-default").
        self.config = config if config is not None else DetectorConfig()
        cfg = self.config
        self._short_s = cfg.short_window_s
        self._long_s = cfg.long_window_s
        self._lookback = max(int(cfg.lookback_windows), 1)

        self._rows: Dict[ProbePair, int] = {}
        self._row_pair: List[Optional[ProbePair]] = []
        self._free: List[int] = []

        # Open-window per-row state (Python lists: the ingest hot path
        # touches one scalar per probe and list indexing beats numpy
        # scalar boxing there).
        self._ws: List[Optional[float]] = []
        self._sent: List[int] = []
        self._lost: List[int] = []
        self._consec: List[int] = []
        self._lat_n: List[int] = []
        self._lat = np.empty((0, self._INITIAL_SAMPLES))

        # Long-window buffers (consumed once per 30 minutes per pair).
        self._long_start: List[Optional[float]] = []
        self._long_times: List[List[float]] = []
        self._long_vals: List[List[float]] = []
        self._fit_mu: List[Optional[float]] = []
        self._fit_sigma: List[Optional[float]] = []

        # Ring-buffered LOF baseline: first ``hist_n`` slots are valid;
        # once full, ``hist_head`` is the next eviction (overwrite) slot.
        self._hist = np.empty((0, self._lookback, _FEATURES))
        self._hist_n = np.zeros(0, dtype=np.int64)
        self._hist_head = np.zeros(0, dtype=np.int64)

        # Per-row pending windows awaiting a scoring pass, in the
        # order eager per-window scoring would have processed them.
        self._pending: List[List[tuple]] = []

    # ------------------------------------------------------------------
    # Pair / row management
    # ------------------------------------------------------------------

    @property
    def num_pairs(self) -> int:
        """How many pairs currently own a row."""
        return len(self._rows)

    def pairs(self) -> List[ProbePair]:
        """Monitored pairs in first-probe order."""
        return list(self._rows)

    def row_of(self, pair: ProbePair) -> Optional[int]:
        """The pair's row index, or ``None`` when unmonitored."""
        return self._rows.get(pair)

    def consecutive_losses(self, row: int) -> int:
        """Current run of consecutive losses on ``row``."""
        return self._consec[row]

    def history_len(self, pair: ProbePair) -> int:
        """How many baseline windows the pair's LOF ring holds."""
        row = self._rows.get(pair)
        return int(self._hist_n[row]) if row is not None else 0

    def _grow_rows(self, need: int) -> None:
        old = self._lat.shape[0]
        new = max(need, old * 2, 16)
        lat = np.empty((new, self._lat.shape[1]))
        lat[:old] = self._lat
        self._lat = lat
        hist = np.empty((new, self._lookback, _FEATURES))
        hist[:old] = self._hist
        self._hist = hist
        for name in ("_hist_n", "_hist_head"):
            arr = np.zeros(new, dtype=np.int64)
            arr[:old] = getattr(self, name)
            setattr(self, name, arr)

    def _add_pair(self, pair: ProbePair) -> int:
        if self._free:
            row = self._free.pop()
            self._row_pair[row] = pair
        else:
            row = len(self._row_pair)
            self._row_pair.append(pair)
            self._ws.append(None)
            self._sent.append(0)
            self._lost.append(0)
            self._consec.append(0)
            self._lat_n.append(0)
            self._long_start.append(None)
            self._long_times.append([])
            self._long_vals.append([])
            self._fit_mu.append(None)
            self._fit_sigma.append(None)
            self._pending.append([])
            if row >= self._lat.shape[0]:
                self._grow_rows(row + 1)
        self._rows[pair] = row
        return row

    def drop(self, pair: ProbePair) -> None:
        """Forget a pair entirely (windows, baselines, fit, pending)."""
        row = self._rows.pop(pair, None)
        if row is None:
            return
        self._row_pair[row] = None
        self._ws[row] = None
        self._sent[row] = 0
        self._lost[row] = 0
        self._consec[row] = 0
        self._lat_n[row] = 0
        self._long_start[row] = None
        self._long_times[row] = []
        self._long_vals[row] = []
        self._fit_mu[row] = None
        self._fit_sigma[row] = None
        self._pending[row] = []
        self._hist_n[row] = 0
        self._hist_head[row] = 0
        self._free.append(row)

    # ------------------------------------------------------------------
    # Ingestion (per-probe hot path)
    # ------------------------------------------------------------------

    def ingest(self, pair: ProbePair, result: ProbeResult) -> int:
        """Append one probe into the pair's columns; returns the row.

        Elapsed 30-second windows are closed into the pending queue
        (never scored here) so a late probe can't leak into a window
        that already ended.
        """
        row = self._rows.get(pair)
        if row is None:
            row = self._add_pair(pair)
        t = result.sent_at
        ws = self._ws[row]
        if ws is None:
            self._ws[row] = ws = t
            self._long_start[row] = t
        if t >= ws + self._short_s:
            while t >= self._ws[row] + self._short_s:  # type: ignore
                self._close_short(row)
        self._sent[row] += 1
        if result.lost:
            self._lost[row] += 1
            self._consec[row] += 1
        else:
            self._consec[row] = 0
            times = self._long_times[row]
            if times and t < times[-1]:
                raise ValueError(
                    f"pair {pair} probes must arrive in time order: "
                    f"{t} < {times[-1]}"
                )
            n = self._lat_n[row]
            if n >= self._lat.shape[1]:
                grown = np.empty((self._lat.shape[0],
                                  2 * self._lat.shape[1]))
                grown[:, :self._lat.shape[1]] = self._lat
                self._lat = grown
            self._lat[row, n] = result.latency_us
            self._lat_n[row] = n + 1
            times.append(t)
            self._long_vals[row].append(float(result.latency_us))
        return row

    def _close_short(self, row: int) -> None:
        ws = self._ws[row]
        we = ws + self._short_s  # type: ignore[operator]
        n = self._lat_n[row]
        lats = self._lat[row, :n].copy() if n else None
        self._pending[row].append(
            (_SHORT, ws, we, self._sent[row], self._lost[row], lats)
        )
        self._ws[row] = we
        self._sent[row] = 0
        self._lost[row] = 0
        self._lat_n[row] = 0

    def enqueue_window(
        self,
        pair: ProbePair,
        window_start: float,
        window_end: float,
        sent: int,
        lost: int,
        latencies: Optional[np.ndarray] = None,
    ) -> int:
        """Queue one already-closed short window directly.

        Bypasses per-probe ingestion for callers that produce whole
        windows — the detector benchmark and window-level tests — so
        they measure/exercise exactly the batched scoring path.
        """
        row = self._rows.get(pair)
        if row is None:
            row = self._add_pair(pair)
        self._pending[row].append(
            (_SHORT, window_start, window_end, sent, lost, latencies)
        )
        return row

    def queue_elapsed_longs(self, row: int, now: float) -> None:
        """Move elapsed 30-minute aggregates into the pending queue."""
        start = self._long_start[row]
        if start is None:
            return
        while now >= start + self._long_s:
            end = start + self._long_s
            times = self._long_times[row]
            vals = self._long_vals[row]
            hi = bisect_left(times, end)
            self._pending[row].append((_LONG, end, vals[:hi]))
            del times[:hi]
            del vals[:hi]
            start = end
        self._long_start[row] = start

    def close_elapsed(self, now: float) -> None:
        """Close every elapsed short and long window across all rows."""
        short_s = self._short_s
        for row in self._rows.values():
            if self._ws[row] is not None:
                while now >= self._ws[row] + short_s:  # type: ignore
                    self._close_short(row)
            self.queue_elapsed_longs(row, now)

    def has_pending(self) -> bool:
        """Whether any row holds unscored windows."""
        return any(self._pending[r] for r in self._rows.values())

    # ------------------------------------------------------------------
    # Batched scoring
    # ------------------------------------------------------------------

    def collect(
        self, full: bool = False, watch: Optional[Dict] = None
    ) -> List[ScoredWindow]:
        """Score every pending window across all pairs, in batches.

        ``full`` emits a verdict for *every* window (the recorder needs
        one ``detect.lof`` / ``detect.ztest`` event per scored window);
        otherwise healthy windows are emitted only for pairs in
        ``watch`` (open incidents that may resolve) or pairs that
        alarmed earlier in this collection — the cases where the
        analyzer's bookkeeping actually inspects them.
        """
        active = [r for r in self._rows.values() if self._pending[r]]
        return self._collect_rows(active, full, watch)

    def collect_rows(
        self,
        rows: Sequence[int],
        full: bool = False,
        watch: Optional[Dict] = None,
    ) -> List[ScoredWindow]:
        """Score the pending windows of specific rows (fast-path drain)."""
        chosen = [r for r in rows if self._pending[r]]
        return self._collect_rows(chosen, full, watch)

    def _collect_rows(
        self, active: List[int], full: bool, watch: Optional[Dict]
    ) -> List[ScoredWindow]:
        if not active:
            return []
        watch = watch if watch is not None else {}
        out: Dict[int, List[ScoredWindow]] = {r: [] for r in active}
        flagged: set = set()  # rows that alarmed during this collect
        ptr = dict.fromkeys(active, 0)
        live = active
        while live:
            shorts: List[Tuple[int, tuple]] = []
            longs: List[Tuple[int, tuple]] = []
            for row in live:
                entry = self._pending[row][ptr[row]]
                ptr[row] += 1
                if entry[0] == _SHORT:
                    shorts.append((row, entry))
                else:
                    longs.append((row, entry))
            if shorts:
                self._score_short_wave(shorts, out, flagged, full, watch)
            if longs:
                self._score_long_wave(longs, out, flagged, full)
            live = [r for r in live if ptr[r] < len(self._pending[r])]
        for row in active:
            self._pending[row].clear()
        verdicts: List[ScoredWindow] = []
        for row in active:
            verdicts.extend(out[row])
        return verdicts

    def _emit_healthy(
        self, row: int, full: bool, watch: Dict, flagged: set
    ) -> bool:
        """Whether a healthy window's verdict is worth materializing."""
        return (
            full
            or row in flagged
            or self._row_pair[row] in watch
        )

    def _score_short_wave(
        self,
        entries: List[Tuple[int, tuple]],
        out: Dict[int, List[ScoredWindow]],
        flagged: set,
        full: bool,
        watch: Dict,
    ) -> None:
        cfg = self.config
        min_unconn = cfg.min_probes_for_unconnectivity
        loss_thr = cfg.loss_rate_threshold
        stat_entries: List[Tuple[int, tuple]] = []
        for row, entry in entries:
            _, ws, we, sent, lost, lats = entry
            pair = self._row_pair[row]
            if sent == 0:
                if full:
                    out[row].append(ScoredWindow(
                        pair, "short", ws, we, 0, 0, None, None, None, 0
                    ))
                continue
            if sent >= min_unconn and lost == sent:
                anomaly = DetectedAnomaly(
                    pair=pair, detected_at=we,
                    symptom=Symptom.UNCONNECTIVITY, detector="loss_rule",
                    score=1.0, window_start=ws,
                )
                flagged.add(row)
                out[row].append(ScoredWindow(
                    pair, "short", ws, we, sent, lost, anomaly,
                    None, None, 0,
                ))
                continue
            rate = lost / sent
            if rate > loss_thr:
                anomaly = DetectedAnomaly(
                    pair=pair, detected_at=we,
                    symptom=Symptom.PACKET_LOSS, detector="loss_rule",
                    score=rate, window_start=ws,
                )
                flagged.add(row)
                out[row].append(ScoredWindow(
                    pair, "short", ws, we, sent, lost, anomaly,
                    None, None, 0,
                ))
                continue
            if lats is None:
                # All probes lost but below the loss thresholds: no
                # feature to score, still a window the analyzer may
                # resolve an incident against.
                if self._emit_healthy(row, full, watch, flagged):
                    out[row].append(ScoredWindow(
                        pair, "short", ws, we, sent, lost, None,
                        None, None, 0,
                    ))
                continue
            stat_entries.append((row, entry))
        if stat_entries:
            self._score_feature_windows(
                stat_entries, out, flagged, full, watch
            )

    def _summaries_of(
        self, stat_entries: List[Tuple[int, tuple]]
    ) -> np.ndarray:
        """Vectorized seven-number summaries of a wave's windows.

        Matches :meth:`TimeSeries.describe` per row: sorted values,
        range-clamped mean, population std, linear-interpolated
        percentiles.
        """
        count = len(stat_entries)
        lens = np.fromiter(
            (entry[5].shape[0] for _, entry in stat_entries),
            dtype=np.int64, count=count,
        )
        width = int(lens.max())
        mask = np.arange(width)[None, :] < lens[:, None]
        padded = np.full((count, width), np.inf)
        padded[mask] = np.concatenate(
            [entry[5] for _, entry in stat_entries]
        )
        srt = np.sort(padded, axis=1)
        rows_ix = np.arange(count)
        mn = srt[:, 0]
        mx = srt[rows_ix, lens - 1]
        sums = np.add.reduce(np.where(mask, srt, 0.0), axis=1)
        mean = np.clip(sums / lens, mn, mx)
        diff = np.where(mask, srt - mean[:, None], 0.0)
        std = np.sqrt(np.add.reduce(diff * diff, axis=1) / lens)

        def pct(q: float) -> np.ndarray:
            rank = q * (lens - 1)
            low = np.floor(rank).astype(np.int64)
            high = np.ceil(rank).astype(np.int64)
            frac = rank - low
            return (
                srt[rows_ix, low] * (1.0 - frac)
                + srt[rows_ix, high] * frac
            )

        return np.column_stack(
            (pct(0.25), pct(0.5), pct(0.75), mn, mean, std, mx)
        )

    def _score_feature_windows(
        self,
        stat_entries: List[Tuple[int, tuple]],
        out: Dict[int, List[ScoredWindow]],
        flagged: set,
        full: bool,
        watch: Dict,
    ) -> None:
        cfg = self.config
        count = len(stat_entries)
        features = self._summaries_of(stat_entries)
        row_arr = np.fromiter(
            (row for row, _ in stat_entries), dtype=np.int64, count=count
        )
        counts = self._hist_n[row_arr]

        scores = np.full(count, np.nan)
        shifted = np.zeros(count, dtype=bool)
        scorable = np.nonzero(counts >= cfg.min_history_windows)[0]
        for n_hist in np.unique(counts[scorable]):
            group = scorable[counts[scorable] == n_hist]
            rows_g = row_arr[group]
            n = int(n_hist)
            if n < 2:
                scores[group] = 1.0
            else:
                scores[group] = lof_scores_fixed_batch(
                    self._hist[rows_g][:, :n, :],
                    features[group], k=cfg.lof_k,
                )
            if n >= 1:
                base = np.median(self._hist[rows_g][:, :n, 1], axis=1)
                positive = base > 0
                shift = (
                    features[group, 1] - base
                ) / np.where(positive, base, 1.0)
                shifted[group] = ~positive | (
                    shift > cfg.median_shift_threshold
                )
            else:
                shifted[group] = True

        anomalous = np.zeros(count, dtype=bool)
        anomalous[scorable] = (
            (scores[scorable] > cfg.lof_threshold) & shifted[scorable]
        )

        # Healthy windows join the baseline — one fancy-indexed ring
        # append for the whole wave (rows are unique within a wave).
        admit = np.nonzero(~anomalous)[0]
        if admit.size:
            rows_a = row_arr[admit]
            n_a = self._hist_n[rows_a]
            at_cap = n_a >= self._lookback
            slots = np.where(at_cap, self._hist_head[rows_a], n_a)
            self._hist[rows_a, slots] = features[admit]
            self._hist_n[rows_a] = np.minimum(n_a + 1, self._lookback)
            self._hist_head[rows_a] = np.where(
                at_cap,
                (self._hist_head[rows_a] + 1) % self._lookback,
                self._hist_head[rows_a],
            )

        scored_mask = np.zeros(count, dtype=bool)
        scored_mask[scorable] = True
        for i, (row, entry) in enumerate(stat_entries):
            _, ws, we, sent, lost, lats = entry
            pair = self._row_pair[row]
            if anomalous[i]:
                anomaly = DetectedAnomaly(
                    pair=pair, detected_at=we,
                    symptom=Symptom.HIGH_LATENCY,
                    detector="short_term_lof",
                    score=float(scores[i]), window_start=ws,
                )
                flagged.add(row)
                out[row].append(ScoredWindow(
                    pair, "short", ws, we, sent, lost, anomaly,
                    float(scores[i]), bool(shifted[i]), 0,
                ))
            elif scored_mask[i]:
                if self._emit_healthy(row, full, watch, flagged):
                    out[row].append(ScoredWindow(
                        pair, "short", ws, we, sent, lost, None,
                        float(scores[i]), bool(shifted[i]), 0,
                    ))
            elif self._emit_healthy(row, full, watch, flagged):
                out[row].append(ScoredWindow(
                    pair, "short", ws, we, sent, lost, None,
                    None, None, 0,
                ))

    def _score_long_wave(
        self,
        entries: List[Tuple[int, tuple]],
        out: Dict[int, List[ScoredWindow]],
        flagged: set,
        full: bool,
    ) -> None:
        cfg = self.config
        to_fit: List[Tuple[int, list]] = []
        to_test: List[Tuple[int, float, list]] = []
        for row, entry in entries:
            _, end, vals = entry
            if len(vals) < cfg.min_long_samples or len(vals) < 2:
                continue
            if self._fit_mu[row] is None:
                to_fit.append((row, vals))
            else:
                to_test.append((row, end, vals))
        if to_fit:
            padded, counts = self._pad_values([v for _, v in to_fit])
            mus, sigmas = fit_lognormal_rows(padded, counts)
            for i, (row, _) in enumerate(to_fit):
                self._fit_mu[row] = float(mus[i])
                self._fit_sigma[row] = float(sigmas[i])
        if to_test:
            padded, counts = self._pad_values(
                [v for _, _, v in to_test]
            )
            mu = np.fromiter(
                (self._fit_mu[row] for row, _, _ in to_test),
                dtype=np.float64, count=len(to_test),
            )
            sigma = np.fromiter(
                (self._fit_sigma[row] for row, _, _ in to_test),
                dtype=np.float64, count=len(to_test),
            )
            z, p = z_test_rows(mu, sigma, padded, counts)
            for i, (row, end, vals) in enumerate(to_test):
                pair = self._row_pair[row]
                hit = p[i] < cfg.ztest_alpha and z[i] > 0
                if hit:
                    anomaly: Optional[DetectedAnomaly] = DetectedAnomaly(
                        pair=pair, detected_at=end,
                        symptom=Symptom.HIGH_LATENCY,
                        detector="long_term_ztest",
                        score=abs(float(z[i])),
                        window_start=end - cfg.long_window_s,
                    )
                    flagged.add(row)
                elif not full:
                    continue
                else:
                    anomaly = None
                out[row].append(ScoredWindow(
                    pair, "long", end - cfg.long_window_s, end, 0, 0,
                    anomaly, float(z[i]), None, len(vals),
                ))

    @staticmethod
    def _pad_values(
        value_lists: List[list],
    ) -> Tuple[np.ndarray, np.ndarray]:
        counts = np.fromiter(
            (len(v) for v in value_lists), dtype=np.int64,
            count=len(value_lists),
        )
        width = int(counts.max())
        padded = np.full((len(value_lists), width), 1.0)
        mask = np.arange(width)[None, :] < counts[:, None]
        padded[mask] = np.concatenate(
            [np.asarray(v, dtype=np.float64) for v in value_lists]
        )
        return padded, counts
