"""The production analyzer against the eager reference analyzer.

Two kinds of probe stream feed both analyzers and must yield identical
anomaly and incident signatures (scores within 1e-10):

* a synthetic stream — healthy latency noise, one pair with a mid-run
  loss burst, one with a latency shift, and a mid-stream
  ``reset_pairs_involving`` churn;
* the analyzer call streams of real runs — one spraying case per gray
  family with the ``LoadConditionedAdmission`` filter installed, and
  the gray shard-plane scenario — mirrored call for call into a
  reference analyzer per production analyzer.
"""

import pytest

from repro.chaos.gray import GRAY_FAMILIES, _run_leg, gray_shard_spec
from repro.core.analyzer import Analyzer
from repro.core.detection import DetectorConfig
from repro.network.packet import ProbeResult
from repro.shard.equivalence import run_plane
from repro.sim.rng import RngRegistry

from tests.oracle.reference_analyzer import (
    ReferenceAnalyzer,
    assert_same_verdicts,
)

SCORE_TOL = 1e-10

#: The analyzer entry points the monitoring plane drives.
_CALLS = ("ingest", "flush", "reset_pairs_involving")


def _feed_detector_stream(analyzer, num_pairs=48, rounds=240, seed=7,
                          probe_interval_s=5.0):
    rng = RngRegistry(seed).stream("verify.detector")
    endpoints = [f"vd-{i}" for i in range(2 * num_pairs)]
    pair_ids = [
        (endpoints[2 * i], endpoints[2 * i + 1])
        for i in range(num_pairs)
    ]
    lossy = pair_ids[num_pairs // 3]
    shifted = pair_ids[2 * num_pairs // 3]
    loss_draws = rng.random((rounds, num_pairs))
    lat_draws = rng.random((rounds, num_pairs))
    for r in range(rounds):
        at = r * probe_interval_s
        for i, (src, dst) in enumerate(pair_ids):
            burst = (src, dst) == lossy and 400 <= at < 700
            slow = (src, dst) == shifted and at >= 600
            lost = bool(loss_draws[r, i] < (0.9 if burst else 0.002))
            latency = (
                None if lost
                else (18.0 + 2.0 * lat_draws[r, i]) * (2.5 if slow else 1.0)
            )
            analyzer.ingest(ProbeResult(
                src=src, dst=dst, sent_at=at,
                lost=lost, latency_us=latency,
            ))
        if r == rounds // 2:
            analyzer.reset_pairs_involving([shifted[0]], at)
        analyzer.flush(at)
    analyzer.flush(rounds * probe_interval_s)
    return analyzer


def test_detector_stream_matches_reference():
    config = DetectorConfig(long_window_s=300.0, min_long_samples=20)
    reference = _feed_detector_stream(ReferenceAnalyzer(config))
    columnar = _feed_detector_stream(Analyzer(config=config))
    compared = assert_same_verdicts(columnar, reference, SCORE_TOL)
    assert compared > 0
    assert any(e.resolved_at is not None for e in reference.events)


@pytest.fixture
def mirrored(monkeypatch):
    """Mirror every production analyzer's call stream into a reference.

    Returns a list of ``[analyzer, reference, calls]`` entries, one per
    analyzer that received a call.  The reference shares the analyzer's
    load filter and sees each call just before the analyzer does, so
    both read the same fabric state.
    """
    entries = {}

    def wrap(name):
        original = getattr(Analyzer, name)

        def method(self, *args, **kwargs):
            entry = entries.get(id(self))
            if entry is None:
                entry = entries[id(self)] = [
                    self, ReferenceAnalyzer(self.config), 0,
                ]
            entry[1].load_filter = self.load_filter
            getattr(entry[1], name)(*args, **kwargs)
            entry[2] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Analyzer, name, method)

    for name in _CALLS:
        wrap(name)
    return entries


def _assert_streams_match(entries):
    assert entries, "no analyzer call was captured"
    events = 0
    for analyzer, reference, calls in entries.values():
        assert calls > 0
        assert_same_verdicts(analyzer, reference, SCORE_TOL)
        events += len(reference.events)
    assert events > 0
    return events


@pytest.mark.parametrize(
    "issue", GRAY_FAMILIES, ids=lambda issue: issue.name.lower()
)
def test_gray_spray_stream_matches_reference(mirrored, issue):
    leg = _run_leg(issue, 0, "spray")
    [(analyzer, _, _)] = mirrored.values()
    assert analyzer is leg["scenario"].hunter.analyzer
    assert analyzer.load_filter is not None
    _assert_streams_match(mirrored)


@pytest.mark.parametrize("shards", [1, 2])
def test_gray_shard_stream_matches_reference(mirrored, shards):
    run_plane(gray_shard_spec(seed=0), shards, "inproc")
    assert len(mirrored) == shards
    _assert_streams_match(mirrored)
