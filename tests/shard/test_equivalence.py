"""The shard-equivalence gate: same seed, same events, same verdicts —
independent of shard count, backend, and failover history."""

import pytest

from repro.shard import (
    ShardEquivalenceError,
    run_plane,
    verify_shard_equivalence,
)

from tests.shard.conftest import small_spec


@pytest.fixture(scope="module")
def baseline():
    return run_plane(small_spec(), 1, chunk_rounds=3)


def assert_equivalent(baseline, candidate):
    assert baseline.event_summary() == candidate.event_summary()
    assert baseline.verdict_summary() == candidate.verdict_summary()
    assert (
        baseline.vote_table.as_dict() == candidate.vote_table.as_dict()
    )


class TestShardCountInvariance:
    @pytest.mark.parametrize("num_shards", [2, 3, 4])
    def test_inproc_shard_counts_match_baseline(
        self, baseline, num_shards
    ):
        candidate = run_plane(small_spec(), num_shards, chunk_rounds=3)
        assert baseline.events and baseline.verdicts
        assert_equivalent(baseline, candidate)

    def test_single_shard_is_chunking_independent_of_count(self):
        """Same chunking, any shard count: identical.  (Chunk size
        itself is part of the run configuration — it sets the
        detection-snapshot boundaries — so equivalence is always
        stated at a fixed ``chunk_rounds``.)"""
        four = run_plane(small_spec(), 4, chunk_rounds=4)
        two = run_plane(small_spec(), 2, chunk_rounds=4)
        assert_equivalent(four, two)


class TestBackendInvariance:
    def test_multiprocessing_backend_matches_baseline(self, baseline):
        candidate = run_plane(
            small_spec(), 2, backend="mp", chunk_rounds=3
        )
        assert_equivalent(baseline, candidate)


class TestFailoverInvariance:
    def test_mid_run_kill_matches_baseline(self, baseline):
        candidate = run_plane(
            small_spec(), 4, chunk_rounds=3, kill_schedule={1: 2}
        )
        assert candidate.reassignments
        assert_equivalent(baseline, candidate)

    def test_mp_kill_matches_baseline(self, baseline):
        candidate = run_plane(
            small_spec(), 3, backend="mp", chunk_rounds=3,
            kill_schedule={0: 3},
        )
        assert candidate.reassignments
        assert_equivalent(baseline, candidate)

    def test_double_kill_matches_baseline(self, baseline):
        candidate = run_plane(
            small_spec(), 4, chunk_rounds=3,
            kill_schedule={0: 2, 3: 3},
        )
        assert len({m.from_shard for m in candidate.reassignments}) == 2
        assert_equivalent(baseline, candidate)


class TestDeterminism:
    def test_identical_runs_are_bit_equal(self, baseline):
        again = run_plane(small_spec(), 1, chunk_rounds=3)
        assert_equivalent(baseline, again)
        assert baseline.event_keys() == again.event_keys()

    def test_seed_reaches_the_shard_tokens(self, baseline):
        other = run_plane(small_spec(seed=7), 1, chunk_rounds=3)
        assert (
            baseline.statuses[0].token != other.statuses[0].token
        )


class TestVerifyHelper:
    def test_gate_passes_on_the_small_spec(self):
        summary = verify_shard_equivalence(
            spec=small_spec(), shard_counts=(2,), backends=("inproc",),
            with_failover=True, chunk_rounds=3,
        )
        assert summary["baseline_events"] > 0
        assert summary["baseline_verdicts"] > 0
        # 1 shard-count comparison + the failover kill run.
        assert summary["compared"] == [
            "shards=2 backend=inproc",
            "shards=4 backend=inproc kill=1@chunk2",
        ]

    def test_gate_reports_divergence(self, baseline):
        healthy = run_plane(
            small_spec(with_faults=False), 1, chunk_rounds=3
        )
        with pytest.raises(ShardEquivalenceError):
            from repro.shard import equivalence

            equivalence._compare(baseline, healthy, "tampered")
