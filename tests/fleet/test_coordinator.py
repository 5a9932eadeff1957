"""Tests for the fleet coordinator's kills and failover on the shared
worker plane."""

import pytest

from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.equivalence import run_fleet
from repro.fleet.spec import TenantSpec
from repro.obs.trace import TraceRecorder
from repro.shard import PlaneError, ShardDeadError

from tests.fleet.conftest import small_fleet_spec


def three_tenant_spec():
    """Three equal tenants, so three workers own one each and worker 0
    is the first adopter (least loaded, lowest id)."""
    return small_fleet_spec(
        churn_rate=0.3,
        extra_tenants=(
            TenantSpec(name="c", num_containers=4, gpus_per_container=4),
        ),
    )


def die_on_rebuild(coordinator, worker_id):
    """Make one worker crash the moment it is asked to adopt."""
    handle = coordinator.handles[worker_id]

    def dying_rebuild(items, upto_round):
        handle.alive = False
        raise ShardDeadError(f"worker {worker_id} crashed mid-rebuild")

    handle.rebuild = dying_rebuild


class TestFailover:
    def test_killing_every_worker_raises(self):
        with pytest.raises(PlaneError):
            run_fleet(
                small_fleet_spec(), num_workers=2,
                kill_schedule={0: 2, 1: 2},
            )

    def test_dead_adopter_reorphans_its_tenants(self):
        # Worker 1 is killed at chunk 2; worker 0, its adopter, crashes
        # during the rebuild.  Every tenant must land on worker 2 and
        # the run must match the single-worker baseline.
        spec = three_tenant_spec()
        baseline = run_fleet(spec, num_workers=1)
        coordinator = FleetCoordinator(
            spec, num_workers=3, kill_schedule={1: 2}
        )
        die_on_rebuild(coordinator, 0)
        result = coordinator.run()
        statuses = coordinator.statuses
        assert not statuses[0].alive
        assert not statuses[1].alive
        assert statuses[2].alive
        assert statuses[2].tenants == ("a", "b", "c")
        assert {m.from_shard for m in result.reassignments} == {0, 1}
        assert {m.to_shard for m in result.reassignments} == {0, 2}
        assert result.comparable() == baseline.comparable()
        assert (result.probes_sent, result.probes_lost) == (
            baseline.probes_sent, baseline.probes_lost
        )

    def test_kill_before_the_first_round(self):
        spec = small_fleet_spec(churn_rate=0.3)
        baseline = run_fleet(spec, num_workers=1)
        result = run_fleet(spec, num_workers=2, kill_schedule={1: 1})
        assert [m.round_index for m in result.reassignments] == [0]
        assert result.comparable() == baseline.comparable()
        assert result.probes_sent == baseline.probes_sent

    def test_failover_events_recorded(self):
        recorder = TraceRecorder()
        run_fleet(
            small_fleet_spec(), num_workers=2, kill_schedule={1: 2},
            recorder=recorder,
        )
        assert recorder.events("fleet.dead")
        assert recorder.events("fleet.reassign")
        counters = recorder.metrics.counters()
        assert counters["fleet.deaths"] == 1
        assert counters["fleet.reassignments"] == 1


class TestConstruction:
    def test_kill_schedule_ids_validated(self):
        spec = small_fleet_spec()
        with pytest.raises(ValueError):
            FleetCoordinator(spec, 2, kill_schedule={5: 1})
        with pytest.raises(ValueError):
            FleetCoordinator(spec, 2, kill_schedule={-1: 1})

    def test_kill_schedule_chunks_are_one_based(self):
        with pytest.raises(ValueError):
            FleetCoordinator(small_fleet_spec(), 2, kill_schedule={1: 0})
