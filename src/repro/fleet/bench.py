"""Fleet-scale measurements behind ``BENCH_fleet.json``.

Measures the multi-tenant plane along the two axes the paper's
deployment story cares about:

* **jobs x endpoints vs round time** — the measured wall time per
  fleet round as concurrent tenants are added to a fixed fabric, at
  several worker counts.  The workers run in-process, one after
  another, so more workers add coordination and replicas rather than
  parallelism; each row records the host's CPU count;
* **coverage under budget** — that every admitted tenant's granted
  per-round coverage stayed at or above its configured floor for the
  whole run, while the global probes-per-round budget was never
  exceeded.

The equivalence gate runs *first*: a latency number from a plane that
changes results when sharded or failed-over would be meaningless.  The
regression gate is an absolute bound on the measured 1-worker round.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional, Tuple

from repro.fleet.coordinator import FleetCoordinator, FleetRunResult
from repro.fleet.equivalence import fleet_gate, run_fleet
from repro.fleet.lifecycle import demand_table
from repro.fleet.spec import FleetSpec, TenantSpec
from repro.shard.equivalence import verify_equivalence

__all__ = [
    "FULL_FABRIC",
    "FULL_ROUND_S_BOUND",
    "QUICK_FABRIC",
    "QUICK_ROUND_S_BOUND",
    "fleet_bench_spec",
    "format_report",
    "run_fleet_benchmark",
]

#: (num_segments, hosts_per_segment, rails_per_host): 128 hosts and
#: 512 endpoints for CI smoke runs.
QUICK_FABRIC = (16, 8, 4)
#: 4096 hosts and 16384 endpoints — the committed artifact's scale.
FULL_FABRIC = (512, 8, 4)
#: Upper bounds on the measured 1-worker round, in seconds: 16 jobs on
#: the full fabric (``repro fleet bench``'s regression gate) and 4 jobs
#: on the quick fabric (``benchmarks/bench_fleet.py``).
FULL_ROUND_S_BOUND = 1.0
QUICK_ROUND_S_BOUND = 0.1


def fleet_bench_spec(
    jobs: int,
    fabric: Tuple[int, int, int],
    containers_per_job: int = 16,
    gpus_per_container: int = 4,
    total_rounds: int = 8,
    seed: int = 0,
    budget_fraction: float = 0.6,
) -> FleetSpec:
    """A heterogeneous ``jobs``-tenant fleet on the given fabric.

    Arrivals are staggered over the first four rounds (all tenants are
    concurrent from round 4 on), a third of the tenants churn
    containers, and weights/floors vary — so the budget scheduler, the
    lifecycle replay, and the balancer all do real work.  The probe
    budget is ``budget_fraction`` of the peak aggregate demand
    (floor-sum permitting), making the allocation binding.
    """
    num_segments, hosts_per_segment, rails = fabric
    tenants = tuple(
        TenantSpec(
            name=f"job-{index:02d}",
            num_containers=containers_per_job,
            gpus_per_container=gpus_per_container,
            arrival_round=1 + (index % 4),
            churn_rate=0.2 if index % 3 == 0 else 0.0,
            coverage_floor=0.5 if index % 4 == 3 else 0.25,
            weight=2.0 if index % 2 else 1.0,
        )
        for index in range(jobs)
    )
    demands = demand_table(FleetSpec(
        seed=seed,
        total_rounds=total_rounds,
        num_segments=num_segments,
        hosts_per_segment=hosts_per_segment,
        rails_per_host=rails,
        probe_budget_per_round=10 ** 9,
        tenants=tenants,
    ))
    total_demand = sum(d.demand for d in demands.values())
    floor_sum = sum(d.floor for d in demands.values())
    budget = max(floor_sum, int(total_demand * budget_fraction))
    from repro.cluster.identifiers import ContainerId, TaskId
    from repro.shard.spec import FaultSpec, MonitorFaultSpec

    return FleetSpec(
        seed=seed,
        total_rounds=total_rounds,
        num_segments=num_segments,
        hosts_per_segment=hosts_per_segment,
        rails_per_host=rails,
        probe_budget_per_round=budget,
        chunk_rounds=4,
        tenants=tenants,
        # Real weather for the gate: a container crash inside job-00
        # and a monitor-plane report-loss window — so the equivalence
        # check covers non-empty event/verdict/blacklist streams and
        # the chaos-hardened probe path.
        faults=(
            FaultSpec(
                issue="CONTAINER_CRASH",
                target=ContainerId(TaskId(0), 1),
                start_round=2,
            ),
        ),
        monitor_faults=(
            MonitorFaultSpec(
                issue="PROBE_REPORT_LOSS",
                start_round=4,
                end_round=7,
                rate=0.2,
            ),
        ),
    )


def _coverage_rows(
    spec: FleetSpec, result: FleetRunResult
) -> List[Dict[str, object]]:
    rows = []
    for name, min_cov, cumulative in result.coverage_summary:
        floor = spec.tenant(name).coverage_floor
        rows.append({
            "tenant": name,
            "coverage_floor": floor,
            "min_round_coverage": min_cov,
            "cumulative_coverage": cumulative,
            "floor_ok": bool(min_cov + 1e-9 >= floor),
        })
    return rows


def _budget_ok(result: FleetRunResult) -> bool:
    return all(
        rollup.granted <= rollup.budget for rollup in result.rollups
    )


def bench_fleet_run(
    spec: FleetSpec,
    num_workers: int,
) -> Tuple[FleetRunResult, Dict[str, object]]:
    """Run one fleet shape and report its measured round time.

    ``setup_s`` is building the coordinator and its worker replicas;
    ``round_s`` is the wall time of the run divided by its rounds.
    """
    started = time.perf_counter()
    coordinator = FleetCoordinator(spec, num_workers=num_workers)
    setup_s = time.perf_counter() - started
    started = time.perf_counter()
    result = coordinator.run()
    run_s = time.perf_counter() - started
    peak_concurrent = max(
        (len(r.admitted) for r in result.rollups), default=0
    )
    monitored_endpoints = sum(
        tenant.endpoints for tenant in spec.tenants
    )
    row: Dict[str, object] = {
        "jobs": len(spec.tenants),
        "peak_concurrent_tenants": peak_concurrent,
        "fabric_endpoints": spec.endpoint_capacity,
        "monitored_endpoints": monitored_endpoints,
        "workers": num_workers,
        "cpu_count": os.cpu_count(),
        "rounds": spec.total_rounds,
        "probe_budget_per_round": spec.probe_budget_per_round,
        "probes_sent": result.probes_sent,
        "setup_s": round(setup_s, 6),
        "round_s": round(run_s / spec.total_rounds, 6),
        "worker_s": round(
            sum(seconds for _, seconds in result.worker_seconds), 6
        ),
        "budget_ok": _budget_ok(result),
    }
    return result, row


def run_fleet_benchmark(
    quick: bool = False,
    seed: int = 0,
    out: Optional[str] = None,
) -> Dict[str, object]:
    """Equivalence gate + the jobs/workers scaling sweep.

    Writes the JSON artifact when ``out`` is given.  The full
    configuration is the acceptance shape: 16 concurrent tenants on a
    16K-endpoint fabric, sharded up to 8 workers.
    """
    fabric = QUICK_FABRIC if quick else FULL_FABRIC
    containers = 8 if quick else 16
    if quick:
        jobs_grid: Tuple[int, ...] = (2, 4)
        worker_grid: Tuple[int, ...] = (1, 2)
    else:
        jobs_grid = (4, 8, 16)
        worker_grid = (1, 2, 4, 8)
    max_jobs = max(jobs_grid)

    # Gate first: the scaling numbers only mean something if sharding
    # and failover provably do not change results.
    gate_spec = fleet_bench_spec(
        max_jobs, fabric, containers_per_job=containers, seed=seed
    )
    gate_counts = (2,) if quick else (2, 4)
    baseline, compared = verify_equivalence(
        lambda config: run_fleet(
            gate_spec, config.workers, kill_schedule=config.kill_schedule
        ),
        fleet_gate(gate_counts),
    )
    equivalence: Dict[str, object] = {
        "compared": compared,
        "events": len(baseline.event_summary),
        "verdicts": len(baseline.verdict_summary),
        "probes_sent": baseline.probes_sent,
        "probes_lost": baseline.probes_lost,
    }

    rows: List[Dict[str, object]] = []
    coverage: List[Dict[str, object]] = []
    for jobs in jobs_grid:
        spec = fleet_bench_spec(
            jobs, fabric, containers_per_job=containers, seed=seed
        )
        workers_for_jobs = (
            worker_grid if jobs == max_jobs else (1, worker_grid[-1])
        )
        for workers in workers_for_jobs:
            result, row = bench_fleet_run(spec, workers)
            rows.append(row)
            if jobs == max_jobs and workers == worker_grid[-1]:
                coverage = _coverage_rows(spec, result)

    report: Dict[str, object] = {
        "benchmark": "fleet-scaling",
        "quick": quick,
        "seed": seed,
        "fabric": {
            "hosts": fabric[0] * fabric[1],
            "rails_per_host": fabric[2],
            "endpoint_capacity": fabric[0] * fabric[1] * fabric[2],
        },
        "equivalence": equivalence,
        "coverage": coverage,
        "scaling": rows,
    }
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report


def format_report(report: Dict[str, object]) -> str:
    """Human-readable summary of :func:`run_fleet_benchmark` output."""
    fabric = report["fabric"]
    lines = [
        f"fleet scaling on {fabric['hosts']} hosts "
        f"({fabric['endpoint_capacity']} endpoint capacity):",
        f"  {'jobs':>5} {'workers':>8} {'endpoints':>10} "
        f"{'setup s':>8} {'round s':>8} {'worker s':>9} {'budget':>7}",
    ]
    for row in report["scaling"]:
        lines.append(
            f"  {row['jobs']:>5} {row['workers']:>8} "
            f"{row['monitored_endpoints']:>10} "
            f"{row['setup_s']:>8.3f} {row['round_s']:>8.4f} "
            f"{row['worker_s']:>9.3f} "
            f"{'ok' if row['budget_ok'] else 'OVER':>7}"
        )
    lines.append(
        f"  host: {report['scaling'][0]['cpu_count']} CPU(s); workers "
        "run in-process, one after another"
    )
    floors = [row for row in report["coverage"]]
    ok = sum(1 for row in floors if row["floor_ok"])
    lines.append(
        f"coverage floors: {ok}/{len(floors)} tenants at or above "
        "their configured floor every admitted round"
    )
    eq = report["equivalence"]
    lines.append(
        f"equivalence: {len(eq['compared'])} configurations identical "
        f"to the single-worker baseline ({eq['events']} events, "
        f"{eq['verdicts']} verdict batches, {eq['probes_sent']} probes)"
    )
    return "\n".join(lines)
