"""Fleet-plane round time (multi-tenant deployment) under pytest-benchmark.

Regenerates ``BENCH_fleet.json``'s numbers at the quick size: a
churning multi-tenant fleet on the 512-endpoint smoke fabric, run over
1 and 2 workers.  The committed artifact records the acceptance shape
— 16 concurrent tenants on a 16K-endpoint fabric, up to 8 workers,
with every admitted tenant's per-round skeleton coverage at or above
its configured floor.  Rows are measured wall time per round; the
workers run in-process one after another, so worker counts are not
expected to speed a round up.  The timing gate is an absolute bound on
the 1-worker round (``QUICK_ROUND_S_BOUND``).  The equivalence check
is strict: a sharded or failed-over fleet must produce the same
per-tenant events, verdicts, blacklists, coverage, rollups and probe
counts as the single-worker baseline.
"""

from conftest import print_table, run_once
from repro.fleet.bench import (
    QUICK_FABRIC,
    QUICK_ROUND_S_BOUND,
    bench_fleet_run,
    fleet_bench_spec,
)
from repro.fleet.equivalence import (
    default_fleet_spec,
    fleet_gate,
    run_fleet,
)
from repro.shard.equivalence import verify_equivalence

JOBS = 4
WORKER_COUNTS = (1, 2)


def test_fleet_round_scaling(benchmark):
    spec = fleet_bench_spec(JOBS, QUICK_FABRIC, containers_per_job=8)

    def experiment():
        return [
            bench_fleet_run(spec, workers)
            for workers in WORKER_COUNTS
        ]

    results = run_once(benchmark, experiment)
    rows = [row for _, row in results]

    print_table(
        "Fleet plane: measured round time by worker count",
        ["jobs", "workers", "endpoints", "setup s", "round s", "budget"],
        [[r["jobs"], r["workers"], r["monitored_endpoints"],
          f"{r['setup_s']:.3f}", f"{r['round_s']:.4f}",
          "ok" if r["budget_ok"] else "OVER"] for r in rows],
    )
    for row in rows:
        benchmark.extra_info[f"round_s_{row['workers']}w"] = (
            row["round_s"]
        )
    # Hard gates: the budget is never exceeded and every admitted
    # tenant's per-round coverage held its floor.
    assert all(row["budget_ok"] for row in rows)
    result, _ = results[-1]
    for name, min_cov, _cumulative in result.coverage_summary:
        assert min_cov + 1e-9 >= spec.tenant(name).coverage_floor
    assert rows[0]["round_s"] <= QUICK_ROUND_S_BOUND


def test_sharded_fleet_equals_single_worker(benchmark):
    spec = default_fleet_spec()
    result, _ = run_once(
        benchmark,
        lambda: verify_equivalence(
            lambda config: run_fleet(
                spec, config.workers, kill_schedule=config.kill_schedule
            ),
            fleet_gate((2, 4)),
        ),
    )
    benchmark.extra_info["events"] = len(result.event_summary)
    benchmark.extra_info["verdicts"] = len(result.verdict_summary)
    assert result.event_summary
    assert result.verdict_summary
    assert result.coverage_summary
