"""Sharded-plane scaling (§6 scale-out) under pytest-benchmark.

Regenerates ``BENCH_shard.json``'s numbers at the quick size: warm
probe rounds through the topology-partitioned shard plane at 1 and 4
shards, on the in-process and multiprocessing backends.  The timing
gate is an absolute bound on the warm 1-shard in-process round (about
5x the measured time, like the full-size bound in ``repro
bench-shard``); shard counts are not expected to speed up a round on
one host, since an agent's cost is its own pairs.  The equivalence
check is strict: a sharded run must open the same events, reach the
same verdicts, and accumulate the same vote table as the single-shard
baseline.
"""

from conftest import print_table, run_once
from repro.shard.bench import (
    QUICK_ROUND_S_BOUND,
    QUICK_SIZE,
    bench_shard_round,
)
from repro.shard.equivalence import (
    default_equivalence_spec,
    run_plane,
    shard_gate,
    verify_equivalence,
)

ROUNDS = 2
CONFIGS = ((1, "inproc"), (4, "inproc"), (4, "mp"))


def test_shard_round_scaling(benchmark):
    _, containers, gpus = QUICK_SIZE

    def experiment():
        return [
            bench_shard_round(
                containers, gpus, num_shards, backend, rounds=ROUNDS
            )
            for num_shards, backend in CONFIGS
        ]

    rows = run_once(benchmark, experiment)
    baseline = rows[0]["round_s"]
    for row in rows:
        row["speedup"] = baseline / row["round_s"]

    print_table(
        "Shard plane: warm probe-round throughput by shard count",
        ["shards", "backend", "pairs", "cold", "round s", "hit rate",
         "probes/s", "speedup"],
        [[r["shards"], r["backend"], r["pairs_per_round"],
          r["cold_rounds"], f"{r['round_s']:.3f}",
          f"{r['warm_hit_rate']:.3f}", f"{r['probes_per_s']:.0f}",
          f"{r['speedup']:.2f}x"] for r in rows],
    )
    for row in rows:
        key = f"speedup_{row['shards']}_{row['backend']}"
        benchmark.extra_info[key] = row["speedup"]
    assert rows[0]["round_s"] <= QUICK_ROUND_S_BOUND


def test_sharded_equals_single_shard(benchmark):
    spec = default_equivalence_spec()
    baseline, compared = run_once(
        benchmark,
        lambda: verify_equivalence(
            lambda config: run_plane(
                spec, config.workers, config.backend,
                kill_schedule=config.kill_schedule,
            ),
            shard_gate(backends=("inproc", "mp")),
        ),
    )
    benchmark.extra_info["configs_compared"] = len(compared)
    assert baseline.events
    assert baseline.verdicts
    assert len(compared) == 6
