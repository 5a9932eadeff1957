"""Tests of the benchmark itself, at tiny sizes.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
CHECKOUT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(CHECKOUT / "src"))

import run  # noqa: E402
from tracing import LayerTracer  # noqa: E402

SPEC = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: Run lengths (seconds) small enough for tests, large enough that every
#: output check has something to check (the shard faults need rounds to
#: be detected).
TINY = {"steady": 1, "campaign": 1, "fleet_churn": 2, "shard_faults": 4}

#: The workload's own metric names, as the report prints them.
OWN_METRICS = {
    "steady": {"setup_s", "first_round_s", "round_s_p50", "round_s_p90",
               "probes_per_s", "false_events", "peak_rss_mb"},
    "campaign": {"setup_s", "case_s_p50", "case_s_p90", "faults_detected",
                 "faults_localized", "detect_delay_s_p50", "false_events",
                 "peak_rss_mb"},
    "fleet_churn": {"setup_s", "probes_per_s", "run_s",
                    "coverage_floor_misses", "peak_rss_mb"},
    "shard_faults": {"setup_s", "probes_per_s", "run_s", "faults_detected",
                     "faults_localized", "detect_delay_s_p50",
                     "false_events", "peak_rss_mb"},
}


def bench(*args, cwd=CHECKOUT):
    completed = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )
    return completed


def result_of(completed):
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    return json.loads(lines[-1]), run.parse_report(completed.stdout)


@pytest.fixture(scope="module")
def traced():
    runs = {}

    def get(workload):
        if workload not in runs:
            runs[workload] = result_of(bench(
                "--workload", workload, "--seed", "0",
                "--seconds", str(TINY[workload]), "--trace", "1",
            ))
        return runs[workload]

    return get


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(TINY)
    assert all(set(w) == {"name", "why"} for w in SPEC["workloads"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    names = list(END_TO_END) + list(PER_LAYER)
    assert len(names) == len(set(names))


@pytest.mark.parametrize("workload", list(TINY))
def test_traced_run_reports_every_layer_metric(traced, workload):
    line, report = traced(workload)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"], report["failures"]
    assert line["failed"] == 0
    assert line["attempted"] >= 1
    assert {k: v["unit"] for k, v in line["metrics"].items()} == PER_LAYER
    assert report["layers"]["trace.stage_sum_err"] < run.STAGE_SUM_TOLERANCE
    untraced = report["untraced"]
    assert set(untraced["end_to_end"]) == set(END_TO_END)
    assert set(untraced["metrics"]) == OWN_METRICS[workload]
    for metric in untraced["metrics"].values():
        assert metric["unit"]
    for fact in ("cpu_count", "python", "numpy", "blas_threads"):
        assert fact in untraced["host"]
    assert untraced["facts"].get("analyzer_backend", "columnar")


def test_layers_land_where_the_issue_predicts(traced):
    steady = traced("steady")[1]["layers"]
    times = {k: v for k, v in steady.items()
             if k.endswith("_s") and not k.startswith(("fleet.", "shard."))}
    assert max(times, key=times.get) == "pinglist.select_s"
    assert steady["fabric.cache_hit_rate"] == 1.0
    fleet = traced("fleet_churn")[1]["layers"]
    assert fleet["pinglist.select_s"] == 0.0
    assert fleet["fabric.cache_hit_rate"] < 0.1
    shard = traced("shard_faults")[1]
    assert shard["layers"]["shard.result_bytes"] > 0
    assert shard["untraced"]["facts"]["backend"] == "mp"
    assert shard["facts"]["backend"] == "inproc"


def test_untraced_run_prints_end_to_end_metrics_and_repeats():
    first = result_of(bench("--workload", "steady", "--seed", "1",
                            "--seconds", "1", "--trace", "0"))
    second = result_of(bench("--workload", "steady", "--seed", "1",
                             "--seconds", "1", "--trace", "0"))
    line = first[0]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in line["metrics"].values())
    assert first[1]["digest"] == second[1]["digest"]


def test_output_check_rejects_a_tampered_digest(traced):
    report = traced("campaign")[1]
    untraced = dict(report["untraced"])
    assert run.output_check(untraced, report["digest"]) == []
    untraced["digest"] = "0" * len(untraced["digest"])
    assert run.output_check(untraced, report["digest"])
    untraced["digest"] = ""
    assert run.output_check(untraced, "")


def test_tracer_self_times_add_up_and_unwrap():
    class Layer:
        def outer(self):
            return self.inner() + Layer.helper()

        def inner(self):
            return sum(range(20000))

        @staticmethod
        def helper():
            return 1

    tracer = LayerTracer()
    originals = dict(vars(Layer))
    tracer._wrap_attr(Layer, "outer", "outer")
    tracer._wrap_attr(Layer, "inner", "inner")
    tracer._wrap_attr(Layer, "helper", "helper")
    with tracer.root():
        assert Layer().outer() == sum(range(20000)) + 1
    tracer.uninstall()
    assert tracer.total_s["op"] == pytest.approx(tracer.stage_sum_s())
    assert tracer.self_s["outer"] < tracer.total_s["outer"]
    assert vars(Layer)["helper"] is originals["helper"]
    assert vars(Layer)["outer"] is originals["outer"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = bench("--workload", "steady", "--seed", "0", "--trace", "0",
                      cwd=tmp_path)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
