"""SkeletonHunter round-loop benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload steady --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --all            # every workload, both runs

``--trace 0`` times the workload with no wrappers and prints every
end-to-end metric of ``BENCHMARK.json``.  ``--trace 1`` first runs the
untraced workload in a fresh child process, then the same workload with
the layer tracer installed; it prints every per-layer metric, checks
that both runs produced the same output digest, checks that the layer
self times add up to the measured wall time, and reports the tracing
overhead.  The last line of standard output is always the JSON result
``{"correct", "attempted", "failed", "metrics"}``; the line before it,
prefixed ``REPORT``, holds the full report (the workload's own metric
names, host and cache facts, checks, digest).

The end-to-end times in the result are at the reference host speed:
each set-up and operation's wall time is scaled by how fast a fixed
kernel ran just before and after it (``workloads.HostClock``), so that
a shared host's load swings do not read as program changes.  The report
keeps the plain wall times (``end_to_end_wall`` and the workload's own
metrics) and the run's host factor next to them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from tracing import LayerTracer
from workloads import WORKLOADS, peak_rss_mb, percentile

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"

#: Share of the wall time the layer self times may miss or overshoot.
STAGE_SUM_TOLERANCE = 0.05
CHILD_TIMEOUT_S = 170
REPORT_PREFIX = "REPORT "


def benchmark_spec() -> dict:
    with open(CHECKOUT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def host_facts() -> Dict[str, object]:
    """Host and runtime facts every result carries."""
    import numpy
    from repro.shard.backend import MultiprocessingBackend

    # The start method the mp shard backend picks on this platform.
    context = MultiprocessingBackend()._context
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "shard_start_method": context.get_start_method(),
        "blas_threads": {
            name: os.environ.get(name, "unset")
            for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS")
        },
    }


def end_to_end(outcome, reference: bool = True) -> Dict[str, float]:
    """The contract's end-to-end metrics, common to every workload.

    With ``reference`` the times are at the reference host speed
    (``workloads.HostClock``); without, plain wall times.
    """
    setup_s = outcome.setup_ref_s if reference else outcome.setup_s
    op_s = outcome.op_ref_s if reference else outcome.op_s
    run_s = outcome.run_s * sum(op_s) / sum(outcome.op_s)
    return {
        "setup_s": statistics.median(setup_s),
        "op_s_p50": statistics.median(op_s),
        "op_s_p90": percentile(op_s, 90),
        "run_s": run_s,
        "probes_per_s": outcome.probes / run_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def output_check(untraced: dict, traced_digest: str) -> List[str]:
    """Mismatches between an untraced report and a traced run."""
    failures = []
    if not untraced.get("digest") or untraced["digest"] != traced_digest:
        failures.append(
            f"output digest differs: untraced {untraced.get('digest')!r}"
            f" vs traced {traced_digest!r}"
        )
    return failures


def _with_units(values: Dict[str, float], spec_metrics: List[dict]) -> dict:
    units = {m["name"]: m["unit"] for m in spec_metrics}
    return {
        name: {"value": values[name], "unit": units[name]}
        for name in units
    }


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    outcome = WORKLOADS[workload](seed, seconds)
    failures = [name for name, ok in outcome.checks.items() if not ok]
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": 0,
        "correct": not failures,
        "failures": failures,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "end_to_end": end_to_end(outcome),
        "end_to_end_wall": end_to_end(outcome, reference=False),
        "host_factor": outcome.host_factor,
        "host_samples_s": [round(v, 7) for v in outcome.clock.samples],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
        "op_s": [round(value, 6) for value in outcome.op_s],
        "setup_runs_s": [round(value, 6) for value in outcome.setup_s],
        "digest": outcome.digest,
        "host": host_facts(),
        "facts": outcome.facts,
    }


def run_fresh(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a fresh process; returns its report."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=CHECKOUT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S * (1 + trace), check=False,
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise RuntimeError(
            f"{workload} --trace {trace} exited {completed.returncode}"
        )
    return parse_report(completed.stdout)


def parse_report(stdout: str) -> dict:
    for line in stdout.splitlines():
        if line.startswith(REPORT_PREFIX):
            return json.loads(line[len(REPORT_PREFIX):])
    raise ValueError("no REPORT line in the benchmark's output")


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    untraced = run_fresh(workload, seed, seconds, trace=0)
    tracer = LayerTracer()
    outcome = WORKLOADS[workload](seed, seconds, tracer)
    failures = [name for name, ok in outcome.checks.items() if not ok]
    failures += output_check(untraced, outcome.digest)
    error = abs(tracer.stage_sum_s() - outcome.run_s) / outcome.run_s
    if error > STAGE_SUM_TOLERANCE:
        failures.append(
            f"layer self times sum to {tracer.stage_sum_s():.4f} s but "
            f"the timed phase took {outcome.run_s:.4f} s"
        )
    layers = tracer.layer_metrics(outcome.run_s)
    layers["trace.overhead"] = (
        outcome.run_s / outcome.host_factor
        / untraced["end_to_end"]["run_s"] - 1.0
    )
    layers["trace.stage_sum_err"] = error
    cold = outcome.facts.get("cold_rounds")
    layers["fabric.cold_rounds"] = (
        float(cold) if isinstance(cold, (int, float)) else 0.0
    )
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": 1,
        "correct": not failures and untraced["correct"],
        "failures": failures + [
            f"untraced: {name}" for name in untraced["failures"]
        ],
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "layers": layers,
        "digest": outcome.digest,
        "traced_run_s": outcome.run_s,
        "host_factor": outcome.host_factor,
        "untraced": untraced,
        "host": host_facts(),
        "facts": outcome.facts,
    }


def contract_line(report: dict, spec: dict) -> dict:
    if report["trace"]:
        metrics = _with_units(report["layers"], spec["per_layer"])
    else:
        metrics = _with_units(report["end_to_end"], spec["end_to_end"])
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def describe(report: dict, spec: dict) -> List[str]:
    """Human-readable lines: every metric by name, with its unit."""
    lines = [
        f"# {report['workload']} seed={report['seed']} "
        f"seconds={report['seconds']} trace={report['trace']}: "
        f"{report['attempted']} ops, {report['failed']} failed, "
        f"{'correct' if report['correct'] else 'INCORRECT'}"
    ]
    lines += [f"#   check failed: {text}" for text in report["failures"]]
    untraced = report["untraced"] if report["trace"] else report
    shown = [untraced["metrics"],
             _with_units(untraced["end_to_end"], spec["end_to_end"])]
    if report["trace"]:
        shown.append(_with_units(report["layers"], spec["per_layer"]))
    for metrics in shown:
        for name, metric in metrics.items():
            lines.append(
                f"{name:<26} {metric['value']:>14.6g} {metric['unit']}"
            )
    return lines


def _run_one(args, spec: dict) -> int:
    if args.trace:
        report = run_traced(args.workload, args.seed, args.seconds)
    else:
        report = run_untraced(args.workload, args.seed, args.seconds)
    print("\n".join(describe(report, spec)))
    print(REPORT_PREFIX + json.dumps(report, sort_keys=True))
    print(json.dumps(contract_line(report, spec)))
    return 0


def _run_all(args, spec: dict) -> int:
    """Every workload, untraced and traced, each in fresh processes."""
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        try:
            report = run_fresh(workload, args.seed, args.seconds, trace=1)
        except RuntimeError as error:
            print(f"# {error}")
            ok = False
            continue
        print("\n".join(describe(report, spec)))
        ok = ok and report["correct"] and report["failed"] == 0
    print("# all workloads " + ("correct" if ok else "NOT correct"))
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        parser.error(f"no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    spec = benchmark_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.all:
        return _run_all(args, spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    return _run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
