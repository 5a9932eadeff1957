"""The gray-failure degradation gate: spraying ECMP vs the clean baseline.

Gray failures (PFC storms, congestion collapse, partial link
degradation) perturb the fabric probabilistically, and spraying ECMP
smears each pair's probes over every equal-cost path — the two together
are the hardest regime the localization pipeline supports.  This gate
quantifies how gracefully it degrades: every gray family is injected
twice, once under static (pinned) ECMP — the clean baseline — and once
under per-packet spraying, and the spraying leg's detection recall and
localization rate must stay within :class:`GrayBounds` of the
baseline's.

The same sweep also enforces the plumbing invariants behind the
numbers:

* **shard equivalence** — a spraying gray scenario runs on the sharded
  plane at several shard counts via
  :func:`repro.shard.equivalence.verify_shard_equivalence`, so the
  published report could not depend on how the plane was partitioned;
* **voting comparison** — the spraying leg is re-run with
  distribution-aware tomography disabled (naive single-sample voting),
  and the gate requires the distribution-aware localizer to do at
  least as well;
* **Flock baseline** — the spraying leg's events are re-localized by
  :class:`repro.baselines.FlockLocalizer` and scored by the same
  :class:`~repro.core.evaluation.CampaignScorer`, so the probabilistic
  baseline appears side by side in every report.

``repro gray`` and ``benchmarks/bench_gray.py`` both drive
:func:`run_gray_benchmark`; the committed artifact is
``BENCH_gray.json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.baselines import FlockLocalizer
from repro.cluster.identifiers import LinkId
from repro.core.analyzer import LoadConditionedAdmission
from repro.core.evaluation import CampaignScorer
from repro.core.localization import healthy_pairs_for
from repro.network.faults import gray_injection_overrides
from repro.network.issues import GrayIssueType
from repro.network.load import LinkLoadModel
from repro.shard.equivalence import verify_shard_equivalence
from repro.shard.spec import FaultSpec, ShardScenarioSpec, build_replica
from repro.workloads.scenarios import build_scenario

__all__ = [
    "GRAY_FAMILIES",
    "GrayBounds",
    "format_report",
    "gray_fault_target",
    "gray_shard_spec",
    "run_gray_benchmark",
]

#: Every load-dependent family the gate sweeps, in catalogue order.
GRAY_FAMILIES: Tuple[GrayIssueType, ...] = tuple(GrayIssueType)

#: Campaign timeline (mirrors the chaos gate): fault-free warm-up with
#: skeleton inference, the fault window, and a cool-down.
WARM_S = 200.0
FAULT_S = 120.0
COOL_S = 40.0


@dataclass(frozen=True)
class GrayBounds:
    """What spraying may cost relative to the static-ECMP baseline."""

    #: Spraying-leg detection recall as a fraction of the static leg's.
    min_recall_ratio: float = 0.9
    #: Spraying-leg localization rate as a fraction of the static leg's.
    min_localization_ratio: float = 0.75

    def check(self, summary: Dict[str, object]) -> List[str]:
        """Violated bounds, as human-readable strings (empty = pass)."""
        failures = []
        if summary["recall_ratio"] < self.min_recall_ratio:
            failures.append(
                f"recall ratio {summary['recall_ratio']:.3f} < "
                f"{self.min_recall_ratio}"
            )
        if summary["localization_ratio"] < self.min_localization_ratio:
            failures.append(
                f"localization ratio "
                f"{summary['localization_ratio']:.3f} < "
                f"{self.min_localization_ratio}"
            )
        if (
            summary["distribution_aware_localized"]
            < summary["naive_localized"]
        ):
            failures.append(
                "distribution-aware voting localized "
                f"{summary['distribution_aware_localized']} spraying "
                "cases, fewer than naive voting's "
                f"{summary['naive_localized']}"
            )
        return failures


def _build_leg(
    issue: GrayIssueType,
    seed: int,
    ecmp_mode: str,
    distribution_aware: bool = True,
):
    """One campaign scenario with the full gray pipeline installed.

    Two hosts per segment (unlike the chaos gate's four) so monitored
    traffic crosses the spine layer — spraying is only observable on
    multi-path segments, and a single-ToR scenario would make the
    static and spraying legs identical by construction.
    """
    scenario = build_scenario(
        num_containers=4, gpus_per_container=4, pp=2,
        seed=seed * 100 + issue.value, hosts_per_segment=2,
        ecmp_mode=ecmp_mode,
    )
    load_model = LinkLoadModel.from_workload(
        scenario.workload, scenario.cluster
    )
    scenario.hunter.analyzer.load_filter = LoadConditionedAdmission(
        load_model, scenario.fabric
    )
    scenario.hunter.localizer.distribution_aware = distribution_aware
    return scenario, load_model


def gray_fault_target(scenario, load_model: LinkLoadModel):
    """The most-probed switch-to-switch link, ties broken by load.

    Gray families live on the fabric's multiplexed segment: access
    links carry exactly one path, so faulting one would never separate
    spraying from static ECMP (every probe of the pair crosses it
    either way).  Among the ToR–spine uplinks, the one carrying the
    most *currently probed* pairs' static picks (the agents' live
    ping lists, not the analyzer's history) gives the static-ECMP
    baseline its best tomography evidence — the spraying leg then has
    to match that baseline with every pair's probes smeared across the
    whole candidate set, which is exactly the degradation this gate
    measures.  ``traceroute`` reports the static hash pick regardless
    of the fabric's live mode, so both legs derive the same target.
    """
    probed = set()
    controller = scenario.hunter.controller
    for task_id in controller.monitored_tasks():
        for agent in controller.agents_of(task_id):
            probed.update(agent.ping_list.pairs)
    crossings: Dict[LinkId, int] = {}
    for pair in sorted(probed):
        path = scenario.fabric.traceroute(pair.src, pair.dst)
        if path is None:
            continue
        for link in path.links:
            if "/rnic-" not in link.a and "/rnic-" not in link.b:
                crossings[link] = crossings.get(link, 0) + 1
    if not crossings:
        raise ValueError(
            "no monitored pair crosses a switch-to-switch link; the "
            "gray gate needs a multi-segment scenario"
        )
    return min(
        crossings,
        key=lambda link: (
            -crossings[link], -load_model.utilization(link), str(link)
        ),
    )


def _run_leg(
    issue: GrayIssueType,
    seed: int,
    ecmp_mode: str,
    distribution_aware: bool = True,
) -> Dict[str, object]:
    """One campaign leg; returns the outcome plus the live scenario."""
    scenario, load_model = _build_leg(
        issue, seed, ecmp_mode, distribution_aware
    )
    scenario.run_for(WARM_S)
    scenario.apply_skeleton()
    target = gray_fault_target(scenario, load_model)
    overrides = gray_injection_overrides(
        issue, target, seed, load_model
    )
    fault = scenario.inject(issue, target, **overrides)
    scenario.run_for(FAULT_S)
    scenario.clear(fault)
    scenario.run_for(COOL_S)
    _, outcomes = scenario.score()
    outcome = outcomes[0]
    return {
        "detected": bool(outcome.detected),
        "localized": bool(outcome.localized),
        "localized_component": outcome.localized_component,
        "detection_delay_s": outcome.detection_delay_s,
        "events": len(scenario.hunter.events),
        "scenario": scenario,
        "fault": fault,
    }


def _score_flock(leg: Dict[str, object]) -> Dict[str, object]:
    """Re-localize a finished leg's events with the Flock baseline.

    Rebuilds the hunter's per-round localization batches (every event
    open at each report time, with the complementary healthy set) so
    Flock consumes exactly the evidence the pipeline did, then scores
    its reports with the same campaign scorer.
    """
    scenario = leg["scenario"]
    flock = FlockLocalizer(scenario.cluster, scenario.fabric)
    monitored = scenario.hunter.monitored_pairs()
    reports = []
    seen = set()
    for when, _ in scenario.hunter.reports:
        batch = [
            event for event in scenario.hunter.events
            if event.first_detected_at <= when
        ]
        fresh = [event for event in batch if event.key not in seen]
        if not fresh:
            continue
        seen.update(event.key for event in fresh)
        healthy = healthy_pairs_for(batch, monitored)
        reports.append(
            (when, flock.localize(batch, healthy, now=when))
        )
    scorer = CampaignScorer(scenario.cluster, scenario.fabric)
    outcome = scorer.outcome_of(
        leg["fault"], scenario.hunter.events, reports, monitored
    )
    return {
        "detected": bool(outcome.detected),
        "localized": bool(outcome.localized),
        "localized_component": outcome.localized_component,
    }


def gray_shard_spec(
    seed: int = 0,
    num_containers: int = 8,
    total_rounds: int = 24,
) -> ShardScenarioSpec:
    """A spraying shard-plane scenario carrying one gray fault.

    The fault rides a ToR uplink of a monitored endpoint, with its
    severity drawn through :func:`gray_injection_overrides` — the whole
    spec is pure data, so every replica derives the identical fault.
    """
    base = ShardScenarioSpec(
        num_containers=num_containers,
        gpus_per_container=4,
        seed=seed,
        total_rounds=total_rounds,
        ecmp_mode="spray",
    )
    probe = build_replica(base)
    rnic = probe.rnic_of_rank(5)
    tor = probe.topology.tor_of(rnic)
    link = LinkId.between(tor, probe.topology.spines[1])
    overrides = gray_injection_overrides(
        GrayIssueType.PARTIAL_LINK_DEGRADATION, link, seed
    )
    fault = FaultSpec(
        issue=GrayIssueType.PARTIAL_LINK_DEGRADATION.name,
        target=link,
        start_round=max(1, total_rounds // 5),
        end_round=max(2, (total_rounds * 4) // 5),
        overrides=tuple(sorted(overrides.items())),
    )
    return ShardScenarioSpec(
        num_containers=base.num_containers,
        gpus_per_container=base.gpus_per_container,
        seed=seed,
        total_rounds=total_rounds,
        ecmp_mode="spray",
        faults=(fault,),
    )


def run_gray_benchmark(
    quick: bool = False,
    seed: int = 0,
    out: Optional[str] = None,
    bounds: Optional[GrayBounds] = None,
) -> Dict[str, object]:
    """Run the full gray sweep and evaluate the bounds.

    Returns the JSON-ready report; ``report["summary"]["passed"]``
    tells callers whether every :class:`GrayBounds` held.  Raises
    :class:`~repro.shard.equivalence.ShardEquivalenceError` if the shard
    plane ever disagrees with the single-shard run.
    """
    bounds = bounds if bounds is not None else GrayBounds()
    seeds = (seed,) if quick else (seed, seed + 1)
    rows: List[Dict[str, object]] = []
    for issue in GRAY_FAMILIES:
        for s in seeds:
            static = _run_leg(issue, s, "static")
            spray = _run_leg(issue, s, "spray")
            naive = _run_leg(
                issue, s, "spray", distribution_aware=False
            )
            flock = _score_flock(spray)
            rows.append({
                "issue": issue.name,
                "seed": s,
                "static": _strip(static),
                "spray": _strip(spray),
                "spray_naive": _strip(naive),
                "flock": flock,
            })

    def count(leg: str, key: str) -> int:
        return sum(1 for r in rows if r[leg][key])

    static_detected = count("static", "detected")
    spray_detected = count("spray", "detected")
    static_localized = count("static", "localized")
    spray_localized = count("spray", "localized")
    shard = verify_shard_equivalence(
        spec=gray_shard_spec(seed=seed),
        shard_counts=(2,) if quick else (2, 4),
        backends=("inproc",),
        with_failover=False,
    )
    summary: Dict[str, object] = {
        "cases": len(rows),
        "static_detected": static_detected,
        "spray_detected": spray_detected,
        "recall_ratio": (
            spray_detected / static_detected if static_detected else 1.0
        ),
        "static_localized": static_localized,
        "spray_localized": spray_localized,
        "localization_ratio": (
            spray_localized / static_localized
            if static_localized else 1.0
        ),
        "distribution_aware_localized": spray_localized,
        "naive_localized": count("spray_naive", "localized"),
        "flock_detected": count("flock", "detected"),
        "flock_localized": count("flock", "localized"),
        "shard_equivalence": shard,
    }
    violations = bounds.check(summary)
    summary["passed"] = not violations
    summary["violations"] = violations
    report = {
        "config": {
            "quick": quick,
            "seed": seed,
            "seeds": list(seeds),
            "families": [issue.name for issue in GRAY_FAMILIES],
            "bounds": {
                "min_recall_ratio": bounds.min_recall_ratio,
                "min_localization_ratio": bounds.min_localization_ratio,
            },
        },
        "rows": rows,
        "summary": summary,
    }
    if out is not None:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return report


def _strip(leg: Dict[str, object]) -> Dict[str, object]:
    """The JSON-safe slice of a leg result (no live scenario objects)."""
    return {
        key: value for key, value in leg.items()
        if key not in ("scenario", "fault")
    }


def format_report(report: Dict[str, object]) -> str:
    """Render the gate report for terminals (cf. ``repro chaos``)."""
    lines = [
        "gray-failure degradation gate: "
        "static ECMP baseline vs spraying"
    ]
    lines.append(
        f"  {'family':<26} {'seed':>4} {'static':>10} {'spray':>10} "
        f"{'naive':>10} {'flock':>10}"
    )

    def leg(case: Dict[str, object]) -> str:
        if not case["detected"]:
            return "MISS"
        return "det+loc" if case["localized"] else "det"

    for row in report["rows"]:
        lines.append(
            f"  {row['issue'].lower():<26} {row['seed']:>4} "
            f"{leg(row['static']):>10} {leg(row['spray']):>10} "
            f"{leg(row['spray_naive']):>10} {leg(row['flock']):>10}"
        )
    summary = report["summary"]
    lines.append(
        f"recall: static {summary['static_detected']}"
        f"/{summary['cases']} -> spray {summary['spray_detected']}"
        f"/{summary['cases']} (ratio {summary['recall_ratio']:.3f})"
    )
    lines.append(
        f"localization: static {summary['static_localized']}"
        f"/{summary['cases']} -> spray {summary['spray_localized']}"
        f"/{summary['cases']} "
        f"(ratio {summary['localization_ratio']:.3f})"
    )
    lines.append(
        f"voting under spray: distribution-aware "
        f"{summary['distribution_aware_localized']} vs naive "
        f"{summary['naive_localized']} localized"
    )
    lines.append(
        f"flock baseline: {summary['flock_detected']} detected, "
        f"{summary['flock_localized']} localized"
    )
    shard = summary["shard_equivalence"]
    lines.append(
        f"shard plane: {len(shard['compared'])} configuration(s) "
        f"bit-identical to the single-shard spraying baseline "
        f"({shard['baseline_events']} events)"
    )
    if summary["passed"]:
        lines.append("bounds: PASS")
    else:
        for violation in summary["violations"]:
            lines.append(f"bounds: FAIL - {violation}")
    return "\n".join(lines)
