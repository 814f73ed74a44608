"""Ab-policy — load-policy hysteresis ablation (§3.2.3).

"Matrix uses simple heuristics (not described) to prevent oscillations
and ensure stability in the splitting / reclamation process."

This bench removes the damping (no underload persistence, no
cool-downs, aggressive reclaim margin) and shows the oscillation the
heuristics exist to prevent: more split/reclaim churn for the same
workload, and worse queues.
"""

import dataclasses

from common import SCALE, fig2_arguments, record

from repro.harness.runner import run_scenario


def run_with_policy(policy):
    return run_scenario(**{**fig2_arguments(), "policy": policy}).result


def test_policy_hysteresis_ablation():
    damped = fig2_arguments()["policy"]
    undamped = dataclasses.replace(
        damped,
        consecutive_overload_reports=1,
        consecutive_underload_reports=1,
        split_cooldown=1.0,
        reclaim_cooldown=1.0,
        min_child_lifetime=1.0,
        reclaim_combined_factor=1.0,
    )
    results = {
        "damped (paper)": run_with_policy(damped),
        "undamped": run_with_policy(undamped),
    }
    lines = [
        f"Ab-policy (scale={SCALE}): oscillation damping on vs off",
        f"{'policy':<16} {'splits':>7} {'reclaims':>9} "
        f"{'churn (sp+rc)':>14} {'peak srv':>9} {'peak queue':>11}",
    ]
    for name, result in results.items():
        churn = result.splits_completed + result.reclaims_completed
        lines.append(
            f"{name:<16} {result.splits_completed:>7} "
            f"{result.reclaims_completed:>9} {churn:>14} "
            f"{result.servers_used:>9} {result.max_queue():>11.0f}"
        )
    lines.append("")
    lines.append(
        "expected: without hysteresis the same workload produces "
        "markedly more split/reclaim churn."
    )
    record("ablation_policy_hysteresis", "\n".join(lines))

    damped_churn = (
        results["damped (paper)"].splits_completed
        + results["damped (paper)"].reclaims_completed
    )
    undamped_churn = (
        results["undamped"].splits_completed
        + results["undamped"].reclaims_completed
    )
    # Spawn/pool delays damp the system even with the heuristics off,
    # so the margin can be modest — but damping must never *add* churn.
    assert undamped_churn >= damped_churn, "damping must not add churn"
