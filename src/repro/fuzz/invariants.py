"""The global invariants every generated scenario must uphold.

These are statements about the *lifecycle state machines*, not about
any particular workload: whatever phase sequence the generator sampled,
after the run settles the deployment must cover the whole world, leak
no pool hosts, account for every client, leave no split/reclaim stuck
in flight, and — when faults were injected — have finished recovering
from all of them.  :func:`check_invariants` returns the violations as
strings (empty list == healthy), so the harness can aggregate them into
one reproducible failure.

The invariants are the Matrix lifecycle's, so the audit runs on the
Matrix backend only (plain or on shard lanes): it reads the Matrix
deployment, and the chaos driver the runner armed or None.
"""

from __future__ import annotations

from typing import Any

#: Tolerance on the coverage ratio (sum of float rect areas).
COVERAGE_EPSILON = 1e-6
#: Longest crash-to-recovery latency a healthy run may show (seconds).
RECOVERY_BOUND = 60.0


def snapshot_lifecycle(experiment: Any) -> dict[str, str | None]:
    """In-flight split transfers at this instant (server -> held host).

    Taken right when ``run_scenario`` returns (t == horizon) and
    compared after the settle window: a server still in flight *with
    the same host* never completed nor aborted its transfer — a stuck
    watchdog.  A healthy split finishes (leaves the map) or a new one
    starts (different host), so the pairwise comparison is exact.
    """
    return {
        name: server.lifecycle.split.host
        for name, server in experiment.deployment.matrix_servers.items()
        if server.lifecycle.split is not None
    }


def check_invariants(
    outcome: Any,
    *,
    pre_settle: dict[str, str | None] | None = None,
) -> list[str]:
    """Audit a settled run; returns violation strings (empty == ok).

    Call after the settle window (``experiment.sim.run(until=horizon +
    settle)``) — mid-flight transfers and release grace windows are
    legitimate before then.  *pre_settle* is the
    :func:`snapshot_lifecycle` taken at the horizon; every
    crash-to-recovery latency must stay within :data:`RECOVERY_BOUND`.
    """
    violations: list[str] = []
    experiment = outcome.experiment
    deployment = experiment.deployment

    world_area = experiment.profile.world.area
    ratio = deployment.current_coordinator.coverage_area() / world_area
    if abs(ratio - 1.0) > COVERAGE_EPSILON:
        violations.append(
            f"coverage_ratio == {ratio:.9f}, expected 1.0: the "
            f"registered partitions do not tile the world"
        )
    leaked = deployment.unaccounted_hosts()
    if leaked:
        violations.append(
            f"unaccounted_hosts() == {leaked}: pool hosts leaked "
            f"by the split/reclaim/crash lifecycle"
        )
    deployed = deployment.total_clients()
    active = len(experiment.fleet.active_clients())
    if deployed != active:
        violations.append(
            f"client population not conserved: servers hold "
            f"{deployed} clients but the fleet has {active} active"
        )
    if pre_settle:
        post = snapshot_lifecycle(experiment)
        stuck = sorted(
            name
            for name, host in pre_settle.items()
            if post.get(name) == host and host is not None
        )
        if stuck:
            violations.append(
                f"stuck lifecycle watchdogs: {stuck} still hold "
                f"the same in-flight host after the settle window"
            )

    chaos = experiment.chaos
    if chaos is not None:
        report = chaos.report()
        if not report.all_recovered():
            pending = [
                record
                for record in report.recoveries
                if record.recovery_time is None
            ]
            violations.append(
                f"{len(pending)} crash(es) never recovered within the "
                f"settle window"
            )
        times = report.recovery_times()
        if times and max(times) > RECOVERY_BOUND:
            violations.append(
                f"recovery took {max(times):.2f}s, over the "
                f"{RECOVERY_BOUND:.0f}s bound"
            )
        mc_injected = any(
            record.fault == "CoordinatorCrash" and record.status == "injected"
            for record in report.faults
        )
        if mc_injected and report.mc_promoted_at is None:
            violations.append(
                "CoordinatorCrash was injected but the standby MC "
                "never promoted itself"
            )
    return violations
