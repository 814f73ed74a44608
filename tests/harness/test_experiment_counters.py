"""The split/reclaim read-out counts what the servers did, nothing else.

A server's counters must outlive the server (reclaimed and crashed
servers leave the deployment), and neither a grid bootstrap's extra
pairs nor a crash replacement is a split.
"""

from repro.harness.compare import scaled_run_arguments
from repro.harness.gridcells import GRID_FLOORS
from repro.harness.runner import run_scenario
from repro.workload.scenarios import build_scenario


def test_grid_bootstrap_is_not_a_split():
    outcome = run_scenario(
        "uniform-roam", scale=0.2, preview=20.0, seed=1
    )
    result = outcome.result
    spawns = [e for e in result.server_events if e.kind == "spawn"]
    assert [e.time for e in spawns] == [0.0, 0.0]  # the 2x1 bootstrap
    assert result.splits_completed == 0
    assert result.reclaims_completed == 0


def test_crash_replacements_are_not_splits():
    outcome = run_scenario(
        **scaled_run_arguments(
            build_scenario("crash-during-split"), "matrix", 0.2, 1,
            **GRID_FLOORS,
        )
    )
    result = outcome.result
    replacements = {
        record.replacement
        for record in outcome.experiment.deployment.crash_recoveries
    }
    spawned = [
        e.matrix_server for e in result.server_events if e.kind == "spawn"
    ]
    # One root and two crash replacements (ms.4 crashes at t=25, its
    # replacement ms.5 at t=50); every other spawn is a split child.
    assert len(replacements) == 2 and replacements <= set(spawned)
    split_children = [
        name for name in spawned[1:] if name not in replacements
    ]
    assert result.splits_completed == len(split_children) == 4
