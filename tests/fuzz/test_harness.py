"""The invariant harness and its grid plumbing."""

import pytest

from repro.harness.fuzz import (
    FuzzInvariantError,
    fuzz_grid_tasks,
    run_fuzz_case,
)
from repro.harness.parallel import GridTask, GridTaskError, run_grid


def test_invariants_hold_for_workload_seed():
    case = run_fuzz_case(2, scale=0.05, preview=20.0, settle=8.0)
    assert case.ok, case.violations
    assert case.seed == 2
    assert case.events_processed > 0
    assert case.scenario.name == "fuzz-default-2"


def test_invariants_hold_under_faults():
    case = run_fuzz_case(
        1, "faulty", scale=0.08, preview=30.0, settle=10.0
    )
    assert case.ok, case.violations
    assert case.scenario.has_faults


def test_extra_invariants_are_applied():
    case = run_fuzz_case(
        2,
        scale=0.05,
        preview=15.0,
        settle=6.0,
        extra_invariants=(lambda outcome: ["always wrong"],),
    )
    assert case.violations == ["always wrong"]
    assert not case.ok


def test_fuzz_case_deterministic():
    kwargs = dict(scale=0.05, preview=15.0, settle=6.0)
    a = run_fuzz_case(3, **kwargs)
    b = run_fuzz_case(3, **kwargs)
    assert a.events_processed == b.events_processed
    assert a.total_clients == b.total_clients
    assert a.phase_kinds == b.phase_kinds


def test_invariant_error_message_carries_the_seed():
    case = run_fuzz_case(
        2,
        scale=0.05,
        preview=15.0,
        settle=6.0,
        extra_invariants=(lambda outcome: ["boom"],),
    )
    error = FuzzInvariantError(
        case.seed, case.profile, case.scenario, case.violations
    )
    message = str(error)
    assert "seed=2" in message
    assert "boom" in message
    assert "python -m repro fuzz --seed 2" in message


def _failing_cell(seed: int) -> dict:
    case = run_fuzz_case(
        seed,
        scale=0.05,
        preview=12.0,
        settle=5.0,
        extra_invariants=(lambda outcome: ["injected failure"],),
    )
    raise FuzzInvariantError(
        case.seed, case.profile, case.scenario, case.violations
    )


def test_grid_error_names_the_generator_seed():
    """Satellite 4: a failing fuzz cell surfaces as a GridTaskError
    whose message leads with the cell key carrying ``seed=N``."""
    task = GridTask(
        key=("fuzz", "default", "seed=5"),
        fn=_failing_cell,
        kwargs={"seed": 5},
    )
    with pytest.raises(GridTaskError) as excinfo:
        run_grid([task], jobs=None)
    message = str(excinfo.value)
    assert message.startswith("grid cell fuzz/default/seed=5")
    assert "seed=5" in message
    assert excinfo.value.key == ("fuzz", "default", "seed=5")


def test_fuzz_grid_tasks_keys_embed_seeds():
    tasks = fuzz_grid_tasks([3, 11], "faulty", scale=0.1)
    assert [task.key for task in tasks] == [
        ("fuzz", "faulty", "seed=3"),
        ("fuzz", "faulty", "seed=11"),
    ]
    assert all(task.kwargs["profile"] == "faulty" for task in tasks)


def test_run_fuzz_grid_serial_smoke():
    cells = run_grid(
        fuzz_grid_tasks([0, 1], scale=0.05, preview=15.0, settle=6.0)
    )
    assert len(cells) == 2
    for cell in cells:
        assert cell.value["violations"] == 0
        assert cell.value["events"] > 0


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="unknown backend"):
        run_fuzz_case(0, backend="nope", scale=0.05, preview=10.0)
