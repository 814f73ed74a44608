"""Determinism and fault contracts of the multiprocess fan-out runner.

The core promise of :mod:`repro.harness.parallel`: a grid's merged,
deterministic results are identical whatever ``jobs`` is — serial
in-process, or any number of ``spawn`` workers completing in any order
— and a crashing cell surfaces its worker traceback instead of hanging
the pool.  The sweep and arch-matrix grids are exercised end to end at
tiny scale (real simulations in real worker processes).
"""

import json
import os
import sys

import pytest

from repro.harness.gridcells import arch_matrix_cell
from repro.harness.parallel import (
    GridTask,
    GridTaskError,
    run_grid,
)
from repro.harness.sweep import run_sweep_grid, sweep_payload

# Tiny but non-trivial: enough load that flash-crowd still splits.
SCALE = 0.02
PREVIEW = 15.0
SWEEP_NAMES = ("fig2-hotspot", "flash-crowd", "steady-churn")


def square_cell(value: int) -> int:
    return value * value


def crashing_cell(value: int) -> int:
    if value == 2:
        raise ValueError(f"cell blew up on purpose: {value}")
    return value


def environment_cell() -> dict:
    return {
        "hash_seed_env": os.environ.get("PYTHONHASHSEED"),
        "hash_randomization": sys.flags.hash_randomization,
        "pid": os.getpid(),
    }


def _square_tasks(n):
    return [
        GridTask(key=(i,), fn=square_cell, kwargs={"value": i})
        for i in range(n)
    ]


class TestRunGrid:
    def test_serial_and_pooled_results_are_identical(self):
        serial = run_grid(_square_tasks(6), jobs=1)
        pooled = run_grid(_square_tasks(6), jobs=2)
        assert [c.key for c in serial] == [c.key for c in pooled]
        assert [c.value for c in serial] == [c.value for c in pooled]
        assert [c.value for c in serial] == [i * i for i in range(6)]

    def test_results_sorted_by_key_not_submission_order(self):
        tasks = list(reversed(_square_tasks(5)))
        cells = run_grid(tasks, jobs=1)
        assert [c.key for c in cells] == [(i,) for i in range(5)]

    def test_duplicate_keys_rejected(self):
        tasks = _square_tasks(2) + _square_tasks(1)
        with pytest.raises(ValueError, match="unique"):
            run_grid(tasks)

    def test_on_result_called_once_per_cell(self):
        seen = []
        run_grid(_square_tasks(4), jobs=2, on_result=seen.append)
        assert sorted(c.key for c in seen) == [(i,) for i in range(4)]
        assert all(c.wall_seconds >= 0.0 for c in seen)


class TestWorkerCrash:
    def test_serial_crash_raises_with_traceback(self):
        tasks = [
            GridTask(key=(i,), fn=crashing_cell, kwargs={"value": i})
            for i in range(4)
        ]
        with pytest.raises(GridTaskError) as excinfo:
            run_grid(tasks, jobs=1)
        assert excinfo.value.key == (2,)
        assert "cell blew up on purpose: 2" in str(excinfo.value)
        assert "Traceback" in excinfo.value.worker_traceback

    def test_pooled_crash_surfaces_traceback_without_hanging(self):
        tasks = [
            GridTask(key=(i,), fn=crashing_cell, kwargs={"value": i})
            for i in range(4)
        ]
        with pytest.raises(GridTaskError) as excinfo:
            run_grid(tasks, jobs=2)
        assert excinfo.value.key == (2,)
        # The worker-side traceback crossed the process boundary: it
        # names the cell function and the original exception.
        assert "crashing_cell" in excinfo.value.worker_traceback
        assert "ValueError" in excinfo.value.worker_traceback


class TestWorkerEnvironment:
    def test_workers_pin_hash_seed_and_really_fork_out(self):
        tasks = [
            GridTask(key=(i,), fn=environment_cell, kwargs={})
            for i in range(2)
        ]
        cells = run_grid(tasks, jobs=2)
        for cell in cells:
            # PYTHONHASHSEED=0 is in every worker's environment (pinned
            # by the initializer, not merely inherited) and the spawned
            # interpreter started with hash randomization disabled.
            assert cell.value["hash_seed_env"] == "0"
            assert cell.value["hash_randomization"] == 0
            assert cell.value["pid"] != os.getpid()

    def test_parent_environment_restored_after_pooled_run(self):
        before = os.environ.get("PYTHONHASHSEED")
        run_grid(_square_tasks(2), jobs=2)
        assert os.environ.get("PYTHONHASHSEED") == before


class TestSweepGridDeterminism:
    def test_jobs_do_not_change_rows_or_traffic_stats(self):
        serial = run_sweep_grid(
            SCALE, seed=3, preview=PREVIEW, scenarios=SWEEP_NAMES
        )
        pooled = run_sweep_grid(
            SCALE, seed=3, preview=PREVIEW, scenarios=SWEEP_NAMES, jobs=4
        )
        assert serial == pooled
        # Byte-level: the BENCH payload is identical.
        assert json.dumps(
            sweep_payload(serial), sort_keys=True
        ) == json.dumps(sweep_payload(pooled), sort_keys=True)

    def test_sweep_still_splits_at_test_scale(self):
        # Guard: if this workload stops splitting, the determinism
        # comparison above degrades into comparing trivial runs.
        (row,) = run_sweep_grid(
            SCALE, seed=3, preview=PREVIEW, scenarios=("flash-crowd",)
        )
        assert row.splits >= 1


class TestArchMatrixGridDeterminism:
    BACKENDS = ("matrix", "mirrored")
    SCENARIOS = ("flash-crowd", "steady-churn")

    def _tasks(self):
        return [
            GridTask(
                key=(backend, name),
                fn=arch_matrix_cell,
                kwargs=dict(
                    backend=backend,
                    name=name,
                    scale=SCALE,
                    preview=PREVIEW,
                    seed=3,
                ),
            )
            for backend in self.BACKENDS
            for name in self.SCENARIOS
        ]

    def test_jobs_do_not_change_grid_cells(self):
        serial = run_grid(self._tasks(), jobs=1)
        pooled = run_grid(self._tasks(), jobs=4)
        assert [c.key for c in serial] == [c.key for c in pooled]
        assert json.dumps(
            [c.value for c in serial], sort_keys=True
        ) == json.dumps([c.value for c in pooled], sort_keys=True)
        # Cells carry real simulation output, not degenerate zeros.
        for cell in serial:
            assert cell.value["events"] > 0, cell.key


class TestErrorMessage:
    def test_grid_task_error_leads_with_canonical_key(self):
        """The first line names the failing cell in the same
        slash-joined form the fuzz campaign's rows use."""
        tasks = [
            GridTask(
                key=("matrix", "fig2-hotspot", 2),
                fn=crashing_cell,
                kwargs={"value": 2},
            )
        ]
        with pytest.raises(GridTaskError) as excinfo:
            run_grid(tasks, jobs=1)
        message = str(excinfo.value)
        first_line = message.splitlines()[0]
        assert "grid cell matrix/fig2-hotspot/2" in first_line
        assert "key=('matrix', 'fig2-hotspot', 2)" in first_line
