"""Multiprocess fan-out for the benchmark grids.

Every grid the harness runs — the scenario sweep, the backend ×
scenario architecture matrix, the chaos suite, the fuzz campaign — is a
set of *independent* cells: one ``(scenario, backend, seed, scale)``
simulation each, no shared state.  :func:`run_grid` executes such a
grid either serially (the default, ``jobs=None``/``1`` — in-process,
bit-identical to the historical loops) or fanned out over a
``ProcessPoolExecutor`` of ``spawn`` workers (imported only then:
a serial grid and a plain run never load ``multiprocessing``).

Determinism is the contract: a cell's result depends only on its
declared task (function + picklable kwargs, including its seed), never
on which worker ran it, in what order, or how many workers there were.
Two mechanisms back that up:

* the parent pins ``PYTHONHASHSEED=0`` in its environment before
  spawning, so every worker interpreter *starts* with hash
  randomization disabled (it cannot be changed after start), and the
  spawn initializer re-pins the variable inside each worker so any
  process a cell itself launches inherits the pin too;
* cells receive their RNG seed as an explicit task argument — the
  simulation stack derives every stream from it via
  :class:`repro.sim.rng.RngRegistry` — so results are reproducible
  regardless of completion order.

The merge step sorts finished cells by their canonical ``key``, which
is what makes the emitted ``BENCH_*.json`` payloads byte-identical
across ``jobs`` counts.  Each cell's worker wall seconds ride along on
:class:`GridCell` for the CLI's progress lines only; no bench output
records them.

A failed cell never hangs the pool: its traceback is captured in the
worker, pending cells are cancelled, and the parent raises
:class:`GridTaskError` carrying the worker-side traceback text.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

__all__ = [
    "GridCell",
    "GridTask",
    "GridTaskError",
    "run_grid",
]


@dataclass(frozen=True)
class GridTask:
    """One independent grid cell, ready to ship to a worker.

    ``key`` is the canonical identity of the cell (a tuple of
    comparable primitives, e.g. ``("matrix", "fig2-hotspot")``) used to
    sort the merged results; ``fn`` must be a module-level callable
    (picklable by reference) and ``kwargs`` its picklable arguments.
    The task's seed, if any, travels inside ``kwargs`` — workers derive
    all randomness from it, never from worker-local state.
    """

    key: tuple
    fn: Callable[..., Any]
    kwargs: dict


@dataclass(frozen=True)
class GridCell:
    """One finished cell: the task's key, its (deterministic) return
    value, and the wall seconds the cell took *inside its worker* —
    the only field allowed to differ between runs, read by the CLI's
    progress lines and never written to a bench output."""

    key: tuple
    value: Any
    wall_seconds: float


class GridTaskError(RuntimeError):
    """A grid cell raised in its worker.

    Carries the cell's ``key`` and the full worker-side traceback text,
    so a crash three processes away reads like a local one.
    """

    def __init__(self, key: tuple, worker_traceback: str):
        self.key = key
        self.worker_traceback = worker_traceback
        # Lead with the canonical slash-joined key (the same form the
        # fuzz campaign's rows use) so a multi-cell CI failure names
        # its cell in the first line, before the pasted traceback.
        canonical = "/".join(str(part) for part in key)
        super().__init__(
            f"grid cell {canonical} (key={key!r}) failed in its worker:\n"
            f"{worker_traceback}"
        )


@dataclass(frozen=True)
class _CellFailure:
    """Worker-side capture of a cell's exception (picklable always —
    the original exception object may not be)."""

    key: tuple
    worker_traceback: str


def _execute_grid_task(task: GridTask) -> "GridCell | _CellFailure":
    """Run one cell; used identically by the serial and pooled paths,
    which is what guarantees ``jobs`` cannot change a cell's result."""
    started = time.perf_counter()
    try:
        value = task.fn(**task.kwargs)
    except Exception:
        import traceback

        return _CellFailure(task.key, traceback.format_exc())
    return GridCell(
        key=task.key,
        value=value,
        wall_seconds=time.perf_counter() - started,
    )


def _worker_initializer() -> None:
    """Runs once per spawned worker, before any cell.

    The worker interpreter's own hash randomization was fixed at spawn
    time (the parent exports ``PYTHONHASHSEED=0`` before creating the
    pool); re-pinning the variable here makes the pin *explicit* in the
    worker rather than inherited, so subprocesses a cell launches — and
    workers created under exotic parent environments — are pinned too.
    """
    os.environ["PYTHONHASHSEED"] = "0"


def run_grid(
    tasks: Iterable[GridTask],
    jobs: int | None = None,
    on_result: Callable[[GridCell], None] | None = None,
) -> list[GridCell]:
    """Execute *tasks* and return their cells sorted by ``key``.

    ``jobs=None``/``0``/``1`` runs serially in-process — the exact code
    path the historical grid loops used, so existing outputs stay
    comparable.  ``jobs>1`` fans out over a ``spawn`` process pool.
    Either way the returned list is sorted by task key, so downstream
    consumers (tables, ``BENCH_*.json`` emission) see an order that is
    independent of scheduling.  *on_result* is called once per finished
    cell in *completion* order (progress reporting only — never use it
    to build ordered output).

    Any cell that raises aborts the grid: pending cells are cancelled,
    in-flight ones are awaited, and :class:`GridTaskError` surfaces the
    worker's traceback.

    ``spawn`` workers re-import the main module, so an ad-hoc script
    calling this with ``jobs>1`` at module top level must use the
    standard ``if __name__ == "__main__":`` guard (pytest and
    ``python -m repro`` already satisfy this).
    """
    tasks = list(tasks)
    keys = [task.key for task in tasks]
    if len(set(keys)) != len(keys):
        raise ValueError("grid task keys must be unique")
    if jobs is not None and jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")

    if not jobs or jobs == 1 or len(tasks) <= 1:
        cells = []
        for task in tasks:
            cell = _execute_grid_task(task)
            if isinstance(cell, _CellFailure):
                raise GridTaskError(cell.key, cell.worker_traceback)
            cells.append(cell)
            if on_result is not None:
                on_result(cell)
        return sorted(cells, key=lambda cell: cell.key)

    # The worker interpreter reads PYTHONHASHSEED at startup, so the
    # pin must be in the environment *before* the spawn — the
    # initializer then re-pins it inside the worker (see its docstring).
    previous = os.environ.get("PYTHONHASHSEED")
    os.environ["PYTHONHASHSEED"] = "0"
    try:
        cells = _run_pooled(tasks, jobs, on_result)
    finally:
        if previous is None:
            del os.environ["PYTHONHASHSEED"]
        else:
            os.environ["PYTHONHASHSEED"] = previous
    return sorted(cells, key=lambda cell: cell.key)


def _run_pooled(
    tasks: Sequence[GridTask],
    jobs: int,
    on_result: Callable[[GridCell], None] | None,
) -> list[GridCell]:
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from multiprocessing import get_context

    cells: list[GridCell] = []
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(tasks)),
        mp_context=get_context("spawn"),
        initializer=_worker_initializer,
    ) as pool:
        futures = [pool.submit(_execute_grid_task, task) for task in tasks]
        try:
            for future in as_completed(futures):
                cell = future.result()
                if isinstance(cell, _CellFailure):
                    raise GridTaskError(cell.key, cell.worker_traceback)
                cells.append(cell)
                if on_result is not None:
                    on_result(cell)
        except BaseException:
            for future in futures:
                future.cancel()
            raise
    return cells

