"""Uniform spatial hash grid for visibility queries.

Game servers need "how many entities are within R of this client" for
every snapshot.  A naive scan is O(n²) per tick and melts under the
600-client hotspot, so entities are bucketed into R-sized cells and
queries stop early at the snapshot's entity cap.

A query scans the cells its bounding square touches (3×3 when the
radius equals the cell size), nearest first.  The answer is ``min(in
range, cap)`` whatever the scan order; the order only decides how early
a capped query stops.

The square is one ulp of the radius wider than ``p ± radius`` (``reach``
in both queries): a coordinate difference is rounded before it is
squared, so an entity a rounding step outside the exact square — in
the next cell, when the square's edge is a cell border — can still be
at float distance exactly ``radius``.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

from repro.geometry import Vec2


@lru_cache(maxsize=16)
def _nearest_first(columns: int, rows: int) -> tuple[tuple[int, int], ...]:
    """Offsets of a ``columns x rows`` block of cells, centre outward."""
    cells = [(ox, oy) for ox in range(columns) for oy in range(rows)]
    cells.sort(
        key=lambda o: (2 * o[0] - columns + 1) ** 2 + (2 * o[1] - rows + 1) ** 2
    )
    return tuple(cells)


class SpatialGrid:
    """A rebuild-per-tick spatial hash with capped radius counting."""

    def __init__(self, cell_size: float) -> None:
        if cell_size <= 0:
            raise ValueError(f"cell size must be positive: {cell_size}")
        self._cell = cell_size
        #: cell -> (xs, ys, ids): parallel flat lists, so the distance
        #: loops touch floats only.
        self._buckets: dict[tuple[int, int], tuple[list, list, list]] = {}

    def clear(self) -> None:
        """Drop all entities (start of a new tick)."""
        self._buckets.clear()

    def insert(self, entity_id: str, position: Vec2) -> None:
        """Add an entity at *position*."""
        x = position.x
        y = position.y
        cell = self._cell
        key = (int(x // cell), int(y // cell))
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = ([x], [y], [entity_id])
        else:
            bucket[0].append(x)
            bucket[1].append(y)
            bucket[2].append(entity_id)

    def count_within(
        self,
        position: Vec2,
        radius: float,
        cap: int,
        exclude_id: str | None = None,
    ) -> int:
        """Entities within *radius* of *position*, early-exiting at *cap*;
        every entity whose id is *exclude_id* is left out."""
        if radius <= 0 or cap <= 0:
            return 0
        px = position.x
        py = position.y
        r_sq = radius * radius
        cell = self._cell
        reach = radius + math.ulp(radius)
        ix0 = int((px - reach) // cell)
        iy0 = int((py - reach) // cell)
        columns = int((px + reach) // cell) - ix0 + 1
        rows = int((py + reach) // cell) - iy0 + 1
        buckets = self._buckets
        found = 0
        for ox, oy in _nearest_first(columns, rows):
            bucket = buckets.get((ix0 + ox, iy0 + oy))
            if bucket is None:
                continue
            for x, y, entity_id in zip(*bucket):
                dx = x - px
                dy = y - py
                if dx * dx + dy * dy <= r_sq and entity_id != exclude_id:
                    found += 1
                    if found >= cap:
                        return found
        return found

    def count_within_each(
        self, positions: Sequence[Vec2], radius: float, cap: int
    ) -> list[int]:
        """``count_within(position, radius, cap)`` for every position.

        Queries whose squares touch the same cells share one gathered
        neighbourhood.  Nothing is excluded: to count the neighbours of
        entities that are in the grid themselves, ask for ``cap + 1``
        and subtract one (``GameServer._snapshot_tick``).
        """
        counts = [0] * len(positions)
        if radius <= 0 or cap <= 0:
            return counts
        r_sq = radius * radius
        cell = self._cell
        reach = radius + math.ulp(radius)
        groups: dict[tuple[int, int, int, int], list[int]] = {}
        for index, position in enumerate(positions):
            x = position.x
            y = position.y
            ix0 = int((x - reach) // cell)
            iy0 = int((y - reach) // cell)
            key = (
                ix0,
                iy0,
                int((x + reach) // cell) - ix0 + 1,
                int((y + reach) // cell) - iy0 + 1,
            )
            group = groups.get(key)
            if group is None:
                groups[key] = [index]
            else:
                group.append(index)
        buckets = self._buckets
        for (ix0, iy0, columns, rows), group in groups.items():
            xs: list[float] = []
            ys: list[float] = []
            for ox, oy in _nearest_first(columns, rows):
                bucket = buckets.get((ix0 + ox, iy0 + oy))
                if bucket is not None:
                    xs += bucket[0]
                    ys += bucket[1]
            for index in group:
                position = positions[index]
                px = position.x
                py = position.y
                found = 0
                for x, y in zip(xs, ys):
                    dx = x - px
                    dy = y - py
                    if dx * dx + dy * dy <= r_sq:
                        found += 1
                        if found >= cap:
                            break
                counts[index] = found
        return counts
