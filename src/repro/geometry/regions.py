"""Overlap-region decomposition (the geometric core of the paper).

Given a spatial partition ``{P1..PN}`` of the world and a radius of
visibility ``R``, every point σ in partition ``Pi`` has a *consistency
set* (paper, Equation 1)::

    C(σ ∈ Pi) = { Sj | j ≠ i  and  ∃σ' ∈ Pj : d(σ, σ') ≤ R }

Points of ``Pi`` with identical non-empty consistency sets are grouped
into **overlap regions**.  This module computes that decomposition with
axis-aligned bounding-box arithmetic, exactly as §3.2.4 of the paper
describes: the set of points of ``Pi`` within distance R of ``Pj`` is
``Pi ∩ expand(Pj, R)``, so intersecting the expanded neighbours against
``Pi`` and overlaying the resulting rectangles yields an arrangement
whose cells each have a constant consistency set.

Correctness note: for the Euclidean metric the rectangle expansion is a
tight *over*-approximation (true R-neighbourhoods have rounded corners),
so computed consistency sets may be supersets of the exact Equation-1
sets near partition corners.  That errs on the side of forwarding a
packet to a server that did not strictly need it — consistency is never
violated.  For the Chebyshev metric the computation is exact.  Tests
assert both properties.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Mapping

from repro.geometry.metrics import Metric
from repro.geometry.rect import Rect
from repro.geometry.vec import Vec2
from repro.value import Value

#: A consistency set: the ids of the *other* servers that must hear
#: about an update (empty for interior points).
ConsistencySet = frozenset


class OverlapCell(Value):
    """One rectangular cell of the arrangement with a constant set."""

    __slots__ = ("rect", "servers")

    def __init__(self, rect: Rect, servers: ConsistencySet) -> None:
        self.rect = rect
        self.servers = servers


class OverlapRegion(Value):
    """All points of a partition sharing one non-empty consistency set.

    A region can be geometrically disconnected (e.g. two opposite strips
    both bordering the same pair of neighbours), hence a list of rects.
    """

    __slots__ = ("servers", "rects")

    def __init__(
        self, servers: ConsistencySet, rects: tuple[Rect, ...]
    ) -> None:
        self.servers = servers
        self.rects = rects

    @property
    def area(self) -> float:
        """Total area covered by this region."""
        return sum(r.area for r in self.rects)


def consistency_set_at(
    point: Vec2,
    owner: object,
    partitions: Mapping[object, Rect],
    radius: float,
    metric: Metric,
) -> ConsistencySet:
    """Brute-force Equation 1: the exact consistency set of *point*.

    *owner* is the id of the partition containing the point; it is
    excluded per the ``j ≠ i`` clause.  Used by tests and by the
    coordinator's non-proximal query path, never per packet.
    """
    members = {
        pid
        for pid, rect in partitions.items()
        if pid != owner and metric.distance_to_rect(point, rect) <= radius
    }
    return frozenset(members)


def _arrangement_cells(
    partition: Rect,
    overlaps: list[tuple[object, Rect]],
) -> list[OverlapCell]:
    """Overlay *overlaps* (already clipped to *partition*) into cells.

    Classic coordinate-sweep: collect every distinct x and y boundary,
    form the grid of elementary cells, and label each cell with the set
    of overlap rectangles containing its centre.  Cells with empty sets
    (partition interior) are dropped.
    """
    xs = {partition.xmin, partition.xmax}
    ys = {partition.ymin, partition.ymax}
    for _, rect in overlaps:
        xs.update((rect.xmin, rect.xmax))
        ys.update((rect.ymin, rect.ymax))
    xs_sorted = sorted(xs)
    ys_sorted = sorted(ys)

    cells: list[OverlapCell] = []
    for yi in range(len(ys_sorted) - 1):
        for xi in range(len(xs_sorted) - 1):
            cell = Rect(
                xs_sorted[xi], ys_sorted[yi], xs_sorted[xi + 1], ys_sorted[yi + 1]
            )
            if cell.is_empty():
                continue
            centre = cell.center
            members = frozenset(
                pid for pid, rect in overlaps if rect.contains(centre)
            )
            if members:
                cells.append(OverlapCell(rect=cell, servers=members))
    return cells


def _merge_cells(cells: Iterable[OverlapCell]) -> list[OverlapCell]:
    """Coalesce adjacent same-set cells (horizontal runs, then vertical).

    Purely a size optimisation for the routing tables; lookup results
    are unchanged.
    """
    # Horizontal pass: merge cells sharing (ymin, ymax, set) and touching in x.
    by_row: dict[tuple[float, float, ConsistencySet], list[Rect]] = {}
    for cell in cells:
        key = (cell.rect.ymin, cell.rect.ymax, cell.servers)
        by_row.setdefault(key, []).append(cell.rect)

    horizontal: list[OverlapCell] = []
    for (ymin, ymax, servers), rects in by_row.items():
        rects.sort(key=lambda r: r.xmin)
        run = rects[0]
        for rect in rects[1:]:
            if rect.xmin == run.xmax:
                run = Rect(run.xmin, ymin, rect.xmax, ymax)
            else:
                horizontal.append(OverlapCell(run, servers))
                run = rect
        horizontal.append(OverlapCell(run, servers))

    # Vertical pass: merge cells sharing (xmin, xmax, set) and touching in y.
    by_col: dict[tuple[float, float, ConsistencySet], list[Rect]] = {}
    for cell in horizontal:
        key = (cell.rect.xmin, cell.rect.xmax, cell.servers)
        by_col.setdefault(key, []).append(cell.rect)

    merged: list[OverlapCell] = []
    for (xmin, xmax, servers), rects in by_col.items():
        rects.sort(key=lambda r: r.ymin)
        run = rects[0]
        for rect in rects[1:]:
            if rect.ymin == run.ymax:
                run = Rect(xmin, run.ymin, xmax, rect.ymax)
            else:
                merged.append(OverlapCell(run, servers))
                run = rect
        merged.append(OverlapCell(run, servers))
    return merged


def decompose_partition(
    owner: object,
    partitions: Mapping[object, Rect],
    radius: float,
    metric: Metric,
) -> list[OverlapCell]:
    """Compute the merged overlap cells of partition *owner*.

    Returns rectangles covering exactly the points of the partition
    whose consistency set is non-empty, each labelled with that set.
    """
    partition = partitions[owner]
    overlaps: list[tuple[object, Rect]] = []
    for pid, rect in partitions.items():
        if pid == owner:
            continue
        clipped = metric.expand_rect(rect, radius).intersection(partition)
        if clipped is not None:
            overlaps.append((pid, clipped))
    return _merge_cells(_arrangement_cells(partition, overlaps))


def group_regions(cells: Iterable[OverlapCell]) -> list[OverlapRegion]:
    """Group cells by consistency set into the paper's overlap regions."""
    by_set: dict[ConsistencySet, list[Rect]] = {}
    for cell in cells:
        by_set.setdefault(cell.servers, []).append(cell.rect)
    regions = [
        OverlapRegion(servers=servers, rects=tuple(rects))
        for servers, rects in by_set.items()
    ]
    regions.sort(key=lambda region: sorted(map(str, region.servers)))
    return regions


class RegionIndex:
    """Constant-time point → consistency-set lookup for one partition.

    Implements the paper's "instant O(1) lookup ... using the overlap
    regions provided by the MC": the arrangement's x/y boundaries form a
    grid; lookup bisects into the (small, bounded) boundary arrays and
    reads the precomputed set for that elementary cell.
    """

    def __init__(
        self, partition: Rect, cells: list[OverlapCell], perf=None
    ) -> None:
        self._partition = partition
        self._cells = cells
        xs = {partition.xmin, partition.xmax}
        ys = {partition.ymin, partition.ymax}
        for cell in cells:
            xs.update((cell.rect.xmin, cell.rect.xmax))
            ys.update((cell.rect.ymin, cell.rect.ymax))
        self._xs = sorted(xs)
        self._ys = sorted(ys)
        empty: ConsistencySet = frozenset()
        columns = len(self._xs) - 1
        rows = len(self._ys) - 1
        self._grid: list[list[ConsistencySet]] = [
            [empty] * columns for _ in range(max(rows, 0))
        ]
        for cell in cells:
            x0 = bisect.bisect_right(self._xs, cell.rect.xmin) - 1
            x1 = bisect.bisect_left(self._xs, cell.rect.xmax)
            y0 = bisect.bisect_right(self._ys, cell.rect.ymin) - 1
            y1 = bisect.bisect_left(self._ys, cell.rect.ymax)
            for yi in range(y0, y1):
                for xi in range(x0, x1):
                    self._grid[yi][xi] = cell.servers
        if perf is not None:
            perf.counter("geometry.region_index_builds").add(len(cells))

    @property
    def partition(self) -> Rect:
        """The partition this index covers."""
        return self._partition

    @property
    def regions(self) -> list[OverlapRegion]:
        """The paper-style overlap regions (cells grouped by set)."""
        return group_regions(self._cells)

    def overlap_area(self) -> float:
        """Total area of this partition covered by overlap regions."""
        return sum(cell.rect.area for cell in self._cells)

    def lookup(self, point: Vec2) -> ConsistencySet:
        """Consistency set of *point* (empty set for interior points).

        Points outside the partition raise ``ValueError`` — routing a
        packet that is not in the local partition is a protocol error.
        """
        consistency = self.lookup_or_none(point)
        if consistency is None:
            raise ValueError(f"{point} outside partition {self._partition}")
        return consistency

    def lookup_or_none(self, point: Vec2) -> ConsistencySet | None:
        """Consistency set of *point*, or ``None`` when outside.

        The routers' per-packet path: one containment test decides both
        "is this packet local?" and "what is its set?".
        """
        if not self._partition.contains(point):
            return None
        xs = self._xs
        ys = self._ys
        xi = bisect.bisect_right(xs, point.x) - 1
        yi = bisect.bisect_right(ys, point.y) - 1
        if xs[xi] == point.x or ys[yi] == point.y:
            return self._edge_lookup(xi, yi, xs[xi] == point.x, ys[yi] == point.y)
        return self._grid[yi][xi]

    def _edge_lookup(
        self, xi: int, yi: int, on_x: bool, on_y: bool
    ) -> ConsistencySet:
        """Set of a point on the lower edge of cell ``(xi, yi)``.

        Equation 1 is closed (``d ≤ R``): a point on a grid line lies on
        the boundary of every neighbour expansion that ends there, so it
        takes the union of the cells whose closure holds it.
        """
        columns = (xi - 1, xi) if on_x and xi > 0 else (xi,)
        rows = (yi - 1, yi) if on_y and yi > 0 else (yi,)
        own = self._grid[yi][xi]
        union = own.union(*(self._grid[r][c] for r in rows for c in columns))
        return own if union == own else union


class PartitionIndex:
    """Indexed point → partition-owner lookup over a set of rectangles.

    The same grid-bisection trick :class:`RegionIndex` uses, applied to
    the whole partitioning: all partition boundaries form a grid whose
    elementary cells each lie inside exactly one partition (boundaries
    are grid lines, containment is half-open), so labelling each cell
    with the partition covering it gives an exact O(log n)-bisect owner
    lookup — the coordinator's query path and the routers' misroute
    path both stay sub-linear in the server count.
    """

    def __init__(self, partitions: Mapping[object, Rect]) -> None:
        xs: set[float] = set()
        ys: set[float] = set()
        for rect in partitions.values():
            xs.update((rect.xmin, rect.xmax))
            ys.update((rect.ymin, rect.ymax))
        self._xs = sorted(xs)
        self._ys = sorted(ys)
        self._bounds: Rect | None = (
            Rect(self._xs[0], self._ys[0], self._xs[-1], self._ys[-1])
            if partitions
            else None
        )
        columns = max(len(self._xs) - 1, 0)
        rows = max(len(self._ys) - 1, 0)
        # Paint each partition's rectangle onto the cells it covers
        # (cells never straddle a partition edge: every edge is a grid
        # line).  This is O(total cells) where the previous
        # centre-in-which-rect scan was O(cells x partitions).  Cells
        # are only painted once — for overlapping inputs the first
        # partition in iteration order wins, exactly as the scan did.
        grid: list[list[object | None]] = [
            [None] * columns for _ in range(rows)
        ]
        for pid, rect in partitions.items():
            x0 = bisect.bisect_left(self._xs, rect.xmin)
            x1 = bisect.bisect_left(self._xs, rect.xmax)
            y0 = bisect.bisect_left(self._ys, rect.ymin)
            y1 = bisect.bisect_left(self._ys, rect.ymax)
            for yi in range(y0, y1):
                row = grid[yi]
                for xi in range(x0, x1):
                    if row[xi] is None:
                        row[xi] = pid
        self._grid = grid

    def lookup(self, point: Vec2) -> object | None:
        """Owner of *point*, or ``None`` when no partition contains it."""
        bounds = self._bounds
        if bounds is None or not bounds.contains(point):
            return None
        xi = bisect.bisect_right(self._xs, point.x) - 1
        yi = bisect.bisect_right(self._ys, point.y) - 1
        return self._grid[yi][xi]


def compute_overlap_map(
    partitions: Mapping[object, Rect],
    radius: float,
    metric: Metric,
) -> dict[object, RegionIndex]:
    """Compute the :class:`RegionIndex` of every partition.

    This is the Matrix Coordinator's bulk computation: it runs whenever
    the partitioning changes (splits/reclamations) and never per packet.
    """
    return {
        pid: RegionIndex(
            partitions[pid], decompose_partition(pid, partitions, radius, metric)
        )
        for pid in partitions
    }


class OverlapMapCache:
    """Incremental overlap-region resolution across partition changes.

    A partition's decomposition (:func:`decompose_partition`) depends
    only on its own rectangle and on the other partitions whose
    ``radius``-expanded rectangles reach it.  A split or reclamation
    changes two or three rectangles, so most partitions' overlap cells
    are unchanged — this cache recomputes only the partitions whose
    result *can* have changed (their own rect changed, or a changed/
    removed rect's expansion reaches them) and reuses the cached cell
    lists for the rest.

    Reuse is exact, not approximate: a reused entry is the same object
    :func:`decompose_partition` produced earlier, and the affectedness
    test uses the same ``expand → intersection is not None`` criterion
    the decomposition itself uses to select participating neighbours.
    The Matrix Coordinator's recompute-and-push therefore drops from
    O(N) decompositions per split to O(neighbourhood).
    """

    def __init__(self, metric: Metric, perf=None) -> None:
        self._metric = metric
        self._previous: dict[object, Rect] = {}
        self._cells: dict[tuple[object, float], list[OverlapCell]] = {}
        if perf is not None:
            self._recomputed = perf.counter("geometry.overlap_recomputed")
            self._reused = perf.counter("geometry.overlap_reused")
        else:
            self._recomputed = None
            self._reused = None

    def compute(
        self,
        partitions: Mapping[object, Rect],
        radii: Iterable[float],
    ) -> dict[object, dict[float, list[OverlapCell]]]:
        """Cell lists per partition per radius for the new *partitions*."""
        radii = tuple(radii)
        changed = {
            pid
            for pid, rect in partitions.items()
            if self._previous.get(pid) != rect
        }
        removed = [
            rect
            for pid, rect in self._previous.items()
            if pid not in partitions
        ]
        # Every rectangle whose appearance/disappearance/motion can
        # alter a neighbour's decomposition: old and new rects of the
        # changed partitions plus the rects that vanished.
        dirty: list[Rect] = removed
        for pid in changed:
            old = self._previous.get(pid)
            if old is not None:
                dirty.append(old)
            dirty.append(partitions[pid])

        result: dict[object, dict[float, list[OverlapCell]]] = {}
        for pid, rect in partitions.items():
            tables: dict[float, list[OverlapCell]] = {}
            for radius in radii:
                key = (pid, radius)
                cached = None if pid in changed else self._cells.get(key)
                if cached is not None and not self._affected(
                    rect, dirty, radius
                ):
                    tables[radius] = cached
                    if self._reused is not None:
                        self._reused.inc()
                else:
                    cells = decompose_partition(
                        pid, partitions, radius, self._metric
                    )
                    self._cells[key] = cells
                    tables[radius] = cells
                    if self._recomputed is not None:
                        self._recomputed.inc()
            result[pid] = tables
        # Drop entries for partitions/radii that no longer exist.
        live_radii = set(radii)
        self._cells = {
            key: cells
            for key, cells in self._cells.items()
            if key[0] in partitions and key[1] in live_radii
        }
        self._previous = dict(partitions)
        return result

    def _affected(
        self, rect: Rect, dirty: list[Rect], radius: float
    ) -> bool:
        """Can any dirty rectangle alter *rect*'s decomposition?"""
        expand = self._metric.expand_rect
        for other in dirty:
            if expand(other, radius).intersection(rect) is not None:
                return True
        return False
