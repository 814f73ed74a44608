"""Tests for the overlap-region decomposition (paper §3.1, Equation 1)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import (
    ChebyshevMetric,
    EuclideanMetric,
    Rect,
    RegionIndex,
    Vec2,
    compute_overlap_map,
    consistency_set_at,
    decompose_partition,
    group_regions,
    tile_world,
)

WORLD = Rect(0, 0, 100, 100)


def two_halves():
    """The canonical split-to-left layout: left/right halves."""
    left, right = WORLD.halves("x")
    return {"s1": left, "s2": right}


def three_columns():
    return dict(zip(["s1", "s2", "s3"], tile_world(WORLD, 3, 1)))


# ----------------------------------------------------------------------
# Metric.distance_to_rect
# ----------------------------------------------------------------------
def test_point_rect_distance_inside_is_zero():
    assert EuclideanMetric().distance_to_rect(Vec2(5, 5), WORLD) == 0.0


def test_point_rect_distance_euclidean_corner():
    r = Rect(0, 0, 10, 10)
    assert EuclideanMetric().distance_to_rect(Vec2(13, 14), r) == 5.0


def test_point_rect_distance_chebyshev():
    r = Rect(0, 0, 10, 10)
    assert ChebyshevMetric().distance_to_rect(Vec2(13, 14), r) == 4.0


# ----------------------------------------------------------------------
# consistency_set_at (reference Equation 1)
# ----------------------------------------------------------------------
def test_interior_point_has_empty_set():
    parts = two_halves()
    assert consistency_set_at(
        Vec2(10, 50), "s1", parts, 5.0, EuclideanMetric()
    ) == frozenset()


def test_boundary_point_sees_neighbour():
    parts = two_halves()
    assert consistency_set_at(
        Vec2(48, 50), "s1", parts, 5.0, EuclideanMetric()
    ) == frozenset({"s2"})


def test_owner_excluded_from_own_set():
    parts = two_halves()
    cs = consistency_set_at(Vec2(48, 50), "s1", parts, 5.0, EuclideanMetric())
    assert "s1" not in cs


def test_infinite_radius_sees_everyone():
    parts = three_columns()
    cs = consistency_set_at(Vec2(10, 50), "s1", parts, 1e9, EuclideanMetric())
    assert cs == frozenset({"s2", "s3"})


# ----------------------------------------------------------------------
# decompose_partition
# ----------------------------------------------------------------------
def test_two_halves_single_strip():
    parts = two_halves()
    cells = decompose_partition("s1", parts, 5.0, ChebyshevMetric())
    assert len(cells) == 1
    cell = cells[0]
    assert cell.servers == frozenset({"s2"})
    assert cell.rect == Rect(45, 0, 50, 100)


def test_middle_column_has_two_strips():
    parts = three_columns()
    cells = decompose_partition("s2", parts, 4.0, ChebyshevMetric())
    regions = group_regions(cells)
    sets = {region.servers for region in regions}
    assert frozenset({"s1"}) in sets
    assert frozenset({"s3"}) in sets


def test_quadrant_corner_sees_all_three_neighbours():
    parts = dict(zip(["s1", "s2", "s3", "s4"], tile_world(WORLD, 2, 2)))
    cells = decompose_partition("s1", parts, 3.0, ChebyshevMetric())
    sets = {cell.servers for cell in cells}
    # Near the centre corner of the world, s1's points must inform all
    # of s2 (right), s3 (above) and s4 (diagonal).
    assert frozenset({"s2", "s3", "s4"}) in sets


def test_zero_radius_leaves_no_interior_cells():
    """R=0: only the zero-width boundary could overlap; no area cells."""
    parts = two_halves()
    cells = decompose_partition("s1", parts, 0.0, ChebyshevMetric())
    assert sum(c.rect.area for c in cells) == 0.0 or cells == []


def test_single_partition_has_no_overlap():
    cells = decompose_partition("s1", {"s1": WORLD}, 10.0, EuclideanMetric())
    assert cells == []


def test_cells_lie_inside_partition():
    parts = three_columns()
    for pid, rect in parts.items():
        for cell in decompose_partition(pid, parts, 6.0, EuclideanMetric()):
            assert rect.intersection(cell.rect) == cell.rect


def test_fig1a_three_server_layout():
    """Fig 1a: three servers; the junction region informs both others."""
    left, right = WORLD.halves("x")
    bottom_right, top_right = right.halves("y")
    parts = {"s1": left, "s2": bottom_right, "s3": top_right}
    cells = decompose_partition("s1", parts, 5.0, ChebyshevMetric())
    sets = {cell.servers for cell in cells}
    assert frozenset({"s2"}) in sets
    assert frozenset({"s3"}) in sets
    assert frozenset({"s2", "s3"}) in sets


# ----------------------------------------------------------------------
# RegionIndex lookup
# ----------------------------------------------------------------------
def test_lookup_matches_reference_on_grid():
    parts = dict(zip(["s1", "s2", "s3", "s4"], tile_world(WORLD, 2, 2)))
    metric = ChebyshevMetric()
    radius = 4.0
    index_map = compute_overlap_map(parts, radius, metric)
    for pid, rect in parts.items():
        index = index_map[pid]
        for i in range(20):
            for j in range(20):
                p = rect.sample_point((i + 0.5) / 20, (j + 0.5) / 20)
                expected = consistency_set_at(p, pid, parts, radius, metric)
                assert index.lookup(p) == expected, (pid, p)


def test_lookup_outside_partition_raises():
    parts = two_halves()
    index = compute_overlap_map(parts, 5.0, ChebyshevMetric())["s1"]
    with pytest.raises(ValueError):
        index.lookup(Vec2(75, 50))


def test_lookup_counts_points_at_exactly_the_radius():
    """Equation 1 is closed: a point at distance R still needs the peer."""
    parts = two_halves()
    index = compute_overlap_map(parts, 0.5, ChebyshevMetric())
    assert index["s2"].lookup(Vec2(50.5, 0.0)) == frozenset({"s1"})
    assert index["s2"].lookup(Vec2(50.5, 30.0)) == frozenset({"s1"})
    assert index["s2"].lookup(Vec2(50.6, 30.0)) == frozenset()
    assert index["s1"].lookup(Vec2(49.5, 30.0)) == frozenset({"s2"})


def test_overlap_area_grows_with_radius():
    parts = three_columns()
    metric = ChebyshevMetric()
    areas = [
        compute_overlap_map(parts, r, metric)["s2"].overlap_area()
        for r in (1.0, 5.0, 10.0)
    ]
    assert areas[0] < areas[1] < areas[2]


def test_region_index_exposes_regions():
    parts = two_halves()
    index = compute_overlap_map(parts, 5.0, ChebyshevMetric())["s1"]
    regions = index.regions
    assert len(regions) == 1
    assert regions[0].servers == frozenset({"s2"})
    assert regions[0].area == pytest.approx(5.0 * 100.0)


def test_euclidean_lookup_is_conservative():
    """AABB expansion may over-approximate Euclidean sets, never miss."""
    parts = dict(zip(["s1", "s2", "s3", "s4"], tile_world(WORLD, 2, 2)))
    metric = EuclideanMetric()
    radius = 6.0
    index_map = compute_overlap_map(parts, radius, metric)
    for pid, rect in parts.items():
        index = index_map[pid]
        for i in range(15):
            for j in range(15):
                p = rect.sample_point((i + 0.5) / 15, (j + 0.5) / 15)
                exact = consistency_set_at(p, pid, parts, radius, metric)
                assert exact <= index.lookup(p), (pid, p)


@settings(max_examples=30, deadline=None)
@given(
    radius=st.floats(min_value=0.5, max_value=20.0),
    columns=st.integers(min_value=1, max_value=4),
    rows=st.integers(min_value=1, max_value=3),
    u=st.floats(min_value=0.0, max_value=0.999),
    v=st.floats(min_value=0.0, max_value=0.999),
)
def test_property_chebyshev_lookup_exact(radius, columns, rows, u, v):
    """For Chebyshev, the table lookup equals brute-force Equation 1."""
    parts = {
        f"s{i}": rect for i, rect in enumerate(tile_world(WORLD, columns, rows))
    }
    metric = ChebyshevMetric()
    index_map = compute_overlap_map(parts, radius, metric)
    for pid, rect in parts.items():
        p = rect.sample_point(u, v)
        expected = consistency_set_at(p, pid, parts, radius, metric)
        assert index_map[pid].lookup(p) == expected


@settings(max_examples=30, deadline=None)
@given(
    radius=st.floats(min_value=0.5, max_value=15.0),
    split=st.floats(min_value=0.2, max_value=0.8),
)
def test_property_asymmetric_split_consistent(radius, split):
    """Uneven vertical splits still produce mutually consistent tables."""
    x = WORLD.xmin + split * WORLD.width
    left, right = WORLD.split_vertical(x)
    parts = {"L": left, "R": right}
    metric = ChebyshevMetric()
    index_map = compute_overlap_map(parts, radius, metric)
    # A point just left of the boundary sees R iff within radius.
    for offset in (0.1, radius / 2, radius * 0.99):
        px = x - offset
        if px <= WORLD.xmin:
            continue
        got = index_map["L"].lookup(Vec2(px, 50.0))
        assert got == frozenset({"R"})


# ----------------------------------------------------------------------
# PartitionIndex: indexed point -> owner lookup
# ----------------------------------------------------------------------
def test_partition_index_matches_linear_scan():
    from repro.geometry import PartitionIndex

    parts = {f"p{i}": tile for i, tile in enumerate(tile_world(WORLD, 4, 3))}
    index = PartitionIndex(parts)
    for x in range(0, 100, 7):
        for y in range(0, 100, 7):
            point = Vec2(float(x) + 0.5, float(y) + 0.5)
            linear = next(
                (pid for pid, rect in parts.items() if rect.contains(point)),
                None,
            )
            assert index.lookup(point) == linear


def test_partition_index_boundary_and_outside_points():
    from repro.geometry import PartitionIndex

    left, right = WORLD.split_vertical(40.0)
    index = PartitionIndex({"L": left, "R": right})
    # Half-open semantics: the shared edge belongs to the right side.
    assert index.lookup(Vec2(40.0, 50.0)) == "R"
    assert index.lookup(Vec2(39.999, 50.0)) == "L"
    # The world's max edges are outside every half-open partition.
    assert index.lookup(Vec2(100.0, 50.0)) is None
    assert index.lookup(Vec2(-1.0, 50.0)) is None


def test_partition_index_empty():
    from repro.geometry import PartitionIndex

    index = PartitionIndex({})
    assert index.lookup(Vec2(10.0, 10.0)) is None


@settings(max_examples=30, deadline=None)
@given(
    columns=st.integers(min_value=1, max_value=5),
    rows=st.integers(min_value=1, max_value=5),
    x=st.floats(min_value=0.0, max_value=99.99),
    y=st.floats(min_value=0.0, max_value=99.99),
)
def test_property_partition_index_exact_on_grids(columns, rows, x, y):
    from repro.geometry import PartitionIndex

    parts = {
        f"p{i}": tile
        for i, tile in enumerate(tile_world(WORLD, columns, rows))
    }
    index = PartitionIndex(parts)
    point = Vec2(x, y)
    linear = next(
        (pid for pid, rect in parts.items() if rect.contains(point)), None
    )
    assert index.lookup(point) == linear


def test_overlap_map_cache_matches_fresh_decomposition():
    """The incremental cache must equal a from-scratch decomposition
    after every partition change (split, reclaim, re-register)."""
    from repro.geometry import OverlapMapCache, metric_by_name

    metric = metric_by_name("euclidean")
    cache = OverlapMapCache(metric)
    radius = 8.0

    world = WORLD
    left, right = world.halves("x")
    rl, rr = right.halves("y")
    steps = [
        {"a": world},
        {"a": left, "b": right},                    # split
        {"a": left, "b": rl, "c": rr},              # nested split
        {"a": left, "b": right},                    # reclaim
        {"a": world},                               # full reclaim
    ]
    for partitions in steps:
        result = cache.compute(partitions, (radius,))
        for pid in partitions:
            fresh = decompose_partition(pid, partitions, radius, metric)
            assert result[pid][radius] == fresh, f"{pid} diverged"


def test_overlap_map_cache_reuses_far_partitions():
    """A split in one corner must not recompute a far-away partition."""
    from repro.geometry import OverlapMapCache, metric_by_name
    from repro.perf import PerfRegistry

    metric = metric_by_name("euclidean")
    perf = PerfRegistry()
    cache = OverlapMapCache(metric, perf=perf)
    radius = 2.0
    tiles = {
        f"p{i}": tile for i, tile in enumerate(tile_world(WORLD, 4, 1))
    }
    cache.compute(tiles, (radius,))
    recomputed_initial = perf.counters["geometry.overlap_recomputed"].count

    # Split the leftmost column; the rightmost columns are far outside
    # the 2-unit reach and must be served from cache.
    a, b = tiles["p0"].halves("y")
    changed = dict(tiles)
    changed["p0"] = a
    changed["p0b"] = b
    result = cache.compute(changed, (radius,))
    assert perf.counters["geometry.overlap_reused"].count >= 2
    for pid in changed:
        fresh = decompose_partition(pid, changed, radius, metric)
        assert result[pid][radius] == fresh
