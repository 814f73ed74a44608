"""Tests for axis-aligned rectangles."""

import pytest
from hypothesis import given, strategies as st

from repro.geometry import Rect, Vec2, tile_world


def rects(max_coord=100.0):
    coords = st.floats(
        min_value=-max_coord, max_value=max_coord, allow_nan=False
    )
    return st.builds(
        lambda x0, y0, w, h: Rect(x0, y0, x0 + w, y0 + h),
        coords,
        coords,
        st.floats(min_value=0.1, max_value=50.0),
        st.floats(min_value=0.1, max_value=50.0),
    )


def test_degenerate_rect_raises():
    with pytest.raises(ValueError):
        Rect(1.0, 0.0, 0.0, 1.0)


def test_basic_properties():
    r = Rect(0, 0, 4, 2)
    assert r.width == 4
    assert r.height == 2
    assert r.area == 8
    assert r.center == Vec2(2, 1)


def test_half_open_containment():
    r = Rect(0, 0, 10, 10)
    assert r.contains(Vec2(0, 0))
    assert not r.contains(Vec2(10, 10))
    assert not r.contains(Vec2(10, 5))
    assert r.contains_closed(Vec2(10, 10))


def test_intersection():
    a = Rect(0, 0, 10, 10)
    b = Rect(5, 5, 15, 15)
    assert a.intersection(b) == Rect(5, 5, 10, 10)


def test_intersection_disjoint_is_none():
    assert Rect(0, 0, 1, 1).intersection(Rect(2, 2, 3, 3)) is None


def test_shared_edge_does_not_intersect():
    a = Rect(0, 0, 5, 10)
    b = Rect(5, 0, 10, 10)
    assert a.intersection(b) is None


def test_expanded():
    r = Rect(2, 2, 4, 4).expanded(1.0)
    assert r == Rect(1, 1, 5, 5)


def test_expanded_negative_shrinks():
    r = Rect(0, 0, 10, 10).expanded(-2.0)
    assert r == Rect(2, 2, 8, 8)


def test_expanded_overshrink_collapses_to_point():
    r = Rect(0, 0, 2, 2).expanded(-5.0)
    assert r.is_empty()


def test_split_vertical():
    left, right = Rect(0, 0, 10, 4).split_vertical(6.0)
    assert left == Rect(0, 0, 6, 4)
    assert right == Rect(6, 0, 10, 4)


def test_split_horizontal():
    bottom, top = Rect(0, 0, 4, 10).split_horizontal(3.0)
    assert bottom == Rect(0, 0, 4, 3)
    assert top == Rect(0, 3, 4, 10)


def test_split_outside_raises():
    with pytest.raises(ValueError):
        Rect(0, 0, 10, 10).split_vertical(10.0)
    with pytest.raises(ValueError):
        Rect(0, 0, 10, 10).split_horizontal(-1.0)


def test_halves():
    left, right = Rect(0, 0, 10, 10).halves("x")
    assert left.area == right.area == 50
    bottom, top = Rect(0, 0, 10, 10).halves("y")
    assert bottom == Rect(0, 0, 10, 5)
    with pytest.raises(ValueError):
        Rect(0, 0, 1, 1).halves("z")


def test_union_bounds():
    a = Rect(0, 0, 1, 1)
    b = Rect(5, 5, 6, 7)
    assert a.union_bounds(b) == Rect(0, 0, 6, 7)


def test_distance_to_point():
    r = Rect(0, 0, 10, 10)
    assert r.distance_to_point(Vec2(5, 5)) == 0.0
    assert r.distance_to_point(Vec2(13, 14)) == 5.0


def test_sample_point():
    r = Rect(0, 0, 10, 20)
    assert r.sample_point(0.5, 0.5) == Vec2(5, 10)
    assert r.contains(r.sample_point(0.0, 0.0))


def test_tile_world_covers_and_disjoint():
    world = Rect(0, 0, 100, 60)
    tiles = tile_world(world, 4, 3)
    assert len(tiles) == 12
    assert abs(sum(t.area for t in tiles) - world.area) < 1e-9
    for i, a in enumerate(tiles):
        for b in tiles[i + 1:]:
            assert a.intersection(b) is None


def test_tile_world_rejects_bad_grid():
    with pytest.raises(ValueError):
        tile_world(Rect(0, 0, 1, 1), 0, 1)


@given(rects(), rects())
def test_intersection_commutes(a, b):
    assert a.intersection(b) == b.intersection(a)


@given(rects(), rects())
def test_intersection_contained_in_both(a, b):
    inter = a.intersection(b)
    if inter is not None:
        assert a.intersection(inter) == inter
        assert b.intersection(inter) == inter


@given(rects(), st.floats(min_value=0.0, max_value=10.0))
def test_expansion_contains_original(r, margin):
    assert r.expanded(margin).intersection(r) == r


@given(rects())
def test_halves_partition_area(r):
    left, right = r.halves("x")
    assert abs(left.area + right.area - r.area) < 1e-6 * max(r.area, 1.0)
