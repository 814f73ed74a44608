"""Unit tests for split strategies."""

import pytest
from hypothesis import given, strategies as st

from repro.core.splitting import (
    LoadWeighted,
    LongestAxis,
    SplitToLeft,
    strategy_by_name,
)
from repro.geometry import Rect, Vec2

SQUARE = Rect(0, 0, 100, 100)
WIDE = Rect(0, 0, 200, 100)
TALL = Rect(0, 0, 100, 300)


def test_split_to_left_halves_along_x():
    kept, given = SplitToLeft().split(SQUARE, [])
    assert given == Rect(0, 0, 50, 100)  # the LEFT piece is handed off
    assert kept == Rect(50, 0, 100, 100)


def test_split_to_left_ignores_positions():
    positions = [Vec2(90, 90)] * 10
    kept, given = SplitToLeft().split(SQUARE, positions)
    assert given == Rect(0, 0, 50, 100)


def test_longest_axis_wide_splits_x():
    kept, given = LongestAxis().split(WIDE, [])
    assert given == Rect(0, 0, 100, 100)
    assert kept == Rect(100, 0, 200, 100)


def test_longest_axis_tall_splits_y():
    kept, given = LongestAxis().split(TALL, [])
    assert given == Rect(0, 0, 100, 150)
    assert kept == Rect(0, 150, 100, 300)


def test_load_weighted_cuts_at_median():
    positions = [Vec2(x, 50) for x in (10, 20, 30, 70, 80)]
    kept, given = LoadWeighted().split(SQUARE, positions)
    # Median x = 30; clamped margin is 10..90 so the cut is at 30.
    assert given.xmax == pytest.approx(30.0)


def test_load_weighted_clamps_to_edge_margin():
    positions = [Vec2(1, 50)] * 9
    kept, given = LoadWeighted().split(SQUARE, positions)
    assert given.xmax == pytest.approx(10.0)  # 10% margin floor


def test_load_weighted_empty_positions_halves():
    kept, given = LoadWeighted().split(SQUARE, [])
    assert given.xmax == pytest.approx(50.0)


def test_load_weighted_tall_uses_y():
    positions = [Vec2(50, y) for y in (10, 20, 250)]
    kept, given = LoadWeighted().split(TALL, positions)
    assert given.ymax == pytest.approx(30.0)


def test_strategy_by_name():
    assert strategy_by_name("split-to-left").name == "split-to-left"
    assert strategy_by_name("longest-axis").name == "longest-axis"
    assert strategy_by_name("load-weighted").name == "load-weighted"
    with pytest.raises(ValueError):
        strategy_by_name("spiral")


@given(
    x0=st.floats(min_value=-100, max_value=100),
    w=st.floats(min_value=1.0, max_value=500.0),
    h=st.floats(min_value=1.0, max_value=500.0),
    xs=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=20),
)
def test_property_pieces_partition_the_rect(x0, w, h, xs):
    rect = Rect(x0, 0.0, x0 + w, h)
    positions = [
        Vec2(rect.xmin + u * rect.width, rect.ymin + 0.5 * rect.height)
        for u in xs
    ]
    for strategy in (SplitToLeft(), LongestAxis(), LoadWeighted()):
        kept, given = strategy.split(rect, positions)
        # The two pieces are disjoint, non-empty, and cover the rect.
        assert kept.intersection(given) is None
        assert kept.area > 0 and given.area > 0
        total = kept.area + given.area
        assert total == pytest.approx(rect.area, rel=1e-9)
        assert rect.intersection(kept) == kept
        assert rect.intersection(given) == given
        # The union bounding box is the original rect (merge-ability:
        # a reclaim can always merge the pieces back).
        assert kept.union_bounds(given) == rect
