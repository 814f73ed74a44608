"""Tests for the spatial hash grid."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.games.grid import SpatialGrid
from repro.geometry import Vec2


def test_empty_grid_counts_zero():
    grid = SpatialGrid(10.0)
    assert grid.count_within(Vec2(0, 0), 100.0, cap=10) == 0


def test_insert_and_count():
    grid = SpatialGrid(10.0)
    grid.insert("a", Vec2(5, 5))
    grid.insert("b", Vec2(8, 5))
    grid.insert("c", Vec2(50, 50))
    assert grid.count_within(Vec2(5, 5), 10.0, cap=10) == 2
    assert grid.count_within(Vec2(5, 5), 100.0, cap=10) == 3


def test_exclude_id():
    grid = SpatialGrid(10.0)
    grid.insert("me", Vec2(5, 5))
    grid.insert("other", Vec2(6, 5))
    assert grid.count_within(Vec2(5, 5), 10.0, cap=10, exclude_id="me") == 1


def test_cap_limits_count():
    grid = SpatialGrid(10.0)
    for i in range(100):
        grid.insert(f"e{i}", Vec2(5, 5))
    assert grid.count_within(Vec2(5, 5), 10.0, cap=7) == 7


def test_clear():
    grid = SpatialGrid(10.0)
    grid.insert("a", Vec2(5, 5))
    grid.clear()
    assert grid.count_within(Vec2(5, 5), 10.0, cap=10) == 0


def test_radius_boundary_inclusive():
    grid = SpatialGrid(10.0)
    grid.insert("edge", Vec2(10, 0))
    assert grid.count_within(Vec2(0, 0), 10.0, cap=10) == 1
    assert grid.count_within(Vec2(0, 0), 9.999, cap=10) == 0


def test_negative_coordinates():
    grid = SpatialGrid(10.0)
    grid.insert("neg", Vec2(-15, -15))
    assert grid.count_within(Vec2(-10, -10), 10.0, cap=10) == 1


def test_zero_radius_or_cap():
    grid = SpatialGrid(10.0)
    grid.insert("a", Vec2(0, 0))
    assert grid.count_within(Vec2(0, 0), 0.0, cap=10) == 0
    assert grid.count_within(Vec2(0, 0), 10.0, cap=0) == 0


def test_bad_cell_size():
    with pytest.raises(ValueError):
        SpatialGrid(0.0)


def in_range(x, y, qx, qy, radius):
    """The grid's own float distance test: products, not ``** 2``, which
    rounds differently (``q ** 2 > q * q`` for q = 0.3125577631895754)."""
    dx = x - qx
    dy = y - qy
    return dx * dx + dy * dy <= radius * radius


#: Entities a rounding step outside ``q ± radius`` whose float distance
#: is exactly ``radius``, with the square's edge on a cell border: below
#: the low edge (found by hypothesis, once in ten runs), above the high
#: edge (its mirror), and the ``** 2`` case above.
EDGE_CASES = [
    ([(0.0, -5.720868824951616e-175)], 0.0, 1.0, 1.0, 1.0),
    ([(1.0, 0.0)], -(2.0 ** -53), 0.0, 1.0, 1.0),
    ([(0.0, 0.0)], 0.0, 0.3125577631895754, 0.3125577631895754, 3.0),
]


@settings(max_examples=50, deadline=None)
@given(
    entities=st.lists(
        st.tuples(
            st.floats(min_value=-100, max_value=100),
            st.floats(min_value=-100, max_value=100),
        ),
        max_size=40,
    ),
    qx=st.floats(min_value=-100, max_value=100),
    qy=st.floats(min_value=-100, max_value=100),
    radius=st.floats(min_value=0.1, max_value=150.0),
    cell=st.floats(min_value=1.0, max_value=50.0),
)
@example(*EDGE_CASES[0])
@example(*EDGE_CASES[1])
@example(*EDGE_CASES[2])
def test_property_matches_brute_force(entities, qx, qy, radius, cell):
    grid = SpatialGrid(cell)
    for i, (x, y) in enumerate(entities):
        grid.insert(f"e{i}", Vec2(x, y))
    query = Vec2(qx, qy)
    expected = sum(1 for x, y in entities if in_range(x, y, qx, qy, radius))
    got = grid.count_within(query, radius, cap=1000)
    assert got == expected


# Dyadic inputs: coordinates on a quarter-unit lattice, radius 5u/4 and
# cell a power-of-two multiple of it, so every difference, square and
# floor division is exact in binary floating point.  "Exactly on a cell
# border" and "at distance exactly radius" are then real cases the
# reference and the grid must agree on, not rounding accidents.
lattice = st.integers(min_value=-240, max_value=240).map(lambda q: q / 4.0)


@st.composite
def crowds(draw):
    unit = draw(st.integers(min_value=1, max_value=8))
    radius = 1.25 * unit
    cell = radius * draw(st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]))
    points = draw(st.lists(st.tuples(lattice, lattice), min_size=1, max_size=30))
    qx, qy = points[0]
    # At distance exactly radius of the first point (axis and 3-4-5) ...
    points += [
        (qx + radius, qy),
        (qx, qy - radius),
        (qx + 0.75 * unit, qy + unit),
        (qx - unit, qy - 0.75 * unit),
    ]
    # ... and exactly on cell borders and corners, negative ones too.
    points += [
        (cell * i, cell * j)
        for i, j in draw(
            st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=4)
        )
    ]
    ids = [f"e{i}" for i in range(len(points))]
    ids[-1] = ids[0]  # a client and its own stale ghost share an id
    cap = draw(st.sampled_from([1, 2, 7, 1000]))
    return cell, radius, cap, ids, points


def brute_force(points, ids, qx, qy, radius, cap, exclude_id=None):
    found = sum(
        1
        for (x, y), entity_id in zip(points, ids)
        if in_range(x, y, qx, qy, radius) and entity_id != exclude_id
    )
    return min(found, cap)


def edge_crowd(entities, qx, qy, radius, cell):
    """An ``EDGE_CASES`` row as a crowd: the query point joins the grid."""
    points = [(qx, qy), *entities]
    return cell, radius, 1000, [f"e{i}" for i in range(len(points))], points


@settings(max_examples=200, deadline=None)
@given(crowd=crowds())
@example(edge_crowd(*EDGE_CASES[0]))
@example(edge_crowd(*EDGE_CASES[1]))
@example(edge_crowd(*EDGE_CASES[2]))
def test_property_single_and_batch_match_brute_force(crowd):
    cell, radius, cap, ids, points = crowd
    grid = SpatialGrid(cell)
    for entity_id, (x, y) in zip(ids, points):
        grid.insert(entity_id, Vec2(x, y))
    positions = [Vec2(x, y) for x, y in points]
    assert grid.count_within_each(positions, radius, cap) == [
        brute_force(points, ids, x, y, radius, cap) for x, y in points
    ]
    for entity_id, (x, y) in zip(ids, points):
        for exclude_id in (None, entity_id):
            assert grid.count_within(
                Vec2(x, y), radius, cap, exclude_id=exclude_id
            ) == brute_force(points, ids, x, y, radius, cap, exclude_id)


def test_batch_of_nothing_and_of_zero_radius():
    grid = SpatialGrid(10.0)
    grid.insert("a", Vec2(0, 0))
    assert grid.count_within_each([], 10.0, cap=5) == []
    assert grid.count_within_each([Vec2(0, 0)], 0.0, cap=5) == [0]
    assert grid.count_within_each([Vec2(0, 0)], 10.0, cap=0) == [0]
