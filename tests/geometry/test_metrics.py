"""Tests for distance metrics."""

import pytest
from hypothesis import given, strategies as st

from repro.geometry import (
    ChebyshevMetric,
    EuclideanMetric,
    Metric,
    Rect,
    Vec2,
    consistency_set_at,
    metric_by_name,
)

WORLD = Rect(0, 0, 100, 100)

points = st.builds(
    Vec2,
    st.floats(min_value=0, max_value=100, allow_nan=False),
    st.floats(min_value=0, max_value=100, allow_nan=False),
)


def test_euclidean_distance():
    assert EuclideanMetric().distance(Vec2(0, 0), Vec2(3, 4)) == 5.0


def test_chebyshev_distance():
    assert ChebyshevMetric().distance(Vec2(0, 0), Vec2(3, 4)) == 4.0


def test_within():
    """Within R is inclusive: a partition exactly R away is informed."""
    partitions = {"a": Rect(0, 0, 10, 10), "b": Rect(13, 14, 20, 20)}
    point = Vec2(10, 10)  # (3, 4) from b's nearest corner
    metric = EuclideanMetric()
    assert consistency_set_at(point, "a", partitions, 5.0, metric) == {"b"}
    assert consistency_set_at(point, "a", partitions, 4.9, metric) == set()


def test_expand_rect_default():
    r = Rect(10, 10, 20, 20)
    assert EuclideanMetric().expand_rect(r, 2.0) == Rect(8, 8, 22, 22)


def test_metric_by_name():
    assert metric_by_name("euclidean").name == "euclidean"
    assert metric_by_name("chebyshev").name == "chebyshev"


def test_metric_by_name_unknown_raises():
    with pytest.raises(ValueError):
        metric_by_name("hyperbolic")


class SquareMetric(Metric):
    """A user metric the library has never heard of: Chebyshev by
    another name."""

    name = "square"

    def distance(self, a: Vec2, b: Vec2) -> float:
        return max(abs(a.x - b.x), abs(a.y - b.y))


def test_user_metric_measures_rectangles_by_its_own_distance():
    """An unknown metric name must not be measured as Euclidean: that
    reads 56.57 here, drops ``b`` at radius 45, and a consistency set
    may only grow, never miss a server."""
    point, far = Vec2(100, 100), Rect(140, 140, 200, 200)
    assert SquareMetric().distance_to_rect(point, far) == 40.0
    partitions = {"a": Rect(0, 0, 140, 140), "b": far}
    assert consistency_set_at(
        point, "a", partitions, 45.0, SquareMetric()
    ) == frozenset({"b"})


@given(points, points)
def test_symmetry_all_metrics(a, b):
    for metric in (EuclideanMetric(), ChebyshevMetric()):
        assert metric.distance(a, b) == pytest.approx(metric.distance(b, a))


@given(points, points, points)
def test_triangle_inequality(a, b, c):
    for metric in (EuclideanMetric(), ChebyshevMetric()):
        ab = metric.distance(a, b)
        bc = metric.distance(b, c)
        ac = metric.distance(a, c)
        assert ac <= ab + bc + 1e-9


@given(points, points)
def test_metric_ordering(a, b):
    """Chebyshev <= Euclidean for any pair."""
    cheb = ChebyshevMetric().distance(a, b)
    eucl = EuclideanMetric().distance(a, b)
    assert cheb <= eucl + 1e-9


@given(points)
def test_identity(p):
    for metric in (EuclideanMetric(), ChebyshevMetric()):
        assert metric.distance(p, p) == 0.0


@given(points)
def test_euclidean_rect_distance_is_the_gap_formula(p):
    """Bit for bit the per-axis-gap formula the consistency query used
    before metrics measured rectangles themselves."""
    rect = Rect(40, 40, 60, 60)
    gx = max(0.0, rect.xmin - p.x, p.x - rect.xmax)
    gy = max(0.0, rect.ymin - p.y, p.y - rect.ymax)
    assert EuclideanMetric().distance_to_rect(p, rect) == (
        (gx * gx + gy * gy) ** 0.5
    )


@given(
    points,
    st.floats(min_value=0.1, max_value=20.0),
)
def test_expand_rect_is_superset_of_true_neighbourhood(p, radius):
    """Any point within metric-distance R of the rect lies in expand(rect, R)."""
    rect = Rect(40, 40, 60, 60)
    for metric in (EuclideanMetric(), ChebyshevMetric()):
        if metric.distance_to_rect(p, rect) <= radius:
            assert metric.expand_rect(rect, radius).contains_closed(p)
