"""Tests for statistics helpers."""

import pytest
from hypothesis import example, given, strategies as st

from repro.analysis.stats import pearson, percentile, summarize


def test_percentile_basics():
    data = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert percentile(data, 0) == 1.0
    assert percentile(data, 50) == 3.0
    assert percentile(data, 100) == 5.0
    assert percentile(data, 25) == 2.0


def test_percentile_interpolates():
    assert percentile([0.0, 10.0], 50) == 5.0


def test_percentile_single_value():
    assert percentile([7.0], 99) == 7.0


def test_percentile_validation():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_summarize():
    summary = summarize([1.0, 2.0, 3.0, 4.0, 100.0])
    assert summary.count == 5
    assert summary.mean == pytest.approx(22.0)
    assert summary.minimum == 1.0
    assert summary.maximum == 100.0
    assert summary.p50 == 3.0


def test_summarize_empty_raises():
    with pytest.raises(ValueError):
        summarize([])


def test_pearson_perfect_linear():
    xs = [1.0, 2.0, 3.0, 4.0]
    assert pearson(xs, [2 * x + 1 for x in xs]) == pytest.approx(1.0)
    assert pearson(xs, [-x for x in xs]) == pytest.approx(-1.0)


def test_pearson_validation():
    with pytest.raises(ValueError):
        pearson([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        pearson([1.0], [1.0])
    with pytest.raises(ValueError):
        pearson([1.0, 1.0], [1.0, 2.0])  # zero variance


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1,
                max_size=50))
def test_property_percentiles_ordered(values):
    p10 = percentile(values, 10)
    p50 = percentile(values, 50)
    p90 = percentile(values, 90)
    assert min(values) <= p10 <= p50 <= p90 <= max(values)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-100, max_value=100),
            st.floats(min_value=-100, max_value=100),
        ),
        min_size=3,
        max_size=30,
    )
)
# Nonzero variances whose product underflows to 0.0 (was ZeroDivisionError).
@example([(0.0, 0.0), (0.0, 9.931775019616242e-92), (9.6456969874951e-134, 0.0)])
def test_property_pearson_bounded(pairs):
    xs = [p[0] for p in pairs]
    ys = [p[1] for p in pairs]
    try:
        r = pearson(xs, ys)
    except ValueError:
        return  # zero variance is rejected, fine
    assert -1.0 - 1e-9 <= r <= 1.0 + 1e-9
