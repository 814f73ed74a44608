"""Tests for terminal chart rendering."""

from repro.analysis.asciiplot import render_series
from repro.analysis.timeseries import TimeSeries


def make_series(name, pairs):
    s = TimeSeries(name)
    for t, v in pairs:
        s.append(t, v)
    return s


def test_render_empty():
    assert "(no data)" in render_series({}, title="empty")
    assert "(no data)" in render_series({"a": TimeSeries("a")})


def test_render_single_series_contains_glyph_and_legend():
    s = make_series("srv", [(0, 0), (1, 5), (2, 10)])
    out = render_series({"srv": s}, title="T", y_label="load")
    assert "T" in out
    assert "1=srv" in out
    assert "load" in out
    assert "max=10" in out


def test_render_multiple_series_distinct_glyphs():
    a = make_series("a", [(0, 1), (1, 2)])
    b = make_series("b", [(0, 3), (1, 4)])
    out = render_series({"a": a, "b": b})
    assert "1=a" in out
    assert "2=b" in out


def test_render_dimensions():
    s = make_series("x", [(0, 1), (10, 9)])
    out = render_series({"x": s}, width=40, height=8)
    lines = [line for line in out.splitlines() if line.startswith("|")]
    assert len(lines) == 8
    assert all(len(line) <= 41 for line in lines)
