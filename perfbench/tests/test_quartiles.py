"""Median/quartile helpers and the speed probe's estimator."""

import statistics

import pytest

from perfbench.speed import REFERENCE_SLICE_S, SpeedProbe, midmean
from perfbench.stats import quartiles, summary


def test_quartiles_are_the_drivers():
    values = [4.33, 5.91, 4.7, 5.0, 4.9, 5.2, 4.4, 5.5, 4.8, 5.1]
    q1, median, q3 = quartiles(values)
    assert (q1, median, q3) == tuple(statistics.quantiles(values, n=4))
    assert median == statistics.median(values)


def test_single_value_is_its_own_quartiles():
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert summary([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0, "n": 1}


def test_summary_counts():
    assert summary([1.0, 2.0, 3.0]) == {"median": 2.0, "q1": 1.0, "q3": 3.0, "n": 3}


def test_midmean_ignores_hiccups_but_follows_a_shift():
    steady = [5.0] * 12
    assert midmean(steady + [50.0, 60.0]) == pytest.approx(5.0)
    assert midmean([5.0] * 6 + [7.0] * 6) == pytest.approx(6.0)
    assert midmean([4.0]) == 4.0


def test_speed_probe_scales_to_the_reference_slice():
    probe = SpeedProbe()
    probe.slices = [(0.0, 0.009), (1.0, 0.009), (2.0, 0.009), (3.0, 0.5)]
    assert probe.scale() == pytest.approx(REFERENCE_SLICE_S / 0.009)
    assert probe.slice_time(1.0, 3.0) == pytest.approx(0.018)
    assert probe.slice_time() == pytest.approx(0.527)
