"""Tests for the asymptotic scalability model (§4.2)."""

import pytest
from hypothesis import given, strategies as st

from repro.analysis.asymptotic import (
    AsymptoticParams,
    max_players,
    mean_consistency_set_size,
    min_servers_for,
    overlap_fraction,
    partition_side,
    per_player_io,
    per_server_io,
    supports_paper_claim,
)

MMOG = AsymptoticParams(world_area=1e10, radius=100.0)
PATHOLOGICAL = AsymptoticParams(world_area=1e6, radius=400.0)


def test_partition_side():
    assert partition_side(MMOG, 1) == pytest.approx(1e5)
    assert partition_side(MMOG, 100) == pytest.approx(1e4)


def test_overlap_fraction_grows_with_servers():
    fractions = [overlap_fraction(MMOG, s) for s in (4, 64, 1024, 16384)]
    assert fractions == sorted(fractions)
    assert fractions[0] < 0.01
    assert all(0.0 <= f <= 1.0 for f in fractions)


def test_overlap_fraction_saturates_at_one():
    # Partitions far smaller than 2R: everything is overlap.
    assert overlap_fraction(PATHOLOGICAL, 10_000) == 1.0


def test_mean_set_size_single_server_zero():
    assert mean_consistency_set_size(MMOG, 1) == 0.0


def test_mean_set_size_between_one_and_three_normally():
    size = mean_consistency_set_size(MMOG, 100)
    assert 1.0 <= size <= 3.0


def test_mean_set_size_diverges_in_degenerate_regime():
    small = mean_consistency_set_size(PATHOLOGICAL, 100)
    big = mean_consistency_set_size(PATHOLOGICAL, 10_000)
    assert big > small > 3.0


def test_per_server_io_scales_with_players():
    a = per_server_io(MMOG, 1e5, 100)
    b = per_server_io(MMOG, 2e5, 100)
    assert b.total == pytest.approx(2 * a.total)


def test_io_breakdown_components_positive():
    io = per_server_io(MMOG, 1e6, 100)
    assert io.client_in > 0
    assert io.client_out > 0
    assert io.inter_server > 0
    assert io.total == pytest.approx(
        io.client_in + io.client_out + io.inter_server
    )


def test_max_players_monotone_until_overlap_dominates():
    """Adding servers helps while overlap is small, then stops helping."""
    sweep = [max_players(PATHOLOGICAL, s) for s in (1, 4, 16, 64, 256, 4096)]
    assert sweep[1] > sweep[0]  # early scaling works
    peak = max(sweep)
    assert sweep[-1] <= peak  # returns diminish (conclusion b)


def test_paper_claim_small_overlap():
    report = supports_paper_claim(MMOG)
    assert report["feasible_within_10k_servers"]
    assert report["min_servers"] <= 10_000
    assert report["overlap_fraction_at_operating_point"] < 0.2


def test_paper_claim_large_overlap_fails():
    report = supports_paper_claim(PATHOLOGICAL)
    assert not report["feasible_within_10k_servers"]


def test_min_servers_consistency():
    servers = min_servers_for(MMOG, 1_000_000)
    assert servers is not None
    assert max_players(MMOG, servers) >= 1_000_000
    if servers > 1:
        assert max_players(MMOG, servers - 1) < 1_000_000


def test_validation():
    with pytest.raises(ValueError):
        AsymptoticParams(world_area=0.0, radius=1.0)
    with pytest.raises(ValueError):
        partition_side(MMOG, 0)


@given(servers=st.integers(min_value=1, max_value=1 << 20))
def test_property_overlap_fraction_in_unit_interval(servers):
    assert 0.0 <= overlap_fraction(MMOG, servers) <= 1.0


@given(
    servers=st.integers(min_value=2, max_value=1 << 16),
    players=st.floats(min_value=1e3, max_value=1e8),
)
def test_property_io_positive_and_additive(servers, players):
    io = per_server_io(MMOG, players, servers)
    assert io.total > 0
    assert io.total >= io.client_in


@given(servers=st.integers(min_value=2, max_value=1 << 16))
def test_property_set_size_bounded_by_server_count(servers):
    assert mean_consistency_set_size(MMOG, servers) <= servers - 1
