"""Tests for the mirrored / p2p / DHT baseline cost models."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.baselines.dht import (
    chord_expected_hops,
    dht_lookup_cost,
    sample_dht_lookup,
)
from repro.baselines.mirrored import max_clients_mirrored, mirrored_cost
from repro.baselines.p2p import max_p2p_group, p2p_group_cost
from repro.games.profile import bzflag_profile

PROFILE = bzflag_profile()


# ----------------------------------------------------------------------
# Mirrored servers
# ----------------------------------------------------------------------
def test_single_mirror_has_no_replication():
    cost = mirrored_cost(PROFILE, 100, 1)
    assert cost.replication_packets_per_second == 0.0


def test_replication_grows_linearly_with_mirrors():
    for k in (2, 4, 8):
        cost = mirrored_cost(PROFILE, 100, k)
        assert cost.replication_packets_per_second == pytest.approx(
            (k - 1) * cost.client_packets_per_second
        )


def test_per_mirror_load_independent_of_k():
    """The §5 criticism: adding mirrors never reduces per-mirror load."""
    loads = {mirrored_cost(PROFILE, 100, k).per_mirror_load for k in range(1, 9)}
    assert len(loads) == 1


def test_mirror_ceiling_below_hotspot():
    assert max_clients_mirrored(PROFILE, 16) < 600


def test_mirror_validation():
    with pytest.raises(ValueError):
        mirrored_cost(PROFILE, 10, 0)


# ----------------------------------------------------------------------
# P2P region groups
# ----------------------------------------------------------------------
def test_small_group_feasible():
    assert p2p_group_cost(PROFILE, 8).feasible


def test_hotspot_group_infeasible():
    cost = p2p_group_cost(PROFILE, 600)
    assert not cost.feasible
    assert cost.uplink_utilisation > 2.0


def test_upload_grows_with_group():
    costs = [p2p_group_cost(PROFILE, n).upload_bytes_per_second
             for n in (2, 10, 100)]
    assert costs == sorted(costs)


def test_max_group_boundary():
    largest = max_p2p_group(PROFILE)
    assert p2p_group_cost(PROFILE, largest).feasible
    assert not p2p_group_cost(PROFILE, largest + 1).feasible


def test_p2p_validation():
    with pytest.raises(ValueError):
        p2p_group_cost(PROFILE, 0)


# ----------------------------------------------------------------------
# DHT lookup
# ----------------------------------------------------------------------
def test_chord_hops_grow_logarithmically():
    assert chord_expected_hops(1) == 0.0
    assert chord_expected_hops(2) == pytest.approx(0.5)
    assert chord_expected_hops(1024) == pytest.approx(5.0)


def test_dht_latency_grows_with_servers():
    latencies = [dht_lookup_cost(n).expected_latency for n in (4, 64, 1024)]
    assert latencies == sorted(latencies)
    assert latencies[-1] > 0.0


def test_dht_validation():
    with pytest.raises(ValueError):
        chord_expected_hops(0)


def test_sample_dht_lookup_bounded():
    rng = random.Random(0)
    samples = [sample_dht_lookup(256, rng) for _ in range(200)]
    max_possible = 8 * 0.35e-3
    assert all(0.0 <= s <= max_possible for s in samples)
    assert sum(samples) > 0.0


@given(n=st.integers(min_value=2, max_value=1 << 20))
def test_property_dht_slower_than_table(n):
    """Matrix's overlap table answers locally, in zero hops."""
    assert dht_lookup_cost(n).expected_latency > 0.0
