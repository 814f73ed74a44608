"""Unit tests for the server pool."""

import pytest

from repro.core.pool import ServerPool
from repro.sim import Simulator


def test_acquire_returns_host_after_delay():
    sim = Simulator()
    pool = ServerPool(sim, capacity=2, acquire_delay=1.5)
    got = []
    assert pool.try_acquire(got.append)
    assert got == []  # provisioning delay
    sim.run()
    assert len(got) == 1 and got[0].startswith("host-")


def test_capacity_decrements_immediately():
    sim = Simulator()
    pool = ServerPool(sim, capacity=2)
    pool.try_acquire(lambda h: None)
    assert pool.available == 1
    assert len(pool.issued) == 1


def test_exhausted_pool_yields_none():
    sim = Simulator()
    pool = ServerPool(sim, capacity=1)
    got = []
    assert pool.try_acquire(got.append)
    assert not pool.try_acquire(got.append)
    sim.run()
    assert None in got
    assert pool.acquire_failures == 1


def test_release_restores_capacity():
    sim = Simulator()
    pool = ServerPool(sim, capacity=1)
    got = []
    pool.try_acquire(got.append)
    sim.run()
    pool.release(got[0])
    assert pool.available == 1
    assert pool.try_acquire(got.append)


def test_release_of_foreign_host_ignored():
    """Hosts the pool never issued are not pool capacity."""
    sim = Simulator()
    pool = ServerPool(sim, capacity=1)
    assert pool.release("host-grid-3") is False
    assert pool.available == 1


def test_double_release_is_noop():
    """A host can only be returned once; it leaves the issued set."""
    sim = Simulator()
    pool = ServerPool(sim, capacity=1)
    got = []
    pool.try_acquire(got.append)
    sim.run()
    assert pool.release(got[0]) is True
    assert pool.release(got[0]) is False
    assert pool.available == 1


def test_host_ids_unique():
    sim = Simulator()
    pool = ServerPool(sim, capacity=5)
    got = []
    for _ in range(5):
        pool.try_acquire(got.append)
    sim.run()
    assert len(set(got)) == 5


def test_negative_capacity_rejected():
    with pytest.raises(ValueError):
        ServerPool(Simulator(), capacity=-1)


def test_zero_capacity_always_fails():
    sim = Simulator()
    pool = ServerPool(sim, capacity=0)
    got = []
    assert not pool.try_acquire(got.append)
    sim.run()
    assert got == [None]
