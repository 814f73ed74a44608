"""The event loops pause the cyclic collector and leave it as they found it.

``Simulator.run`` and ``ShardedSimulator.run`` disable ``gc`` for the
loop and re-enable it in the ``finally`` that clears ``_running`` — only
when it was enabled on entry.  Reference counting frees what the loop
drops; a run that started leaving reference cycles behind would grow in
memory instead, so the cyclic garbage of a small run is pinned too.
"""

import gc

import pytest

from repro.harness.runner import run_scenario
from repro.sim import SimulationError, Simulator
from repro.sim.sharded import ShardedSimulator


def plain():
    sim = Simulator()
    return sim, sim


def sharded():
    engine = ShardedSimulator(2, lookahead=0.1)
    return engine, engine.lane(0)


@pytest.fixture(autouse=True)
def restore_collector():
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture(params=[plain, sharded], ids=["plain", "sharded"])
def engine(request):
    """``(what runs, where callbacks are scheduled)``."""
    return request.param()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_a_run_pauses_the_collector_and_restores_it(engine, enabled):
    runner, lane = engine
    (gc.enable if enabled else gc.disable)()
    seen = []
    lane.at(0.5, lambda: seen.append(gc.isenabled()))
    runner.run(until=1.0)
    assert seen == [False]
    assert gc.isenabled() is enabled


def test_a_raising_callback_restores_the_collector(engine):
    runner, lane = engine
    gc.enable()

    def boom():
        raise ValueError("boom")

    lane.at(0.5, boom)
    with pytest.raises(ValueError):
        runner.run(until=1.0)
    assert gc.isenabled()


def test_a_reentrant_run_leaves_the_outer_pause_alone(engine):
    runner, lane = engine
    gc.enable()
    seen = []

    def reenter():
        with pytest.raises(SimulationError):
            runner.run()
        seen.append(gc.isenabled())
        runner.run()  # raises through the outer run

    lane.at(0.5, reenter)
    with pytest.raises(SimulationError):
        runner.run(until=1.0)
    assert seen == [False]
    assert gc.isenabled()


@pytest.mark.parametrize("backend", ["matrix", "p2p"])
def test_a_small_run_leaves_almost_no_cyclic_garbage(backend):
    """Collected from the first event on, the whole run leaves 18
    unreachable objects (a few closures and their cells) on either
    backend; nothing on the message path may add to them."""
    gc.enable()
    outcome = run_scenario(
        "fig2-hotspot",
        backend=backend,
        scale=0.05,
        seed=1,
        observe=lambda experiment: (gc.collect(), gc.disable()),
    )
    assert not gc.isenabled()
    assert outcome.result is not None  # held while collecting
    assert gc.collect() <= 18
