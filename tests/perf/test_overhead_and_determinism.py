"""Perf instrumentation is off by default, free when off, and
observation-only when on."""

import pytest

from repro.core.config import PerfConfig
from repro.harness.runner import run_scenario
from repro.sim.kernel import Simulator


def _tiny_run(perf: PerfConfig | None = None):
    return run_scenario(
        "steady-churn", scale=0.02, preview=30.0, seed=3, perf=perf
    )


def test_perf_is_off_by_default():
    assert PerfConfig().enabled is False
    assert PerfConfig().build_registry() is None
    outcome = _tiny_run()
    assert outcome.experiment.perf is None
    assert outcome.result.perf_snapshot is None
    # The kernel carries no registry either.
    assert outcome.experiment.sim.perf is None


def test_disabled_simulator_has_no_instrumentation_state():
    sim = Simulator()
    fired = []
    sim.after(1.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [1.0]
    assert sim.perf is None


def test_instrumented_run_is_simulation_identical():
    plain = _tiny_run().result
    instrumented = _tiny_run(PerfConfig(enabled=True)).result
    assert instrumented.events_processed == plain.events_processed
    assert instrumented.traffic.total.messages == plain.traffic.total.messages
    assert instrumented.traffic.total.bytes == plain.traffic.total.bytes
    assert instrumented.splits_completed == plain.splits_completed
    assert instrumented.action_latencies == plain.action_latencies
    assert instrumented.perf_snapshot is not None
    assert plain.perf_snapshot is None


def test_sampler_and_counters_deterministic_under_fixed_seed():
    """Same seed => identical counters and tick-sampler series.

    Timers are wall-clock and excluded; everything keyed by simulation
    state must reproduce exactly.
    """
    first = _tiny_run(PerfConfig(enabled=True))
    second = _tiny_run(PerfConfig(enabled=True))
    snap_a = first.result.perf_snapshot
    snap_b = second.result.perf_snapshot
    assert snap_a["counters"] == snap_b["counters"]
    assert snap_a["samplers"] == snap_b["samplers"]

    reg_a = first.experiment.perf
    reg_b = second.experiment.perf
    pend_a = reg_a.samplers["sim.pending_events"]
    pend_b = reg_b.samplers["sim.pending_events"]
    assert pend_a.times == pend_b.times
    assert pend_a.values == pend_b.values


def test_instrumented_run_populates_every_layer():
    snapshot = _tiny_run(PerfConfig(enabled=True)).result.perf_snapshot
    counters = snapshot["counters"]
    # sim, net, runtime and geometry must all have reported something.
    assert counters["sim.events"]["count"] > 0
    assert counters["net.messages_sent"]["count"] > 0
    assert counters["net.messages_delivered"]["count"] > 0
    assert counters["runtime.table_installs"]["count"] > 0
    assert counters["geometry.region_index_builds"]["count"] > 0
    assert snapshot["timers"]["sim.step"]["count"] > 0


def test_perf_config_validation():
    with pytest.raises(ValueError):
        PerfConfig(enabled=True, step_sample_every=0).build_registry()
