"""Picklable per-cell functions for the benchmark grids.

:mod:`repro.harness.parallel` ships cells to ``spawn`` workers by
pickling a module-level function plus primitive kwargs; this module is
where those functions live for the architecture-matrix and chaos-suite
grids (the sweep cell lives next to its grid in
:mod:`repro.harness.sweep`).  Each cell rebuilds its scaled
policy/profile from primitives inside the worker — through the one
scaled-run recipe of :mod:`repro.harness.compare`, so grading
conditions cannot drift between grids — and returns a plain dict of
*deterministic* metrics: wall-clock readings are taken by the pool
around the cell, never mixed into the payload, so merged
``BENCH_*.json`` metrics byte-diff across job counts.
"""

from __future__ import annotations

from repro.analysis.stats import p99_or_zero
from repro.harness.compare import (
    Verdict,
    backend_run_options,  # noqa: F401  (perfbench imports it from here)
    outcome_for,
    scaled_queue_capacity,
    scaled_run_arguments,
)
from repro.harness.runner import run_scenario
from repro.value import replace
from repro.workload.scenarios import (
    CoordinatorCrash,
    ServerCrash,
    build_scenario,
)

#: Message-kind prefixes that constitute each backend's consistency
#: traffic (what it spends to keep replicas/peers/lookups coherent).
CONSISTENCY_PREFIXES = {
    "matrix": ("matrix.forward",),
    "static": ("matrix.forward",),
    "mirrored": ("mirror.",),
    "p2p": ("p2p.",),
    "dht": ("matrix.forward", "dht."),
}

#: The policy floors of the grids, the fuzz harness and the paper
#: benches: their tiny populations need a 6/3 threshold pair to still
#: split and reclaim (the CLI and the sweep keep
#: ``LoadPolicyConfig.scaled``'s own 4/2).
GRID_FLOORS = {"floor_overload": 6, "floor_underload": 3}


def arch_matrix_cell(
    backend: str,
    name: str,
    scale: float,
    preview: float,
    seed: int,
) -> dict:
    """One architecture-matrix cell: *name* on *backend*, scaled.

    Returns the four numbers the architectures trade off — peak receive
    queue, consistency bytes, routing-lookup latency, p99 response
    latency — plus drops and the event count.  Deterministic only: the
    pool records the cell's wall clock separately.
    """
    result = run_scenario(
        **scaled_run_arguments(
            build_scenario(name), backend, scale, seed,
            preview=preview, **GRID_FLOORS,
        )
    ).result
    stats = result.traffic
    consistency_bytes = sum(
        stats.kind_bytes(prefix) for prefix in CONSISTENCY_PREFIXES[backend]
    )
    return {
        "peak_queue": result.max_queue(),
        "dropped": float(result.dropped_packets),
        "consistency_bytes": float(consistency_bytes),
        "lookup_latency_ms": (
            result.consistency.get("mean_lookup_latency", 0.0) * 1000.0
        ),
        "p99_latency_ms": p99_or_zero(result.action_latencies) * 1000.0,
        "events": float(result.events_processed),
    }


def chaos_recovery_cell(
    name: str,
    scale: float,
    preview: float,
    settle: float,
    seed: int,
) -> dict:
    """One matrix-recovery cell: *name* with an injected mid-run server
    crash and coordinator failover, then a settle window and the
    leak/coverage audit.  All returned fields are simulation-time
    quantities — deterministic for a given seed."""
    scenario = build_scenario(name)
    horizon = min(scenario.duration, preview)
    # After the declared phases: the order the driver schedules them in.
    scenario = replace(
        scenario,
        phases=(
            *scenario.phases,
            ServerCrash(at=horizon * 0.4, victim="busiest"),
            CoordinatorCrash(at=horizon * 0.55),
        ),
    )
    outcome = run_scenario(
        **scaled_run_arguments(
            scenario, "matrix", scale, seed, preview=preview, **GRID_FLOORS
        )
    )
    experiment = outcome.experiment
    experiment.sim.run(until=horizon + settle)
    report = experiment.chaos.report()
    coordinator = experiment.deployment.current_coordinator
    recovery_times = report.recovery_times()
    injected = [f for f in report.faults if f.status == "injected"]
    return {
        "faults_injected": len(injected),
        "faults_skipped": len(report.faults) - len(injected),
        "crashes_detected": len(report.recoveries),
        "recovery_times": recovery_times,
        "max_recovery_time": max(recovery_times, default=0.0),
        "all_recovered": report.all_recovered(),
        "mc_promoted_at": report.mc_promoted_at,
        "packets_lost": report.undeliverable_packets,
        "client_rejoins": report.client_rejoins,
        "leaked_hosts": len(report.leaked_hosts),
        "coverage_ratio": (
            coordinator.coverage_area() / experiment.profile.world.area
        ),
    }


def chaos_fault_cell(
    backend: str,
    name: str,
    scale: float,
    preview: float,
    seed: int,
    queue_capacity: int,
) -> dict:
    """One backend × fault cell: chaos scenario *name* on *backend*,
    graded with the shared compare verdict."""
    queue_capacity = scaled_queue_capacity(queue_capacity, scale)
    outcome = run_scenario(
        **scaled_run_arguments(
            build_scenario(name), backend, scale, seed,
            preview=preview, queue_capacity=queue_capacity, **GRID_FLOORS,
        )
    )
    verdict = Verdict(
        queue_capacity=queue_capacity,
        queue_fraction=0.5,
        latency_bound=4.0 / outcome.experiment.profile.snapshot_hz,
    )
    graded = outcome_for(backend, outcome.result, verdict)
    report = outcome.experiment.chaos.report()
    return {
        "verdict": "FAILS" if graded.failed else "ok",
        "peak_queue": graded.peak_queue,
        "dropped": graded.dropped_packets,
        "p99_latency": graded.p99_latency,
        "packets_lost": report.undeliverable_packets,
        "link_dropped": report.link_dropped,
        "link_duplicated": report.link_duplicated,
        "faults_unsupported": sum(
            1 for f in report.faults if f.status == "unsupported"
        ),
    }
