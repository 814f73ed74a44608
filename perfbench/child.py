"""One run of one workload, in a fresh process: what gets measured.

``python3 -m perfbench.child '<json spec>'`` is started by
:mod:`perfbench.runner`, one at a time, and prints one JSON object.  The
timed path is what ``python -m repro run`` pays: ``setup`` is child entry
(the speed probe is built, nothing of the program imported) to the
``observe`` hook (``import repro``, scenario/profile/experiment
construction, ``scenario.install``), ``run`` is the hook to
``run_scenario`` returning (event loop and result assembly).  Checks,
fingerprints and the invariant audit happen after both clocks stopped.

Set-up takes a tenth of a second, too short for the run's speed scale to
describe it, and one sample per run is too few: ``setup_s`` comes from
children of its own (``"setup_only": true``) that stop at the hook and
sample the ruler six times as often.

The audit is ``repro.fuzz.check_invariants`` after a settle window, on
the matrix workloads (the only deployments it knows).  Its findings
travel with the fingerprint as ``violations``: they must repeat exactly
from run to run, and are pinned in ``expected.json``, but are not
failures — the stranded-client gap in ``README.md`` makes the census
invariant fail on about half the seeds of the commit that introduced
this benchmark.
"""

import hashlib
import json
import os
import resource
import sys
import time

from perfbench import speed

#: Simulated seconds the matrix deployments get to finish in-flight
#: splits before the invariant audit (the fuzz harness's settle window).
SETTLE_S = 10.0
#: Ruler period of a set-up-only child: about five slices per set-up.
SETUP_PERIOD_S = 0.02


class _SetupMeasured(Exception):
    """Raised from the ``observe`` hook to end a set-up-only child."""


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(spec: dict) -> dict:
    before_probe_mb = peak_rss_mb()
    probe = speed.SpeedProbe(
        SETUP_PERIOD_S if spec["setup_only"] else speed.PERIOD_S
    )
    probe_mb = peak_rss_mb() - before_probe_mb  # the ruler's own memory
    entered = time.perf_counter()
    probe.start()

    import repro
    from perfbench.workloads import WORKLOADS, describe, run_arguments

    workload = WORKLOADS[spec["workload"]]
    arguments = run_arguments(workload, spec["seed"], spec["scale_factor"])
    effective = describe(arguments)
    sampler = None
    if spec["trace"]:
        from perfbench import trace

        arguments["perf"] = repro.PerfConfig(enabled=True)
        sampler = trace.LayerSampler(
            os.path.dirname(repro.__file__), ignore_files=(speed.__file__,)
        )

    marks = {}

    def observe(experiment) -> None:
        marks["observed"] = time.perf_counter()
        if spec["setup_only"]:
            raise _SetupMeasured
        if sampler is not None:
            sampler.start()

    try:
        outcome = repro.run_scenario(observe=observe, **arguments)
    except _SetupMeasured:
        probe.stop()
        observed = marks["observed"]
        setup_wall = observed - entered - probe.slice_time(entered, observed)
        return {
            "setup_s": setup_wall * probe.scale(),
            "setup_wall_s": setup_wall,
            "speed_scale": probe.scale(),
        }
    returned = time.perf_counter()
    if sampler is not None:
        sampler.stop()
    probe.stop()
    run_rss_mb = peak_rss_mb() - probe_mb

    observed = marks["observed"]
    scale = probe.scale()
    run_wall = returned - observed - probe.slice_time(observed, returned)

    from repro.analysis.stats import percentile

    result = outcome.result
    traffic = result.traffic
    latencies = result.action_latencies
    actions_sent = sum(
        client.actions_sent for client in outcome.experiment.fleet.clients
    )
    report = {
        "run_s": run_wall * scale,
        "run_wall_s": run_wall,
        "speed_scale": scale,
        "peak_rss_mb": run_rss_mb,
        "sim_action_mean_ms": sum(latencies) / len(latencies) * 1000.0,
        "sim_acked_share": len(latencies) / actions_sent,
        "actions_sent": actions_sent,
        # Simulated, deterministic, too seed-sensitive to bound (see
        # README): kept next to the metrics for whoever reads a report.
        "simulated": {
            "action_p50_ms": percentile(latencies, 50) * 1000.0,
            "action_p99_ms": percentile(latencies, 99) * 1000.0,
            "peak_queue": result.max_queue(),
            "dropped_packets": getattr(result, "dropped_packets", 0),
        },
        "fingerprint": {
            "events": result.events_processed,
            "messages": traffic.total.messages,
            "bytes": traffic.total.bytes,
            "splits": getattr(result, "splits_completed", 0),
            "reclaims": getattr(result, "reclaims_completed", 0),
            "sha256": hashlib.sha256(
                traffic.canonical_digest().encode()
            ).hexdigest(),
        },
        "effective": effective,
        "violations": [],
    }
    if sampler is not None:
        report["layers"] = trace.layer_metrics(outcome, sampler, report["run_s"])
    if workload.backend == "matrix":
        from repro.fuzz import check_invariants, snapshot_lifecycle

        in_flight = snapshot_lifecycle(outcome.experiment)
        outcome.experiment.sim.run(until=outcome.scenario.duration + SETTLE_S)
        report["violations"] = check_invariants(outcome, pre_settle=in_flight)
    return report


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
