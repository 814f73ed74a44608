"""The five benchmark workloads: closed, fixed simulated scenarios.

Each is a catalog scenario on one backend at a fixed scale, run through
the public ``repro.run_scenario`` with the scaled profile and the
per-backend options the repo's own grids use (``backend_run_options``),
so a workload is exactly what ``python -m repro run`` would execute.
Why each exists is recorded next to its name in ``BENCHMARK.json`` and
argued in ``perfbench/README.md``.

Scales are sized so one run takes 3.5-5 s on the 2-core reference host:
the driver allows an invocation about 30 s, and four runs in that time
reject a disturbed one where two longer runs could not.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    backend: str
    scale: float
    #: Extra ``run_scenario`` options on top of ``backend_run_options``.
    options: dict = field(default_factory=dict)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("hotspot", "fig2-hotspot", "matrix", 0.25),
        Workload("crowd-static", "flash-crowd", "static", 0.6),
        Workload("p2p-fanout", "fig2-hotspot", "p2p", 0.1),
        Workload(
            "hotspot-lanes",
            "fig2-hotspot",
            "matrix",
            0.125,
            {"shards": 2, "shard_executor": "serial"},
        ),
        Workload("churn", "steady-churn", "matrix", 1.0),
    )
}


def run_arguments(workload: Workload, seed: int, scale_factor: float) -> dict:
    """Keyword arguments for ``repro.run_scenario`` (imports ``repro``)."""
    from repro.core.config import LoadPolicyConfig
    from repro.games.profile import profile_by_name
    from repro.harness.compare import scaled_profile
    from repro.harness.gridcells import backend_run_options
    from repro.workload.scenarios import build_scenario

    scale = workload.scale * scale_factor
    scenario = build_scenario(workload.scenario)
    policy = LoadPolicyConfig().scaled(
        scale, floor_overload=6, floor_underload=3
    )
    return {
        "scenario": scenario,
        "backend": workload.backend,
        "profile": scaled_profile(profile_by_name(scenario.game), scale),
        "scale": scale,
        **backend_run_options(workload.backend, scale, policy, seed=seed),
        **workload.options,
    }


def describe(arguments: dict) -> dict:
    """The effective run as plain data, for the provenance block."""
    described = dict(arguments)
    described["scenario"] = arguments["scenario"].name
    profile = arguments["profile"]
    described["profile"] = {
        "name": profile.name,
        "server_service_rate": profile.server_service_rate,
    }
    if "policy" in described:
        described["policy"] = dataclasses.asdict(described["policy"])
    return described
