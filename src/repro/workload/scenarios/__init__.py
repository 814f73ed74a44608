"""Declarative scenarios: workloads as data, not code.

``spec`` defines the :class:`Scenario` dataclasses, ``registry`` the
``@scenario`` lookup, ``catalog`` the built-in entries — the paper's
``fig2-hotspot`` among them (imported here so the registry is
populated as a side effect of importing this package).  Running any
scenario is the job of :func:`repro.harness.runner.run_scenario`.
Fault phases
(:class:`ServerCrash`, :class:`CoordinatorCrash`, :class:`LinkDegrade`,
:class:`Recovery`) are injected by :mod:`repro.chaos` when the runner
arms a scenario that declares them.
"""

from repro.workload.scenarios.registry import (
    build_scenario,
    register_scenario,
    scenario,
    scenario_names,
)
from repro.workload.scenarios.spec import (
    ArrivalWave,
    Churn,
    CoordinatorCrash,
    Departure,
    FaultPhase,
    HotspotWave,
    LinkDegrade,
    MapPoint,
    Migration,
    Phase,
    Recovery,
    Scenario,
    ServerCrash,
)

from repro.workload.scenarios import catalog  # noqa: F401  (registers built-ins)

__all__ = [
    "ArrivalWave",
    "Churn",
    "CoordinatorCrash",
    "Departure",
    "FaultPhase",
    "HotspotWave",
    "LinkDegrade",
    "MapPoint",
    "Migration",
    "Phase",
    "Recovery",
    "Scenario",
    "ServerCrash",
    "build_scenario",
    "register_scenario",
    "scenario",
    "scenario_names",
]
