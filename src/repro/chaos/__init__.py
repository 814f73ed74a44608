"""The chaos / fault-tolerance layer.

Scenarios declare faults (:class:`~repro.workload.scenarios.ServerCrash`,
:class:`~repro.workload.scenarios.CoordinatorCrash`,
:class:`~repro.workload.scenarios.LinkDegrade`,
:class:`~repro.workload.scenarios.Recovery`) next to their workload
phases; the :class:`ChaosDriver` here injects them into whichever
backend runs the scenario and collects a :class:`ChaosReport` — what
was injected, how long each crashed partition took to recover, what got
lost on the wire, and whether any pool host leaked.

Fault phases are the only way to declare a fault.  The unified runner
arms a driver exactly for scenarios that declare them (and
``run_scenario(..., chaos=False)`` disarms one); plain scenarios never
pay for any of it — no watchdogs, no supervisors, no per-client
liveness checks — which is what keeps fault-free runs event-for-event
identical to the pre-chaos ones.
"""

from repro.chaos.driver import (
    ChaosDriver,
    ChaosReport,
    FaultRecord,
    format_chaos_report,
)

__all__ = [
    "ChaosDriver",
    "ChaosReport",
    "FaultRecord",
    "format_chaos_report",
]
