"""The chaos driver: schedules a scenario's faults against a backend.

One driver is armed per run (see
:func:`repro.harness.runner.run_scenario`).  Arming does three things:

1. **Hardening** (matrix backend only): the deployment's host
   supervisor is started (crash detection + partition respawn), the
   lifecycle watchdogs are enabled (in-flight split/reclaim abort), and
   every client gets dead-server detection through the fleet locator.
2. **Scheduling**: each declared fault phase inside the run (``at``
   before the scenario's — possibly previewed — duration) becomes a
   simulation event at its ``at`` time; later ones are recorded
   ``skipped``.  Crash faults are matrix-only (the rival
   architectures have no recovery story — which is the comparison);
   link degradation works on every backend through its declared
   fault nodes and consistency kinds.
3. **Accounting**: every injection is recorded, and :meth:`report`
   assembles recovery times, failover latency, lost-packet counts and
   the pool-leak audit into a :class:`ChaosReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.middleware import FaultInjectionStage
from repro.workload.scenarios.spec import (
    CoordinatorCrash,
    FaultPhase,
    LinkDegrade,
    Recovery,
    ServerCrash,
)

#: Age at which an in-flight split/reclaim of an armed run is aborted
#: and rolled back (``MatrixConfig.lifecycle_timeout``).
LIFECYCLE_TIMEOUT = 6.0


@dataclass
class FaultRecord:
    """What happened to one scheduled fault."""

    fault: str
    at: float
    status: str = "pending"  # injected | skipped | unsupported | pending
    detail: str = ""


@dataclass
class ChaosReport:
    """The resilience read-out of one chaos run."""

    scenario: str
    backend: str
    faults: list[FaultRecord]
    #: Per-crash recovery audit (matrix backend; empty elsewhere).
    recoveries: list = field(default_factory=list)
    #: When the standby MC promoted itself (None = no failover).
    mc_promoted_at: float | None = None
    #: Messages addressed to dead/decommissioned nodes — the traffic
    #: lost while failures were unhealed.
    undeliverable_packets: int = 0
    #: Messages the link-degradation stages dropped / duplicated.
    link_dropped: int = 0
    link_duplicated: int = 0
    #: Clients that detected a dead server and rejoined.
    client_rejoins: int = 0
    #: Pool hosts no live owner can explain (must be empty).
    leaked_hosts: list[str] = field(default_factory=list)

    def recovery_times(self) -> list[float]:
        """Crash-to-reregistration latencies of completed recoveries."""
        return [
            record.recovery_time
            for record in self.recoveries
            if record.recovery_time is not None
        ]

    def all_recovered(self) -> bool:
        """True when every detected crash produced a live replacement."""
        return all(
            record.recovery_time is not None for record in self.recoveries
        )


def format_chaos_report(report: ChaosReport) -> str:
    """Render the fault-injection read-out (``python -m repro run``)."""
    lines = ["chaos    :"]
    for fault in report.faults:
        detail = f" ({fault.detail})" if fault.detail else ""
        lines.append(
            f"  t={fault.at:>6.1f}s {fault.fault:<18} {fault.status}{detail}"
        )
    for recovery in report.recoveries:
        took = recovery.recovery_time
        took_text = f"{took:.1f}s" if took is not None else "UNRECOVERED"
        lines.append(
            f"  {recovery.victim} -> {recovery.replacement or '?'} "
            f"recovered in {took_text}"
        )
    if report.mc_promoted_at is not None:
        lines.append(
            f"  standby MC promoted at t={report.mc_promoted_at:.1f}s"
        )
    lines.append(
        f"  packets lost {report.undeliverable_packets}, "
        f"link-dropped {report.link_dropped}, "
        f"client rejoins {report.client_rejoins}, "
        f"leaked hosts {len(report.leaked_hosts)}"
    )
    return "\n".join(lines)


class ChaosDriver:
    """Schedules fault injection for one scenario run."""

    def __init__(self, scenario, experiment) -> None:
        self._scenario = scenario
        self._experiment = experiment
        self._backend = experiment.name
        self._faults: tuple[FaultPhase, ...] = scenario.fault_phases()
        #: Crash faults need the Matrix deployment's recovery protocol
        #: (the sharded experiment is a Matrix experiment too).
        self._is_matrix = self._backend == "matrix"
        #: node name -> the chaos-owned fault stage installed on it.
        self._stages: dict[str, FaultInjectionStage] = {}
        #: Degradation windows currently open, in opening order; the
        #: most recent one governs the stages, and closing a window
        #: re-applies the previous one instead of healing everything.
        self._open_windows: list[LinkDegrade] = []
        self.records: list[FaultRecord] = []
        self._armed = False

    def crash_fault_types(self) -> list[str]:
        """Names of the scheduled fault types that kill a node outright.

        Crash faults mutate foreign lanes mid-window, so sharded runs
        refuse them; link degradation (and recovery) is barrier-safe
        and allowed everywhere.
        """
        return sorted(
            {
                type(fault).__name__
                for fault in self._faults
                if isinstance(fault, (ServerCrash, CoordinatorCrash))
            }
        )

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------
    def arm(self) -> None:
        """Harden the backend and schedule every fault."""
        if self._armed:
            raise RuntimeError("chaos driver already armed")
        self._armed = True
        sim = self._experiment.sim
        if self._is_matrix:
            deployment = self._experiment.deployment
            deployment.enable_crash_recovery()
            deployment.config.lifecycle_timeout = LIFECYCLE_TIMEOUT
            self._experiment.fleet.enable_rejoin()
            deployment.pair_created_hooks.append(self._on_pair_created)
        horizon = self._scenario.duration
        for fault in self._faults:
            record = FaultRecord(fault=type(fault).__name__, at=fault.at)
            self.records.append(record)
            crash = isinstance(fault, (ServerCrash, CoordinatorCrash))
            if crash and not self._is_matrix:
                record.status = "unsupported"
                record.detail = (
                    f"{self._backend} has no crash-recovery protocol"
                )
            elif fault.at >= horizon:
                # Outside the run: a caller that keeps the simulator
                # going past the horizon (fuzz and chaos settle
                # windows) must not meet faults the run never declared.
                record.status = "skipped"
                record.detail = f"at or after the run's horizon t={horizon:g}s"
            elif isinstance(fault, ServerCrash):
                sim.at(
                    fault.at,
                    lambda f=fault, r=record: self._inject_crash(f, r),
                )
            elif isinstance(fault, CoordinatorCrash):
                sim.at(fault.at, lambda r=record: self._inject_mc_crash(r))
            elif isinstance(fault, Recovery):
                sim.at(fault.at, lambda r=record: self._inject_recovery(r))
            elif isinstance(fault, LinkDegrade):
                sim.at(
                    fault.at,
                    lambda f=fault, r=record: self._inject_degrade(f, r),
                )
                if fault.duration != float("inf"):
                    end_record = FaultRecord(
                        fault="LinkDegrade.end", at=fault.at + fault.duration
                    )
                    self.records.append(end_record)
                    sim.at(
                        end_record.at,
                        lambda f=fault, r=end_record: self._close_window(
                            f, r
                        ),
                    )
            else:  # pragma: no cover - future fault kinds
                record.status = "unsupported"
                record.detail = "unknown fault phase"

    # ------------------------------------------------------------------
    # Injection
    # ------------------------------------------------------------------
    def _live_servers(self) -> list:
        return [
            server
            for server in self._experiment.deployment.matrix_servers.values()
            if not server.ctx.dying
        ]

    def _pick_victim(self, rule: str):
        live = self._live_servers()
        if len(live) < 2:
            return None
        if rule == "splitting":
            for server in live:
                if server.lifecycle.split is not None:
                    return server
            rule = "youngest"
        if rule == "busiest":
            return max(live, key=lambda s: (s.client_count, s.name))
        if rule == "oldest":
            return live[0]
        return live[-1]

    def _inject_crash(self, fault: ServerCrash, record: FaultRecord) -> None:
        victim = self._pick_victim(fault.victim)
        if victim is None:
            record.status = "skipped"
            record.detail = "fewer than two live servers"
            return
        self._experiment.deployment.crash_pair(victim.name)
        record.status = "injected"
        record.detail = victim.name

    def _inject_mc_crash(self, record: FaultRecord) -> None:
        deployment = self._experiment.deployment
        if not deployment.network.has_node(deployment.coordinator.name):
            record.status = "skipped"
            record.detail = "primary MC already down"
            return
        deployment.fail_coordinator()
        record.status = "injected"
        record.detail = (
            "standby armed"
            if deployment.standby_coordinator is not None
            else "no standby: repartitioning stays down"
        )

    def _window_settings(
        self, window: LinkDegrade
    ) -> tuple[tuple[str, ...] | None, float, float]:
        kinds = (
            window.kinds
            if window.kinds is not None
            else self._experiment.fault_kinds
        )
        return (
            tuple(kinds) if kinds else None,
            window.drop_rate,
            window.duplicate_rate,
        )

    def _apply_current_window(self, stage: FaultInjectionStage) -> None:
        """Tune *stage* to the most recent open window (or heal it)."""
        if self._open_windows:
            kinds, drop, duplicate = self._window_settings(
                self._open_windows[-1]
            )
            stage.set_kinds(kinds)
            stage.set_rates(drop, duplicate)
        else:
            stage.set_rates(0.0, 0.0)

    def _stage_on(self, node) -> FaultInjectionStage:
        stage = self._stages.get(node.name)
        if stage is None:
            # One named stream per node from the experiment's registry:
            # deterministic, and isolated from every other component's
            # draws (adding chaos never perturbs the workload RNG).
            stage = FaultInjectionStage(
                rng=self._experiment.rng.stream(f"chaos:{node.name}"),
            )
            node.use(stage)
            self._stages[node.name] = stage
        return stage

    def _on_pair_created(self, matrix_server) -> None:
        """Keep late spawns degraded while a window is open."""
        if self._open_windows:
            self._apply_current_window(self._stage_on(matrix_server))

    def _inject_degrade(self, fault: LinkDegrade, record: FaultRecord) -> None:
        nodes = self._experiment.fault_nodes()
        if not nodes:
            record.status = "skipped"
            record.detail = "backend exposes no fault nodes"
            return
        self._open_windows.append(fault)
        for node in nodes:
            self._apply_current_window(self._stage_on(node))
        record.status = "injected"
        record.detail = (
            f"{len(nodes)} nodes, drop={fault.drop_rate:g}, "
            f"dup={fault.duplicate_rate:g}"
        )

    def _close_window(self, fault: LinkDegrade, record: FaultRecord) -> None:
        """A finite window expired: fall back to the one below it."""
        if fault not in self._open_windows:
            record.status = "skipped"
            record.detail = "window already closed by a Recovery"
            return
        self._open_windows.remove(fault)
        for stage in self._stages.values():
            self._apply_current_window(stage)
        record.status = "injected"
        record.detail = (
            f"{len(self._stages)} nodes retuned, "
            f"{len(self._open_windows)} windows still open"
        )

    def _inject_recovery(self, record: FaultRecord) -> None:
        self._open_windows.clear()
        if not self._stages:
            record.status = "skipped"
            record.detail = "no active degradation"
            return
        for stage in self._stages.values():
            stage.set_rates(0.0, 0.0)
        record.status = "injected"
        record.detail = f"{len(self._stages)} nodes healed"

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------
    def report(self) -> ChaosReport:
        """Assemble the resilience read-out (call after the run settles)."""
        experiment = self._experiment
        report = ChaosReport(
            scenario=self._scenario.name,
            backend=self._backend,
            faults=list(self.records),
            undeliverable_packets=experiment.network.undeliverable_count,
            link_dropped=sum(s.dropped for s in self._stages.values()),
            link_duplicated=sum(s.duplicated for s in self._stages.values()),
            client_rejoins=sum(
                client.rejoins for client in experiment.fleet.clients
            ),
        )
        if self._is_matrix:
            deployment = experiment.deployment
            report.recoveries = list(deployment.crash_recoveries)
            report.leaked_hosts = deployment.unaccounted_hosts()
            standby = deployment.standby_coordinator
            if standby is not None:
                report.mc_promoted_at = standby.promoted_at
        return report
