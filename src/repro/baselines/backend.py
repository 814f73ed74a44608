"""The unified ArchitectureBackend layer (§5's rivals, made runnable).

The paper's comparison (§5) pits Matrix against three architectural
rivals: mirrored fully-consistent servers, peer-to-peer region groups,
and DHT-style lookup.  Each rival answers the same three questions
differently —

* **ownership** — which node is responsible for a client / a point of
  the map;
* **routing** — how a spatially-tagged packet reaches every node that
  must stay consistent;
* **consistency traffic** — what extra messages that answer costs.

This module gives those answers a shared execution shape.  An
:class:`ArchitectureBackend` owns the simulator, the network, the RNG
registry, the client fleet and the sampler, and defers only topology
(:meth:`~ArchitectureBackend.build`) and ownership
(:meth:`~ArchitectureBackend.locate`) to each subclass — Matrix itself
(:class:`~repro.harness.experiment.MatrixExperiment`) is one of them.
The workload side is untouched: every backend serves the same
:class:`~repro.workload.fleet.ClientFleet` through the same ``Locator``
contract, which is what keeps cross-architecture comparisons
apples-to-apples.

Backends register with the unified runner via
``@scenario_backend(info)`` (see :mod:`repro.harness.runner`),
so any declarative scenario from the catalog runs on any architecture.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable

from repro.analysis.timeseries import Sampler, TimeSeries
from repro.core.config import PerfConfig
from repro.games.profile import GameProfile
from repro.geometry import Vec2
from repro.net.network import Network
from repro.net.stats import TrafficStats
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.workload.fleet import ClientFleet

#: Seconds between two samples of the per-server client counts and
#: queue lengths (the Fig 2 panels).
SAMPLE_PERIOD = 1.0


@dataclass(frozen=True, slots=True)
class BackendInfo:
    """The three architectural answers, as displayable metadata.

    Rendered by ``python -m repro list-backends`` and the docs table;
    it is the runner registration (``@scenario_backend(info)``), which
    files the builder under ``name``.
    """

    name: str
    ownership: str
    routing: str
    consistency: str
    summary: str = ""


@dataclass
class BackendResult:
    """What one run produced — the fields every architecture reports.

    Built in one place (:meth:`ArchitectureBackend.run`); Matrix's
    :class:`~repro.harness.experiment.ExperimentResult` extends it with
    the split/reclaim read-out.  ``servers_used`` is the number of
    server-class nodes the architecture needed (for Matrix, the peak
    live count); ``consistency`` holds backend-specific measurements
    (replication counts, upload rates, lookup hops — keys documented
    per backend, empty where there is nothing to measure).
    """

    profile_name: str
    duration: float
    clients_per_server: dict[str, TimeSeries]
    queue_per_server: dict[str, TimeSeries]
    dropped_packets: int
    action_latencies: list[float]
    switch_latencies: list[float]
    backend: str
    servers_used: int
    events_processed: int
    traffic: TrafficStats
    consistency: dict[str, float]
    #: :meth:`repro.perf.PerfRegistry.snapshot`, or None when off.
    perf_snapshot: dict | None

    def max_queue(self) -> float:
        """Largest receive-queue sample across the backend's servers."""
        peaks = [s.max() for s in self.queue_per_server.values() if len(s)]
        return max(peaks) if peaks else 0.0


class ArchitectureBackend(ABC):
    """Shared scaffolding for one architecture's experiment.

    Construction wires, in a fixed order that is part of the
    determinism contract (named RNG streams are created in the same
    sequence every run): RNG registry, simulator, network, the
    subclass's topology (:meth:`build`), then the client fleet homed by
    :meth:`locate`.  :meth:`run` samples the per-server client-count
    and queue-length series and assembles the result.
    """

    #: Registered backend name (matches the runner registration).
    name: str = ""

    #: Message kinds that carry this architecture's consistency traffic
    #: — what a chaos ``LinkDegrade`` faults when the scenario names no
    #: kinds itself.  Subclasses override to their own wire protocol.
    fault_kinds: tuple[str, ...] = ("matrix.forward",)

    def __init__(
        self,
        profile: GameProfile,
        seed: int = 0,
        perf: PerfConfig | None = None,
    ) -> None:
        self.profile = profile
        self.rng = RngRegistry(seed=seed)
        #: PerfRegistry when ``perf.enabled``, else None — shared by the
        #: kernel, the network and any backend-specific counters.
        self.perf = perf.build_registry() if perf is not None else None
        self.sim = self._build_sim()
        self.network = self._build_network()
        self._sampler: Sampler | None = None
        #: The armed :class:`~repro.chaos.ChaosDriver`, or None.  Set
        #: by the unified runner for scenarios that declare faults.
        self.chaos = None
        self.build()
        self.fleet = ClientFleet(
            self.sim,
            self.network,
            profile,
            locator=self.locate,
            rng=self.rng.stream("fleet"),
        )

    # ------------------------------------------------------------------
    # Substrate factories (overridden by the sharded experiment)
    # ------------------------------------------------------------------
    def _build_sim(self) -> Simulator:
        return Simulator(perf=self.perf)

    def _build_network(self) -> Network:
        return Network(
            self.sim, rng=self.rng.stream("network"), perf=self.perf
        )

    # ------------------------------------------------------------------
    # The architecture: what each backend must answer
    # ------------------------------------------------------------------
    @abstractmethod
    def build(self) -> None:
        """Stand up the backend's topology on :attr:`network`."""

    @abstractmethod
    def locate(self, point: Vec2) -> str:
        """Ownership: the node name a client at *point* connects to."""

    @abstractmethod
    def fault_nodes(self) -> list:
        """Server-class nodes a chaos ``LinkDegrade`` installs stages on:
        the tier the consistency traffic leaves from."""

    # ------------------------------------------------------------------
    # Introspection hooks (defaults for game-server topologies, which
    # expose ``game_servers``: name -> handle with ``client_count`` and
    # ``inbox``)
    # ------------------------------------------------------------------
    def probes(self) -> dict[str, Callable[[], float]]:
        """Per-server client-count and queue-length probes."""
        out: dict[str, Callable[[], float]] = {}
        for gs_name, handle in self.game_servers.items():
            out[f"clients/{gs_name}"] = lambda h=handle: h.client_count
            out[f"queue/{gs_name}"] = lambda h=handle: h.inbox.length
        return out

    def dropped_packets(self) -> int:
        """Packets dropped by saturated receive queues."""
        return sum(
            handle.inbox.dropped_count
            for handle in self.game_servers.values()
        )

    def servers_used(self) -> int:
        """Server-class nodes this architecture deployed."""
        return len(self.game_servers)

    def consistency_metrics(self) -> dict[str, float]:
        """Backend-specific consistency measurements (after a run)."""
        return {}

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def start_sampling(self) -> None:
        """Start the periodic sampler (idempotent).

        ``Sampler.__init__`` schedules its first tick, and scheduling
        order breaks same-instant ties, so *when* this is first called
        is part of determinism: :meth:`run` calls it — after every
        workload event is scheduled — which is where the baselines
        start; Matrix calls it at the end of its constructor, before.
        """
        if self._sampler is None:
            self._sampler = Sampler(
                self.sim, SAMPLE_PERIOD, self.probes
            )

    def run(self, until: float) -> BackendResult:
        """Run the installed workload and collect the result."""
        self.start_sampling()
        self.sim.run(until=until)
        return self._collect(until)

    def _collect(self, until: float) -> BackendResult:
        return BackendResult(**self._common_fields(until))

    def _common_fields(self, until: float) -> dict:
        """The :class:`BackendResult` fields, by keyword."""
        series = self._sampler.series
        return dict(
            profile_name=self.profile.name,
            duration=until,
            clients_per_server={
                key.removeprefix("clients/"): one
                for key, one in series.items()
                if key.startswith("clients/")
            },
            queue_per_server={
                key.removeprefix("queue/"): one
                for key, one in series.items()
                if key.startswith("queue/")
            },
            dropped_packets=self.dropped_packets(),
            action_latencies=self.fleet.all_action_latencies(),
            switch_latencies=self.fleet.all_switch_latencies(),
            backend=self.name,
            servers_used=self.servers_used(),
            events_processed=self.sim.events_processed,
            traffic=self.network.stats,
            consistency=self.consistency_metrics(),
            perf_snapshot=(
                self.perf.snapshot() if self.perf is not None else None
            ),
        )
