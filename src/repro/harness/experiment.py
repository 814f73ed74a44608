"""The Matrix experiment: one Matrix deployment behind the shared scaffold.

Every figure/table reproduction builds on :class:`MatrixExperiment`,
the Matrix :class:`~repro.baselines.backend.ArchitectureBackend`: the
scaffold wires simulator, network, client fleet and the sampler of
per-server client counts and receive-queue lengths (the two Fig 2
panels); this module supplies the deployment behind the fleet's
locator and the split/reclaim read-out of :class:`ExperimentResult`.
"""

from __future__ import annotations

from repro.analysis.timeseries import TimeSeries
from repro.baselines.backend import ArchitectureBackend, BackendResult
from repro.core.config import LoadPolicyConfig, MatrixConfig, PerfConfig
from repro.core.deployment import MatrixDeployment, ServerEvent
from repro.core.splitting import SplitToLeft
from repro.games.base import GameServer
from repro.games.profile import GameProfile
from repro.geometry import Vec2


class ExperimentResult(BackendResult):
    """A Matrix run: the shared read-out plus the split/reclaim story.

    ``servers_used`` is the peak number of live servers; Matrix's
    receive queues are unbounded, so ``dropped_packets`` is 0.  Built
    by keyword: the :class:`BackendResult` fields, then its own.
    """

    __slots__ = (
        "server_count", "total_clients", "server_events", "splits_completed",
        "reclaims_completed", "failed_splits",
    )

    def __init__(
        self, *, server_count: TimeSeries, total_clients: TimeSeries,
        server_events: list[ServerEvent], splits_completed: int,
        reclaims_completed: int, failed_splits: int, **common,
    ) -> None:
        super().__init__(**common)
        self.server_count = server_count
        self.total_clients = total_clients
        self.server_events = server_events
        self.splits_completed = splits_completed
        self.reclaims_completed = reclaims_completed
        self.failed_splits = failed_splits

    def final_server_count(self) -> float:
        """Live servers at the end of the run."""
        return self.server_count.last()

    def spawn_times(self) -> list[float]:
        """Times at which servers were spawned (after bootstrap)."""
        return [
            event.time
            for event in self.server_events
            if event.kind == "spawn" and event.time > 0.0
        ]

    def reclaim_times(self) -> list[float]:
        """Times at which servers were decommissioned."""
        return [
            event.time
            for event in self.server_events
            if event.kind == "decommission"
        ]


class MatrixExperiment(ArchitectureBackend):
    """A ready-to-run Matrix deployment with workload hooks.

    The one place a Matrix run's :class:`MatrixConfig` is built: world
    and radius come from the game profile, the rest from the
    keyword arguments callers vary (*split_strategy* by the
    split-strategy ablation, *batch_spatial_forwards* by the batching
    micro-bench).
    """

    name = "matrix"

    def __init__(
        self,
        profile: GameProfile,
        policy: LoadPolicyConfig | None = None,
        seed: int = 0,
        pool_capacity: int = 16,
        grid: tuple[int, int] | None = None,
        perf: PerfConfig | None = None,
        replicated_mc: bool = False,
        split_strategy: str = SplitToLeft.name,
        batch_spatial_forwards: bool = False,
    ) -> None:
        self.config = MatrixConfig(
            world=profile.world,
            visibility_radius=profile.visibility_radius,
            split_strategy=split_strategy,
            policy=policy or LoadPolicyConfig(),
            batch_spatial_forwards=batch_spatial_forwards,
        )
        self._deployment_options = dict(
            pool_capacity=pool_capacity, replicated_mc=replicated_mc
        )
        self._grid = grid
        self._peak_servers = 1
        super().__init__(profile, seed=seed, perf=perf)
        # Before the workload is installed (see start_sampling).
        self.start_sampling()

    def _build_deployment(self, **kwargs) -> MatrixDeployment:
        """Deployment factory (overridden by the sharded experiment)."""
        return MatrixDeployment(
            self.sim,
            self.network,
            self.config,
            game_server_factory=self._make_game_server,
            **kwargs,
        )

    def _make_game_server(self, name: str, partition) -> GameServer:
        return GameServer(name, self.profile, partition)

    # ------------------------------------------------------------------
    # ArchitectureBackend
    # ------------------------------------------------------------------
    def build(self) -> None:
        self.deployment = self._build_deployment(**self._deployment_options)
        if self._grid is None:
            self.deployment.bootstrap()
        else:
            self.deployment.bootstrap_grid(*self._grid)

    def locate(self, point: Vec2) -> str:
        """Ownership: whichever partition currently covers *point*."""
        return self.deployment.locate_game_server(point)

    @property
    def game_servers(self) -> dict[str, GameServer]:
        return self.deployment.game_servers

    def fault_nodes(self) -> list:
        """Overlap forwards leave from the Matrix servers (late spawns
        are covered by the deployment's pair-created hooks)."""
        return list(self.deployment.matrix_servers.values())

    def servers_used(self) -> int:
        """The peak number of live servers (sampled)."""
        return self._peak_servers

    def probes(self) -> dict:
        live = len(self.deployment.live_server_names())
        self._peak_servers = max(self._peak_servers, live)
        return {
            "servers": lambda: live,
            "clients": lambda: self.deployment.total_clients(),
            **super().probes(),
        }

    def _collect(self, until: float) -> ExperimentResult:
        # Every server ever created, retired ones included.
        stats = self.deployment.server_stats
        series = self._sampler.series
        return ExperimentResult(
            **self._common_fields(until),
            server_count=series.get("servers", TimeSeries()),
            total_clients=series.get("clients", TimeSeries()),
            # Stable time-sort: a no-op for the single-kernel run (the
            # list is appended in execution order, which is time order),
            # but parallel lanes append interleaved — sorting restores a
            # shard-count-independent canonical order.
            server_events=sorted(
                self.deployment.events, key=lambda event: event.time
            ),
            splits_completed=sum(s.splits_completed for s in stats),
            reclaims_completed=sum(s.reclaims_completed for s in stats),
            failed_splits=sum(s.failed_splits for s in stats),
        )
