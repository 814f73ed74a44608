"""Configuration for a Matrix deployment.

All tunables referenced in the paper live here with the paper's values
as defaults: a server is *overloaded* at 300+ clients and *underloaded*
below 150 (Fig 2 caption), game servers report load periodically
(§3.2.2), and splits/reclamations are damped by "simple heuristics ...
to prevent oscillations" (§3.2.3), expressed as cool-downs and
consecutive-report requirements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geometry import Rect


@dataclass(slots=True)
class LoadPolicyConfig:
    """Thresholds and hysteresis for split/reclaim decisions."""

    #: Client count at which a game server counts as overloaded (paper: 300).
    overload_clients: int = 300
    #: Client count below which a game server counts as underloaded (paper: 150).
    underload_clients: int = 150
    #: Seconds between game-server load reports.
    report_interval: float = 1.0
    #: Overload must persist for this many consecutive reports before a split.
    consecutive_overload_reports: int = 2
    #: Underload (parent *and* child, merged fit included) must persist
    #: for this many consecutive reports before a reclaim; filters the
    #: transient dips a milling hotspot produces.
    consecutive_underload_reports: int = 5
    #: Minimum seconds between two splits by the same server.
    split_cooldown: float = 4.0
    #: Minimum seconds between two reclamations by the same server.
    reclaim_cooldown: float = 8.0
    #: A child must have lived this long before it can be reclaimed.
    min_child_lifetime: float = 10.0
    #: Reclaim only if (parent + child) clients <= factor * overload_clients.
    #: 0.6 leaves the merged server at most at 60% of the overload
    #: threshold, so a reclaim can never immediately trigger a re-split.
    reclaim_combined_factor: float = 0.6
    #: Backoff after a *failed* attempt (pool-exhausted split, nacked
    #: reclaim, chaos abort).  Failures restore the success cooldown
    #: they would otherwise have consumed and wait this long instead.
    #: ``None`` reuses the corresponding cooldown, which preserves the
    #: historical retry timing while still fixing the miscounted stats.
    failed_attempt_backoff: float | None = None

    def effective_failed_split_backoff(self) -> float:
        """Seconds a failed split suppresses the next split attempt."""
        if self.failed_attempt_backoff is not None:
            return self.failed_attempt_backoff
        return self.split_cooldown

    def effective_failed_reclaim_backoff(self) -> float:
        """Seconds a failed reclaim suppresses the next reclaim attempt."""
        if self.failed_attempt_backoff is not None:
            return self.failed_attempt_backoff
        return self.reclaim_cooldown

    def scaled(
        self,
        factor: float,
        floor_overload: int = 4,
        floor_underload: int = 2,
    ) -> "LoadPolicyConfig":
        """Thresholds scaled for a population scaled by *factor*.

        Scaling population and thresholds by the same factor preserves
        the split/reclaim dynamics while cutting the event count by
        ~1/factor; the floors keep tiny test populations from
        degenerating to a 1-client threshold.
        """
        if factor <= 0:
            raise ValueError(f"scale factor must be positive: {factor}")
        from dataclasses import replace

        return replace(
            self,
            overload_clients=max(
                floor_overload, int(self.overload_clients * factor)
            ),
            underload_clients=max(
                floor_underload, int(self.underload_clients * factor)
            ),
        )

    def __post_init__(self) -> None:
        if self.underload_clients >= self.overload_clients:
            raise ValueError(
                "underload threshold must be below overload threshold"
            )
        if self.report_interval <= 0:
            raise ValueError("report_interval must be positive")
        if self.consecutive_overload_reports < 1:
            raise ValueError("need at least one overload report")
        if not 0.0 < self.reclaim_combined_factor <= 1.0:
            raise ValueError("reclaim_combined_factor must be in (0, 1]")
        if (
            self.failed_attempt_backoff is not None
            and self.failed_attempt_backoff < 0
        ):
            raise ValueError("failed_attempt_backoff must be non-negative")


@dataclass(slots=True)
class WireConfig:
    """Byte sizes of protocol messages (for bandwidth accounting)."""

    #: Fixed overhead added to every spatially tagged game packet.
    spatial_tag_bytes: int = 24
    #: Load report payload.
    load_report_bytes: int = 32
    #: Per-cell cost of an overlap-table update.
    table_cell_bytes: int = 40
    #: Per-entry cost of the game-server directory piggybacked on tables.
    directory_entry_bytes: int = 24
    #: Control messages (register, split grants, reclaim handshakes).
    control_bytes: int = 64
    #: Bytes per transferred map object during a split/reclaim.
    state_object_bytes: int = 200
    #: Chunk size for bulk state transfer.
    state_chunk_bytes: int = 65536


@dataclass(slots=True)
class MiddlewareConfig:
    """The opt-in pipeline stage the deployment installs fleet-wide.

    Aggregation of same-destination spatial forwards within a tick has
    to be on every Matrix server or none — both ends of a link must
    speak the batch format — so it is configured here.  The other
    shipped stages are installed by whoever needs them: fault injection
    by a chaos ``LinkDegrade``, per-kind metrics by the code measuring.
    """

    #: Aggregate same-destination ``matrix.forward`` packets per window.
    batch_spatial_forwards: bool = False
    #: Batching flush window in seconds (one game tick by default).
    batch_window: float = 0.05
    #: Wire overhead of one aggregated batch message.
    batch_header_bytes: int = 16

    def __post_init__(self) -> None:
        if self.batch_window <= 0:
            raise ValueError("batch_window must be positive")
        if self.batch_header_bytes < 0:
            raise ValueError("batch_header_bytes must be non-negative")


@dataclass(slots=True)
class PerfConfig:
    """Opt-in perf instrumentation (see :mod:`repro.perf`).

    Off by default and free when off: the kernel picks an entirely
    uninstrumented event loop, and every other hook site guards on a
    ``perf is not None`` check that is never taken.
    """

    #: Master switch; when False no :class:`~repro.perf.PerfRegistry`
    #: is created at all.
    enabled: bool = False
    #: Sample one kernel step's wall latency out of every N steps.
    #: 1 = time every event (accurate, intrusive); the default keeps
    #: the instrumented loop within a few percent of the plain one.
    step_sample_every: int = 64
    #: Cap on raw duration samples kept per timer (for percentiles).
    timer_max_samples: int = 65536

    def __post_init__(self) -> None:
        if self.step_sample_every < 1:
            raise ValueError("step_sample_every must be >= 1")
        if self.timer_max_samples < 0:
            raise ValueError("timer_max_samples must be non-negative")

    def build_registry(self):
        """A :class:`~repro.perf.PerfRegistry`, or None when disabled."""
        if not self.enabled:
            return None
        from repro.perf import PerfRegistry  # local: keep config light

        return PerfRegistry(
            step_sample_every=self.step_sample_every,
            timer_max_samples=self.timer_max_samples,
        )


@dataclass(slots=True)
class MatrixConfig:
    """Top-level configuration of a Matrix deployment."""

    #: The full game world.
    world: Rect = field(default_factory=lambda: Rect(0.0, 0.0, 1000.0, 1000.0))
    #: The game's radius of visibility (world units).
    visibility_radius: float = 50.0
    #: Exception radii (§3.1): "The Matrix API does allow game servers
    #: to specify different visibility radii for exceptions, and
    #: internally creates distinct sets of overlap regions, each for a
    #: different R."  One extra overlap table is maintained per entry.
    extra_radii: tuple = ()
    #: Distance metric name (see :mod:`repro.geometry.metrics`).
    metric_name: str = "euclidean"
    #: Split strategy name (see :mod:`repro.core.splitting`).
    split_strategy: str = "split-to-left"
    #: Load policy knobs.
    policy: LoadPolicyConfig = field(default_factory=LoadPolicyConfig)
    #: Wire-format sizes.
    wire: WireConfig = field(default_factory=WireConfig)
    #: Opt-in fleet-wide batching of spatial forwards.
    middleware: MiddlewareConfig = field(default_factory=MiddlewareConfig)
    #: Opt-in perf instrumentation (counters/timers/samplers).
    perf: PerfConfig = field(default_factory=PerfConfig)
    #: Matrix-server routing capacity (packets/second serviced).
    matrix_service_rate: float = 20000.0
    #: Seconds to provision a server host from the pool.
    pool_acquire_delay: float = 1.0
    #: Fixed startup time of a freshly spawned game+Matrix server pair.
    server_spawn_delay: float = 1.5
    #: Watchdog for in-flight splits/reclaims: an operation older than
    #: this is aborted and rolled back (host released, policy backed
    #: off).  ``None`` disables the watchdogs — the default, because a
    #: peer can only go silent mid-protocol when faults are injected;
    #: the chaos driver arms this when it arms a scenario.
    lifecycle_timeout: float | None = None
    #: Density of transferable map objects (objects per world-area unit).
    map_object_density: float = 0.005

    def __post_init__(self) -> None:
        if self.visibility_radius < 0:
            raise ValueError("visibility radius must be non-negative")
        for radius in (self.visibility_radius, *self.extra_radii):
            if radius * 2 >= min(self.world.width, self.world.height):
                raise ValueError(
                    "visibility radius too large relative to the world; "
                    "localized consistency degenerates to global consistency"
                )
        if any(radius <= 0 for radius in self.extra_radii):
            raise ValueError("extra radii must be positive")
        if self.matrix_service_rate <= 0:
            raise ValueError("matrix_service_rate must be positive")
