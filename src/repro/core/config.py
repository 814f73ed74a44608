"""Configuration for a Matrix deployment.

All tunables referenced in the paper live here with the paper's values
as defaults: a server is *overloaded* at 300+ clients and *underloaded*
below 150 (Fig 2 caption), and splits/reclamations are damped by
"simple heuristics ... to prevent oscillations" (§3.2.3), expressed as
cool-downs and consecutive-report requirements.

The module constants below are the model values more than one module
reads; a value only one module reads is a constant of that module (see
docs/ARCHITECTURE.md, "Configuration").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.splitting import SplitToLeft
from repro.geometry import EuclideanMetric, Rect

#: The distance metric of every deployment: every shipped game is an
#: open-field game (see :mod:`repro.geometry.metrics`).
METRIC = EuclideanMetric()

# Wire sizes in bytes (bandwidth accounting), read by the Matrix
# servers, the coordinator and the game-server port alike.
#: Fixed overhead added to every spatially tagged game packet.
SPATIAL_TAG_BYTES = 24
#: Load report (game server -> Matrix) and load gossip (child -> parent).
LOAD_REPORT_BYTES = 32
#: Per-cell cost of an overlap-table update.
TABLE_CELL_BYTES = 40
#: Per-entry cost of the game-server directory piggybacked on tables.
DIRECTORY_ENTRY_BYTES = 24
#: Control messages (register, split grants, reclaim handshakes, queries).
CONTROL_BYTES = 64
#: Bytes per transferred map object during a split/reclaim.
STATE_OBJECT_BYTES = 200
#: Chunk size for bulk state transfer.
STATE_CHUNK_BYTES = 65536

#: Routing capacity (packets/second) of a Matrix server, and of the
#: static and DHT zone routers that stand in for it, so a comparison
#: with them isolates exactly the repartitioning.
ROUTER_SERVICE_RATE = 20000.0
#: Seconds between game-server load reports (§3.2.2: "periodically").
LOAD_REPORT_PERIOD = 1.0


@dataclass(slots=True)
class LoadPolicyConfig:
    """Thresholds and hysteresis for split/reclaim decisions."""

    #: Client count at which a game server counts as overloaded (paper: 300).
    overload_clients: int = 300
    #: Client count below which a game server counts as underloaded (paper: 150).
    underload_clients: int = 150
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
        if self.consecutive_overload_reports < 1:
            raise ValueError("need at least one overload report")
        if not 0.0 < self.reclaim_combined_factor <= 1.0:
            raise ValueError("reclaim_combined_factor must be in (0, 1]")


class PerfConfig:
    """Opt-in perf instrumentation (see :mod:`repro.perf`).

    Off by default and free when off: the kernel picks an entirely
    uninstrumented event loop, and every other hook site guards on a
    ``perf is not None`` check that is never taken.
    """

    __slots__ = ("enabled",)

    def __init__(self, enabled: bool = False) -> None:
        #: Master switch; when False no :class:`~repro.perf.PerfRegistry`
        #: is created at all.
        self.enabled = enabled

    def build_registry(self):
        """A :class:`~repro.perf.PerfRegistry`, or None when disabled."""
        if not self.enabled:
            return None
        from repro.perf import PerfRegistry  # local: keep config light

        return PerfRegistry()


class MatrixConfig:
    """Top-level configuration of a Matrix deployment."""

    __slots__ = (
        "world", "visibility_radius", "split_strategy", "policy",
        "batch_spatial_forwards", "lifecycle_timeout",
    )

    def __init__(
        self,
        world: Rect = Rect(0.0, 0.0, 1000.0, 1000.0),
        visibility_radius: float = 50.0,
        split_strategy: str = SplitToLeft.name,
        policy: LoadPolicyConfig | None = None,
        batch_spatial_forwards: bool = False,
        lifecycle_timeout: float | None = None,
    ) -> None:
        #: The full game world.
        self.world = world
        #: The game's radius of visibility (world units).
        self.visibility_radius = visibility_radius
        #: Split strategy name (see :mod:`repro.core.splitting`).
        self.split_strategy = split_strategy
        #: Load policy knobs (the paper's when not given).
        self.policy = LoadPolicyConfig() if policy is None else policy
        #: Aggregate same-destination ``matrix.forward`` packets per game
        #: tick.  Fleet-wide because both ends of a link must speak the
        #: batch format: the deployment installs the
        #: :class:`~repro.net.middleware.SpatialBatchingStage` on every
        #: Matrix server or on none.
        self.batch_spatial_forwards = batch_spatial_forwards
        #: Watchdog for in-flight splits/reclaims: an operation older
        #: than this is aborted and rolled back (host released, policy
        #: backed off).  ``None`` disables the watchdogs — the default,
        #: because a peer can only go silent mid-protocol when faults
        #: are injected; the chaos driver arms this when it arms a
        #: scenario.
        self.lifecycle_timeout = lifecycle_timeout
        if visibility_radius < 0:
            raise ValueError("visibility radius must be non-negative")
        if visibility_radius * 2 >= min(world.width, world.height):
            raise ValueError(
                "visibility radius too large relative to the world; "
                "localized consistency degenerates to global consistency"
            )
