"""Baselines: the rival architectures Matrix is compared against.

Each rival lives in its own module as *both* a closed-form cost model
(what the ablation benches plot) and a real event-driven system built
on the shared :class:`~repro.baselines.backend.ArchitectureBackend`
scaffolding (what the unified scenario runner executes).  See
``docs/ARCHITECTURE.md`` ("Architecture backends") for the
ownership/routing/consistency answers of each.
"""

from repro.baselines.backend import (
    ArchitectureBackend,
    BackendInfo,
    BackendResult,
)
from repro.baselines.dht import (
    DhtExperiment,
    DhtZoneRouter,
    LookupCost,
    chord_expected_hops,
    dht_lookup_cost,
    sample_chord_hops,
    sample_dht_lookup,
)
from repro.baselines.mirrored import (
    MirrorGate,
    MirroredCost,
    MirroredExperiment,
    max_clients_mirrored,
    mirrored_cost,
)
from repro.baselines.p2p import (
    DEFAULT_UPLINK_BYTES_PER_S,
    P2PCost,
    P2PExperiment,
    PlayerUplink,
    RegionTracker,
    max_p2p_group,
    mean_packet_bytes,
    p2p_group_cost,
)
from repro.baselines.static import (
    StaticDeployment,
    StaticExperiment,
    StaticZoneRouter,
)

__all__ = [
    "ArchitectureBackend",
    "BackendInfo",
    "BackendResult",
    "DEFAULT_UPLINK_BYTES_PER_S",
    "DhtExperiment",
    "DhtZoneRouter",
    "LookupCost",
    "MirrorGate",
    "MirroredCost",
    "MirroredExperiment",
    "P2PCost",
    "P2PExperiment",
    "PlayerUplink",
    "RegionTracker",
    "StaticDeployment",
    "StaticExperiment",
    "StaticZoneRouter",
    "chord_expected_hops",
    "dht_lookup_cost",
    "max_clients_mirrored",
    "max_p2p_group",
    "mean_packet_bytes",
    "mirrored_cost",
    "overlap_table_cost",
    "p2p_group_cost",
    "sample_chord_hops",
    "sample_dht_lookup",
]
