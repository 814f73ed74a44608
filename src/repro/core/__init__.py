"""Matrix middleware core: coordinator, servers, policy, deployment."""

from repro.core.api import GameServerHandle, MatrixPort
from repro.core.config import LoadPolicyConfig, MatrixConfig, PerfConfig
from repro.core.coordinator import MatrixCoordinator, StandbyCoordinator
from repro.core.deployment import GameServerFactory, MatrixDeployment, ServerEvent
from repro.core.messages import (
    ConsistencyQuery,
    ConsistencyReply,
    LoadGossip,
    LoadReport,
    OverlapTableUpdate,
    ReclaimAck,
    ReclaimNotice,
    ReclaimRequest,
    RegisterServer,
    SetRange,
    SpatialPacket,
    SplitGrant,
    SplitNotice,
    StateBegin,
    StateChunk,
    StateDone,
    UnregisterServer,
)
from repro.core.policy import ChildLoad, Decision, LoadPolicy
from repro.core.pool import ServerPool
from repro.core.runtime import (
    ChildRecord,
    Fabric,
    MatrixServer,
    ServerContext,
    ServerStats,
)
from repro.core.splitting import (
    LoadWeighted,
    LongestAxis,
    SplitStrategy,
    SplitToLeft,
    strategy_by_name,
)

__all__ = [
    "ChildLoad",
    "ChildRecord",
    "ConsistencyQuery",
    "ConsistencyReply",
    "Decision",
    "Fabric",
    "GameServerFactory",
    "GameServerHandle",
    "LoadGossip",
    "LoadPolicy",
    "LoadPolicyConfig",
    "LoadReport",
    "LoadWeighted",
    "LongestAxis",
    "MatrixConfig",
    "MatrixCoordinator",
    "MatrixDeployment",
    "MatrixPort",
    "MatrixServer",
    "OverlapTableUpdate",
    "PerfConfig",
    "ReclaimAck",
    "ReclaimNotice",
    "ReclaimRequest",
    "RegisterServer",
    "ServerContext",
    "ServerEvent",
    "ServerPool",
    "ServerStats",
    "SetRange",
    "SpatialPacket",
    "SplitGrant",
    "SplitNotice",
    "SplitStrategy",
    "SplitToLeft",
    "StandbyCoordinator",
    "StateBegin",
    "StateChunk",
    "StateDone",
    "UnregisterServer",
]
