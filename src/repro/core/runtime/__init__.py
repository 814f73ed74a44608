"""The Matrix server runtime: cohesive components over a shared context.

:class:`~repro.core.runtime.server.MatrixServer` is a thin facade; the
mechanics live in the component modules (``router``, ``lifecycle``,
``transfer``, ``gossip``, ``queries``), which communicate only through
the shared :class:`~repro.core.runtime.context.ServerContext`.  See
``docs/ARCHITECTURE.md`` for the layer map.
"""

from repro.core.runtime.context import ChildRecord, ServerContext, ServerStats
from repro.core.runtime.fabric import Fabric
from repro.core.runtime.gossip import LoadMonitor
from repro.core.runtime.lifecycle import Lifecycle
from repro.core.runtime.queries import QueryRelay
from repro.core.runtime.router import SpatialRouter
from repro.core.runtime.server import MatrixServer
from repro.core.runtime.transfer import StateTransfer

__all__ = [
    "ChildRecord",
    "Fabric",
    "Lifecycle",
    "LoadMonitor",
    "MatrixServer",
    "QueryRelay",
    "ServerContext",
    "ServerStats",
    "SpatialRouter",
    "StateTransfer",
]
