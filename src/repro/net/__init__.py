"""Simulated network substrate: links, latency, queues, traffic stats."""

from repro.net.dispatch import (
    DispatchCollisionError,
    build_dispatch_table,
    handles,
)
from repro.net.latency import (
    ConstantLatency,
    LatencyModel,
    NormalLatency,
    UniformLatency,
    lan,
    loopback,
    wan,
)
from repro.net.message import Message
from repro.net.middleware import (
    BATCH_KIND,
    FaultInjectionStage,
    KindMetricsStage,
    MiddlewareStage,
    SpatialBatchingStage,
)
from repro.net.network import (
    LinkProfile,
    Network,
    lan_profile,
    loopback_profile,
    wan_profile,
)
from repro.net.node import Node
from repro.net.queue import ReceiveQueue
from repro.net.stats import Counter, TrafficStats

__all__ = [
    "BATCH_KIND",
    "ConstantLatency",
    "Counter",
    "DispatchCollisionError",
    "FaultInjectionStage",
    "KindMetricsStage",
    "LatencyModel",
    "LinkProfile",
    "Message",
    "MiddlewareStage",
    "Network",
    "Node",
    "NormalLatency",
    "ReceiveQueue",
    "SpatialBatchingStage",
    "TrafficStats",
    "UniformLatency",
    "build_dispatch_table",
    "handles",
    "lan",
    "lan_profile",
    "loopback",
    "loopback_profile",
    "wan",
    "wan_profile",
]
