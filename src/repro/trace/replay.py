"""Trace replay: re-send a recorded client stream and check it.

Replaying re-sends every recorded client-visible message through a
fresh simulated network of stub endpoints, at its recorded simulation
time, with its recorded ``(src, dst, kind, size)``.  The replayed run's
:class:`~repro.net.stats.TrafficStats` therefore reproduces the
recorded stream exactly — ``result.traffic.canonical_digest()`` equals
the digest of the trace events — which is what lets two builds be
regression-diffed on byte-identical workloads.

Replay is a trace tool, not an architecture: it serves no workload, so
:func:`replay_trace` wires and runs its network directly rather than
through ``run_scenario``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.net.message import Message
from repro.net.network import Network
from repro.net.node import Node
from repro.net.stats import TrafficStats
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.trace.format import (
    TraceCompatibilityError,
    TraceEvent,
    read_trace,
)

#: Slack appended to the replay horizon so in-flight deliveries drain.
_DRAIN = 1.0


class ReplayEndpoint(Node):
    """A stub host: accepts any delivery, originates nothing itself."""


@dataclass
class ReplayResult:
    """What one replay produced."""

    scenario: str
    traffic: TrafficStats
    events_processed: int
    replayed_messages: int
    endpoints: int
    recorded_digest: str
    recorded_stats_digest: str

    @property
    def matches_recording(self) -> bool:
        """True when the replayed traffic equals the recorded stream.

        Stub endpoints originate nothing of their own, so the replayed
        network's stats must fold to exactly the trace's events; a
        mismatch means the fabric itself drifted between builds.
        """
        digest = self.traffic.canonical_digest()
        return digest == self.recorded_stats_digest


def stats_of_events(events: "list[TraceEvent]") -> TrafficStats:
    """Fold trace *events* into a fresh :class:`TrafficStats`.

    This is the comparison object of the round-trip identity: the
    recorded stream, accounted exactly as the live network would have
    accounted it.
    """
    stats = TrafficStats()
    for _t, src, dst, kind, size in events:
        stats.record(
            Message(src=src, dst=dst, kind=kind, payload=None,
                    size_bytes=size)
        )
    return stats


def replay_trace(path: str | Path, backend: str | None = None) -> ReplayResult:
    """Replay the trace at *path* through stub endpoints.

    *backend* is the compatibility assertion: a trace records which
    backend produced it, and replaying a stream recorded on one
    architecture as if another had served it would mis-attribute every
    message — so a mismatch is rejected, not coerced.
    """
    header, events = read_trace(path)
    if backend is not None and backend != header.backend:
        raise TraceCompatibilityError(
            f"{path} was recorded on backend '{header.backend}' and "
            f"cannot be replayed as '{backend}': the client-visible "
            f"stream embeds that backend's topology. Re-record with "
            f"--backend {backend} to compare against it."
        )
    sim = Simulator()
    rng = RngRegistry(seed=header.seed)
    network = Network(sim, rng=rng.stream("network"))
    names = sorted(
        {event[1] for event in events} | {event[2] for event in events}
    )
    endpoints = {
        name: network.add_node(ReplayEndpoint(name)) for name in names
    }

    def send(event: TraceEvent) -> None:
        _, src, dst, kind, size = event
        endpoints[src].send(dst, kind, None, size_bytes=size)

    for event in events:
        sim.at(event[0], send, event)
    horizon = header.duration
    if events:
        horizon = max(horizon, events[-1][0])
    sim.run(until=horizon + _DRAIN)
    return ReplayResult(
        scenario=header.scenario,
        traffic=network.stats,
        events_processed=sim.events_processed,
        replayed_messages=len(events),
        endpoints=len(endpoints),
        recorded_digest=header.digest,
        recorded_stats_digest=stats_of_events(events).canonical_digest(),
    )
