"""Trace replay: a recorded client stream as a first-class backend.

Replaying re-sends every recorded client-visible message through a
fresh simulated network of stub endpoints, at its recorded simulation
time, with its recorded ``(src, dst, kind, size)``.  The replayed run's
:class:`~repro.net.stats.TrafficStats` therefore reproduces the
recorded stream exactly — ``result.traffic.canonical_digest()`` equals
the digest of the trace events — which is what lets two builds be
regression-diffed on byte-identical workloads.

The backend registers as ``"replay"`` with the unified runner (the
import at the bottom of :mod:`repro.harness.runner` triggers it), so a
trace runs through the same ``run_scenario`` front door as every
simulated architecture.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.baselines.backend import BackendInfo
from repro.harness.runner import scenario_backend
from repro.net.message import Message
from repro.net.network import Network
from repro.net.node import Node
from repro.net.stats import TrafficStats
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.trace.format import (
    TraceCompatibilityError,
    TraceEvent,
    TraceHeader,
    read_trace,
)
from repro.workload.scenarios.spec import Scenario

#: Slack appended to the replay horizon so in-flight deliveries drain.
_DRAIN = 1.0


class ReplayEndpoint(Node):
    """A stub host: accepts any delivery, originates nothing itself."""


@dataclass
class ReplayResult:
    """What one replay produced (shaped like the sim results the
    harness reads: ``traffic``, ``events_processed``, latency lists)."""

    profile_name: str
    duration: float
    traffic: TrafficStats
    events_processed: int
    replayed_messages: int
    endpoints: int
    recorded_digest: str
    recorded_stats_digest: str
    action_latencies: list[float] = field(default_factory=list)
    dropped_packets: int = 0

    def max_queue(self) -> float:
        return 0.0

    @property
    def servers_used(self) -> int:
        return self.endpoints

    def digest(self) -> str:
        """Canonical digest of the replayed traffic."""
        return self.traffic.canonical_digest()

    @property
    def matches_recording(self) -> bool:
        """True when the replayed traffic equals the recorded stream.

        Stub endpoints originate nothing of their own, so the replayed
        network's stats must fold to exactly the trace's events; a
        mismatch means the fabric itself drifted between builds.
        """
        return self.digest() == self.recorded_stats_digest


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


class ReplayExperiment:
    """A wired replay: stub endpoints + the recorded send schedule."""

    def __init__(self, header: TraceHeader, events: list[TraceEvent]) -> None:
        self.header = header
        self.events = events
        self.rng = RngRegistry(seed=header.seed)
        self.sim = Simulator()
        self.network = Network(self.sim, rng=self.rng.stream("network"))
        self.chaos = None
        #: No clients: the workload is the recorded stream (a replay
        #: scenario has no phases to install).
        self.fleet = None
        names = sorted(
            {event[1] for event in events} | {event[2] for event in events}
        )
        self._endpoints = {
            name: self.network.add_node(ReplayEndpoint(name))
            for name in names
        }
        for event in events:
            self.sim.at(event[0], self._send, event)

    def _send(self, event: TraceEvent) -> None:
        _, src, dst, kind, size = event
        self._endpoints[src].send(dst, kind, None, size_bytes=size)

    def run(self, until: float) -> ReplayResult:
        horizon = until
        if self.events:
            horizon = max(horizon, self.events[-1][0])
        self.sim.run(until=horizon + _DRAIN)
        return ReplayResult(
            profile_name=self.header.game,
            duration=self.header.duration,
            traffic=self.network.stats,
            events_processed=self.sim.events_processed,
            replayed_messages=len(self.events),
            endpoints=len(self._endpoints),
            recorded_digest=self.header.digest,
            recorded_stats_digest=stats_of_events(
                self.events
            ).canonical_digest(),
        )


def scenario_from_header(header: TraceHeader) -> Scenario:
    """The inert :class:`Scenario` a trace replays as.

    It passes the spec layer's ``__post_init__`` validation like any
    catalog entry (non-empty name, positive duration) and carries no
    phases — the workload is the recorded stream itself.
    """
    return Scenario(
        name=header.scenario,
        description=f"trace replay: {header.describe()}",
        phases=(),
        # A trace of an empty preview window still needs a valid spec.
        duration=max(header.duration, 1e-9),
        game=header.game,
    )


@scenario_backend(
    "replay",
    info=BackendInfo(
        name="replay",
        ownership="none: stub endpoints re-play a recorded stream",
        routing="verbatim: each recorded message re-sent as recorded",
        consistency="none — the trace is the ground truth",
        summary="trace replay for regression-diffing builds",
    ),
)
def _build_replay(
    scenario: Scenario,
    profile,
    chaos,
    *,
    trace: "tuple[TraceHeader, list[TraceEvent]] | str | Path",
) -> ReplayExperiment:
    if chaos is not None:
        raise ValueError(
            "replay carries no fault phases to arm; record the faulted "
            "run instead and replay its trace"
        )
    if not isinstance(trace, tuple):
        trace = read_trace(trace)
    return ReplayExperiment(*trace)


def replay_trace(
    path: str | Path,
    backend: str | None = None,
):
    """Replay the trace at *path*; returns the ``ScenarioOutcome``.

    *backend* is the compatibility assertion: a trace records which
    backend produced it, and replaying a stream recorded on one
    architecture as if another had served it would mis-attribute every
    message — so a mismatch is rejected, not coerced.
    """
    from repro.harness.runner import run_scenario  # already imported

    header, events = read_trace(path)
    if backend is not None and backend != header.backend:
        raise TraceCompatibilityError(
            f"{path} was recorded on backend '{header.backend}' and "
            f"cannot be replayed as '{backend}': the client-visible "
            f"stream embeds that backend's topology. Re-record with "
            f"--backend {backend} to compare against it."
        )
    scenario = scenario_from_header(header)
    return run_scenario(
        scenario,
        backend="replay",
        profile=_replay_profile(header.game),
        trace=(header, events),
    )


def _replay_profile(game: str):
    from repro.games.profile import profile_by_name

    return profile_by_name(game)
