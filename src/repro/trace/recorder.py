"""Recording the client-visible stream of a live run.

The recorder subscribes to the network's send-side stats tap
(:meth:`repro.net.network.Network.add_tap`) and keeps every message a
client sent or received.  Buffered events are canonically re-ordered on
read (see :func:`repro.trace.format.canonical_events`), so the recorded
trace is identical whatever ``--jobs`` count or shard count produced
the run — the property the trace-determinism tests pin.

:func:`record_scenario` is the one-call form: it runs a scenario
through :func:`repro.harness.runner.run_scenario` with a recorder
attached via the runner's ``observe`` hook and returns the outcome
together with the finished trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.net.message import Message
from repro.trace.format import (
    TraceEvent,
    TraceHeader,
    canonical_events,
    events_digest,
    write_trace,
)

#: Node-name prefix that marks the client side of the stream.  Every
#: fleet spawns ``client.N`` nodes (see ClientFleet), so this is the
#: boundary between "what players experienced" and server internals.
CLIENT_PREFIX = "client."


class TraceRecorder:
    """Buffers the client-visible messages of one attached network."""

    def __init__(self, network, prefix: str = CLIENT_PREFIX) -> None:
        self._network = network
        self._prefix = prefix
        self._buffer: list[TraceEvent] = []
        network.add_tap(self._tap)

    def _tap(self, message: Message) -> None:
        if message.src.startswith(self._prefix) or message.dst.startswith(
            self._prefix
        ):
            # Shard lanes call in lane order, not time order; canonical
            # ordering is restored on read, never relied on here.
            self._buffer.append(
                (
                    message.sent_at,
                    message.src,
                    message.dst,
                    message.kind,
                    message.size_bytes,
                )
            )

    def detach(self) -> None:
        """Stop recording (idempotent)."""
        self._network.remove_tap(self._tap)

    def events(self) -> list[TraceEvent]:
        """The recorded stream in canonical trace order."""
        return canonical_events(self._buffer)


@dataclass
class RecordedRun:
    """A finished run plus its recorded trace."""

    outcome: object  # ScenarioOutcome
    header: TraceHeader
    events: list[TraceEvent]

    @property
    def complete(self) -> bool:
        """True when the trace holds every message a client sent or was
        sent: per ordered ``(src, dst)`` pair, the recorded message and
        byte counts equal the run's own ``TrafficStats.by_pair`` for
        every pair with a client end, and no other pair was recorded."""
        recorded: dict[tuple[str, str], tuple[int, int]] = {}
        for _t, src, dst, _kind, size in self.events:
            messages, nbytes = recorded.get((src, dst), (0, 0))
            recorded[src, dst] = (messages + 1, nbytes + size)
        by_pair = self.outcome.result.traffic.by_pair
        live = {
            (src, dst): (counter.messages, counter.bytes)
            for (src, dst), counter in by_pair.items()
            if counter.messages
            and (src.startswith(CLIENT_PREFIX)
                 or dst.startswith(CLIENT_PREFIX))
        }
        return recorded == live

    def write(self, path: str | Path) -> Path:
        """Persist the trace as a versioned JSONL file."""
        return write_trace(path, self.header, self.events)


def record_scenario(
    scenario,
    backend: str = "matrix",
    profile=None,
    scale: float = 1.0,
    preview: float | None = None,
    seed: int = 0,
    **options,
) -> RecordedRun:
    """Run *scenario* on *backend* with the trace recorder attached.

    Accepts exactly what :func:`repro.harness.runner.run_scenario`
    does; the recorder rides the runner's ``observe`` hook so it taps
    the network after the experiment is wired but before the first
    event runs.
    """
    from repro.harness.runner import run_scenario  # local: no cycle

    recorders: list[TraceRecorder] = []

    def observe(experiment) -> None:
        recorders.append(TraceRecorder(experiment.network))

    outcome = run_scenario(
        scenario,
        backend=backend,
        profile=profile,
        scale=scale,
        preview=preview,
        seed=seed,
        observe=observe,
        **options,
    )
    recorder = recorders[0]
    recorder.detach()
    events = recorder.events()
    header = TraceHeader(
        scenario=outcome.scenario.name,
        backend=backend,
        game=outcome.scenario.game,
        seed=seed,
        scale=scale,
        duration=outcome.scenario.duration,
        events=len(events),
        digest=events_digest(events),
    )
    return RecordedRun(outcome=outcome, header=header, events=events)
