"""The versioned client-stream trace format (JSONL).

A trace is the *client-visible event stream* of one scenario run: every
message a client sent or was sent, in canonical order.  Two builds that
produce byte-identical traces for the same (scenario, seed) served the
same workload the same way — which is what makes traces the regression
currency of ``python -m repro record`` / ``replay`` / ``diff``.

File layout (one JSON document per line):

* line 1 — the header object::

      {"format": "repro-trace", "version": 1, "scenario": "...",
       "backend": "matrix", "game": "bzflag", "seed": 1, "scale": 0.1,
       "duration": 60.0, "events": 1234, "digest": "sha256:..."}

* lines 2..N+1 — one event per line, a compact array::

      [t, src, dst, kind, size_bytes]

Canonical event order is ``(t, src, dst, kind, size)``: identical
tuples are interchangeable, so the order is independent of shard count
and of the order lanes execute in.  ``digest`` is the SHA-256 of the canonical
event lines; it is verified on read, so truncated or edited files fail
loudly instead of diffing quietly.

Versioning: ``TRACE_VERSION`` bumps whenever the event tuple shape or
the canonical order changes.  Readers reject newer-versioned files with
a clear error (forward compatibility is not attempted); older versions
are listed in ``SUPPORTED_VERSIONS`` for as long as they can still be
decoded.  Nothing wall-clock-dependent is ever written — recording the
same build twice must produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable

FORMAT_NAME = "repro-trace"
TRACE_VERSION = 1
SUPPORTED_VERSIONS = (1,)

#: One client-visible event: (t, src, dst, kind, size_bytes).
TraceEvent = tuple[float, str, str, str, int]


class TraceError(ValueError):
    """A trace file could not be read or fails its integrity checks."""


class TraceCompatibilityError(TraceError):
    """A trace is valid but incompatible with the requested replay."""


@dataclass(frozen=True)
class TraceHeader:
    """The metadata line of one trace file."""

    scenario: str
    backend: str
    game: str
    seed: int
    scale: float
    duration: float
    events: int
    digest: str
    version: int = TRACE_VERSION


def canonical_events(events: Iterable[TraceEvent]) -> list[TraceEvent]:
    """Sort *events* into the canonical trace order.

    The sort key is the full event tuple, so equal events are
    interchangeable and the result is identical whatever execution
    order (single kernel, N shard lanes) produced the stream.
    """
    return sorted(events)


def _event_line(event: TraceEvent) -> str:
    return json.dumps(list(event), separators=(",", ":"))


def events_digest(events: Iterable[TraceEvent]) -> str:
    """The ``sha256:...`` digest of the canonical event lines."""
    hasher = hashlib.sha256()
    for event in events:
        hasher.update(_event_line(event).encode())
        hasher.update(b"\n")
    return f"sha256:{hasher.hexdigest()}"


def write_trace(
    path: str | Path, header: TraceHeader, events: list[TraceEvent]
) -> Path:
    """Write one trace file; *events* must already be canonical.

    The header's ``events``/``digest`` fields are recomputed here so a
    written file is always self-consistent.
    """
    path = Path(path)
    header = TraceHeader(
        **{
            **asdict(header),
            "events": len(events),
            "digest": events_digest(events),
        }
    )
    lines = [json.dumps({"format": FORMAT_NAME, **asdict(header)},
                        sort_keys=True)]
    lines.extend(_event_line(event) for event in events)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return path


def _parse_header(line: str, path: Path) -> TraceHeader:
    try:
        raw = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceError(f"{path}: header line is not JSON: {exc}") from None
    if not isinstance(raw, dict) or raw.get("format") != FORMAT_NAME:
        raise TraceError(
            f"{path}: not a {FORMAT_NAME} file (header {line[:60]!r})"
        )
    version = raw.get("version")
    if version not in SUPPORTED_VERSIONS:
        raise TraceError(
            f"{path}: trace format version {version!r} is not supported "
            f"by this build (supported: {list(SUPPORTED_VERSIONS)}); "
            "re-record the trace with this build"
        )
    raw.pop("format")
    try:
        return TraceHeader(**raw)
    except TypeError as exc:
        raise TraceError(f"{path}: malformed trace header: {exc}") from None


def read_trace(path: str | Path) -> tuple[TraceHeader, list[TraceEvent]]:
    """Read and integrity-check one trace file.

    Verifies the declared event count and the canonical digest; a file
    that was truncated, hand-edited or produced by a different build of
    the *recorder* (not the system under test) fails here with a clear
    error instead of producing a misleading diff downstream.
    """
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise TraceError(f"cannot read trace {path}: {exc}") from None
    if not lines:
        raise TraceError(f"{path}: empty file is not a trace")
    header = _parse_header(lines[0], path)
    events: list[TraceEvent] = []
    for number, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        try:
            t, src, dst, kind, size = json.loads(line)
            event = (float(t), str(src), str(dst), str(kind), int(size))
        except (TypeError, ValueError) as exc:  # incl. JSONDecodeError
            raise TraceError(
                f"{path}:{number}: malformed event line: {exc}"
            ) from None
        events.append(event)
    if len(events) != header.events:
        raise TraceError(
            f"{path}: header declares {header.events} events but the "
            f"file holds {len(events)} (truncated?)"
        )
    digest = events_digest(events)
    if digest != header.digest:
        raise TraceError(
            f"{path}: event digest mismatch (header {header.digest}, "
            f"file {digest}); the file was modified after recording"
        )
    return header, events
