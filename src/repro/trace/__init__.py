"""Trace record/diff: the client-visible stream as a regression artifact.

A *trace* is the canonical, versioned JSONL serialisation of every
message a client sent or received during one scenario run
(:mod:`repro.trace.format`).  Recording (:mod:`repro.trace.recorder`)
taps the live network and checks the recording against the run's own
traffic counters; diffing (:mod:`repro.trace.diff`) regression-compares
two recordings.
"""

from repro.trace.diff import TraceDiff, diff_traces, format_diff
from repro.trace.format import (
    FORMAT_NAME,
    SUPPORTED_VERSIONS,
    TRACE_VERSION,
    TraceError,
    TraceEvent,
    TraceHeader,
    canonical_events,
    events_digest,
    read_trace,
    write_trace,
)

__all__ = [
    "FORMAT_NAME",
    "SUPPORTED_VERSIONS",
    "TRACE_VERSION",
    "TraceDiff",
    "TraceError",
    "TraceEvent",
    "TraceHeader",
    "canonical_events",
    "diff_traces",
    "events_digest",
    "format_diff",
    "read_trace",
    "write_trace",
]
