"""Trace format integrity, record/replay identity, and diffing."""

import json
import re

import pytest

from repro.cli import main, record_trace_cell
from repro.harness.parallel import GridTask, run_grid
from repro.trace.diff import diff_traces, format_diff
from repro.trace.format import (
    TraceCompatibilityError,
    TraceError,
    TraceHeader,
    canonical_events,
    events_digest,
    read_trace,
    write_trace,
)
from repro.trace.recorder import record_scenario
from repro.trace.replay import replay_trace, stats_of_events
from repro.workload.scenarios import build_scenario

EVENTS = [
    (0.5, "client.1", "gs.0", "game.action", 64),
    (0.25, "gs.0", "client.1", "game.snapshot", 256),
    (0.5, "client.2", "gs.0", "game.action", 64),
]


def _header(events, **overrides) -> TraceHeader:
    fields = dict(
        scenario="unit",
        backend="matrix",
        game="bzflag",
        seed=1,
        scale=0.1,
        duration=10.0,
        events=len(events),
        digest=events_digest(canonical_events(events)),
    )
    fields.update(overrides)
    return TraceHeader(**fields)


def _write(tmp_path, name="t.trace", events=EVENTS, **overrides):
    ordered = canonical_events(events)
    return write_trace(
        tmp_path / name, _header(ordered, **overrides), ordered
    )


def test_write_read_roundtrip(tmp_path):
    path = _write(tmp_path)
    header, events = read_trace(path)
    assert events == canonical_events(EVENTS)
    assert header.scenario == "unit"
    assert header.events == 3
    assert header.digest == events_digest(events)


def test_canonical_order_is_input_order_independent(tmp_path):
    a = _write(tmp_path, "a.trace", events=EVENTS)
    b = _write(tmp_path, "b.trace", events=list(reversed(EVENTS)))
    assert a.read_bytes() == b.read_bytes()


def test_tampered_event_rejected(tmp_path):
    path = _write(tmp_path)
    lines = path.read_text().splitlines()
    lines[1] = json.dumps([0.25, "gs.0", "client.1", "game.snapshot", 999])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceError, match="digest mismatch"):
        read_trace(path)


@pytest.mark.parametrize(
    "line", ["5", "null", '[0.0,"a","b","k","x"]', '[[1],"a","b","k",1]']
)
def test_malformed_event_line_is_one_error_line(line, tmp_path, capsys):
    """An event line of the wrong shape or field type is a TraceError
    naming the line, so ``replay`` and ``diff`` refuse it with exit 2."""
    path = _write(tmp_path)
    lines = path.read_text().splitlines()
    lines[2] = line
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceError, match=re.escape(f"{path}:3: malformed")):
        read_trace(path)
    good = _write(tmp_path, name="good.trace")
    for argv in (["replay", str(path)], ["diff", str(good), str(path)]):
        assert main(argv) == 2
        out = capsys.readouterr().out
        assert out.startswith(f"error: {path}:3: malformed event line")
        assert len(out.splitlines()) == 1


def test_truncated_file_rejected(tmp_path):
    path = _write(tmp_path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(TraceError, match="truncated"):
        read_trace(path)


def test_unsupported_version_rejected_clearly(tmp_path):
    path = _write(tmp_path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["version"] = 99
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    with pytest.raises(TraceError, match="version 99 is not supported"):
        read_trace(path)


def test_not_a_trace_rejected(tmp_path):
    path = tmp_path / "x.trace"
    path.write_text('{"something": "else"}\n')
    with pytest.raises(TraceError, match="not a repro-trace"):
        read_trace(path)
    path.write_text("")
    with pytest.raises(TraceError, match="empty"):
        read_trace(path)


def test_record_replay_traffic_identity(tmp_path):
    """The tentpole identity: replaying a recording reproduces the
    recorded client-visible ``TrafficStats`` bit-for-bit."""
    run = record_scenario(
        build_scenario("fig2-hotspot"),
        backend="matrix",
        scale=0.04,
        preview=15.0,
        seed=2,
    )
    path = run.write(tmp_path / "hotspot.trace")
    result = replay_trace(path)
    assert result.scenario == "fig2-hotspot"
    assert result.replayed_messages == run.header.events > 0
    assert result.matches_recording
    assert (
        result.traffic.canonical_digest()
        == stats_of_events(run.events).canonical_digest()
    )


def test_rerecord_is_byte_identical(tmp_path):
    kwargs = dict(backend="matrix", scale=0.04, preview=15.0, seed=2)
    scenario = build_scenario("fig2-hotspot")
    a = record_scenario(scenario, **kwargs).write(tmp_path / "a.trace")
    b = record_scenario(scenario, **kwargs).write(tmp_path / "b.trace")
    assert a.read_bytes() == b.read_bytes()


def test_record_identical_across_jobs(tmp_path):
    """Satellite 2a: the recorded trace is bit-identical whether the
    record cell runs serially or in a spawn worker (--jobs)."""
    def task(jobs_tag):
        return GridTask(
            key=("record", jobs_tag),
            fn=record_trace_cell,
            kwargs=dict(
                name="fig2-hotspot",
                backend="matrix",
                seed=2,
                scale=0.04,
                duration=15.0,
                out=str(tmp_path / f"{jobs_tag}.trace"),
            ),
        )

    run_grid([task("serial")], jobs=None)
    run_grid([task("spawned")], jobs=2)
    assert (
        (tmp_path / "serial.trace").read_bytes()
        == (tmp_path / "spawned.trace").read_bytes()
    )


def test_record_identical_across_shard_counts(tmp_path):
    """Satellite 2b: the sharded kernel records the same client stream
    at any shard count."""
    scenario = build_scenario("fig2-hotspot")
    kwargs = dict(backend="matrix", scale=0.04, preview=15.0, seed=2)
    two = record_scenario(scenario, shards=2, **kwargs)
    four = record_scenario(scenario, shards=4, **kwargs)
    assert two.events == four.events
    assert two.header.digest == four.header.digest
    a = two.write(tmp_path / "s2.trace")
    b = four.write(tmp_path / "s4.trace")
    assert a.read_bytes() == b.read_bytes()


def test_replay_rejects_wrong_backend(tmp_path):
    path = _write(tmp_path)  # header says backend=matrix
    with pytest.raises(TraceCompatibilityError, match="recorded on backend"):
        replay_trace(path, backend="static")
    # The recorded backend itself is accepted.
    assert replay_trace(path, backend="matrix").replayed_messages == 3


def test_diff_clean_on_identical(tmp_path):
    a = _write(tmp_path, "a.trace")
    b = _write(tmp_path, "b.trace")
    diff = diff_traces(a, b)
    assert diff.clean
    assert diff.only_a == diff.only_b == 0
    assert "no drift" in format_diff(diff)


def test_diff_detects_event_drift(tmp_path):
    a = _write(tmp_path, "a.trace")
    drifted = EVENTS + [(9.0, "client.3", "gs.1", "game.action", 64)]
    b = _write(tmp_path, "b.trace", events=drifted)
    diff = diff_traces(a, b)
    assert not diff.clean
    assert diff.only_a == 0 and diff.only_b == 1
    assert diff.examples_b == [(9.0, "client.3", "gs.1", "game.action", 64)]
    report = format_diff(diff, "a", "b")
    assert "1 only in b" in report


def test_diff_reports_header_mismatch(tmp_path):
    a = _write(tmp_path, "a.trace", seed=1)
    b = _write(tmp_path, "b.trace", seed=2)
    diff = diff_traces(a, b)
    assert diff.header_mismatches == {"seed": (1, 2)}
    assert not diff.clean
    assert "header.seed" in format_diff(diff)
