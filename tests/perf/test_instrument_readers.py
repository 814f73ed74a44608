"""Every instrument a perf-on run registers has a reader.

``perfbench``'s traced runs (``perfbench/trace.py``) are the one reader
of the :class:`~repro.perf.PerfRegistry`: an instrument they do not read
is hot-path cost that nothing reports.  The reader's names are parsed
from that file (read only, never imported), and tiny perf-on runs
across every backend, two shard lanes, forward batching and a
``LinkDegrade`` chaos window must register no other name.
"""

import ast
from pathlib import Path

import pytest

from repro.core.config import PerfConfig
from repro.harness.compare import scaled_run_arguments
from repro.harness.runner import run_scenario
from repro.workload.scenarios import build_scenario

READER = Path(__file__).resolve().parents[2] / "perfbench" / "trace.py"


def read_names() -> dict[str, set[str]]:
    """Instrument names the reader looks up, by snapshot section:
    ``counter("x")`` and ``perf["timers" | "samplers"].get("x")``."""
    names: dict[str, set[str]] = {
        "counters": set(), "timers": set(), "samplers": set(),
    }
    for node in ast.walk(ast.parse(READER.read_text())):
        if not (
            isinstance(node, ast.Call)
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "counter":
            names["counters"].add(node.args[0].value)
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == "get"
            and isinstance(func.value, ast.Subscript)
            and isinstance(func.value.slice, ast.Constant)
            and func.value.slice.value in ("timers", "samplers")
        ):
            names[func.value.slice.value].add(node.args[0].value)
    return names


def test_the_reader_names_every_kind_of_instrument():
    names = read_names()
    assert all(names.values()), names
    assert "sim.step" in names["timers"]


RUNS = [
    *(
        pytest.param("flash-crowd", backend, {}, id=backend)
        for backend in ("dht", "matrix", "mirrored", "p2p", "static")
    ),
    pytest.param("flash-crowd", "matrix", {"shards": 2}, id="shards-2"),
    pytest.param(
        "flash-crowd", "matrix", {"batch_spatial_forwards": True},
        id="batched-forwards",
    ),
    pytest.param("lossy-wan", "matrix", {}, id="link-degrade"),
]


@pytest.mark.parametrize("scenario, backend, options", RUNS)
def test_every_registered_instrument_is_read(scenario, backend, options):
    arguments = scaled_run_arguments(
        build_scenario(scenario), backend, 0.05, seed=1, preview=25.0
    )
    outcome = run_scenario(
        **arguments, **options, perf=PerfConfig(enabled=True)
    )
    if scenario == "lossy-wan":
        assert outcome.experiment.chaos.report().link_dropped > 0
    snapshot = outcome.result.perf_snapshot
    read = read_names()
    assert any(snapshot[section] for section in read)
    unread = {
        section: sorted(set(snapshot[section]) - read[section])
        for section in read
    }
    assert unread == {"counters": [], "timers": [], "samplers": []}
