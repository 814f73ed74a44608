"""Tests for the architecture-backend registry and the one experiment
path every registered backend runs through."""

import hashlib
import importlib
from pathlib import Path

import pytest

from repro.baselines.backend import ArchitectureBackend, BackendInfo, BackendResult
from repro.harness.compare import compare_backends
from repro.harness.experiment import ExperimentResult, MatrixExperiment
from repro.harness.runner import (
    _BACKENDS,
    backend_info,
    backend_infos,
    backend_names,
    run_scenario,
    scenario_backend,
)
from repro.trace.recorder import record_scenario
from repro.trace.replay import ReplayResult, scenario_from_header
from repro.workload.scenarios import ArrivalWave, HotspotWave, MapPoint, Scenario

ALL_BACKENDS = ("dht", "matrix", "mirrored", "p2p", "static")

#: ``registry-smoke`` at seed 5, captured at the parent of the PR that
#: made ``run_scenario`` the one experiment path (when five ``_run_*``
#: wrappers and two scaffolds still existed): events, messages, bytes,
#: sha256 of the canonical stats digest, servers used, peak queue.
SMOKE_GOLDENS = {
    "dht": (6279, 2985, 218640, "2c8c49479be7d85938d2d98afcf03c7e14d5530862e018f18b4b9f4e23d9b054", 8, 1.0),
    "matrix": (2332, 1074, 90464, "12dad36c6bda50a0a8a5e60b3e273da99c390be0c9dd73f1972e8a26cd960acf", 1, 1.0),
    "mirrored": (4475, 2763, 243800, "97587bea199c16193fcfe63e9fcc93651de04416c0d50e0d9853f1bbb085b2f3", 3, 2.0),
    "p2p": (6676, 3178, 231264, "1f4bd2525ccf141c278fda08388138c9c011aecd0d7da301174d6788248fff85", 0, 1.0),
    "static": (2619, 1207, 101928, "dd7e8820dfe8a1ef8f33dc6baa69ed4c7ce32c0a47c781dec6220f71a3ac64f9", 2, 0.0),
}


def smoke_scenario() -> Scenario:
    """A tiny two-phase workload every backend must complete."""
    return Scenario(
        name="registry-smoke",
        description="arrival wave then a small hotspot",
        duration=12.0,
        phases=(
            ArrivalWave(count=8),
            HotspotWave(
                count=10,
                center=MapPoint(0.625, 0.5),
                at=2.0,
                group="spike",
            ),
        ),
    )


def smoke_run_arguments(backend: str) -> dict:
    """``run_scenario`` arguments that run *backend* on the smoke
    workload — for ``replay``, on a trace recorded from it."""
    if backend != "replay":
        return dict(scenario=smoke_scenario(), backend=backend, seed=5)
    recorded = record_scenario(smoke_scenario(), backend="static", seed=5)
    return dict(
        scenario=scenario_from_header(recorded.header),
        backend="replay",
        trace=(recorded.header, recorded.events),
    )


def test_all_architectures_registered():
    assert backend_names() == sorted(ALL_BACKENDS)


def test_replay_is_registered_but_not_enumerated_as_an_architecture():
    """``replay`` re-sends a trace (``trace=``, no ``seed``): everything
    that enumerates architectures to run a workload on must skip it."""
    assert "replay" not in backend_names()
    assert backend_info("replay").name == "replay"
    assert "replay" in {info.name for info in backend_infos()}


def test_compare_default_backends_are_the_five_architectures():
    outcomes = compare_backends(smoke_scenario(), seed=5)
    assert [outcome.system for outcome in outcomes] == sorted(ALL_BACKENDS)


@pytest.mark.parametrize(
    "module, tasks",
    [
        ("bench_architecture_matrix", "matrix_grid_tasks"),
        ("bench_chaos_suite", "chaos_grid_tasks"),
    ],
)
def test_bench_grids_have_no_replay_cell(monkeypatch, module, tasks):
    benchmarks = Path(__file__).resolve().parents[2] / "benchmarks"
    monkeypatch.syspath_prepend(str(benchmarks))
    keys = [task.key for task in getattr(importlib.import_module(module), tasks)()]
    assert keys and not [key for key in keys if "replay" in key]


def test_duplicate_registration_raises():
    taken = backend_names()[0]
    with pytest.raises(ValueError, match="already registered"):

        @scenario_backend(taken)
        def shadow(scenario, profile, chaos, **options):  # pragma: no cover
            raise AssertionError("never runs")


def test_registration_rollback_after_duplicate():
    """A rejected duplicate must not clobber the original runner."""
    before = dict(_BACKENDS)
    with pytest.raises(ValueError):

        @scenario_backend("matrix")
        def shadow(scenario, profile, chaos, **options):  # pragma: no cover
            raise AssertionError("never runs")

    assert _BACKENDS == before


def test_unknown_backend_error_lists_registered_names():
    with pytest.raises(ValueError) as excinfo:
        run_scenario(smoke_scenario(), backend="carrier-pigeon")
    message = str(excinfo.value)
    assert "carrier-pigeon" in message
    for name in ALL_BACKENDS:
        assert name in message


def test_backend_info_for_every_backend():
    infos = backend_infos()
    assert {info.name for info in infos} >= set(ALL_BACKENDS)
    for name in ALL_BACKENDS:
        info = backend_info(name)
        assert isinstance(info, BackendInfo)
        assert info.ownership and info.routing and info.consistency


def test_backend_info_unknown_name():
    with pytest.raises(ValueError, match="morse-code"):
        backend_info("morse-code")


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_every_backend_completes_smoke_deterministically(backend):
    """The registry contract: any backend runs any scenario, and two
    identical runs produce identical traffic (TrafficStats totals and
    event counts are a strong digest of the whole timeline)."""

    def digest():
        outcome = run_scenario(smoke_scenario(), backend=backend, seed=5)
        result = outcome.result
        return (
            outcome.experiment.sim.events_processed,
            result.traffic.total.messages,
            result.traffic.total.bytes,
            len(result.action_latencies),
            sorted(result.traffic.by_kind),
        )

    first = digest()
    assert first[0] > 0 and first[1] > 0
    assert first == digest()


def test_one_scaffold_and_one_result_type():
    assert issubclass(MatrixExperiment, ArchitectureBackend)
    assert issubclass(ExperimentResult, BackendResult)


@pytest.mark.parametrize("backend", (*ALL_BACKENDS, "replay"))
def test_observe_runs_once_between_wiring_and_the_first_event(backend):
    """The runner contract perfbench's setup/run boundary and the trace
    recorder rely on: one ``observe`` call, workload installed, nothing
    run yet — and what it raises comes out of ``run_scenario``."""
    seen = []

    def observe(experiment):
        seen.append(experiment)
        assert experiment.sim.events_processed == 0
        assert experiment.sim.pending_events > 0
        if backend != "replay":
            assert experiment.fleet._scheduled == {"background": 8, "spike": 10}

    outcome = run_scenario(**smoke_run_arguments(backend), observe=observe)
    assert seen == [outcome.experiment]
    assert outcome.experiment.sim.events_processed > 0

    class Stop(Exception):
        pass

    def refuse(experiment):
        raise Stop

    with pytest.raises(Stop):
        run_scenario(**smoke_run_arguments(backend), observe=refuse)


@pytest.mark.parametrize("backend", (*ALL_BACKENDS, "replay"))
def test_unknown_option_is_a_type_error_naming_it(backend):
    with pytest.raises(TypeError, match="warp_factor"):
        run_scenario(**smoke_run_arguments(backend), warp_factor=9)


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_every_architecture_reports_the_shared_result_and_the_parent_numbers(
    backend,
):
    outcome = run_scenario(**smoke_run_arguments(backend))
    result = outcome.result
    assert isinstance(outcome.experiment, ArchitectureBackend)
    assert isinstance(result, BackendResult)
    assert result.backend == outcome.experiment.name == backend
    assert result.dropped_packets == 0
    assert isinstance(result.consistency, dict)
    assert (
        result.events_processed,
        result.traffic.total.messages,
        result.traffic.total.bytes,
        hashlib.sha256(result.traffic.canonical_digest().encode()).hexdigest(),
        result.servers_used,
        result.max_queue(),
    ) == SMOKE_GOLDENS[backend]


def test_replay_keeps_its_own_result_shape():
    result = run_scenario(**smoke_run_arguments("replay")).result
    assert isinstance(result, ReplayResult)
    assert result.matches_recording
