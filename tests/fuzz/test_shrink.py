"""The ddmin shrinker: pure-data units plus one simulated reduction."""

import dataclasses

from repro.fuzz.generator import generate_scenario
from repro.fuzz.shrink import shrink_scenario
from repro.harness.fuzz import run_fuzz_case, shrink_fuzz_failure
from repro.workload.scenarios.spec import (
    ArrivalWave,
    Churn,
    Departure,
    HotspotWave,
    MapPoint,
    Scenario,
)


def _scenario(phases) -> Scenario:
    return Scenario(
        name="shrink-fixture",
        description="shrinker unit fixture",
        phases=tuple(phases),
        duration=30.0,
    )


_HOT = HotspotWave(count=5, center=MapPoint(0.5, 0.5), at=4.0, group="h")
_PHASES = [
    ArrivalWave(count=10, at=0.0),
    Churn(rate=0.5, start=1.0, stop=9.0),
    _HOT,
    Departure(group="h", batch=2, start=10.0, interval=2.0),
    ArrivalWave(count=3, at=6.0, group="late"),
    Churn(rate=0.2, start=2.0, stop=8.0, group="churn2"),
]


def test_single_culprit_shrinks_to_one_phase():
    result = shrink_scenario(
        _scenario(_PHASES), lambda s: _HOT in s.phases
    )
    assert result.scenario.phases == (_HOT,)
    assert result.removed == len(_PHASES) - 1
    assert result.phases == 1


def test_pair_dependency_keeps_both():
    pair = (_PHASES[1], _PHASES[3])
    result = shrink_scenario(
        _scenario(_PHASES),
        lambda s: all(phase in s.phases for phase in pair),
    )
    assert set(result.scenario.phases) == set(pair)


def test_result_is_one_minimal():
    still_fails = lambda s: _HOT in s.phases  # noqa: E731
    result = shrink_scenario(_scenario(_PHASES), still_fails)
    for index in range(len(result.scenario.phases)):
        smaller = dataclasses.replace(
            result.scenario,
            phases=result.scenario.phases[:index]
            + result.scenario.phases[index + 1:],
        )
        assert not still_fails(smaller), "not 1-minimal"


def test_iteration_budget_is_respected():
    calls = []

    def still_fails(candidate):
        calls.append(1)
        return _HOT in candidate.phases

    result = shrink_scenario(
        _scenario(_PHASES * 4), still_fails, max_iterations=7
    )
    assert len(calls) <= 7
    assert result.iterations == len(calls)


def test_metadata_survives_shrinking():
    result = shrink_scenario(
        _scenario(_PHASES), lambda s: _HOT in s.phases
    )
    assert result.scenario.name == "shrink-fixture"
    assert result.scenario.duration == 30.0


def _hotspot_invariant(outcome):
    """Test-only invariant: 'fails' whenever a HotspotWave is present."""
    if any(
        isinstance(phase, HotspotWave) for phase in outcome.scenario.phases
    ):
        return ["test-only: hotspot phase present"]
    return []


def test_seeded_failure_shrinks_to_minimal_reproducer():
    """Satellite 3: a known-bad seed shrinks to a minimal phase list in
    a bounded number of re-runs, and the seed re-fails deterministically.
    """
    seed = 1  # generate_scenario(1) contains a HotspotWave
    scenario = generate_scenario(seed)
    assert any(isinstance(p, HotspotWave) for p in scenario.phases)

    kwargs = dict(
        scale=0.02,
        preview=10.0,
        settle=4.0,
        extra_invariants=(_hotspot_invariant,),
    )
    first = run_fuzz_case(seed, **kwargs)
    second = run_fuzz_case(seed, **kwargs)
    assert first.violations and first.violations == second.violations

    result = shrink_fuzz_failure(
        seed,
        scale=0.02,
        preview=10.0,
        settle=4.0,
        extra_invariants=(_hotspot_invariant,),
        max_iterations=16,
    )
    assert result.iterations <= 16
    assert len(result.scenario.phases) == 1
    assert isinstance(result.scenario.phases[0], HotspotWave)


def test_a_failing_seed_is_recorded_as_the_audit_ran_it(tmp_path):
    """The failing-trace recorder builds its run from the audit's own
    arguments: same scenario, seed, scale and horizon, and the grids'
    policy floors."""
    from repro.harness.fuzz import fuzz_run_arguments, record_fuzz_failure
    from repro.trace.format import read_trace

    run_options = dict(scale=0.02, preview=10.0)
    path = record_fuzz_failure(1, "default", tmp_path, **run_options)
    assert path == tmp_path / "fuzz-default-1.trace"
    header, events = read_trace(path)
    assert header.scenario == generate_scenario(1).name
    assert (header.seed, header.scale, header.duration) == (1, 0.02, 10.0)
    assert header.events == len(events) > 0
    arguments = fuzz_run_arguments(generate_scenario(1), 1, **run_options)
    assert arguments["policy"].overload_clients == 6  # the grids' floor
