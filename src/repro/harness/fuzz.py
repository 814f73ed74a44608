"""Executing generated scenarios and auditing the invariants.

:func:`run_fuzz_case` is the whole pipeline for one seed: generate →
run → settle → :func:`repro.fuzz.invariants.check_invariants`.  It
runs on the Matrix backend (plain or on shard lanes), whose lifecycle
the invariants audit.  :func:`fuzz_cell` wraps it as a module-level,
picklable grid cell (raising :class:`FuzzInvariantError` on any
violation) so campaigns fan out over the ``spawn`` pool exactly like
the benchmark grids; the cell key embeds the generator seed
(``fuzz/default/seed=17``), which makes every CI log line a
reproduction command.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.fuzz.generator import FuzzProfile, fuzz_profile, generate_scenario
from repro.fuzz.invariants import check_invariants, snapshot_lifecycle
from repro.fuzz.shrink import ShrinkResult, shrink_scenario
from repro.harness.compare import scaled_run_arguments
from repro.harness.gridcells import GRID_FLOORS
from repro.harness.parallel import GridTask
from repro.harness.runner import ScenarioOutcome, run_scenario
from repro.trace.recorder import record_scenario
from repro.workload.scenarios.spec import Scenario

#: An extra invariant: ``(outcome) -> list of violation strings``.
ExtraInvariant = Callable[..., list]


def fuzz_command(
    seed: int,
    profile: str,
    *,
    scale: float = 0.25,
    settle: float = 10.0,
    preview: float | None = None,
    shards: int | None = None,
) -> str:
    """The ``python -m repro fuzz`` line that re-runs one fuzz case: it
    names every option that shapes the run, so a failing log line
    regenerates the same scenario at the same size anywhere."""
    return (
        f"python -m repro fuzz --seed {seed} --profile {profile} "
        f"--scale {scale:g} --settle {settle:g}"
        + (f" --duration {preview:g}" if preview else "")
        + (f" --shards {shards}" if shards is not None else "")
    )


class FuzzInvariantError(AssertionError):
    """A generated scenario violated a global invariant.

    The message leads with the reproduction coordinates — profile and
    seed — because that is what a CI log must surface: the same seed
    regenerates the same scenario anywhere.  *run_options* are
    :func:`fuzz_command`'s, so its last line re-runs the failing case.
    """

    def __init__(
        self, seed: int, profile: str, scenario: Scenario,
        violations: list, **run_options,
    ) -> None:
        self.seed = seed
        self.profile = profile
        self.scenario = scenario
        self.violations = list(violations)
        details = "\n".join(f"  - {violation}" for violation in violations)
        super().__init__(
            f"fuzz seed={seed} (profile={profile}, "
            f"scenario {scenario.name!r}, {len(scenario.phases)} phases) "
            f"violated {len(violations)} invariant(s):\n{details}\n"
            f"reproduce: {fuzz_command(seed, profile, **run_options)}"
        )


@dataclass
class FuzzCase:
    """One audited seed (violations empty == healthy)."""

    seed: int
    profile: str
    scenario: Scenario
    violations: list
    events_processed: int
    peak_servers: int
    total_clients: int

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def phase_kinds(self) -> list[str]:
        return [type(phase).__name__ for phase in self.scenario.phases]


def fuzz_run_arguments(scenario: Scenario, seed: int, **run_options) -> dict:
    """The ``run_scenario`` keyword arguments of one fuzz case.

    Shared by the audit, the shrinker and the failing-trace recorder,
    so all three run the same thing; *run_options* are ``scale``,
    ``preview`` and ``shards``.  The scaled setup is the benchmark
    grids' (same floors), but that does not make fuzzed dynamics split
    or reclaim: a fuzzed population (at most ``FuzzProfile.max_clients``
    at full scale, 240) stays under the scaled overload threshold (300
    at full scale), and every measured cell peaks at one server, at
    scale 0.1, 0.5 and 1 alike.  See ROADMAP, "A fuzzer that reaches
    the control plane".
    """
    return scaled_run_arguments(
        scenario, "matrix", seed=seed, **run_options, **GRID_FLOORS
    )


def _run_and_audit(
    run_arguments: dict,
    settle: float,
    extra_invariants: Sequence[ExtraInvariant],
) -> tuple[ScenarioOutcome, list]:
    """Run to the horizon, settle, audit; returns (outcome, violations)."""
    outcome = run_scenario(**run_arguments)
    pre_settle = snapshot_lifecycle(outcome.experiment)
    outcome.experiment.sim.run(until=outcome.scenario.duration + settle)
    violations = check_invariants(outcome, pre_settle=pre_settle)
    for invariant in extra_invariants:
        violations.extend(invariant(outcome))
    return outcome, violations


def run_fuzz_case(
    seed: int,
    profile: "FuzzProfile | str | None" = None,
    *,
    scale: float = 0.25,
    preview: float | None = None,
    settle: float = 10.0,
    shards: int | None = None,
    extra_invariants: Sequence[ExtraInvariant] = (),
) -> FuzzCase:
    """Generate, run and audit one seed; never raises on violations.

    *extra_invariants* are appended to the global checks — the shrinker
    tests hook their known-bad predicate in through this.
    """
    if profile is None or isinstance(profile, str):
        profile = fuzz_profile(profile or "default")
    scenario = generate_scenario(seed, profile)
    outcome, violations = _run_and_audit(
        fuzz_run_arguments(
            scenario, seed, scale=scale, preview=preview, shards=shards
        ),
        settle,
        extra_invariants,
    )
    return FuzzCase(
        seed=seed,
        profile=profile.name,
        scenario=outcome.scenario,
        violations=violations,
        events_processed=outcome.result.events_processed,
        peak_servers=outcome.result.servers_used,
        total_clients=len(outcome.experiment.fleet.active_clients()),
    )


def fuzz_cell(
    seed: int,
    profile: str,
    scale: float,
    preview: float | None,
    settle: float,
    shards: int | None = None,
) -> dict:
    """One picklable fuzz grid cell: audit *seed*, raise on violation.

    Raising :class:`FuzzInvariantError` (rather than returning the
    violations) is what routes a failure through
    :class:`~repro.harness.parallel.GridTaskError` — whose message
    leads with the cell key, and the key carries ``seed=N``.
    """
    case = run_fuzz_case(
        seed,
        profile,
        scale=scale,
        preview=preview,
        settle=settle,
        shards=shards,
    )
    if not case.ok:
        raise FuzzInvariantError(
            seed, case.profile, case.scenario, case.violations,
            scale=scale, settle=settle, preview=preview, shards=shards,
        )
    return {
        "seed": seed,
        "phases": len(case.scenario.phases),
        "phase_kinds": case.phase_kinds,
        "events": case.events_processed,
        "peak_servers": case.peak_servers,
        "clients_at_end": case.total_clients,
        "violations": 0,
    }


def fuzz_grid_tasks(
    seeds: Iterable[int],
    profile: str = "default",
    *,
    scale: float = 0.25,
    preview: float | None = None,
    settle: float = 10.0,
    shards: int | None = None,
) -> list[GridTask]:
    """One :class:`GridTask` per seed, keyed ``("fuzz", profile,
    "seed=N")`` so any worker failure names its generator seed."""
    return [
        GridTask(
            key=("fuzz", profile, f"seed={seed}"),
            fn=fuzz_cell,
            kwargs={
                "seed": seed,
                "profile": profile,
                "scale": scale,
                "preview": preview,
                "settle": settle,
                "shards": shards,
            },
        )
        for seed in seeds
    ]


def shrink_fuzz_failure(
    seed: int,
    profile: "FuzzProfile | str | None" = None,
    *,
    scale: float = 0.25,
    preview: float | None = None,
    settle: float = 10.0,
    shards: int | None = None,
    extra_invariants: Sequence[ExtraInvariant] = (),
    max_iterations: int = 24,
) -> ShrinkResult:
    """Shrink the failing *seed* to a minimal phase list.

    ``still_fails`` re-runs the full audit on each candidate, so every
    iteration costs one simulation — *max_iterations* bounds the spend.
    """
    if profile is None or isinstance(profile, str):
        profile = fuzz_profile(profile or "default")
    scenario = generate_scenario(seed, profile)

    def still_fails(candidate: Scenario) -> bool:
        _, violations = _run_and_audit(
            fuzz_run_arguments(
                candidate, seed, scale=scale, preview=preview, shards=shards
            ),
            settle,
            extra_invariants,
        )
        return bool(violations)

    return shrink_scenario(
        scenario, still_fails, max_iterations=max_iterations
    )


def record_fuzz_failure(
    seed: int, profile: str, directory, **run_options
) -> Path:
    """Re-run the failing *seed* with the trace recorder attached and
    write ``fuzz-<profile>-<seed>.trace`` into *directory*."""
    run = record_scenario(
        **fuzz_run_arguments(
            generate_scenario(seed, profile), seed, **run_options
        )
    )
    return run.write(Path(directory) / f"fuzz-{profile}-{seed}.trace")
