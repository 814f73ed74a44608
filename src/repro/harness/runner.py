"""The unified scenario runner: one entry point for every backend.

``run_scenario`` pairs a declarative
:class:`~repro.workload.scenarios.spec.Scenario` with a *backend* — the
Matrix deployment or a baseline — and returns a
:class:`ScenarioOutcome`.  Backends register an experiment builder with
``@scenario_backend`` and differ only in what they stand up behind the
fleet's ``Locator``; installing the workload, arming chaos, the
``observe`` hook and the run itself are one body in ``run_scenario``,
which is what makes cross-system comparisons (T-static)
apples-to-apples.

This is the execution half of the scenario subsystem; the declarative
half lives in :mod:`repro.workload.scenarios`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.baselines.backend import BackendInfo
from repro.baselines.dht import DhtExperiment
from repro.baselines.mirrored import MirroredExperiment
from repro.baselines.p2p import P2PExperiment
from repro.baselines.static import StaticExperiment
from repro.chaos import ChaosDriver, ChaosOptions
from repro.games.profile import GameProfile, profile_by_name
from repro.harness.experiment import MatrixExperiment
from repro.workload.scenarios import (
    CoordinatorCrash,
    Scenario,
    build_scenario,
)


@dataclass
class ScenarioOutcome:
    """What one scenario run produced.

    ``result`` is the backend's result object (a
    :class:`~repro.baselines.backend.BackendResult`; Matrix's
    ExperimentResult extends it);
    ``experiment`` is the live experiment for deeper inspection
    (deployment topology, fleet groups, raw network stats).
    """

    scenario: Scenario
    backend: str
    result: Any
    experiment: Any


def _resolve_chaos(
    scenario: Scenario, chaos: "bool | str | ChaosOptions | None"
) -> ChaosOptions | None:
    """The :class:`ChaosOptions` to arm, or None for a plain run.

    ``"auto"`` (the default) arms chaos exactly when the scenario
    declares fault phases, so plain workloads stay untouched; ``True``
    forces default options, ``False``/``None`` disables injection even
    for chaos scenarios, and a :class:`ChaosOptions` is used as-is.
    """
    if chaos is None or chaos is False:
        return None
    if chaos == "auto":
        return ChaosOptions() if scenario.has_faults else None
    if chaos is True:
        return ChaosOptions()
    return chaos


def _wants_standby_mc(
    scenario: Scenario, options: ChaosOptions | None
) -> bool:
    """A CoordinatorCrash is coming: deploy the replicated MC."""
    if options is None:
        return False
    faults = (*scenario.fault_phases(), *options.extra_faults)
    return any(isinstance(fault, CoordinatorCrash) for fault in faults)


#: backend name -> (its :class:`~repro.baselines.backend.BackendInfo`,
#: builder(scenario, profile, chaos, **options) -> wired experiment).
_BACKENDS: dict[str, tuple[BackendInfo, Callable[..., Any]]] = {}


def scenario_backend(info: BackendInfo) -> Callable:
    """Register a backend's experiment builder under ``info.name``
    (decorator).

    The builder turns ``(scenario, profile, chaos, **options)`` — the
    resolved :class:`~repro.chaos.ChaosOptions` or None, then the
    caller's keyword options — into a wired, not yet running
    experiment; :func:`run_scenario` does everything else.  *info*
    documents the backend's architecture (ownership model, routing
    strategy, consistency traffic) for ``list-backends`` and the docs
    table; registering the same name twice raises.
    """

    def decorate(build: Callable[..., Any]):
        if info.name in _BACKENDS:
            raise ValueError(f"backend already registered: {info.name!r}")
        _BACKENDS[info.name] = (info, build)
        return build

    return decorate


def backend_names() -> list[str]:
    """The registered architectures, sorted: what the grids,
    ``compare`` and ``--backend`` enumerate."""
    return sorted(_BACKENDS)


def backend_infos() -> list[BackendInfo]:
    """All registered backend infos, sorted by name."""
    return [info for _, (info, _) in sorted(_BACKENDS.items())]


@scenario_backend(
    BackendInfo(
        name="matrix",
        ownership="dynamic partitions (split/reclaim on load)",
        routing="local overlap table, O(1) per packet",
        consistency="overlap-region forwarding between neighbours",
        summary="the paper's adaptive middleware",
    )
)
def _build_matrix(
    scenario: Scenario,
    profile: GameProfile,
    chaos: ChaosOptions | None,
    *,
    replicated_mc: bool | None = None,
    shards: int | None = None,
    shard_executor: str = "serial",
    **options,
) -> MatrixExperiment:
    if replicated_mc is None:
        replicated_mc = _wants_standby_mc(scenario, chaos)
    # perfbench/workloads.py still passes the keyword; one value is left.
    if shard_executor != "serial":
        raise ValueError(
            f"shard_executor={shard_executor!r}: the thread and process "
            "shard executors were removed (lanes run serially); pass "
            '"serial" or omit the argument'
        )
    options.update(grid=scenario.grid, replicated_mc=replicated_mc)
    if shards is None:
        return MatrixExperiment(profile, **options)
    from repro.harness.shards import ShardedMatrixExperiment  # no cycle

    return ShardedMatrixExperiment(profile, shards=shards, **options)


def _tiled(scenario: Scenario, options: dict) -> dict:
    """Fixed-tile backends: a scenario that pins a server grid decides
    ``columns`` x ``rows``."""
    if scenario.grid is not None:
        options["columns"], options["rows"] = scenario.grid
    return options


@scenario_backend(
    BackendInfo(
        name="static",
        ownership="fixed grid tiles, one server each, forever",
        routing="local overlap table, O(1) per packet",
        consistency="overlap-region forwarding between fixed tiles",
        summary="the paper's §4 comparator: no repartitioning",
    )
)
def _build_static(scenario, profile, chaos, **options) -> StaticExperiment:
    return StaticExperiment(profile, **_tiled(scenario, options))


@scenario_backend(
    BackendInfo(
        name="mirrored",
        ownership="every mirror owns the whole world; clients round-robin",
        routing="none: packets terminate on the client's home mirror",
        consistency="every packet replicated to the other k-1 mirrors",
        summary="the §5 commercial approach: tightly-coupled mirrors",
    )
)
def _build_mirrored(scenario, profile, chaos, **options) -> MirroredExperiment:
    return MirroredExperiment(profile, **options)


@scenario_backend(
    BackendInfo(
        name="p2p",
        ownership="none: per-player uplinks, region tiles scope groups",
        routing="direct member-to-member fan-out within a region group",
        consistency="per-player upload grows with group_size - 1",
        summary="the §5 peer-to-peer region groups (Knutsson-style)",
    )
)
def _build_p2p(scenario, profile, chaos, **options) -> P2PExperiment:
    return P2PExperiment(profile, **_tiled(scenario, options))


@scenario_backend(
    BackendInfo(
        name="dht",
        ownership="fixed grid tiles, one server each, forever",
        routing="Chord-style overlay lookup, O(log N) hops per packet",
        consistency="overlap forwarding plus dht.hop/dht.result chains",
        summary="the §3.2.4 alternative: DHT lookup instead of tables",
    )
)
def _build_dht(scenario, profile, chaos, **options) -> DhtExperiment:
    return DhtExperiment(profile, **_tiled(scenario, options))


def run_scenario(
    scenario: Scenario | str,
    backend: str = "matrix",
    profile: GameProfile | None = None,
    scale: float = 1.0,
    preview: float | None = None,
    chaos: "bool | str | ChaosOptions" = "auto",
    observe: "Callable[[Any], None] | None" = None,
    **options,
) -> ScenarioOutcome:
    """Run *scenario* (an instance or a registered name) on *backend*.

    ``scale`` shrinks the population (phase counts only — timing is
    preserved) and ``preview`` truncates the duration, both conveniences
    for smoke runs; callers wanting scaled *dynamics* must also pass a
    scaled ``policy``/profile and capacities (the recipe is
    ``repro.harness.compare.scaled_run_arguments``).  ``chaos`` controls
    fault injection: ``"auto"`` (default) arms a
    :class:`~repro.chaos.ChaosDriver` exactly when the scenario
    declares fault phases, ``False`` runs a chaos scenario with its
    faults disarmed, and a :class:`~repro.chaos.ChaosOptions` tunes
    the driver (and can add extra faults).  The armed driver is
    reachable as ``outcome.experiment.chaos``.  ``observe`` is called
    with the fully wired experiment *before* it runs — the hook the
    trace recorder uses to tap the network (see
    :mod:`repro.trace.recorder`); it runs exactly once, after the
    workload is installed and chaos is armed and before the first
    event, and an exception it raises propagates.  Remaining keyword
    options go to the backend's builder verbatim (an option the backend
    does not know is a ``TypeError`` naming it).
    """
    if isinstance(scenario, str):
        scenario = build_scenario(scenario)
    if scale != 1.0:
        scenario = scenario.scaled(scale)
    if preview is not None:
        scenario = scenario.preview(preview)
    if profile is None:
        profile = profile_by_name(scenario.game)
    if backend not in _BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; known: {sorted(_BACKENDS)}"
        )
    _, build = _BACKENDS[backend]
    chaos_options = _resolve_chaos(scenario, chaos)
    experiment = build(scenario, profile, chaos_options, **options)
    scenario.install(experiment.fleet, profile)
    if chaos_options is not None:
        experiment.chaos = ChaosDriver(
            scenario, experiment, backend, chaos_options
        )
        experiment.chaos.arm()
    # Everything is wired and nothing has run: the one observation point.
    if observe is not None:
        observe(experiment)
    return ScenarioOutcome(
        scenario=scenario,
        backend=backend,
        result=experiment.run(until=scenario.duration),
        experiment=experiment,
    )
