"""The unified scenario runner: one entry point for every backend.

``run_scenario`` pairs a declarative
:class:`~repro.workload.scenarios.spec.Scenario` with a *backend* — the
Matrix deployment or a baseline — and returns a
:class:`ScenarioOutcome`.  Backends register with ``@scenario_backend``
and differ only in what they stand up behind the fleet's ``Locator``;
the workload itself is installed identically, which is what makes
cross-system comparisons (T-static) apples-to-apples.

This is the execution half of the scenario subsystem; the declarative
half lives in :mod:`repro.workload.scenarios`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.baselines.backend import BackendInfo
from repro.chaos import ChaosDriver, ChaosOptions
from repro.core.config import LoadPolicyConfig, MiddlewareConfig, PerfConfig
from repro.games.profile import GameProfile, profile_by_name
from repro.harness.experiment import ExperimentResult, MatrixExperiment
from repro.workload.scenarios import (
    CoordinatorCrash,
    Scenario,
    build_scenario,
)


@dataclass
class ScenarioOutcome:
    """What one scenario run produced.

    ``result`` is the backend's result object (ExperimentResult for
    Matrix, StaticResult for the static baseline); ``experiment`` is
    the live experiment for deeper inspection (deployment topology,
    fleet groups, raw network stats).
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


def _arm_chaos(
    experiment: Any,
    scenario: Scenario,
    backend: str,
    options: ChaosOptions | None,
) -> None:
    """Attach and arm a :class:`ChaosDriver` when *options* ask for one."""
    if options is None:
        return
    driver = ChaosDriver(scenario, experiment, backend, options)
    driver.arm()
    experiment.chaos = driver


def _wants_standby_mc(
    scenario: Scenario, options: ChaosOptions | None
) -> bool:
    """A CoordinatorCrash is coming: deploy the replicated MC."""
    if options is None:
        return False
    faults = (*scenario.fault_phases(), *options.extra_faults)
    return any(isinstance(fault, CoordinatorCrash) for fault in faults)


#: backend name -> runner(scenario, profile, **options) -> (result, experiment)
_BACKENDS: dict[str, Callable[..., tuple[Any, Any]]] = {}
#: backend name -> its :class:`~repro.baselines.backend.BackendInfo`.
_BACKEND_INFO: dict[str, BackendInfo] = {}


def scenario_backend(name: str, info: BackendInfo | None = None) -> Callable:
    """Register a backend runner under *name* (decorator).

    *info* documents the backend's architecture (ownership model,
    routing strategy, consistency traffic) for ``list-backends`` and
    the docs table; registering the same name twice raises.
    """

    def decorate(runner: Callable[..., tuple[Any, Any]]):
        if name in _BACKENDS:
            raise ValueError(f"backend already registered: {name!r}")
        _BACKENDS[name] = runner
        if info is not None:
            _BACKEND_INFO[name] = info
        return runner

    return decorate


def backend_names() -> list[str]:
    """All registered backend names, sorted."""
    return sorted(_BACKENDS)


def backend_info(name: str) -> BackendInfo:
    """The :class:`BackendInfo` registered for *name*."""
    info = _BACKEND_INFO.get(name)
    if info is not None:
        return info
    if name in _BACKENDS:
        raise ValueError(
            f"backend {name!r} was registered without a BackendInfo"
        )
    raise ValueError(
        f"unknown backend {name!r}; known: {backend_names()}"
    )


def backend_infos() -> list[BackendInfo]:
    """All registered backend infos, sorted by name."""
    return [_BACKEND_INFO[name] for name in sorted(_BACKEND_INFO)]


@scenario_backend(
    "matrix",
    info=BackendInfo(
        name="matrix",
        ownership="dynamic partitions (split/reclaim on load)",
        routing="local overlap table, O(1) per packet",
        consistency="overlap-region forwarding between neighbours",
        summary="the paper's adaptive middleware",
    ),
)
def _run_matrix(
    scenario: Scenario,
    profile: GameProfile,
    *,
    policy: LoadPolicyConfig | None = None,
    middleware: MiddlewareConfig | None = None,
    perf: PerfConfig | None = None,
    seed: int = 0,
    pool_capacity: int = 16,
    sample_period: float = 1.0,
    chaos: ChaosOptions | None = None,
    replicated_mc: bool | None = None,
    shards: int | None = None,
    shard_executor: str = "serial",
    observe: Callable[[Any], None] | None = None,
) -> tuple[ExperimentResult, MatrixExperiment]:
    if replicated_mc is None:
        replicated_mc = _wants_standby_mc(scenario, chaos)
    # perfbench/workloads.py still passes the keyword; one value is left.
    if shard_executor != "serial":
        raise ValueError(
            f"shard_executor={shard_executor!r}: the thread and process "
            "shard executors were removed (lanes run serially); pass "
            '"serial" or omit the argument'
        )
    if shards is None:
        experiment = MatrixExperiment(
            profile,
            policy=policy,
            middleware=middleware,
            perf=perf,
            seed=seed,
            pool_capacity=pool_capacity,
            sample_period=sample_period,
            grid=scenario.grid,
            replicated_mc=replicated_mc,
        )
    else:
        from repro.harness.shards import ShardedMatrixExperiment  # no cycle

        experiment = ShardedMatrixExperiment(
            profile,
            policy=policy,
            middleware=middleware,
            perf=perf,
            seed=seed,
            pool_capacity=pool_capacity,
            sample_period=sample_period,
            grid=scenario.grid,
            replicated_mc=replicated_mc,
            shards=shards,
        )
    scenario.install(experiment.fleet, profile)
    _arm_chaos(experiment, scenario, "matrix", chaos)
    if observe is not None:
        observe(experiment)
    return experiment.run(until=scenario.duration), experiment


@scenario_backend(
    "static",
    info=BackendInfo(
        name="static",
        ownership="fixed grid tiles, one server each, forever",
        routing="local overlap table, O(1) per packet",
        consistency="overlap-region forwarding between fixed tiles",
        summary="the paper's §4 comparator: no repartitioning",
    ),
)
def _run_static(
    scenario: Scenario,
    profile: GameProfile,
    *,
    seed: int = 0,
    columns: int = 2,
    rows: int = 1,
    queue_capacity: int | None = 20000,
    perf: PerfConfig | None = None,
    chaos: ChaosOptions | None = None,
    observe: Callable[[Any], None] | None = None,
):
    from repro.baselines.static import StaticExperiment  # local: no cycle

    if scenario.grid is not None:
        columns, rows = scenario.grid
    experiment = StaticExperiment(
        profile,
        seed=seed,
        columns=columns,
        rows=rows,
        queue_capacity=queue_capacity,
        perf=perf,
    )
    scenario.install(experiment.fleet, profile)
    _arm_chaos(experiment, scenario, "static", chaos)
    if observe is not None:
        observe(experiment)
    return experiment.run(until=scenario.duration), experiment


@scenario_backend(
    "mirrored",
    info=BackendInfo(
        name="mirrored",
        ownership="every mirror owns the whole world; clients round-robin",
        routing="none: packets terminate on the client's home mirror",
        consistency="every packet replicated to the other k-1 mirrors",
        summary="the §5 commercial approach: tightly-coupled mirrors",
    ),
)
def _run_mirrored(
    scenario: Scenario,
    profile: GameProfile,
    *,
    seed: int = 0,
    mirrors: int = 3,
    queue_capacity: int | None = 20000,
    perf: PerfConfig | None = None,
    chaos: ChaosOptions | None = None,
    observe: Callable[[Any], None] | None = None,
):
    from repro.baselines.mirrored import MirroredExperiment  # local: no cycle

    experiment = MirroredExperiment(
        profile,
        seed=seed,
        mirrors=mirrors,
        queue_capacity=queue_capacity,
        perf=perf,
    )
    scenario.install(experiment.fleet, profile)
    _arm_chaos(experiment, scenario, "mirrored", chaos)
    if observe is not None:
        observe(experiment)
    return experiment.run(until=scenario.duration), experiment


@scenario_backend(
    "p2p",
    info=BackendInfo(
        name="p2p",
        ownership="none: per-player uplinks, region tiles scope groups",
        routing="direct member-to-member fan-out within a region group",
        consistency="per-player upload grows with group_size - 1",
        summary="the §5 peer-to-peer region groups (Knutsson-style)",
    ),
)
def _run_p2p(
    scenario: Scenario,
    profile: GameProfile,
    *,
    seed: int = 0,
    columns: int = 2,
    rows: int = 2,
    uplink_capacity: float | None = None,
    queue_capacity: int | None = 20000,
    perf: PerfConfig | None = None,
    chaos: ChaosOptions | None = None,
    observe: Callable[[Any], None] | None = None,
):
    from repro.baselines.p2p import (  # local: no cycle
        DEFAULT_UPLINK_BYTES_PER_S,
        P2PExperiment,
    )

    if scenario.grid is not None:
        columns, rows = scenario.grid
    experiment = P2PExperiment(
        profile,
        seed=seed,
        columns=columns,
        rows=rows,
        uplink_capacity=(
            uplink_capacity
            if uplink_capacity is not None
            else DEFAULT_UPLINK_BYTES_PER_S
        ),
        queue_capacity=queue_capacity,
        perf=perf,
    )
    scenario.install(experiment.fleet, profile)
    _arm_chaos(experiment, scenario, "p2p", chaos)
    if observe is not None:
        observe(experiment)
    return experiment.run(until=scenario.duration), experiment


@scenario_backend(
    "dht",
    info=BackendInfo(
        name="dht",
        ownership="fixed grid tiles, one server each, forever",
        routing="Chord-style overlay lookup, O(log N) hops per packet",
        consistency="overlap forwarding plus dht.hop/dht.result chains",
        summary="the §3.2.4 alternative: DHT lookup instead of tables",
    ),
)
def _run_dht(
    scenario: Scenario,
    profile: GameProfile,
    *,
    seed: int = 0,
    columns: int = 4,
    rows: int = 2,
    queue_capacity: int | None = 20000,
    perf: PerfConfig | None = None,
    chaos: ChaosOptions | None = None,
    observe: Callable[[Any], None] | None = None,
):
    from repro.baselines.dht import DhtExperiment  # local: no cycle

    if scenario.grid is not None:
        columns, rows = scenario.grid
    experiment = DhtExperiment(
        profile,
        seed=seed,
        columns=columns,
        rows=rows,
        queue_capacity=queue_capacity,
        perf=perf,
    )
    scenario.install(experiment.fleet, profile)
    _arm_chaos(experiment, scenario, "dht", chaos)
    if observe is not None:
        observe(experiment)
    return experiment.run(until=scenario.duration), experiment


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
    scaled ``policy``/profile (see ``LoadPolicyConfig.scaled`` and
    ``repro.harness.compare.scaled_profile``).  ``chaos`` controls
    fault injection: ``"auto"`` (default) arms a
    :class:`~repro.chaos.ChaosDriver` exactly when the scenario
    declares fault phases, ``False`` runs a chaos scenario with its
    faults disarmed, and a :class:`~repro.chaos.ChaosOptions` tunes
    the driver (and can add extra faults).  The armed driver is
    reachable as ``outcome.experiment.chaos``.  ``observe`` is called
    with the fully wired experiment *before* it runs — the hook the
    trace recorder uses to tap the network (see
    :mod:`repro.trace.recorder`).  Remaining keyword options go to the
    backend runner verbatim.
    """
    if isinstance(scenario, str):
        scenario = build_scenario(scenario)
    if scale != 1.0:
        scenario = scenario.scaled(scale)
    if preview is not None:
        scenario = scenario.preview(preview)
    if profile is None:
        profile = profile_by_name(scenario.game)
    try:
        runner = _BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown backend {backend!r}; known: {backend_names()}"
        ) from None
    result, experiment = runner(
        scenario,
        profile,
        chaos=_resolve_chaos(scenario, chaos),
        observe=observe,
        **options,
    )
    return ScenarioOutcome(
        scenario=scenario,
        backend=backend,
        result=result,
        experiment=experiment,
    )


# Registers the "replay" scenario backend (trace files as first-class
# workloads).  Bottom-of-module so repro.trace.replay can import the
# decorator from this, already-initialised, module.
import repro.trace.replay  # noqa: E402,F401  (registration side effect)
