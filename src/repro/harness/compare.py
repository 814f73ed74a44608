"""Cross-architecture comparison on a shared workload (§4.1–§4.2, §5).

"For these three games, we showed that Matrix is able to outperform
static partitioning schemes when unexpected loads or hotspots occur.
In particular, Matrix is able to automatically use extra servers to
handle the load while the static partitioning schemes just fail."

Built entirely on the unified scenario runner: any registered backend
(matrix, static, mirrored, p2p, dht) runs the *same* declarative
scenario (same seed, same client waves) and is graded by the same
verdict — peak receive queue, dropped packets, p99 response latency,
servers used.  :func:`compare_backends` runs any backend set: the
paper's Matrix-vs-static table (T-static) is ``("matrix", "static")``
on ``fig2-hotspot`` once per game, and ``python -m repro compare`` is
every backend.

A comparison below the paper's population only means something when
every capacity shrinks with the load, so this module also holds **the
scaled-run recipe** — :func:`scaled_profile`,
:func:`scaled_queue_capacity`, :func:`scaled_setup`,
:func:`backend_run_options` and their sum,
:func:`scaled_run_arguments` — the one definition of how a run at
``scale`` parameterises a backend.  The CLI, the sweep, the fuzz
harness, the benchmark grids and ``perfbench`` all call it.
"""

from __future__ import annotations

from repro.analysis.stats import p99_or_zero
from repro.baselines.backend import BackendResult
from repro.core.config import LoadPolicyConfig
from repro.games.profile import GameProfile, profile_by_name
from repro.harness.runner import backend_names, run_scenario
from repro.value import Value, replace
from repro.workload.scenarios import Scenario, build_scenario


class SystemOutcome(Value):
    """One system's showing on a shared workload."""

    __slots__ = (
        "system", "peak_queue", "dropped_packets", "p99_latency",
        "servers_used", "failed",
    )

    def __init__(
        self, system: str, peak_queue: float, dropped_packets: int,
        p99_latency: float, servers_used: int, failed: bool,
    ) -> None:
        self.system = system
        self.peak_queue = peak_queue
        self.dropped_packets = dropped_packets
        self.p99_latency = p99_latency
        self.servers_used = servers_used
        self.failed = failed


def scaled_profile(profile: GameProfile, scale: float) -> GameProfile:
    """Scale a profile's server capacity with a scaled population.

    When a comparison runs at ``scale`` of the paper's population (and
    correspondingly scaled policy thresholds), the per-server packet
    capacity must shrink by the same factor or neither system ever
    saturates and the comparison is vacuous.
    """
    return replace(
        profile,
        server_service_rate=max(profile.server_service_rate * scale, 10.0),
    )


def scaled_queue_capacity(queue_capacity: int, scale: float) -> int:
    """The receive-queue cap that goes with :func:`scaled_profile`."""
    return max(int(queue_capacity * scale), 100)


def scaled_setup(
    game: str, scale: float, **floors: int
) -> tuple[GameProfile, LoadPolicyConfig]:
    """Profile and policy scaled coherently with the population.

    *floors* are ``LoadPolicyConfig.scaled``'s ``floor_overload`` /
    ``floor_underload``; two pairs are in use — the method's own 4/2
    (CLI, sweep) and the 6/3 of
    :data:`repro.harness.gridcells.GRID_FLOORS` (the paper benches,
    grids, fuzz harness).
    """
    return (
        scaled_profile(profile_by_name(game), scale),
        LoadPolicyConfig().scaled(scale, **floors),
    )


def backend_run_options(
    backend: str,
    scale: float,
    policy: LoadPolicyConfig | None,
    seed: int = 1,
    queue_capacity: int | None = None,
) -> dict:
    """Per-backend ``run_scenario`` options for a scaled run.

    The matrix backend takes the scaled policy, and the p2p consumer
    uplink scales with the population or its bottleneck silently
    vanishes.  With *queue_capacity* (already scaled, see
    :func:`scaled_queue_capacity`) the baselines additionally get that
    queue cap — for runs graded on drops; without it each backend keeps
    its default cap.
    """
    options: dict = {"seed": seed}
    if backend == "matrix":
        options["policy"] = policy
    elif queue_capacity is not None:
        options["queue_capacity"] = queue_capacity
    if backend == "p2p":
        from repro.baselines.p2p import DEFAULT_UPLINK_BYTES_PER_S

        options["uplink_capacity"] = DEFAULT_UPLINK_BYTES_PER_S * scale
    return options


def scaled_run_arguments(
    scenario: Scenario,
    backend: str,
    scale: float,
    seed: int,
    preview: float | None = None,
    queue_capacity: int | None = None,
    **floors: int,
) -> dict:
    """``run_scenario`` keyword arguments for *scenario* at *scale*.

    :func:`scaled_setup` and :func:`backend_run_options` put together:
    what the CLI, the sweep, the fuzz harness and the grid cells pass
    to the runner (and to ``record_scenario``, which takes the same).
    """
    profile, policy = scaled_setup(scenario.game, scale, **floors)
    options = backend_run_options(
        backend, scale, policy, seed=seed, queue_capacity=queue_capacity
    )
    return dict(
        scenario=scenario,
        backend=backend,
        profile=profile,
        scale=scale,
        preview=preview,
        **options,
    )


class Verdict(Value):
    """The shared failure criteria every compared system is graded by.

    A system *fails* when any of these hold:

    * it drops packets (queue cap reached), or
    * its worst queue exceeds ``queue_fraction`` of the cap (saturated
      for an extended period instead of absorbing the spike), or
    * p99 response latency exceeds ``latency_factor`` snapshot periods
      — gameplay is unplayable even if the queue survives.
    """

    __slots__ = ("queue_capacity", "queue_fraction", "latency_bound")

    def __init__(
        self, queue_capacity: int, queue_fraction: float, latency_bound: float
    ) -> None:
        self.queue_capacity = queue_capacity
        self.queue_fraction = queue_fraction
        self.latency_bound = latency_bound

    def failed(self, peak_queue: float, dropped: int, p99: float) -> bool:
        """Apply the three §4.2 failure criteria."""
        return (
            dropped > 0
            or peak_queue >= self.queue_fraction * self.queue_capacity
            or p99 > self.latency_bound
        )


def outcome_for(
    system: str, result: BackendResult, verdict: Verdict
) -> SystemOutcome:
    """Grade one backend's run result with the shared verdict."""
    peak_queue = result.max_queue()
    p99 = p99_or_zero(result.action_latencies)
    return SystemOutcome(
        system=system,
        peak_queue=peak_queue,
        dropped_packets=result.dropped_packets,
        p99_latency=p99,
        servers_used=result.servers_used,
        failed=verdict.failed(peak_queue, result.dropped_packets, p99),
    )


def compare_cell(
    scenario: Scenario,
    backend: str,
    profile: GameProfile,
    scale: float,
    preview: float | None,
    options: dict,
    verdict: Verdict,
) -> SystemOutcome:
    """Run and grade one backend of a comparison (module-level:
    picklable for pool workers)."""
    result = run_scenario(
        scenario,
        backend=backend,
        profile=profile,
        scale=scale,
        preview=preview,
        **options,
    ).result
    return outcome_for(backend, result, verdict)


def compare_backends(
    scenario: Scenario | str,
    backends: tuple[str, ...] | None = None,
    profile: GameProfile | None = None,
    policy: LoadPolicyConfig | None = None,
    seed: int = 0,
    scale: float = 1.0,
    preview: float | None = None,
    jobs: int | None = None,
) -> list[SystemOutcome]:
    """Run *scenario* on every backend in *backends*; grade uniformly.

    The default backend set is every registered architecture.  Every
    baseline gets a 20 000-message receive-queue cap, and a system
    fails (:class:`Verdict`) when it drops a packet, its peak queue
    reaches half of that cap or its p99 response latency exceeds four
    snapshot periods.  ``scale < 1`` shrinks the population *and* every
    capacity knob together — server service rate (see
    :func:`scaled_profile`), the queue cap, and the p2p backend's
    consumer-uplink bandwidth (see :func:`backend_run_options`) — so
    each architecture's bottleneck scales with its load and the
    verdicts stay meaningful; the Matrix run additionally receives
    *policy* (scale it coherently, see :func:`scaled_setup`).  ``jobs``
    runs the backends in parallel worker processes; outcomes are
    returned in *backends* order regardless.
    """
    from repro.harness.parallel import GridTask, run_grid

    if backends is None:
        backends = tuple(backend_names())
    if isinstance(scenario, str):
        scenario = build_scenario(scenario)
    if profile is None:
        profile = profile_by_name(scenario.game)
    queue_capacity = 20000
    if scale != 1.0:
        profile = scaled_profile(profile, scale)
        queue_capacity = scaled_queue_capacity(queue_capacity, scale)
    verdict = Verdict(
        queue_capacity=queue_capacity,
        queue_fraction=0.5,
        latency_bound=4.0 / profile.snapshot_hz,
    )
    tasks = []
    for index, backend in enumerate(backends):
        options = backend_run_options(
            backend, scale, policy, seed=seed, queue_capacity=queue_capacity
        )
        # The key leads with the caller's index so the merged order is
        # the caller's backend order, not alphabetical.
        tasks.append(
            GridTask(
                key=(index, backend),
                fn=compare_cell,
                kwargs=dict(
                    scenario=scenario,
                    backend=backend,
                    profile=profile,
                    scale=scale,
                    preview=preview,
                    options=options,
                    verdict=verdict,
                ),
            )
        )
    return [cell.value for cell in run_grid(tasks, jobs=jobs)]


def _outcome_lines(outcomes: list[SystemOutcome], label: str = "") -> list[str]:
    lines = []
    for outcome in outcomes:
        verdict = "FAILS" if outcome.failed else "ok"
        prefix = f"{label:<10} " if label else ""
        lines.append(
            f"{prefix}{outcome.system:<8} "
            f"{outcome.peak_queue:>12.0f} {outcome.dropped_packets:>9} "
            f"{outcome.p99_latency:>12.3f} {outcome.servers_used:>8} "
            f"{verdict:>9}"
        )
    return lines


def format_comparison_table(
    rows: list[tuple[str, list[SystemOutcome]]]
) -> str:
    """Render the T-static table: one ``(game, outcomes)`` row per game."""
    lines = [
        f"{'game':<10} {'system':<8} {'peak queue':>12} {'dropped':>9} "
        f"{'p99 lat (s)':>12} {'servers':>8} {'verdict':>9}"
    ]
    for game, outcomes in rows:
        lines.extend(_outcome_lines(outcomes, label=game))
    return "\n".join(lines)


def format_backends_table(outcomes: list[SystemOutcome]) -> str:
    """Render a multi-backend comparison (``python -m repro compare``)."""
    lines = [
        f"{'system':<8} {'peak queue':>12} {'dropped':>9} "
        f"{'p99 lat (s)':>12} {'servers':>8} {'verdict':>9}"
    ]
    lines.extend(_outcome_lines(outcomes))
    return "\n".join(lines)
