"""User-study transparency proxy (§4.2).

"We then conducted a simple user study, using Bzflag, that showed that
Matrix is completely transparent to real game players.  Even under
heavy load, requiring Matrix to add servers, game players did not
perceive any significant Matrix-induced performance degradation."

Substitution (no human players offline): transparency is
operationalised as a *paired* comparison.  Two runs share seeds and
total population; in run A the population forms a hotspot that forces
Matrix to split, in run B it stays uniformly spread (no Matrix
activity).  If the *steady-state* response-latency distribution of the
players (measured outside the brief split transient) degrades by less
than the perception threshold, Matrix's machinery was imperceptible.

The paper cites 150 ms as the playability threshold [Armitage 2001];
our simulation runs with rates scaled down 5x (see
:mod:`repro.games.profile`), so the equivalent scaled threshold is
750 ms.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.stats import Summary, summarize
from repro.core.config import LoadPolicyConfig
from repro.games.profile import GameProfile
from repro.harness.runner import run_scenario
from repro.workload.scenarios import (
    ArrivalWave,
    HotspotWave,
    MapPoint,
    Phase,
    Scenario,
)

#: 150 ms perception threshold x the 5x rate scaling of the profiles.
SCALED_PERCEPTION_THRESHOLD = 0.750


@dataclass(frozen=True, slots=True)
class TransparencyReport:
    """Outcome of the paired transparency experiment."""

    with_splits: Summary
    without_splits: Summary
    splits_triggered: int
    switch_latency: Summary | None
    threshold: float

    @property
    def added_p50(self) -> float:
        """Median latency Matrix activity added."""
        return self.with_splits.p50 - self.without_splits.p50

    @property
    def added_p90(self) -> float:
        """p90 latency Matrix activity added."""
        return self.with_splits.p90 - self.without_splits.p90

    @property
    def transparent(self) -> bool:
        """The §4.2 claim, as a predicate."""
        return (
            self.splits_triggered > 0
            and self.added_p50 <= self.threshold
            and self.added_p90 <= self.threshold
        )


def measure_transparency(
    profile: GameProfile,
    hotspot_clients: int = 80,
    background_clients: int = 40,
    duration: float = 180.0,
    settle_time: float = 80.0,
    seed: int = 0,
    policy: LoadPolicyConfig | None = None,
    threshold: float = SCALED_PERCEPTION_THRESHOLD,
) -> TransparencyReport:
    """Run the paired A/B transparency experiment.

    *policy* defaults to thresholds sized so the hotspot forces at
    least one split.  Latencies are taken from actions *acknowledged
    after* ``settle_time`` so the deliberately induced overload
    transient (which any system would feel) is excluded; what remains
    is the steady-state cost of playing on a split, multi-server world
    vs an unsplit one.
    """
    if policy is None:
        policy = LoadPolicyConfig(
            overload_clients=max(4, (hotspot_clients * 2) // 3),
            underload_clients=max(2, hotspot_clients // 4),
        )

    def run(name: str, crowd: Phase):
        scenario = Scenario(
            name=name,
            description="the user-study population: background + crowd",
            phases=(ArrivalWave(count=background_clients), crowd),
            duration=duration,
            game=profile.name,
        )
        # Latency bookkeeping: discard the transient by snapshotting
        # the per-client counts at settle_time and keeping the rest.
        baseline_counts = {}

        def mark_settle(experiment) -> None:
            def mark():
                for client in experiment.fleet.clients:
                    baseline_counts[client.name] = len(client.action_latencies)

            experiment.sim.at(settle_time, mark)

        outcome = run_scenario(
            scenario, profile=profile, policy=policy, seed=seed,
            observe=mark_settle,
        )
        steady: list[float] = []
        for client in outcome.experiment.fleet.clients:
            start = baseline_counts.get(client.name, 0)
            steady.extend(client.action_latencies[start:])
        return outcome.result, steady

    result_a, latencies_a = run(
        "transparency-hotspot",
        HotspotWave(
            count=hotspot_clients,
            center=MapPoint(0.625, 0.5),
            at=5.0,
            group="hotspot",
        ),
    )
    _, latencies_b = run(
        "transparency-spread",
        ArrivalWave(count=hotspot_clients, at=5.0, group="spread"),
    )
    if not latencies_a or not latencies_b:
        raise RuntimeError("no steady-state latencies collected")
    switch = (
        summarize(result_a.switch_latencies)
        if result_a.switch_latencies
        else None
    )
    return TransparencyReport(
        with_splits=summarize(latencies_a),
        without_splits=summarize(latencies_b),
        splits_triggered=result_a.splits_completed,
        switch_latency=switch,
        threshold=threshold,
    )
