"""Microbenchmarks (§4.2): switching latency, bandwidth vs overlap,
coordinator overhead.

"We also conducted microbenchmarks that showed that Matrix's overheads,
in terms of switching latency and bandwidth usage, were acceptable.  In
particular, the overhead of using a central coordinator was negligible
and the amount of traffic sent between Matrix servers corresponded
directly to the size of the overlap regions."
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analysis.stats import Summary, pearson, summarize
from repro.core.config import METRIC
from repro.games.profile import GameProfile
from repro.geometry import compute_overlap_map
from repro.harness.experiment import ExperimentResult
from repro.harness.runner import ScenarioOutcome, run_scenario
from repro.value import replace
from repro.workload.scenarios import ArrivalWave, build_scenario


def _roam(clients: int, duration: float) -> "Scenario":
    """The registered uniform-roam scenario, resized for one measurement."""
    return replace(
        build_scenario("uniform-roam"),
        phases=(ArrivalWave(count=clients),),
        duration=duration,
    )


# ----------------------------------------------------------------------
# M-switch: client switching latency
# ----------------------------------------------------------------------
def measure_switching_latency(
    profile: GameProfile,
    clients: int = 120,
    duration: float = 120.0,
    seed: int = 0,
) -> Summary:
    """Switch-latency distribution of border-crossing clients.

    The ``uniform-roam`` scenario on a 2-partition grid: every border
    crossing triggers the full Matrix handoff (switch directive → hello
    → welcome over WAN).  Returns the latency summary.
    """
    outcome = run_scenario(
        _roam(clients, duration), profile=profile, seed=seed
    )
    latencies = outcome.result.switch_latencies
    if not latencies:
        raise RuntimeError(
            "no server switches observed; increase clients or duration"
        )
    return summarize(latencies)


# ----------------------------------------------------------------------
# M-band: inter-server traffic vs overlap-region size
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class BandwidthPoint:
    """One radius setting of the bandwidth sweep."""

    radius: float
    overlap_area: float
    overlap_population_estimate: float
    forward_bytes: int
    forward_messages: int


def measure_bandwidth_vs_overlap(
    profile: GameProfile,
    radii: tuple[float, ...] = (20.0, 40.0, 60.0, 80.0, 100.0),
    clients: int = 150,
    duration: float = 60.0,
    seed: int = 0,
) -> list[BandwidthPoint]:
    """Sweep the visibility radius; measure inter-Matrix-server bytes.

    The paper's claim is linearity: forwarded traffic tracks the size
    (population) of the overlap regions.  Clients are uniform, so the
    expected overlap population is ``clients x overlap_area / world``.
    """
    points: list[BandwidthPoint] = []
    for radius in radii:
        swept = replace(profile, visibility_radius=radius)
        outcome: ScenarioOutcome = run_scenario(
            _roam(clients, duration), profile=swept, seed=seed
        )
        experiment = outcome.experiment
        traffic = experiment.network.stats
        partitions = {
            name: server.partition
            for name, server in experiment.deployment.matrix_servers.items()
        }
        overlap = math.fsum(
            index.overlap_area()
            for index in compute_overlap_map(
                partitions, radius, METRIC
            ).values()
        )
        population = clients * overlap / swept.world.area
        points.append(
            BandwidthPoint(
                radius=radius,
                overlap_area=overlap,
                overlap_population_estimate=population,
                forward_bytes=traffic.kind_bytes("matrix.forward"),
                forward_messages=traffic.by_kind["matrix.forward"].messages,
            )
        )
    return points


def bandwidth_overlap_correlation(points: list[BandwidthPoint]) -> float:
    """Pearson correlation of overlap population vs forwarded bytes."""
    return pearson(
        [p.overlap_population_estimate for p in points],
        [float(p.forward_bytes) for p in points],
    )


# ----------------------------------------------------------------------
# M-mc: coordinator overhead
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class CoordinatorOverhead:
    """The MC's share of all traffic in a run."""

    mc_messages: int
    total_messages: int
    mc_bytes: int
    total_bytes: int

    @property
    def message_fraction(self) -> float:
        if self.total_messages == 0:
            return 0.0
        return self.mc_messages / self.total_messages

    @property
    def byte_fraction(self) -> float:
        if self.total_bytes == 0:
            return 0.0
        return self.mc_bytes / self.total_bytes


def coordinator_overhead(result: ExperimentResult) -> CoordinatorOverhead:
    """Extract the MC's traffic share from a finished run."""
    traffic = result.traffic
    mc_messages = sum(
        counter.messages
        for kind, counter in traffic.by_kind.items()
        if kind.startswith("mc.")
    )
    return CoordinatorOverhead(
        mc_messages=mc_messages,
        total_messages=traffic.total.messages,
        mc_bytes=traffic.kind_bytes("mc."),
        total_bytes=traffic.total.bytes,
    )
