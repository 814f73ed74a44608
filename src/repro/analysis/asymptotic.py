"""The paper's asymptotic scalability analysis (§4.2, last paragraph).

The paper reports a "simplistic asymptotic analysis" with two
conclusions:

(a) Matrix can scale to a large player population (> 1,000,000 players
    and 10,000 servers) *only if* the number of players in the overlap
    regions is small relative to the total number of players; and
(b) Matrix scalability is ultimately limited by the maximum I/O
    capacity of individual servers.

This module reconstructs that analysis as a closed-form model over
square partitions, and is that model only: nothing here runs the
simulator, and the ``bench_asymptotic_scalability`` bench prints the
model's tables without a simulation.  Comparing the model with
measured runs is open: see ROADMAP, "The §4.2 scalability model meets
the simulator".

Model
-----
``N`` players uniform over world area ``A``, ``S`` servers, radius
``R``.  Each partition is a square of side ``L = sqrt(A/S)``.  The
overlap band of a partition is the strip within ``R`` of its border;
its area fraction is ``1 - (1 - 2R/L)²`` (clamped to 1 when ``L ≤ 2R``
— partitions so small that *every* point is overlap, the regime where
localized consistency collapses).

Per-server I/O (bytes/s) is the sum of client-facing traffic (updates
in, snapshots out) and inter-server consistency traffic: every player
in the overlap band has each update forwarded to the members of its
consistency set (mean size ``c̄``: edge strips have |C|=1, corner
squares |C|=3), and the server symmetrically receives its neighbours'
overlap updates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(slots=True)
class AsymptoticParams:
    """Inputs of the scalability model."""

    world_area: float
    radius: float
    update_hz: float = 2.0
    update_bytes: float = 64.0
    snapshot_hz: float = 1.0
    snapshot_bytes: float = 400.0
    #: Per-server I/O budget, bytes/second (1 Gbit/s NIC of the era).
    server_io_capacity: float = 125e6

    def __post_init__(self) -> None:
        if self.world_area <= 0 or self.radius <= 0:
            raise ValueError("area and radius must be positive")


@dataclass(frozen=True, slots=True)
class IoBreakdown:
    """Per-server I/O decomposition, bytes/second."""

    client_in: float
    client_out: float
    inter_server: float

    @property
    def total(self) -> float:
        return self.client_in + self.client_out + self.inter_server


def partition_side(params: AsymptoticParams, servers: int) -> float:
    """Side length of a square partition with *servers* servers."""
    if servers < 1:
        raise ValueError("need at least one server")
    return math.sqrt(params.world_area / servers)


def overlap_fraction(params: AsymptoticParams, servers: int) -> float:
    """Fraction of a partition's area lying in overlap regions."""
    side = partition_side(params, servers)
    if side <= 2.0 * params.radius:
        return 1.0
    interior = (1.0 - 2.0 * params.radius / side) ** 2
    return 1.0 - interior


def mean_consistency_set_size(params: AsymptoticParams, servers: int) -> float:
    """Area-weighted mean |C(σ)| over the overlap band.

    Edge strips see one neighbour; the four R×R corner squares see
    three.  Returns 0 when there is no overlap (single server).
    """
    if servers <= 1:
        return 0.0
    side = partition_side(params, servers)
    radius = params.radius
    if side <= 2.0 * radius:
        # Degenerate regime: partitions smaller than the visibility
        # diameter.  A point's R-ball covers a (2R+L)x(2R+L) block of
        # partitions, so |C| grows quadratically as partitions shrink —
        # the blow-up behind the paper's "only if the overlap
        # population is small" proviso.
        neighbours = (2.0 * radius / side + 1.0) ** 2 - 1.0
        return min(neighbours, float(servers - 1))
    edge_area = 4.0 * (side - 2.0 * radius) * radius
    corner_area = 4.0 * radius * radius
    mean = (edge_area * 1.0 + corner_area * 3.0) / (edge_area + corner_area)
    # The infinite-square-tiling weights slightly overshoot when only a
    # couple of servers exist; |C| can never exceed S - 1.
    return min(mean, float(servers - 1))


def per_player_io(params: AsymptoticParams, servers: int) -> float:
    """Per-server I/O contributed by each player homed on it (bytes/s)."""
    frac = overlap_fraction(params, servers) if servers > 1 else 0.0
    cbar = mean_consistency_set_size(params, servers)
    client_in = params.update_hz * params.update_bytes
    client_out = params.snapshot_hz * params.snapshot_bytes
    # Outbound forwards for own overlap players + symmetric inbound
    # from the neighbours' overlap players.
    inter = 2.0 * frac * cbar * params.update_hz * params.update_bytes
    return client_in + client_out + inter


def per_server_io(
    params: AsymptoticParams, players: float, servers: int
) -> IoBreakdown:
    """Per-server I/O breakdown for *players* spread over *servers*."""
    per_server_players = players / servers
    frac = overlap_fraction(params, servers) if servers > 1 else 0.0
    cbar = mean_consistency_set_size(params, servers)
    client_in = per_server_players * params.update_hz * params.update_bytes
    client_out = per_server_players * params.snapshot_hz * params.snapshot_bytes
    inter = (
        2.0
        * per_server_players
        * frac
        * cbar
        * params.update_hz
        * params.update_bytes
    )
    return IoBreakdown(
        client_in=client_in, client_out=client_out, inter_server=inter
    )


def max_players(params: AsymptoticParams, servers: int) -> float:
    """Largest N whose per-server I/O fits the capacity at *servers*."""
    return servers * params.server_io_capacity / per_player_io(params, servers)


def min_servers_for(params: AsymptoticParams, players: float) -> int | None:
    """Smallest server count supporting *players*, or None if impossible."""
    servers = 1
    while servers <= 1 << 24:
        if max_players(params, servers) >= players:
            # Binary refine between servers//2 and servers.
            lo = max(1, servers // 2)
            hi = servers
            while lo < hi:
                mid = (lo + hi) // 2
                if max_players(params, mid) >= players:
                    hi = mid
                else:
                    lo = mid + 1
            return hi
        # Terminate early once more servers stops helping.
        if servers > 2 and max_players(params, servers) < max_players(
            params, servers // 2
        ):
            return None
        servers *= 2
    return None


def supports_paper_claim(params: AsymptoticParams) -> dict:
    """Evaluate the §4.2 claim: 1 M players on ≤ 10 k servers.

    Returns a report dict with the verdict and the overlap fraction at
    the operating point, demonstrating the "only if the overlap
    population is small" proviso.
    """
    target_players = 1_000_000
    needed = min_servers_for(params, target_players)
    feasible = needed is not None and needed <= 10_000
    at = needed if needed is not None else 10_000
    return {
        "target_players": target_players,
        "min_servers": needed,
        "feasible_within_10k_servers": feasible,
        "overlap_fraction_at_operating_point": overlap_fraction(params, at),
        "io_at_operating_point": per_server_io(
            params, target_players, at
        ).total
        if needed is not None
        else None,
    }
