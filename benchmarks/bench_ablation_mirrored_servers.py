"""Ab-mirror — mirrored fully-consistent servers vs Matrix (§5).

"Commercial MMOG systems ... allocate multiple tightly-coupled
(completely consistent) servers to handle the same partition, an
approach that is neither efficient nor very scalable."

The bench shows why: adding mirrors never raises the per-server packet
load ceiling (every mirror still processes every packet), while
replication traffic grows linearly with the mirror count; Matrix's
overlap-only forwarding grows only with the boundary population.
"""

from common import record

from repro.baselines.mirrored import max_clients_mirrored, mirrored_cost
from repro.baselines.p2p import max_p2p_group, p2p_group_cost
from repro.games.profile import bzflag_profile


def test_mirrored_and_p2p_costs():
    profile = bzflag_profile()
    clients = 600  # the Fig 2 hotspot

    costs = [mirrored_cost(profile, clients, k) for k in (1, 2, 4, 8, 16)]
    lines = [
        "Ab-mirror: serving the 600-client hotspot with k fully "
        "consistent mirrors",
        f"{'mirrors':>8} {'client pkt/s':>13} {'replication pkt/s':>18} "
        f"{'per-mirror load':>16}",
    ]
    for cost in costs:
        lines.append(
            f"{cost.mirrors:>8} {cost.client_packets_per_second:>13.0f} "
            f"{cost.replication_packets_per_second:>18.0f} "
            f"{cost.per_mirror_load:>16.0f}"
        )
    ceiling = max_clients_mirrored(profile, 16)
    lines.append("")
    lines.append(
        f"max clients regardless of mirror count: {ceiling} "
        f"(service rate {profile.server_service_rate:.0f} pkt/s / "
        f"{profile.update_hz + profile.action_rate:.1f} pkt/s/client)"
    )

    lines.append("")
    lines.append("P2P region groups (§5) on the same hotspot:")
    for size in (8, 32, 128, 600):
        cost = p2p_group_cost(profile, size)
        lines.append(
            f"  group={size:>4}: upload "
            f"{cost.upload_bytes_per_second / 1000:>8.1f} kB/s per player "
            f"({cost.uplink_utilisation * 100:>7.1f} % of uplink) "
            f"{'OK' if cost.feasible else 'INFEASIBLE'}"
        )
    lines.append(
        f"  largest feasible p2p group: {max_p2p_group(profile)} players "
        f"— the 600-player hotspot cannot form"
    )
    record("ablation_mirrored_servers", "\n".join(lines))

    # Mirrors: replication grows with k, capacity ceiling does not move.
    assert costs[-1].replication_packets_per_second > (
        costs[1].replication_packets_per_second
    )
    assert all(
        abs(c.per_mirror_load - costs[0].per_mirror_load) < 1e-6
        for c in costs
    )
    assert ceiling < 600, "mirrors cannot absorb the Fig 2 hotspot"
    # P2P: the hotspot-sized group is far beyond a consumer uplink.
    assert not p2p_group_cost(profile, 600).feasible
