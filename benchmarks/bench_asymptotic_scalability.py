"""A-scale — the asymptotic scalability analysis (§4.2).

Expected shape: (a) >1 M players on <=10 k servers is feasible exactly
when the overlap population stays small relative to the total; (b)
scalability is ultimately bounded by per-server I/O capacity.
"""

from common import record

from repro.analysis.asymptotic import (
    AsymptoticParams,
    max_players,
    overlap_fraction,
    per_server_io,
    supports_paper_claim,
)

#: An MMOG-scale world: visibility radius is tiny vs the world.
SMALL_OVERLAP = AsymptoticParams(world_area=1e10, radius=100.0)
#: A pathological world where R is huge relative to partitions: at the
#: server count 1 M players would need, partitions are far smaller than
#: the visibility diameter and consistency traffic diverges.
LARGE_OVERLAP = AsymptoticParams(world_area=1e6, radius=400.0)


def test_asymptotic_scalability():
    good = supports_paper_claim(SMALL_OVERLAP)
    bad = supports_paper_claim(LARGE_OVERLAP)
    lines = ["A-scale: asymptotic model (paper §4.2, final paragraph)", ""]
    lines.append("case 1 — small overlap (R tiny vs partitions):")
    for key, value in good.items():
        lines.append(f"    {key}: {value}")
    lines.append("case 2 — large overlap (R comparable to partitions):")
    for key, value in bad.items():
        lines.append(f"    {key}: {value}")

    lines.append("")
    lines.append("players supportable vs servers (small-overlap world):")
    lines.append(f"{'servers':>10} {'max players':>14} {'overlap frac':>13} "
                 f"{'per-server IO (MB/s)':>21}")
    for servers in (1, 10, 100, 1000, 10000, 100000):
        players = max_players(SMALL_OVERLAP, servers)
        io = per_server_io(SMALL_OVERLAP, players, servers)
        lines.append(
            f"{servers:>10} {players:>14.0f} "
            f"{overlap_fraction(SMALL_OVERLAP, servers):>13.4f} "
            f"{io.total / 1e6:>21.1f}"
        )
    record("asymptotic_scalability", "\n".join(lines))

    # (a) the paper's 1M/10k claim holds when overlap is small...
    assert good["feasible_within_10k_servers"]
    assert good["overlap_fraction_at_operating_point"] < 0.2
    # ...and fails when the overlap population is large.
    assert not bad["feasible_within_10k_servers"]
    # (b) per-server I/O is the binding constraint at the frontier.
    servers = good["min_servers"]
    io = per_server_io(SMALL_OVERLAP, 1_000_000, servers)
    assert io.total <= SMALL_OVERLAP.server_io_capacity
    if servers > 1:
        tighter = per_server_io(SMALL_OVERLAP, 1_000_000, servers - 1)
        assert tighter.total > SMALL_OVERLAP.server_io_capacity
