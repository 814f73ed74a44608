"""Figure 1a — overlap regions between 3 Matrix servers.

The paper's Fig 1a illustrates the overlap-region decomposition for a
three-server layout.  This bench runs the MC's table computation for
that layout (the operation that runs on every split/reclaim) and prints
the region inventory.
"""

from common import record

from repro.geometry import (
    ChebyshevMetric,
    Rect,
    compute_overlap_map,
)

WORLD = Rect(0, 0, 800, 800)
RADIUS = 60.0


def fig1a_partitions():
    """The Fig 1a layout: one left half, right half split top/bottom."""
    left, right = WORLD.halves("x")
    bottom_right, top_right = right.halves("y")
    return {"S1": left, "S2": bottom_right, "S3": top_right}


def test_fig1a_overlap_regions():
    partitions = fig1a_partitions()
    index_map = compute_overlap_map(partitions, RADIUS, ChebyshevMetric())
    lines = [
        f"Fig 1a: overlap regions, 3 servers, R={RADIUS}, world {WORLD}"
    ]
    for name in sorted(index_map):
        index = index_map[name]
        lines.append(f"\nserver {name}  partition={index.partition}")
        for region in index.regions:
            members = ",".join(sorted(region.servers))
            lines.append(
                f"  region -> {{{members}}}  area={region.area:.0f}  "
                f"rects={len(region.rects)}"
            )
    record("fig1a_overlap_regions", "\n".join(lines))

    # The junction of all three partitions must produce a region whose
    # consistency set names both other servers, for every server.
    for name, index in index_map.items():
        sets = {region.servers for region in index.regions}
        others = frozenset(set(partitions) - {name})
        assert others in sets, f"{name} missing the 3-way junction region"
