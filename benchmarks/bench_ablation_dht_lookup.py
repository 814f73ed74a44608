"""Ab-dht — overlap-table O(1) vs DHT O(log N) lookup (§3.2.4).

"Matrix could use alternate lookup methods (such as DHTs), but that
would result in increased latency (e.g., DHT schemes usually need
O(log(N)) lookups for N Matrix servers)."

The table's O(1) is shown by what a lookup searches, not by a stopwatch:
server ``s0``'s index holds the same number of cells at every N, and
every sampled lookup needs zero network hops.  The per-lookup host time
is perfbench's ``geometry.probe.region_lookup_ns``.
"""

import math
import random

from common import record

from repro.baselines.dht import dht_lookup_cost, sample_dht_lookup
from repro.geometry import (
    ChebyshevMetric,
    Rect,
    RegionIndex,
    consistency_set_at,
    decompose_partition,
    tile_world,
)

SERVER_COUNTS = (4, 16, 64, 256, 1024, 4096)
WORLD = Rect(0, 0, 8000, 8000)
RADIUS = 50.0


def test_dht_vs_overlap_table():
    rng = random.Random(7)
    metric = ChebyshevMetric()
    lines = [
        "Ab-dht: per-packet routing lookup, Matrix overlap table vs "
        "Chord-style DHT",
        f"{'servers':>8} {'table cells (s0)':>17} "
        f"{'DHT hops (expected)':>20} {'DHT latency (ms)':>17}",
    ]
    table_cells = {}
    for count in SERVER_COUNTS:
        columns = int(count ** 0.5)
        rows = count // columns
        partitions = {
            f"s{i}": rect
            for i, rect in enumerate(tile_world(WORLD, columns, rows))
        }
        # Only s0's table is read, so only s0's table is built: the
        # full overlap map is quadratic in the tile count.
        cells = decompose_partition("s0", partitions, RADIUS, metric)
        index = RegionIndex(partitions["s0"], cells)
        table_cells[count] = len(cells)
        rect = partitions["s0"]
        for _ in range(256):
            point = rect.sample_point(rng.random(), rng.random())
            # The table answers Equation 1 exactly, without a network hop.
            assert index.lookup(point) == consistency_set_at(
                point, "s0", partitions, RADIUS, metric
            )
        dht = dht_lookup_cost(columns * rows)
        lines.append(
            f"{columns * rows:>8} {len(cells):>17} "
            f"{dht.expected_hops:>20.2f} "
            f"{dht.expected_latency * 1000:>17.3f}"
        )

    samples = [sample_dht_lookup(1024, rng) for _ in range(2000)]
    lines.append("")
    lines.append(
        f"sampled DHT lookup @1024 servers: mean "
        f"{math.fsum(samples) / len(samples) * 1000:.3f} ms vs table: "
        f"0 network hops"
    )
    lines.append(
        "expected: the table lookup is flat in N (O(1), no network); "
        "DHT latency grows with log N and is orders of magnitude larger."
    )
    record("ablation_dht_lookup", "\n".join(lines))

    # O(1) claim: what a lookup searches does not grow with N.
    assert len(set(table_cells.values())) == 1, table_cells
    # The DHT needs network hops; the table needs none.
    assert dht_lookup_cost(1024).expected_latency > 1e-3
