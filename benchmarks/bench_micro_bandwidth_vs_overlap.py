"""M-band — inter-server traffic vs overlap-region size (§4.2).

Expected shape: "the amount of traffic sent between Matrix servers
corresponded directly to the size of the overlap regions" — i.e. the
forwarded-byte count is (near-)linear in the overlap population.
"""

from common import SEED, record

from repro.games.profile import bzflag_profile
from repro.harness.micro import (
    bandwidth_overlap_correlation,
    measure_bandwidth_vs_overlap,
)

RADII = (20.0, 40.0, 60.0, 80.0, 100.0)


def test_bandwidth_tracks_overlap():
    points = measure_bandwidth_vs_overlap(
        bzflag_profile(), radii=RADII, clients=120, duration=45.0, seed=SEED
    )
    correlation = bandwidth_overlap_correlation(points)
    lines = [
        "M-band: inter-Matrix-server traffic vs overlap size "
        "(2 servers, radius sweep)",
        f"{'R':>6} {'overlap area':>14} {'est. population':>16} "
        f"{'forwarded bytes':>16} {'forwarded msgs':>15}",
    ]
    for p in points:
        lines.append(
            f"{p.radius:>6.0f} {p.overlap_area:>14.0f} "
            f"{p.overlap_population_estimate:>16.1f} "
            f"{p.forward_bytes:>16} {p.forward_messages:>15}"
        )
    lines.append("")
    lines.append(
        f"Pearson correlation (population vs bytes): {correlation:.4f}"
    )
    record("micro_bandwidth_vs_overlap", "\n".join(lines))

    assert correlation > 0.95, "traffic must track overlap size"
    bytes_seq = [p.forward_bytes for p in points]
    assert bytes_seq == sorted(bytes_seq), "traffic must grow with R"
