"""M-switch — client switching-latency microbenchmark (§4.2).

Expected shape: switching overhead is "acceptable" — a handful of WAN
round trips plus queueing at the receiving server, far below a second.
"""

from common import SEED, record

from repro.games.profile import bzflag_profile
from repro.harness.micro import measure_switching_latency


def test_switching_latency():
    summary = measure_switching_latency(
        bzflag_profile(), clients=100, duration=90.0, seed=SEED
    )
    lines = [
        "M-switch: client handoff latency across a partition border",
        f"  samples: {summary.count}",
        f"  mean:    {summary.mean * 1000:.1f} ms",
        f"  p50:     {summary.p50 * 1000:.1f} ms",
        f"  p90:     {summary.p90 * 1000:.1f} ms",
        f"  p99:     {summary.p99 * 1000:.1f} ms",
        f"  max:     {summary.maximum * 1000:.1f} ms",
        "",
        "paper: switching overhead 'acceptable'; threshold for",
        "playability is 150 ms [Armitage 2001] — unscaled, the handoff",
        "(2 WAN legs + queueing) must sit below it.",
    ]
    record("micro_switching_latency", "\n".join(lines))

    assert summary.count >= 20
    assert summary.p90 < 0.150, "handoff must be imperceptible"
