"""U-study — transparency proxy for the paper's user study (§4.2).

Expected shape: "game players did not perceive any significant
Matrix-induced performance degradation" — the steady-state latency
distribution with Matrix actively splitting matches the no-split
control within the (scaled) perception threshold.
"""

from common import SEED, record

from repro.games.profile import bzflag_profile
from repro.harness.userstudy import measure_transparency


def test_transparency():
    report = measure_transparency(
        bzflag_profile(),
        hotspot_clients=80,
        background_clients=40,
        duration=150.0,
        seed=SEED,
    )
    lines = [
        "U-study: response latency, hotspot-with-splits vs spread "
        "control (paired seeds)",
        f"  splits triggered:       {report.splits_triggered}",
        f"  with splits:    {report.with_splits}",
        f"  without splits: {report.without_splits}",
        f"  added p50: {report.added_p50 * 1000:+.1f} ms   "
        f"added p90: {report.added_p90 * 1000:+.1f} ms",
        f"  perception threshold (rate-scaled): "
        f"{report.threshold * 1000:.0f} ms",
        f"  switch latency: {report.switch_latency}",
        f"  verdict: {'TRANSPARENT' if report.transparent else 'PERCEIVED'}",
    ]
    record("user_study_transparency", "\n".join(lines))

    assert report.splits_triggered > 0, "the hotspot must exercise Matrix"
    assert report.transparent
