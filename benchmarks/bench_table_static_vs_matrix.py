"""T-static — Matrix vs static partitioning on all three games (§4.1/4.2).

Expected shape: "Matrix is able to automatically use extra servers to
handle the load while the static partitioning schemes just fail."
"""

from common import SCALE, SEED, record

from repro.core.config import LoadPolicyConfig
from repro.games.profile import profile_by_name
from repro.harness.compare import compare_backends, format_comparison_table
from repro.harness.gridcells import GRID_FLOORS

GAMES = ("bzflag", "quake2", "daimonin")


def run_table():
    """The fig2-hotspot timeline on each game's profile, both systems."""
    return [
        (
            game,
            compare_backends(
                "fig2-hotspot",
                backends=("matrix", "static"),
                profile=profile_by_name(game),
                policy=LoadPolicyConfig().scaled(SCALE, **GRID_FLOORS),
                seed=SEED,
                scale=SCALE,
            ),
        )
        for game in GAMES
    ]


def test_static_vs_matrix_all_games():
    rows = run_table()
    table = format_comparison_table(rows)
    lines = [
        f"T-static (scale={SCALE}): same hotspot workload on Matrix vs a "
        f"fixed 2-server static partitioning",
        table,
    ]
    record("table_static_vs_matrix", "\n".join(lines))

    for game, (matrix, static) in rows:
        assert not matrix.failed and static.failed, (
            f"{game}: expected Matrix ok / static failing, got "
            f"matrix.failed={matrix.failed} static.failed={static.failed}"
        )
        assert static.p99_latency > matrix.p99_latency
