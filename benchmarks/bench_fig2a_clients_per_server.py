"""Figure 2a — number of clients per server during the 600-client hotspot.

Expected shape (paper §4.1): the hotspot lands on server 1, which
splits recursively; server 3 inherits the bulk of the clients and
splits once more; departures lead to reclamation points; the second
hotspot at a different location repeats the pattern.
"""

from common import SCALE, fig2_result, record

from repro.analysis.asciiplot import render_series


def test_fig2a_clients_per_server():
    result = fig2_result()
    chart = render_series(
        result.clients_per_server,
        title=(
            f"Fig 2a (scale={SCALE}): clients per game server "
            f"[paper: 600-client hotspot @t=10, departures, second "
            f"hotspot @t=170]"
        ),
        y_label="clients",
    )
    lines = [chart, ""]
    lines.append(
        f"servers used (peak): {result.servers_used}   "
        f"splits: {result.splits_completed}   "
        f"reclaims: {result.reclaims_completed}"
    )
    lines.append(
        "spawn times:   "
        + ", ".join(f"{t:.1f}s" for t in result.spawn_times())
    )
    lines.append(
        "reclaim times: "
        + ", ".join(f"{t:.1f}s" for t in result.reclaim_times())
    )
    record("fig2a_clients_per_server", "\n".join(lines))

    # Paper shape assertions.
    assert result.splits_completed >= 3, "hotspot must force a split cascade"
    assert result.reclaims_completed >= 1, "departures must trigger reclaims"
    assert result.servers_used >= 4
    assert result.failed_splits == 0
