"""Figure 2b — per-server receive-queue length during the hotspot.

Expected shape (paper §4.1): the receive queue of the overloaded server
spikes when 600 clients join, and collapses once Matrix sheds load onto
freshly split servers; no unbounded growth anywhere.
"""

from common import SCALE, fig2_result, record

from repro.analysis.asciiplot import render_series


def test_fig2b_queue_length():
    result = fig2_result()
    chart = render_series(
        result.queue_per_server,
        title=(
            f"Fig 2b (scale={SCALE}): receive queue length per server "
            f"[paper: spike at hotspot onset, relieved by splits]"
        ),
        y_label="queued packets",
    )
    lines = [chart, ""]
    for name, series in sorted(result.queue_per_server.items()):
        if len(series) and series.max() > 0:
            lines.append(
                f"{name}: peak queue {series.max():.0f} at t={series.argmax():.0f}s,"
                f" final {series.last():.0f}"
            )
    record("fig2b_queue_length", "\n".join(lines))

    # Spike-then-recovery shape: some server saturates at onset...
    assert result.max_queue() > 50, "hotspot should overwhelm one server"
    # ...but every queue ends the run drained (no unbounded growth).
    for name, series in result.queue_per_server.items():
        if len(series):
            assert series.last() <= max(50.0, 0.1 * series.max()), (
                f"{name} queue did not recover"
            )
