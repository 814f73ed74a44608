"""Terminal rendering of experiment time series.

The benches and examples print Fig-2-style charts straight into the
terminal so "regenerating the figure" needs nothing but stdout.
"""

from __future__ import annotations

from repro.analysis.timeseries import TimeSeries

#: Glyphs assigned to series in order (server 1, server 2, ...).
GLYPHS = "123456789abcdef"


def render_series(
    series: dict[str, TimeSeries],
    width: int = 78,
    height: int = 16,
    title: str = "",
    y_label: str = "",
) -> str:
    """Render multiple time series as one ASCII chart.

    Each series gets a glyph; later series overwrite earlier ones on
    collisions (fine for eyeballing).  Returns a printable string.
    """
    live = {name: s for name, s in series.items() if len(s) > 0}
    if not live:
        return f"{title}\n(no data)"

    t_min = min(s.times[0] for s in live.values())
    t_max = max(s.times[-1] for s in live.values())
    v_max = max(max(s.values) for s in live.values())
    v_max = max(v_max, 1.0)
    t_span = max(t_max - t_min, 1e-9)

    grid = [[" "] * width for _ in range(height)]
    legend: list[str] = []
    for index, (name, current) in enumerate(sorted(live.items())):
        glyph = GLYPHS[index % len(GLYPHS)]
        legend.append(f"{glyph}={name}")
        for t, v in zip(current.times, current.values):
            col = int((t - t_min) / t_span * (width - 1))
            row = int(v / v_max * (height - 1))
            grid[height - 1 - row][col] = glyph

    lines = []
    if title:
        lines.append(title)
    lines.append(f"{y_label} (max={v_max:g})")
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * width)
    lines.append(f" t={t_min:g}s{' ' * max(width - 24, 1)}t={t_max:g}s")
    lines.append(" " + "  ".join(legend))
    return "\n".join(lines)
