"""Human-readable rendering of a :class:`PerfRegistry` snapshot.

The ``python -m repro perf`` subcommand prints this report; a run's
result carries the underlying snapshot dict unrendered
(``perf_snapshot``).  Formatting lives here so the CLI and any future
TUI share one renderer.
"""

from __future__ import annotations

from repro.perf.instruments import PerfRegistry


def format_report(registry: PerfRegistry, title: str = "perf report") -> str:
    """Render every instrument of *registry* as an aligned ASCII table."""
    snapshot = registry.snapshot()
    lines: list[str] = [title, "=" * len(title)]

    counters = snapshot["counters"]
    if counters:
        lines.append("")
        lines.append("counters")
        width = max(len(name) for name in counters)
        for name, data in counters.items():
            value = f"  value={data['value']:g}" if data["value"] else ""
            lines.append(f"  {name:<{width}}  {data['count']:>12}{value}")

    timers = snapshot["timers"]
    if timers:
        lines.append("")
        lines.append(
            f"timers{'':<26} {'calls':>10} {'total':>9} {'mean':>9} "
            f"{'p50':>9} {'p99':>9}"
        )
        for name, data in timers.items():
            lines.append(
                f"  {name:<30} {data['count']:>10} "
                f"{data['total_s']:>8.3f}s "
                f"{data['mean_us']:>7.1f}us "
                f"{data['p50_us']:>7.1f}us "
                f"{data['p99_us']:>7.1f}us"
            )

    samplers = snapshot["samplers"]
    if samplers:
        lines.append("")
        lines.append(
            f"samplers{'':<24} {'samples':>10} {'min':>9} {'mean':>9} "
            f"{'max':>9}"
        )
        for name, data in samplers.items():
            lines.append(
                f"  {name:<30} {data['count']:>10} {data['min']:>9.1f} "
                f"{data['mean']:>9.1f} {data['max']:>9.1f}"
            )

    if len(lines) == 2:
        lines.append("(no instruments fired)")
    return "\n".join(lines)
