"""Ab-split — split-strategy ablation (§3.2.3 / §5).

The paper ships split-to-left ("though simple, this algorithm still
provides good performance") and points at smarter splitters [8,14,15].
This bench runs the same hotspot under all three implemented strategies
and compares servers used, splits needed, and peak queue.
"""

from common import SCALE, fig2_arguments, record

from repro.core.splitting import STRATEGIES
from repro.harness.runner import run_scenario


def run_with_strategy(strategy: str):
    return run_scenario(**fig2_arguments(), split_strategy=strategy).result


def test_split_strategy_ablation():
    results = {name: run_with_strategy(name) for name in STRATEGIES}
    lines = [
        f"Ab-split (scale={SCALE}): same hotspot under each split strategy",
        f"{'strategy':<16} {'splits':>7} {'reclaims':>9} {'peak srv':>9} "
        f"{'peak queue':>11} {'p99 lat (s)':>12}",
    ]
    from repro.analysis.stats import percentile

    for name, result in results.items():
        p99 = (
            percentile(result.action_latencies, 99)
            if result.action_latencies
            else 0.0
        )
        lines.append(
            f"{name:<16} {result.splits_completed:>7} "
            f"{result.reclaims_completed:>9} "
            f"{result.servers_used:>9} "
            f"{result.max_queue():>11.0f} {p99:>12.3f}"
        )
    lines.append("")
    lines.append(
        "expected: load-weighted needs the fewest splits to settle "
        "(each cut halves *clients*, not area); split-to-left remains "
        "serviceable, as the paper claims."
    )
    record("ablation_split_strategies", "\n".join(lines))

    for name, result in results.items():
        assert result.splits_completed >= 1, f"{name}: no splits happened"
        assert result.failed_splits == 0
    # The load-aware strategy should not need more splits than the
    # paper's area-halving one for a concentrated hotspot.
    assert (
        results["load-weighted"].splits_completed
        <= results["split-to-left"].splits_completed
    )
