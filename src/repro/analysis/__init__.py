"""Analysis utilities: time series, stats, plots, the asymptotic model."""

from repro.analysis.asciiplot import render_series
from repro.analysis.asymptotic import (
    AsymptoticParams,
    IoBreakdown,
    max_players,
    mean_consistency_set_size,
    min_servers_for,
    overlap_fraction,
    partition_side,
    per_player_io,
    per_server_io,
    supports_paper_claim,
)
from repro.analysis.stats import Summary, pearson, percentile, summarize
from repro.analysis.timeseries import Sampler, TimeSeries

__all__ = [
    "AsymptoticParams",
    "IoBreakdown",
    "Sampler",
    "Summary",
    "TimeSeries",
    "max_players",
    "mean_consistency_set_size",
    "min_servers_for",
    "overlap_fraction",
    "partition_side",
    "pearson",
    "per_player_io",
    "per_server_io",
    "percentile",
    "render_series",
    "summarize",
    "supports_paper_claim",
]
