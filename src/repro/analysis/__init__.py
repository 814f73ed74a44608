"""Analysis utilities: time series, stats, plots, the asymptotic model."""
