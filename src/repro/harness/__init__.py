"""Experiment harness: runners for every figure/table of the paper.

Beyond the figure reproductions, :func:`run_scenario` pairs any
registered scenario with a backend (Matrix or a baseline) — the one
experiment path every CLI command, grid and benchmark goes through
(see docs/ARCHITECTURE.md, "One experiment path").
"""

from repro.harness.compare import (
    GameComparison,
    SystemOutcome,
    Verdict,
    compare_all_games,
    compare_backends,
    compare_game,
    format_backends_table,
    format_comparison_table,
    outcome_for,
)
from repro.harness.experiment import (
    ExperimentResult,
    MatrixExperiment,
    matrix_config_for,
)
from repro.harness.fig2 import (
    Fig2Schedule,
    fig2_scenario,
    install_fig2_workload,
    install_fleet_workload,
    mini_fig2_policy,
    run_fig2,
)
from repro.harness.parallel import (
    GridCell,
    GridTask,
    GridTaskError,
    run_grid,
    timing_section,
)
from repro.harness.runner import (
    ScenarioOutcome,
    backend_info,
    backend_infos,
    backend_names,
    run_scenario,
    scenario_backend,
)
from repro.harness.micro import (
    BandwidthPoint,
    CoordinatorOverhead,
    bandwidth_overlap_correlation,
    coordinator_overhead,
    measure_bandwidth_vs_overlap,
    measure_switching_latency,
)
from repro.harness.userstudy import (
    SCALED_PERCEPTION_THRESHOLD,
    TransparencyReport,
    measure_transparency,
)

__all__ = [
    "BandwidthPoint",
    "CoordinatorOverhead",
    "ExperimentResult",
    "Fig2Schedule",
    "GameComparison",
    "GridCell",
    "GridTask",
    "GridTaskError",
    "MatrixExperiment",
    "SCALED_PERCEPTION_THRESHOLD",
    "ScenarioOutcome",
    "SystemOutcome",
    "TransparencyReport",
    "Verdict",
    "backend_info",
    "backend_infos",
    "backend_names",
    "bandwidth_overlap_correlation",
    "compare_all_games",
    "compare_backends",
    "compare_game",
    "coordinator_overhead",
    "fig2_scenario",
    "format_backends_table",
    "format_comparison_table",
    "install_fig2_workload",
    "install_fleet_workload",
    "matrix_config_for",
    "measure_bandwidth_vs_overlap",
    "measure_switching_latency",
    "measure_transparency",
    "mini_fig2_policy",
    "outcome_for",
    "run_fig2",
    "run_grid",
    "run_scenario",
    "scenario_backend",
    "timing_section",
]
