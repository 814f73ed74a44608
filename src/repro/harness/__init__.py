"""Experiment harness: runners for every figure/table of the paper.

:func:`run_scenario` pairs any registered scenario — the paper's
``fig2-hotspot`` timeline included — with a backend (Matrix or a
baseline): the one experiment path every CLI command, grid, benchmark,
example and the user study go through (see docs/ARCHITECTURE.md, "One
experiment path").
"""

from repro.harness.compare import (
    SystemOutcome,
    Verdict,
    compare_backends,
    format_backends_table,
    format_comparison_table,
    outcome_for,
)
from repro.harness.experiment import ExperimentResult, MatrixExperiment
from repro.harness.parallel import (
    GridCell,
    GridTask,
    GridTaskError,
    run_grid,
    timing_section,
)
from repro.harness.runner import (
    ScenarioOutcome,
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
    "GridCell",
    "GridTask",
    "GridTaskError",
    "MatrixExperiment",
    "SCALED_PERCEPTION_THRESHOLD",
    "ScenarioOutcome",
    "SystemOutcome",
    "TransparencyReport",
    "Verdict",
    "backend_infos",
    "backend_names",
    "bandwidth_overlap_correlation",
    "compare_backends",
    "coordinator_overhead",
    "format_backends_table",
    "format_comparison_table",
    "measure_bandwidth_vs_overlap",
    "measure_switching_latency",
    "measure_transparency",
    "outcome_for",
    "run_grid",
    "run_scenario",
    "scenario_backend",
    "timing_section",
]
