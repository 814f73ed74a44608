"""Experiment harness: runners for every figure/table of the paper.

:func:`~repro.harness.runner.run_scenario` pairs any registered
scenario — the paper's ``fig2-hotspot`` timeline included — with a
backend (Matrix or a baseline): the one experiment path every CLI
command, grid, benchmark, example and the user study go through (see
docs/ARCHITECTURE.md, "One experiment path").
"""
