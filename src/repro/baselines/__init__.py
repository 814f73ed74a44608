"""Baselines: the rival architectures Matrix is compared against.

Each rival lives in its own module as *both* a closed-form cost model
(what the ablation benches plot) and a real event-driven system built
on the shared :class:`~repro.baselines.backend.ArchitectureBackend`
scaffolding (what the unified scenario runner executes).  See
``docs/ARCHITECTURE.md`` ("Architecture backends") for the
ownership/routing/consistency answers of each.
"""
