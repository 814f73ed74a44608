"""Deterministic discrete-event simulation kernel.

This package is the substrate every other layer runs on: a float-time
event heap (:class:`Simulator`), periodic tasks, and named
seeded RNG streams (:class:`RngRegistry`).
"""

from repro.sim.kernel import SimulationError, Simulator
from repro.sim.process import PeriodicTask
from repro.sim.rng import RngRegistry

__all__ = [
    "PeriodicTask",
    "RngRegistry",
    "SimulationError",
    "Simulator",
]
