"""Discrete-event simulation substrate.

The engine in :mod:`repro.sim.engine` is the clock and scheduler every
other component of the reproduction runs on: one ``heapq`` that fires
events in ``(time, seq)`` order.  See docs/performance.md.
"""

from repro.sim.engine import Event, SimulationError, Simulator
from repro.sim.faults import FaultEvent, FaultInjector, FaultPlan, FaultPlanError
from repro.sim.rng import RngFactory

__all__ = [
    "Event",
    "Simulator",
    "SimulationError",
    "RngFactory",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
]
