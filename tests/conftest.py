"""Shared fixtures.

``sim_cls`` is the two-way event-queue fixture: the production engine
and the one-handle-per-event reference (tests/heap_oracle.py).  A test
taking it runs once per class; pass it as
``run_case(sim_factory=sim_cls)`` or call it for a bare simulator.
"""

import pytest

from repro.sim.engine import Simulator
from tests.heap_oracle import HeapSimulator

#: the ids are recorded test ids: ``bucket`` is the engine (one FIFO
#: bucket per timestamp), ``heap`` the one-handle-per-event reference
SIM_CLASSES = {"bucket": Simulator, "heap": HeapSimulator}


@pytest.fixture(params=sorted(SIM_CLASSES))
def sim_cls(request):
    return SIM_CLASSES[request.param]
