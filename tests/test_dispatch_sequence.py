"""The dispatch sequence is pinned, not just the results.

``Fabric.stats()["events"]`` is part of every ``CaseResult`` and hence
of every golden digest, so a change to the per-packet path may make an
event cheaper but may not fuse, drop or add one.  This test runs the
three cell workloads of ``benchmarks/e2e`` (at a fifth of their time
scales) on ``Simulator(profile=True)`` and holds the event total and
the whole per-callback histogram to the values recorded at commit
258f3ea, before the handlers were flattened (docs/performance.md, "One
frame per handler").

A change that fuses events on purpose (fewer events per packet) first
has to take ``events`` out of the digest, in a benchmark-only change;
then it re-records these numbers.
"""

import pytest

from repro.experiments import run_case
from repro.sim.engine import Simulator

FLAP = "down:s0p4->s16p0@1.2ms;up:s0p4->s16p0@1.5ms"

CELLS = {
    "case1_ccfit": dict(case="case1", scheme="CCFIT", time_scale=0.05),
    "incast_pfc_shared": dict(
        case="case4", scheme="PFC+RCM", num_trees=4, buffer_model="shared", time_scale=0.005
    ),
    "incast_ccfit_faulted": dict(
        case="case4", scheme="CCFIT", num_trees=1, routing="adaptive", faults=FLAP,
        time_scale=0.005,
    ),
}

#: cell -> (stats["events"], Simulator.event_counts), seed 1.
PINNED = {
    "case1_ccfit": (18879, {
        "EndNode._inject": 2725,
        "EndNode.pump": 167,
        "FlowGenerator._tick": 1835,
        "Link._credit_arrive": 1998,
        "Link._deliver": 3071,
        "Link._deliver_control": 214,
        "Link._deliver_reverse_control": 79,
        "Link._tx_done": 3071,
        "NfqCfqScheme._arm_hot.<locals>.confirm": 5,
        "NfqCfqScheme._maybe_deallocate.<locals>.recheck": 67,
        "Switch._match": 5590,
        "ThrottleState._decay": 57,
    }),
    "incast_pfc_shared": (13037, {
        "EndNode._inject": 1773,
        "FlowGenerator._tick": 128,
        "Link._credit_arrive": 2079,
        "Link._deliver": 3055,
        "Link._tx_done": 3055,
        "Switch._match": 2035,
        "UniformGenerator._tick": 912,
    }),
    "incast_ccfit_faulted": (8694, {
        "EndNode._inject": 1485,
        "FaultInjector._apply": 2,
        "FaultInjector._reroute": 2,
        "FlowGenerator._tick": 128,
        "Link._credit_arrive": 877,
        "Link._deliver": 1852,
        "Link._deliver_reverse_control": 5,
        "Link._tx_done": 1852,
        "NfqCfqScheme._maybe_deallocate.<locals>.recheck": 112,
        "Switch._match": 1467,
        "UniformGenerator._tick": 912,
    }),
}


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_event_histogram_is_pinned(cell):
    sims = []

    def profiled():
        sims.append(Simulator(profile=True))
        return sims[-1]

    kw = dict(CELLS[cell])
    result = run_case(kw.pop("case"), seed=1, sim_factory=profiled, **kw)
    (sim,) = sims
    events, histogram = PINNED[cell]
    assert result.stats["events"] == events
    assert sim.event_counts == histogram
    assert sum(histogram.values()) == events  # no telemetry, no guard: every dispatch counts
