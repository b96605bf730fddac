"""Byte pins for Config #3 cells that no golden file covers.

``tests/golden/scheme_equivalence.json`` pins Configs #1 and #2 only,
and the benchmark's ``golden.json`` pins its own three cells and the
Config #1 grid.  These three 64-node cells run the per-destination
state that the other pins never reach at this size: VOQnet's queue per
destination at every switch port (under det routing, and under
adaptive routing with a link flap) and the 1Q cell whose uniform
traffic passes through staged AdVOQs.  Each digest is the SHA-256 of
the canonical ``CaseResult`` JSON (as in test_scheme_equivalence.py),
recorded before the per-destination queues became lazily built; both
event kernels must reproduce it.
"""

import hashlib
import json

import pytest

from repro.experiments.runner import run_case

FLAP = "down:s0p4->s16p0@1.2ms;up:s0p4->s16p0@1.5ms"

PINS = {
    "case4-voqnet-4trees": (
        dict(case="case4", scheme="VOQnet", num_trees=4, time_scale=0.01),
        "1a25d025599fdafd5cf28bacb4c43482789aecd31a476b45a08f1702e1df7204",
    ),
    "case4-voqnet-adaptive-flap": (
        dict(case="case4", scheme="VOQnet", num_trees=1, routing="adaptive",
             faults=FLAP, time_scale=0.01),
        "6fb5bb523d3cf3fbdf92b0d59640a81cda21058e0b84d92fd04a0dc1b8a2abeb",
    ),
    "case4-1q": (
        dict(case="case4", scheme="1Q", time_scale=0.01),
        "b39556dcc94853d7e893ce9f7f36ce6c5a1a57f420ef88076526c112849cb224",
    ),
}


@pytest.mark.parametrize("cell", sorted(PINS))
def test_config3_cell_matches_its_pin(cell, sim_cls):
    kw, sha = PINS[cell]
    kw = dict(kw)
    res = run_case(kw.pop("case"), seed=3, sim_factory=sim_cls, **kw)
    blob = json.dumps(res.to_dict(), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == sha, f"{cell} drifted"
