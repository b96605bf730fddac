"""Golden equivalence: the pluggable-scheme refactor must be invisible.

``tests/golden/scheme_equivalence.json`` pins the canonical JSON (and
its SHA-256) of every ``CaseResult`` produced by the paper schemes
*before* the hook-based scheme architecture landed (commit ``a480e9c``).
These tests recompute each cell on the production engine and on the
one-handle-per-event reference (the ``sim_cls`` fixture, tests/conftest.py)
and require byte-identical output — any behavioural drift in the
refactored switch/end-node/fabric path, or in the event queue, fails
loudly, with the full dict diff.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.params import CCParams
from repro.experiments.runner import run_case
from repro.sim.engine import Simulator
from tests.conftest import SIM_CLASSES
from tests.heap_oracle import HeapSimulator

GOLDEN_PATH = Path(__file__).parent / "golden" / "scheme_equivalence.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())
META = GOLDEN["_meta"]

FLAP = "down:s0p4->s16p0@1.2ms;up:s0p4->s16p0@1.5ms"

#: cells with no golden pin, on the paths the golden grid (static
#: buffers, det routing, fault-free) never reaches: the shared pool (the
#: Config #3 incast, and a tight pool that actually PAUSEs), the fault
#: state machine, and every non-det routing policy.  The reference is a
#: fresh heap-oracle run of the same cell.
ORACLE_CELLS = {
    "case4-pfc-shared": dict(
        case="case4", scheme="PFC+RCM", num_trees=4, buffer_model="shared", time_scale=0.025
    ),
    "case1-pfc-shared-pausing": dict(
        case="case1", scheme="PFC", buffer_model="shared", time_scale=0.05,
        params=CCParams(memory_size=16 * 2048, shared_alpha=0.5),
    ),
    "case4-ccfit-adaptive-flap": dict(
        case="case4", scheme="CCFIT", routing="adaptive", faults=FLAP, time_scale=0.025
    ),
    **{
        f"case1-{routing}": dict(case="case1", scheme="CCFIT", routing=routing, time_scale=0.05)
        for routing in ("ecmp", "adaptive", "flowlet")
    },
}


def _canonical(res) -> str:
    return json.dumps(res.to_dict(), sort_keys=True)


# explicit (indirect) so the ids stay "<cell>-<queue>"
@pytest.mark.parametrize("sim_cls", sorted(SIM_CLASSES), indirect=True)
@pytest.mark.parametrize("cell", sorted(GOLDEN["cells"]))
def test_cell_matches_golden(cell, sim_cls):
    case, scheme = cell.split("/")
    res = run_case(
        case,
        scheme=scheme,
        time_scale=META["grid"][case],
        seed=META["seed"],
        sim_factory=sim_cls,
    )
    gold = GOLDEN["cells"][cell]
    # dict comparison first: on drift, pytest shows *which* field moved.
    assert res.to_dict() == gold["result"], f"{cell} drifted on {sim_cls.__name__}"
    blob = _canonical(res)
    digest = hashlib.sha256(blob.encode()).hexdigest()
    assert digest == gold["sha256"], f"{cell} canonical JSON differs on {sim_cls.__name__}"


def test_det_policy_is_the_golden_reference(sim_cls):
    """Explicit ``routing="det"`` (the policy-layer path, not the
    default-resolution path) reproduces the pre-policy golden bytes —
    on both event queues — proving the RoutingPolicy indirection is
    invisible to results."""
    cell = sorted(GOLDEN["cells"])[0]
    case, scheme = cell.split("/")
    res = run_case(
        case,
        scheme=scheme,
        time_scale=META["grid"][case],
        seed=META["seed"],
        routing="det",
        sim_factory=sim_cls,
    )
    gold = GOLDEN["cells"][cell]
    assert res.to_dict() == gold["result"]
    assert hashlib.sha256(_canonical(res).encode()).hexdigest() == gold["sha256"]
    # the det marker itself must not leak into the serialised bytes
    assert "routing" not in res.to_dict()


@pytest.mark.parametrize("cell", sorted(ORACLE_CELLS))
def test_heap_oracle_matches_calendar_queue(cell):
    """Off the golden grid the engine must still agree with the heap
    oracle byte for byte (see :data:`ORACLE_CELLS`)."""
    kw = dict(ORACLE_CELLS[cell])
    case = kw.pop("case")
    blobs = [
        _canonical(run_case(case, seed=META["seed"], sim_factory=factory, **kw))
        for factory in (Simulator, HeapSimulator)
    ]
    assert blobs[0] == blobs[1], f"engine diverges from the heap oracle on {cell}"


def test_golden_file_covers_declared_grid():
    """The golden file itself is consistent: one cell per declared
    (case, scheme) pair, each with a digest matching its own result."""
    expected = {
        f"{case}/{scheme}"
        for case in META["grid"]
        for scheme in META["schemes"]
    }
    assert set(GOLDEN["cells"]) == expected
    for cell, payload in GOLDEN["cells"].items():
        blob = json.dumps(payload["result"], sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == payload["sha256"], cell
