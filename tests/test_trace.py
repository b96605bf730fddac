"""Protocol-trace tests (and, through them, protocol-dynamics checks).

The full event streams of :func:`tests.pins.hot_fabric` and a faulted
cell's telemetry bundle are pins (tests/golden/pins.json)."""

import warnings

import pytest

from repro.metrics.trace import ProtocolTrace, TraceEvent
from repro.network.fabric import build_fabric
from repro.network.topology import config1_adhoc
from repro.telemetry import TreeTracker
from repro.traffic.flows import FlowSpec, attach_traffic
from tests.pins import hot_fabric


def test_trace_records_full_tree_lifecycle():
    fab, trace = hot_fabric()
    fab.run(until=3_000_000.0)
    kinds = trace.counts()
    for expected in ("detect", "adopt", "stop", "go", "dealloc", "cs-enter",
                     "fecn", "becn"):
        assert kinds.get(expected, 0) > 0, f"no {expected} events traced"


def test_trace_query_filters():
    fab, trace = hot_fabric()
    fab.run(until=1_500_000.0)
    detects = trace.query(kind="detect")
    assert detects and all(e.kind == "detect" for e in detects)
    for_dest = trace.query(dest=4)
    assert for_dest and all(e.dest == 4 for e in for_dest)
    both = trace.query(kind="detect", dest=4)
    assert set(both) <= set(detects)


def test_tree_lifetimes_are_positive_and_closed():
    fab, trace = hot_fabric()
    fab.run(until=3_000_000.0)
    closed = [r for r in TreeTracker().consume(trace.events).records() if r.drain is not None]
    assert closed, "no tree ever completed its lifecycle"
    for record in closed:
        assert record.lifetime() > 0
        assert record.drain <= 3_000_000.0


def test_reaction_latency_is_fast_for_ccfit():
    """The combined mechanism's selling point: from local detection to
    the first source-side BECN within a fraction of a millisecond."""
    fab, trace = hot_fabric()
    fab.run(until=2_000_000.0)
    detect, becn = (trace.query(kind=kind, dest=4) for kind in ("detect", "becn"))
    assert detect and becn
    assert 0 < becn[0].time - detect[0].time < 500_000.0  # well under half a millisecond


def test_fbicm_traces_have_no_marking():
    fab, trace = hot_fabric(scheme="FBICM")
    fab.run(until=1_000_000.0)
    kinds = trace.counts()
    assert kinds.get("detect", 0) > 0
    assert kinds.get("fecn", 0) == 0
    assert kinds.get("becn", 0) == 0


def test_double_attach_rejected():
    fab = build_fabric(config1_adhoc(), scheme="CCFIT", seed=5)
    trace = ProtocolTrace().attach(fab)
    with pytest.raises(RuntimeError):
        trace.attach(fab)


def test_event_limit_bounds_memory():
    fab = build_fabric(config1_adhoc(), scheme="CCFIT", seed=5)
    trace = ProtocolTrace(limit=10).attach(fab)
    attach_traffic(
        fab,
        flows=[FlowSpec(f"h{s}", src=s, dst=4, rate=2.5) for s in (1, 2, 5)],
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fab.run(until=2_000_000.0)
    assert len(trace.events) == 10


def test_event_limit_counts_drops_and_warns_once():
    """Regression: events past the limit used to vanish silently — now
    they are counted in .dropped and the first drop warns (once)."""
    fab = build_fabric(config1_adhoc(), scheme="CCFIT", seed=5)
    trace = ProtocolTrace(limit=10).attach(fab)
    attach_traffic(
        fab,
        flows=[FlowSpec(f"h{s}", src=s, dst=4, rate=2.5) for s in (1, 2, 5)],
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fab.run(until=2_000_000.0)
    assert len(trace.events) == 10
    assert trace.dropped > 0
    hits = [
        w for w in caught
        if issubclass(w.category, RuntimeWarning) and "ProtocolTrace" in str(w.message)
    ]
    assert len(hits) == 1, "the limit warning must fire exactly once"


def test_untruncated_trace_reports_no_drops():
    fab, trace = hot_fabric()
    fab.run(until=500_000.0)
    assert trace.events
    assert trace.dropped == 0


def test_cam_saturated_fast_path_is_traced():
    """The detection early-out (every line known busy) skips the CAM
    scan, so the event carries no destination — but it must still show
    up in the trace and in the failure counter."""
    from repro.core.isolation import NfqCfqScheme

    fab = build_fabric(config1_adhoc(), scheme="FBICM", seed=5)
    trace = ProtocolTrace().attach(fab)
    scheme = next(
        port.scheme
        for sw in fab.switches
        for port in sw.input_ports
        if isinstance(port.scheme, NfqCfqScheme)
    )
    before = scheme.cam.alloc_failures
    scheme.cam.note_full()
    assert scheme.cam.alloc_failures == before + 1
    events = trace.query(kind="cam-full")
    assert events and events[-1].dest is None


def test_event_str_is_readable():
    e = TraceEvent(time=12_345.0, kind="detect", where="sw1.in4", dest=4, detail="cfq0")
    s = str(e)
    assert "detect" in s and "sw1.in4" in s and "dest=4" in s


@pytest.mark.parametrize("scheme", ["CCFIT", "ITh"])
def test_attach_patches_nothing(scheme):
    """Attaching sets ``recorder`` hooks and nothing else: no switch,
    input port, scheme, CAM, marker, gate or node gains or rebinds any
    other instance attribute (so none shadows a method of its class),
    and each switch keeps its own marker object."""
    fab = build_fabric(config1_adhoc(), scheme=scheme, seed=5)
    objs = [fab.switches, fab.nodes, [n.throttle for n in fab.nodes]]
    for sw in fab.switches:
        objs += [[sw.marker], sw.input_ports, [p.scheme for p in sw.input_ports],
                 [getattr(p.scheme, "cam", None) for p in sw.input_ports]]
    objs = [o for group in objs for o in group if o is not None]
    markers = [sw.marker for sw in fab.switches]
    before = [dict(getattr(o, "__dict__", {})) for o in objs]
    ProtocolTrace().attach(fab)
    assert any(markers)
    assert all(sw.marker is m for sw, m in zip(fab.switches, markers))
    for obj, old in zip(objs, before):
        new = getattr(obj, "__dict__", {})
        changed = {k for k in new if k not in old or new[k] is not old[k]}
        assert changed <= {"recorder"}, (obj, changed)
