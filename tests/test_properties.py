"""Property-based tests (hypothesis) on core data structures and
invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import CCParams, linear_cct
from repro.core.throttling import ThrottleState
from repro.metrics.analysis import jain_index
from repro.network.arbiter import ISlip
from repro.network.buffers import BufferPool, PacketQueue
from repro.network.packet import Packet
from repro.network.routing import build_routing
from repro.network.topology import k_ary_n_tree
from repro.sim.engine import Simulator


# ----------------------------------------------------------------------
# engine ordering
# ----------------------------------------------------------------------
@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=60))
@settings(max_examples=60, deadline=None)
def test_events_fire_sorted_with_stable_ties(times):
    sim = Simulator()
    fired = []
    for i, t in enumerate(times):
        sim.schedule(t, fired.append, (t, i))
    sim.run()
    assert fired == sorted(fired)  # time asc, then scheduling order


@given(
    st.lists(
        st.tuples(st.floats(min_value=0, max_value=1e5), st.booleans()),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=40, deadline=None)
def test_cancelled_events_never_fire(items):
    sim = Simulator()
    fired = []
    handles = []
    for i, (t, cancel) in enumerate(items):
        handles.append((sim.schedule(t, fired.append, i), cancel, i))
    for ev, cancel, _i in handles:
        if cancel:
            ev.cancel()
    sim.run()
    expected = [i for _ev, cancel, i in handles if not cancel]
    assert sorted(fired) == sorted(expected)


# ----------------------------------------------------------------------
# buffers
# ----------------------------------------------------------------------
@given(st.lists(st.sampled_from(["push", "pop"]), min_size=1, max_size=200))
@settings(max_examples=60, deadline=None)
def test_queue_accounting_under_random_ops(ops):
    q = PacketQueue("q", track_dests=True)
    model = []
    k = 0
    for op in ops:
        if op == "push":
            p = Packet(0, k % 5, 100 + k % 3, "f")
            q.push(p)
            model.append(p)
            k += 1
        elif model:
            assert q.pop() is model.pop(0)
    assert len(q) == len(model)
    assert q.bytes == sum(p.size for p in model)
    expect = {}
    for p in model:
        expect[p.dst] = expect.get(p.dst, 0) + p.size
    assert q.dest_bytes == expect


@given(st.lists(st.integers(min_value=1, max_value=4096), max_size=50))
@settings(max_examples=50, deadline=None)
def test_pool_conservation(sizes):
    pool = BufferPool(1 << 20)
    held = []
    for s in sizes:
        if pool.free >= s:
            pool.reserve(s)
            held.append(s)
    assert pool.used == sum(held)
    for s in held:
        pool.release(s)
    assert pool.used == 0


# ----------------------------------------------------------------------
# routing on random fat trees
# ----------------------------------------------------------------------
@given(st.integers(min_value=2, max_value=4), st.integers(min_value=1, max_value=3))
@settings(max_examples=12, deadline=None)
def test_det_routing_delivers_everywhere(k, n):
    topo = k_ary_n_tree(k, n)
    topo.validate()  # follows every pair to its destination, loop-free


@given(st.integers(min_value=2, max_value=3), st.integers(min_value=2, max_value=3))
@settings(max_examples=8, deadline=None)
def test_bfs_routing_agrees_on_reachability(k, n):
    topo = k_ary_n_tree(k, n)
    topo.routes = build_routing(topo)
    topo.validate()


@given(st.integers(min_value=2, max_value=4))
@settings(max_examples=6, deadline=None)
def test_paths_to_one_destination_form_a_tree(k):
    """All paths towards one destination merge and never diverge."""
    topo = k_ary_n_tree(k, 2)
    for dst in range(0, topo.num_nodes, max(1, topo.num_nodes // 4)):
        next_hop = {}
        for src in range(topo.num_nodes):
            if src == dst:
                continue
            for sw, out in topo.path(src, dst):
                if sw in next_hop:
                    assert next_hop[sw] == out, "divergent next hop"
                next_hop[sw] = out


# ----------------------------------------------------------------------
# arbiter
# ----------------------------------------------------------------------
request_strategy = st.dictionaries(
    st.integers(min_value=0, max_value=7),
    st.sets(st.integers(min_value=0, max_value=7), min_size=1, max_size=8),
    max_size=8,
)


@given(request_strategy)
@settings(max_examples=120, deadline=None)
def test_islip_always_returns_valid_matching(requests):
    arb = ISlip(8, 8, iterations=2)
    m = arb.match(requests)
    outs = list(m.values())
    assert len(outs) == len(set(outs))
    for inp, out in m.items():
        assert out in requests[inp]


@given(request_strategy)
@settings(max_examples=80, deadline=None)
def test_islip_matching_is_maximal_for_single_output_requests(requests):
    """If every input requests exactly one output, iSlip must match one
    input per requested output (no idle output with a waiting input)."""
    single = {i: {min(outs)} for i, outs in requests.items()}
    arb = ISlip(8, 8)
    m = arb.match(single)
    wanted = {min(outs) for outs in single.values()}
    assert set(m.values()) == wanted


# ----------------------------------------------------------------------
# throttling arithmetic
# ----------------------------------------------------------------------
@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=100))
@settings(max_examples=50, deadline=None)
def test_ccti_stays_in_table_bounds(dests):
    sim = Simulator()
    ts = ThrottleState(
        sim, CCParams(cct=linear_cct(entries=5, step=10.0), becn_min_interval=0.0)
    )
    for d in dests:
        ts.on_becn(d)
        assert 0 <= ts.ccti(d) <= 4
        assert ts.ird(d) == ts.cct[ts.ccti(d)]
    sim.run(until=1e9)
    assert all(ts.ccti(d) == 0 for d in set(dests))  # full decay


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
@given(st.lists(st.floats(min_value=0, max_value=1e3), min_size=1, max_size=20))
@settings(max_examples=60, deadline=None)
def test_jain_index_bounds(rates):
    j = jain_index(rates)
    assert 1.0 / len(rates) - 1e-9 <= j <= 1.0 + 1e-9
