"""Event-queue contract: dispatch order, handle-free API semantics,
cancellation, and byte-identical figure results.

Every test taking ``sim_cls`` runs on both the production engine (a
heap of handle-free tuples) and the one-handle-per-event reference
(tests/heap_oracle.py): the two share the ``(time, seq)`` contract, so
each assertion here holds on either, and the cross-checks at the bottom
require identical dispatch traces and byte-identical ``CaseResult``s.
See docs/performance.md.
"""

import gc
import json
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimulationError, Simulator
from tests.heap_oracle import HeapSimulator


# ----------------------------------------------------------------------
# handle-free scheduling APIs
# ----------------------------------------------------------------------
def test_post_orders_with_schedule(sim_cls):
    sim = sim_cls()
    fired = []
    sim.schedule(5.0, fired.append, "s1")
    sim.post(5.0, fired.append, "p1")
    sim.post(3.0, fired.append, "p0")
    sim.schedule(5.0, fired.append, "s2")
    sim.run()
    assert fired == ["p0", "s1", "p1", "s2"]


def test_post_in_past_raises(sim_cls):
    sim = sim_cls()
    sim.post(4.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.post(1.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.post_in(-0.5, lambda: None)


def test_schedule_pair_equivalent_to_two_schedules(sim_cls):
    # the pair must interleave with independently scheduled events
    # exactly as two separate schedules would (both seqs reserved at
    # schedule time)
    sim = sim_cls()
    fired = []
    sim.schedule_pair(10.0, fired.append, ("tx",), 12.0, fired.append, ("rx",))
    sim.schedule(10.0, fired.append, "after-tx")  # later seq, same time
    sim.schedule(12.0, fired.append, "after-rx")
    sim.schedule(11.0, fired.append, "between")
    sim.run()
    assert fired == ["tx", "after-tx", "between", "rx", "after-rx"]
    assert sim.events_dispatched == 5


def test_schedule_pair_same_instant(sim_cls):
    sim = sim_cls()
    fired = []
    sim.schedule_pair(7.0, fired.append, ("a",), 7.0, fired.append, ("b",))
    sim.schedule(7.0, fired.append, "c")
    sim.run()
    # both pair seqs (0, 1) predate c's (2), so FIFO gives a, b, c
    assert fired == ["a", "b", "c"]


def test_schedule_pair_validates_times(sim_cls):
    sim = sim_cls()
    with pytest.raises(SimulationError):
        sim.schedule_pair(5.0, lambda: None, (), 4.0, lambda: None, ())
    sim.post(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_pair(0.5, lambda: None, (), 2.0, lambda: None, ())


def test_pending_counts_pairs_and_posts(sim_cls):
    sim = sim_cls()
    sim.post(1.0, lambda: None)
    sim.schedule_pair(2.0, lambda: None, (), 3.0, lambda: None, ())
    assert sim.pending() == 3
    sim.run(max_events=2)
    assert sim.pending() == 1
    sim.run()
    assert sim.pending() == 0


def test_entry_recycling_keeps_order(sim_cls):
    # a schedule/fire/schedule storm with shifting times: the queue's
    # one slot is reused 9000 times and must not misorder or drop events
    sim = sim_cls()
    fired = []
    count = 9000

    def tick(i):
        fired.append(i)
        if i + 1 < count:
            sim.post(sim.now + 1.0 + (i % 7) * 3.0, tick, i + 1)

    sim.post(0.0, tick, 0)
    sim.run()
    assert fired == list(range(count))


# ----------------------------------------------------------------------
# run()/clock semantics (satellite: no fast-forward on max_events)
# ----------------------------------------------------------------------
def test_max_events_break_does_not_fast_forward_clock(sim_cls):
    sim = sim_cls()
    fired = []
    for i in range(1, 11):
        sim.post(float(i), fired.append, i)
    sim.run(until=100.0, max_events=3)
    assert fired == [1, 2, 3]
    assert sim.now == 3.0  # NOT 100.0: there is still pending work
    sim.run(until=100.0)
    assert fired == list(range(1, 11))
    assert sim.now == 100.0  # drained -> clock advances to until


def test_until_with_remaining_future_events_advances_clock(sim_cls):
    sim = sim_cls()
    sim.post(50.0, lambda: None)
    sim.run(until=10.0)
    assert sim.now == 10.0
    sim.run(until=49.0)
    assert sim.now == 49.0
    sim.run(until=50.0)
    assert sim.pending() == 0


def test_peek_time_across_kernels(sim_cls):
    sim = sim_cls()
    assert sim.peek_time() is None
    ev = sim.schedule(3.0, lambda: None)
    sim.post(1000.0, lambda: None)
    assert sim.peek_time() == 3.0
    ev.cancel()
    assert sim.peek_time() == 1000.0


def test_far_future_event_fires_last(sim_cls):
    # an event 10 s ahead among nanosecond-scale ones: run(until=)
    # stops short of it with now == until, and a later run fires it last
    sim = sim_cls()
    fired = []
    far = 10e9
    times = [1.0, far, 7.5, 100.0, 101.0, 5000.0, 5000.0]
    for i, t in enumerate(times):
        sim.post(t, fired.append, (t, i))
    sim.run(until=123456.0)
    assert fired == sorted((t, i) for i, t in enumerate(times) if t != far)
    assert sim.now == 123456.0 and sim.pending() == 1
    sim.run()
    assert fired[-1] == (far, 1) and sim.now == far


def test_max_events_zero_dispatches_nothing(sim_cls):
    sim = sim_cls()
    fired = []
    sim.post(1.0, fired.append, "x")
    sim.run(max_events=0)
    assert fired == [] and sim.now == 0.0
    assert sim.pending() == 1 and sim.events_dispatched == 0
    sim.run(until=5.0, max_events=0)  # work is left: no fast-forward
    assert fired == [] and sim.now == 0.0
    sim.run()
    assert fired == ["x"]


def test_cancel_after_fire_does_not_corrupt_live_count(sim_cls):
    sim = sim_cls()
    ev = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.run(max_events=1)
    ev.cancel()  # already fired: must be a no-op
    assert sim.pending() == 1
    sim.run()
    assert sim.pending() == 0


def test_cancel_from_own_callback_is_a_noop(sim_cls):
    # found by the seam test below: the handle used to stay "queued"
    # until its callback returned, so this debited pending() twice
    sim = sim_cls()
    holder = {}
    holder["ev"] = sim.schedule(1.0, lambda: holder["ev"].cancel())
    sim.schedule(2.0, lambda: None)
    sim.run(max_events=1)
    assert sim.pending() == 1
    sim.run()
    assert sim.pending() == 0 and sim.events_dispatched == 2


def test_event_pending_tracks_queued_state(sim_cls):
    sim = sim_cls()
    fires = sim.schedule(1.0, lambda: None)
    dropped = sim.schedule(2.0, lambda: None)
    assert fires.pending and dropped.pending
    dropped.cancel()
    assert not dropped.pending
    sim.run()
    assert not fires.pending and not fires.cancelled
    with pytest.raises(AttributeError):
        fires.pending = True  # read-only


def test_cancelled_schedule_releases_callback_and_arguments(sim_cls):
    # the tombstone waits in the queue until its time comes up, but must
    # not pin the callback or its arguments alive meanwhile
    class Component:
        def handler(self, payload):  # pragma: no cover - never fires
            raise AssertionError("cancelled event fired")

    sim = sim_cls()
    fired = []
    component, payload = Component(), Component()
    refs = [weakref.ref(component), weakref.ref(payload)]
    ev = sim.schedule(50.0, component.handler, payload)
    sim.post(60.0, fired.append, "live")
    ev.cancel()
    del component, payload
    gc.collect()
    assert [r() for r in refs] == [None, None]
    assert sim.pending() == 1  # already debited
    assert sim.queue_snapshot() == {"list.append": 1}
    sim.run()
    assert fired == ["live"] and sim.events_dispatched == 1 and sim.now == 60.0


# ----------------------------------------------------------------------
# engine vs one-handle-per-event oracle (randomized)
# ----------------------------------------------------------------------
def _mixed_workload(sim, seed):
    """A deterministic schedule/post/pair/cancel storm; returns the
    dispatch trace."""
    import numpy as np

    rng = np.random.default_rng(seed)
    trace = []
    handles = []

    def fire(tag):
        trace.append((sim.now, tag))
        r = rng.random()
        if r < 0.30:
            sim.post(sim.now + float(rng.integers(0, 50)), fire, tag + 1000)
        elif r < 0.55:
            done = sim.now + float(rng.integers(1, 20))
            sim.schedule_pair(done, fire, (tag + 2000,), done + 3.0, fire, (tag + 3000,))
        elif r < 0.75:
            handles.append(sim.schedule(sim.now + float(rng.integers(0, 900)), fire, tag + 4000))
        elif r < 0.85 and handles:
            handles.pop(int(rng.integers(len(handles)))).cancel()

    for i in range(40):
        sim.post(float(rng.integers(0, 200)), fire, i)
    sim.run(until=4000.0)
    return trace


def test_kernels_dispatch_identically_randomized():
    t_engine = _mixed_workload(Simulator(), seed=7)
    t_oracle = _mixed_workload(HeapSimulator(), seed=7)
    assert len(t_engine) > 100
    assert t_engine == t_oracle


# ----------------------------------------------------------------------
# same-instant posts (a device kicking itself): visible while they wait,
# and (time, seq) order holds across post / schedule / schedule_pair
# ----------------------------------------------------------------------
def test_same_instant_posts_are_visible_and_steppable(sim_cls):
    sim = sim_cls()
    fired = []

    def first():
        sim.post(sim.now, fired.append, "x")
        sim.post(sim.now, fired.append, "y")

    sim.post(2.0, first)
    sim.post(9.0, fired.append, "z")
    sim.run(max_events=1)  # stops with x and y waiting at now == 2
    assert sim.now == 2.0 and fired == []
    assert sim.pending() == 3
    assert sim.peek_time() == 2.0
    assert sim.queue_snapshot() == {"list.append": 3}
    sim.run(until=1.0)  # nothing stamped <= 1 is left
    assert fired == [] and sim.now == 2.0
    assert sim.step() and fired == ["x"]
    assert sim.peek_time() == 2.0 and sim.pending() == 2
    sim.run(until=5.0)
    assert fired == ["x", "y"] and sim.now == 5.0
    assert sim.peek_time() == 9.0


_SEAM_OPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["post_now", "post_in0", "sched_now", "pair_now"])),
        st.tuples(st.sampled_from(["post_at", "sched_at", "pair_at"]),
                  st.integers(min_value=0, max_value=40)),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=50)),
    ),
    max_size=60,
)


def _run_seam_script(sim, ops, fanout, outside, chunk):
    """Feed ``ops`` to ``sim``: ``outside`` of them before the first
    ``run``, then ``fanout`` from inside every callback, in dispatch
    order.  Runs ``chunk`` events at a time and looks at the queue in
    between.  Returns everything observed."""
    ops = iter(ops)
    trace = []
    handles = []
    tags = iter(range(10**6))

    def fire(tag):
        trace.append((sim.now, tag))
        for _ in range(fanout):
            apply(next(ops, None))

    def apply(op):
        if op is None:
            return
        kind = op[0]
        if kind == "post_now":
            sim.post(sim.now, fire, next(tags))
        elif kind == "post_in0":
            sim.post_in(0.0, fire, next(tags))
        elif kind == "sched_now":
            handles.append(sim.schedule(sim.now, fire, next(tags)))
        elif kind == "pair_now":
            sim.schedule_pair(sim.now, fire, (next(tags),), sim.now, fire, (next(tags),))
        elif kind == "post_at":
            sim.post(sim.now + op[1], fire, next(tags))
        elif kind == "sched_at":
            handles.append(sim.schedule(sim.now + op[1], fire, next(tags)))
        elif kind == "pair_at":
            t1 = sim.now + op[1] % 3  # often 0: a pair whose first firing is now
            sim.schedule_pair(t1, fire, (next(tags),), t1 + op[1], fire, (next(tags),))
        elif kind == "cancel" and handles:
            handles[op[1] % len(handles)].cancel()

    for _ in range(outside):
        apply(next(ops, None))
    seen = []
    while sim.pending():
        seen.append((sim.peek_time(), sim.pending(), sorted(sim.queue_snapshot().items())))
        sim.run(until=sim.now + 25.0, max_events=chunk)
    return trace, seen, sim.now, sim.events_dispatched


@given(_SEAM_OPS, st.integers(1, 3), st.integers(0, 6), st.sampled_from([1, 2, 7, None]))
@settings(max_examples=150, deadline=None)
def test_same_instant_seam_matches_the_heap_oracle(ops, fanout, outside, chunk):
    """post(now) / post_in(0) / schedule(now) / schedule_pair(now, ..,
    now, ..) / cancel, issued between runs and from nested same-instant
    callbacks: the engine and the oracle agree on the dispatch trace
    and on peek_time / pending / queue_snapshot whenever run() stops,
    same-instant entries waiting or not."""
    want = _run_seam_script(HeapSimulator(), ops, fanout, outside, chunk)
    assert _run_seam_script(Simulator(), ops, fanout, outside, chunk) == want


# ----------------------------------------------------------------------
# golden test: byte-identical figure results vs the heap oracle
# ----------------------------------------------------------------------
def test_case_results_byte_identical_across_kernels():
    from repro.experiments.runner import PAPER_SCHEMES, run_case

    for scheme in PAPER_SCHEMES:
        blobs = [
            json.dumps(
                run_case(
                    "case1", scheme=scheme, time_scale=0.05, seed=1, sim_factory=factory
                ).to_dict(),
                sort_keys=True,
            )
            for factory in (Simulator, HeapSimulator)
        ]
        assert blobs[0] == blobs[1], f"engine diverges from the heap oracle under {scheme}"


# ----------------------------------------------------------------------
# PeriodicTask edge cases (satellite)
# ----------------------------------------------------------------------
def test_periodic_cancel_from_own_callback(sim_cls):
    sim = sim_cls()
    fired = []
    holder = {}

    def cb():
        fired.append(sim.now)
        if len(fired) == 3:
            holder["task"].cancel()

    holder["task"] = sim.call_every(10.0, cb)
    sim.run(until=200.0)
    assert fired == [10.0, 20.0, 30.0]
    assert sim.pending() == 0  # the chain left no dangling event


def test_periodic_end_exactly_on_tick_boundary(sim_cls):
    sim = sim_cls()
    fired = []
    sim.call_every(10.0, lambda: fired.append(sim.now), start=10.0, end=30.0)
    sim.run(until=100.0)
    assert fired == [10.0, 20.0, 30.0]  # a tick landing on `end` fires


def test_periodic_reentrant_call_every(sim_cls):
    # a periodic callback spawning another periodic chain must not
    # disturb either cadence
    sim = sim_cls()
    outer, inner = [], []

    def outer_cb():
        outer.append(sim.now)
        if len(outer) == 1:
            sim.call_every(5.0, lambda: inner.append(sim.now), end=25.0)

    sim.call_every(10.0, outer_cb, end=40.0)
    sim.run(until=100.0)
    assert outer == [10.0, 20.0, 30.0, 40.0]
    assert inner == [15.0, 20.0, 25.0]
