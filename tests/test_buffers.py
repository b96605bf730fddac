"""Unit tests for the buffer pool and packet queues."""

import pytest

from repro.network.buffers import BufferError, BufferPool, PacketQueue
from repro.network.packet import Packet


def pkt(src=0, dst=1, size=2048, flow="f"):
    return Packet(src, dst, size, flow)


class TestBufferPool:
    def test_reserve_and_release(self):
        pool = BufferPool(4096)
        pool.reserve(2048)
        assert pool.used == 2048
        assert pool.free == 2048
        pool.release(2048)
        assert pool.used == 0

    def test_overflow_raises(self):
        pool = BufferPool(4096)
        pool.reserve(4096)
        with pytest.raises(BufferError):
            pool.reserve(1)

    def test_underflow_raises(self):
        pool = BufferPool(4096)
        with pytest.raises(BufferError):
            pool.release(1)

    def test_negative_amounts_raise(self):
        pool = BufferPool(4096)
        with pytest.raises(BufferError):
            pool.reserve(-1)
        with pytest.raises(BufferError):
            pool.release(-1)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            BufferPool(0)


class TestPacketQueue:
    def test_fifo_order(self):
        q = PacketQueue("q")
        packets = [pkt(flow=f"f{i}") for i in range(5)]
        for p in packets:
            q.push(p)
        assert [q.pop() for _ in range(5)] == packets

    def test_byte_accounting(self):
        q = PacketQueue("q")
        q.push(pkt(size=100))
        q.push(pkt(size=200))
        assert q.bytes == 300
        q.pop()
        assert q.bytes == 200

    def test_head_peeks_without_removing(self):
        q = PacketQueue("q")
        p = pkt()
        q.push(p)
        assert q.head() is p
        assert len(q) == 1

    def test_empty_pop_raises(self):
        with pytest.raises(BufferError):
            PacketQueue("q").pop()

    def test_head_of_empty_is_none(self):
        assert PacketQueue("q").head() is None

    def test_max_bytes_enforced(self):
        q = PacketQueue("q", max_bytes=2048)
        q.push(pkt(size=2048))
        assert not q.fits(1)
        with pytest.raises(BufferError):
            q.push(pkt(size=1))

    def test_push_front_reinserts_at_head(self):
        q = PacketQueue("q")
        a, b = pkt(flow="a"), pkt(flow="b")
        q.push(a)
        q.push_front(b)
        assert q.pop() is b
        assert q.pop() is a

    def test_dest_tracking(self):
        q = PacketQueue("q", track_dests=True)
        q.push(pkt(dst=1, size=100))
        q.push(pkt(dst=2, size=200))
        q.push(pkt(dst=1, size=300))
        assert q.dest_bytes == {1: 400, 2: 200}
        q.pop()
        assert q.dest_bytes == {1: 300, 2: 200}
        q.pop()
        q.pop()
        assert q.dest_bytes == {}

    def test_untracked_queue_has_no_dest_bytes(self):
        q = PacketQueue("q")
        q.push(pkt())
        assert q.dest_bytes is None

    def test_iteration_yields_queue_order(self):
        q = PacketQueue("q")
        packets = [pkt(flow=f"f{i}") for i in range(3)]
        for p in packets:
            q.push(p)
        assert list(q) == packets


# ----------------------------------------------------------------------
# shared-buffer model: unit + property tests (docs/buffers.md)
# ----------------------------------------------------------------------
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import CCParams
from repro.network.buffers import BUFFER_MODELS, SharedBufferModel
from repro.network.packet import PfcPause, PfcResume

MTU = 2048


class _StubPort:
    """Just enough of InputPort for driving the model directly."""

    def __init__(self, index):
        self.index = index
        self.name = f"stub.in{index}"
        self.pool = None  # sized by the test once the model exists
        self.sent = []

    def send_upstream(self, msg):
        self.sent.append(msg)


class _StubSwitch:
    def __init__(self, params, n):
        self.params = params
        self.num_ports = n
        self.name = "stub"
        self.input_ports = [_StubPort(i) for i in range(n)]


def shared_model(n=2, **overrides):
    kw = dict(
        memory_size=8 * MTU,
        pfc_priorities=2,
        shared_alpha=1.0,
        shared_reserved=MTU,
        pfc_headroom=2 * MTU,
    )
    kw.update(overrides)
    params = CCParams(**kw)
    sw = _StubSwitch(params, n)
    model = SharedBufferModel(sw)
    for port in sw.input_ports:
        port.pool = BufferPool(model.total)
    return model, sw


class TestSharedBufferModel:
    def test_registry_exposes_both_models(self):
        assert list(BUFFER_MODELS) == ["static", "shared"]
        assert BUFFER_MODELS["shared"].build is SharedBufferModel

    def test_capacity_split(self):
        model, _sw = shared_model(n=2)
        # total = 8 MTU x 2; headroom = 2 MTU x 2; reserved = 1 MTU x 2 x 2
        assert model.total == 16 * MTU
        assert model.headroom_capacity == 4 * MTU
        assert model.shared_capacity == 8 * MTU

    def test_degenerate_split_rejected(self):
        with pytest.raises(ValueError, match="shared space"):
            shared_model(n=2, memory_size=3 * MTU)

    def test_reserve_fills_base_then_shared(self):
        model, sw = shared_model()
        port = sw.input_ports[0]
        model.reserve_bytes(port, pkt(dst=0, size=MTU))     # fits the base
        assert model.shared_used == 0
        model.reserve_bytes(port, pkt(dst=0, size=MTU))     # spills to shared
        assert model.shared_used == MTU
        assert model.pg_used(0, 0) == 2 * MTU
        model.audit()

    def test_xoff_then_headroom_then_xon(self):
        model, sw = shared_model()
        port = sw.input_ports[0]
        held = []
        # saturate PG (0, 0) until the model sends XOFF
        while not model._paused[0][0]:
            p = pkt(dst=0, size=MTU)
            assert model.admissible(0, 0, MTU)
            model.reserve_bytes(port, p)
            held.append(p)
        assert isinstance(port.sent[-1], PfcPause)
        assert model.pauses_sent == 1 and (0, 0) in model.paused_pairs()
        # bytes arriving during the in-flight window charge headroom
        inflight = pkt(dst=0, size=MTU)
        model.reserve_bytes(port, inflight)
        held.append(inflight)
        assert model.headroom_used == MTU
        model.audit()
        # draining everything resumes the PG (LIFO: headroom first)
        for p in reversed(held):
            model.release_bytes(port, p)
        assert isinstance(port.sent[-1], PfcResume)
        assert model.paused_pairs() == []
        assert model.shared_used == 0 and model.headroom_used == 0
        model.audit()

    def test_headroom_overflow_raises(self):
        model, sw = shared_model()
        port = sw.input_ports[0]
        model._paused[0][0] = True
        with pytest.raises(BufferError, match="headroom overflow"):
            model.reserve_bytes(port, pkt(dst=0, size=model.headroom_capacity + 1))

    def test_audit_catches_drift(self):
        model, sw = shared_model()
        model.reserve_bytes(sw.input_ports[0], pkt(dst=0, size=MTU))
        model.shared_used += 1  # simulate a lost byte
        with pytest.raises(BufferError):
            model.audit()

    def test_stats_and_snapshot(self):
        model, _sw = shared_model()
        assert set(model.stats()) == {
            "pfc_pauses_sent", "pfc_resumes_sent",
            "pfc_headroom_peak", "shared_pool_peak",
        }
        snap = model.snapshot()
        assert snap["model"] == "shared" and snap["paused"] == []


_OPS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1),       # port
        st.integers(min_value=0, max_value=7),       # destination (hashes to PG)
        st.integers(min_value=1, max_value=MTU),     # size
        st.booleans(),                               # prefer release over admit
    ),
    max_size=200,
)


@given(_OPS)
@settings(max_examples=80, deadline=None)
def test_shared_model_conserves_bytes(ops):
    """Random admission-checked reserve/release interleavings: the pools
    never overflow, the audit never drifts, and draining everything
    always resumes every paused PG (XOFF cannot deadlock)."""
    model, sw = shared_model()
    held = [deque() for _ in sw.input_ports]
    for p, dst, size, prefer_release in ops:
        port = sw.input_ports[p]
        if prefer_release and held[p]:
            model.release_bytes(port, held[p].popleft())
        else:
            g = dst % model.nprios
            if model.admissible(p, g, size):
                packet = pkt(dst=dst, size=size)
                model.reserve_bytes(port, packet)
                held[p].append(packet)
        model.audit()
        assert model.shared_used <= model.shared_capacity
        assert model.headroom_used <= model.headroom_capacity
    for p, q in enumerate(held):
        while q:
            model.release_bytes(sw.input_ports[p], q.popleft())
    model.audit()
    assert model.paused_pairs() == []
    assert model.pauses_sent == model.resumes_sent
    assert model.shared_used == 0 and model.headroom_used == 0
    assert all(port.pool.used == 0 for port in sw.input_ports)


@given(_OPS)
@settings(max_examples=40, deadline=None)
def test_shared_model_pause_ledger_balances(ops):
    """Every XOFF is a PfcPause on the wire, every XON a PfcResume, and
    pauses - resumes always equals the currently paused pair count (the
    invariant the runtime guard checks mid-simulation)."""
    model, sw = shared_model()
    held = [deque() for _ in sw.input_ports]
    for p, dst, size, prefer_release in ops:
        port = sw.input_ports[p]
        if prefer_release and held[p]:
            model.release_bytes(port, held[p].popleft())
        elif model.admissible(p, dst % model.nprios, size):
            packet = pkt(dst=dst, size=size)
            model.reserve_bytes(port, packet)
            held[p].append(packet)
        assert model.pauses_sent - model.resumes_sent == len(model.paused_pairs())
    for port in sw.input_ports:
        pauses = sum(1 for m in port.sent if isinstance(m, PfcPause))
        resumes = sum(1 for m in port.sent if isinstance(m, PfcResume))
        still = sum(1 for (pp, _g) in model.paused_pairs() if pp == port.index)
        assert pauses - resumes == still
