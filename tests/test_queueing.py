"""Unit tests for the queue schemes (1Q, VOQsw, VOQnet)."""

import pytest

from repro.core.params import CCParams
from repro.network.buffers import BufferPool
from repro.network.packet import Packet
from repro.network.queueing import DbbmScheme, OneQScheme, VOQnetScheme, VOQswScheme


class FakeHost:
    """Minimal PortHost: routes dst -> dst % num_outputs."""

    def __init__(self, num_outputs=4, memory=64 * 1024, **params):
        self.pool = BufferPool(memory)
        self.params = CCParams(**params)
        self.name = "fake"
        self.num_outputs = num_outputs
        self.kicks = 0
        self.hot_events = []

    def route(self, pkt):
        return pkt.dst % self.num_outputs

    def kick(self):
        self.kicks += 1

    def set_output_hot(self, out_port, source, hot):
        self.hot_events.append((out_port, hot))


def pkt(dst=0, size=2048):
    return Packet(0, dst, size, "f")


class TestOneQ:
    def test_single_fifo(self):
        host = FakeHost()
        s = OneQScheme(host)
        s.on_arrival(pkt(dst=1))
        s.on_arrival(pkt(dst=2))
        heads = s.eligible_heads()
        assert len(heads) == 1  # only the head requests: HoL by design
        q, out, head = heads[0]
        assert out == 1 and head.dst == 1
        assert host.kicks == 2

    def test_empty_scheme_has_no_heads(self):
        assert OneQScheme(FakeHost()).eligible_heads() == []

    def test_head_cache_invalidation(self):
        host = FakeHost()
        s = OneQScheme(host)
        s.on_arrival(pkt(dst=1))
        first = s.eligible_heads()
        assert s.eligible_heads() is first  # cached
        s.q.pop()
        s.after_dequeue(s.q)
        assert s.eligible_heads() == []


class TestVOQsw:
    def test_per_output_queues(self):
        host = FakeHost(num_outputs=4)
        s = VOQswScheme(host, num_outputs=4)
        s.on_arrival(pkt(dst=1))
        s.on_arrival(pkt(dst=2))
        s.on_arrival(pkt(dst=5))  # -> output 1 again
        heads = s.eligible_heads()
        assert sorted(out for _q, out, _p in heads) == [1, 2]
        assert len(s.voqs[1]) == 2

    def test_no_hol_between_outputs(self):
        host = FakeHost(num_outputs=2)
        s = VOQswScheme(host, num_outputs=2)
        for _ in range(5):
            s.on_arrival(pkt(dst=0))
        s.on_arrival(pkt(dst=1))
        # dst-1 head immediately eligible despite dst-0 backlog
        assert any(out == 1 for _q, out, _p in s.eligible_heads())

    def test_hot_detection_thresholds(self):
        host = FakeHost(num_outputs=2)
        s = VOQswScheme(host, num_outputs=2, detect_hot=True)
        for _ in range(3):
            s.on_arrival(pkt(dst=0))
        assert host.hot_events == []  # 3 * 2048 < voq_high (4 MTU)
        s.on_arrival(pkt(dst=0))
        assert host.hot_events == [(0, True)]
        # drain below low (2 MTU): hot clears
        s.voqs[0].pop()
        s.after_dequeue(s.voqs[0])
        s.voqs[0].pop()
        s.after_dequeue(s.voqs[0])
        assert host.hot_events == [(0, True), (0, False)]

    def test_no_detection_when_disabled(self):
        host = FakeHost(num_outputs=2)
        s = VOQswScheme(host, num_outputs=2, detect_hot=False)
        for _ in range(10):
            s.on_arrival(pkt(dst=0))
        assert host.hot_events == []


class TestVOQnet:
    def test_per_destination_queues(self):
        host = FakeHost(num_outputs=4, memory=256 * 1024)
        s = VOQnetScheme(host, num_destinations=8)
        assert s.queues() == []  # no queue before traffic
        for d in (5, 1, 5, 6):
            p = pkt(dst=d)
            s.reserve_extra(p)
            s.on_arrival(p)
        assert sorted(s.voqs) == [1, 5, 6]  # one queue per destination in use
        assert [q.name for q in s.queues()] == ["fake.d1", "fake.d5", "fake.d6"]
        while s.eligible_heads():
            q = s.eligible_heads()[0][0]
            q.pop()
            s.after_dequeue(q)
        assert s.voqs == {} and s._pending == {}  # none once drained

    def test_negative_pending_is_a_buffer_error(self):
        host = FakeHost(num_outputs=4, memory=256 * 1024)
        s = VOQnetScheme(host, num_destinations=8)
        with pytest.raises(BufferError, match="below zero"):
            s.cancel_extra(pkt(dst=3))
        with pytest.raises(BufferError, match="below zero"):
            s.on_arrival(pkt(dst=3))  # no reservation was made

    def test_admission_is_per_destination(self):
        host = FakeHost(num_outputs=4, memory=32 * 1024)
        s = VOQnetScheme(host, num_destinations=8)  # 4 KiB each
        hot = pkt(dst=3)
        assert s.can_accept_extra(hot)
        s.reserve_extra(hot)
        s.on_arrival(hot)
        second = pkt(dst=3)
        s.reserve_extra(second)
        s.on_arrival(second)
        # dest 3 full (2 packets = 4 KiB) but other destinations still open
        assert not s.can_accept_extra(pkt(dst=3))
        assert s.can_accept_extra(pkt(dst=4))

    def test_in_flight_reservations_count(self):
        host = FakeHost(num_outputs=4, memory=32 * 1024)
        s = VOQnetScheme(host, num_destinations=8)
        p = pkt(dst=3)
        s.reserve_extra(p)  # committed at transmission start
        s.reserve_extra(pkt(dst=3))
        assert not s.can_accept_extra(pkt(dst=3))
        s.on_arrival(p)  # arrival converts pending into queued
        assert not s.can_accept_extra(pkt(dst=3))

    def test_queue_share_grows_with_port_memory(self):
        host = FakeHost(memory=64 * 1024)
        s = VOQnetScheme(host, num_destinations=4)
        assert s.per_queue == 16 * 1024  # memory / destinations > 4 KiB floor

    def test_memory_too_small_rejected(self):
        host = FakeHost(memory=8 * 1024)
        with pytest.raises(ValueError):
            VOQnetScheme(host, num_destinations=8)

    def test_all_heads_eligible(self):
        host = FakeHost(num_outputs=4, memory=256 * 1024)
        s = VOQnetScheme(host, num_destinations=8)
        for d in (1, 2, 6):
            p = pkt(dst=d)
            s.reserve_extra(p)
            s.on_arrival(p)
        assert len(s.eligible_heads()) == 3


class TestDbbm:
    def test_destination_hashing(self):
        host = FakeHost(num_outputs=4)
        s = DbbmScheme(host, num_queues=4)
        s.on_arrival(pkt(dst=1))
        s.on_arrival(pkt(dst=5))  # same bucket as dst 1
        s.on_arrival(pkt(dst=2))
        assert len(s.queues_by_hash[1]) == 2
        assert len(s.queues_by_hash[2]) == 1

    def test_no_hol_across_buckets(self):
        host = FakeHost(num_outputs=4)
        s = DbbmScheme(host, num_queues=4)
        for _ in range(5):
            s.on_arrival(pkt(dst=1))
        s.on_arrival(pkt(dst=2))
        heads = s.eligible_heads()
        assert {p.dst for _q, _o, p in heads} == {1, 2}

    def test_hol_within_bucket(self):
        host = FakeHost(num_outputs=4)
        s = DbbmScheme(host, num_queues=4)
        s.on_arrival(pkt(dst=1))
        s.on_arrival(pkt(dst=5))  # behind dst 1 in the same bucket
        heads = s.eligible_heads()
        assert [p.dst for _q, _o, p in heads] == [1]

    def test_bad_queue_count(self):
        with pytest.raises(ValueError):
            DbbmScheme(FakeHost(), num_queues=0)
