"""Unit tests for FECN marking and the source throttling state."""

import numpy as np

from repro.core.params import CCParams, linear_cct
from repro.core.scheme import CongestionStateMarking
from repro.core.throttling import ThrottleState
from repro.network.packet import Packet
from repro.sim.engine import Simulator


def pkt(size=2048):
    return Packet(0, 1, size, "f")


class _Port:
    def __init__(self, congested):
        self.congested = congested


class _CountingRng:
    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.draws = 0

    def random(self):
        self.draws += 1
        return self.rng.random()


HOT, COLD = _Port(True), _Port(False)


class TestCongestionStateMarking:
    def test_marks_at_full_rate(self):
        rng = _CountingRng(0)
        m = CongestionStateMarking(CCParams(marking_rate=1.0), rng)
        p = pkt()
        assert m.should_mark(p, None, HOT)
        assert not p.fecn  # the switch sets the bit, and counts it
        assert rng.draws == 0

    def test_packet_size_floor(self):
        m = CongestionStateMarking(
            CCParams(marking_rate=1.0, min_marking_size=1024), _CountingRng(0)
        )
        assert not m.should_mark(pkt(size=512), None, HOT)
        assert m.should_mark(pkt(size=2048), None, HOT)

    def test_marking_rate_is_statistical(self):
        m = CongestionStateMarking(CCParams(marking_rate=0.85), _CountingRng(1))
        marked = sum(m.should_mark(pkt(), None, HOT) for _ in range(2000))
        assert 0.80 * 2000 < marked < 0.90 * 2000

    def test_uncongested_port_draws_nothing(self):
        rng = _CountingRng(2)
        m = CongestionStateMarking(CCParams(marking_rate=0.85), rng)
        assert not any(m.should_mark(pkt(), None, COLD) for _ in range(200))
        assert rng.draws == 0
        m.should_mark(pkt(), None, HOT)
        assert rng.draws == 1


class TestThrottleState:
    def _make(self, **params):
        sim = Simulator()
        p = CCParams(cct=linear_cct(entries=8, step=100.0), **params)
        return sim, ThrottleState(sim, p)

    def test_unthrottled_by_default(self):
        sim, ts = self._make()
        assert ts.ccti(3) == 0
        assert ts.ird(3) == 0.0
        assert ts.next_allowed(3) == 0.0
        assert ts.throttled_destinations() == []

    def test_becn_raises_index_and_ird(self):
        sim, ts = self._make(becn_min_interval=0.0)
        ts.on_becn(3)
        assert ts.ccti(3) == 1
        assert ts.ird(3) == 100.0
        ts.on_becn(3)
        assert ts.ccti(3) == 2
        assert ts.throttled_destinations() == [3]

    def test_index_clamps_at_cct_end(self):
        sim, ts = self._make(becn_min_interval=0.0)
        for _ in range(100):
            ts.on_becn(3)
        assert ts.ccti(3) == 7  # len(cct) - 1
        assert ts.max_ccti_seen == 7

    def test_timer_decays_one_step_per_period(self):
        sim, ts = self._make(ccti_timer=1000.0, becn_min_interval=0.0)
        ts.on_becn(3)
        ts.on_becn(3)
        assert ts.ccti(3) == 2
        sim.run(until=1000.0)
        assert ts.ccti(3) == 1
        sim.run(until=2000.0)
        assert ts.ccti(3) == 0
        sim.run(until=10_000.0)
        assert ts.ccti(3) == 0  # timer chain stops at zero

    def test_becn_rearms_timer(self):
        sim, ts = self._make(ccti_timer=1000.0, becn_min_interval=0.0)
        ts.on_becn(3)
        sim.run(until=900.0)
        ts.on_becn(3)  # re-arms: decay now due at 1900
        sim.run(until=1100.0)
        assert ts.ccti(3) == 2
        sim.run(until=1900.0)
        assert ts.ccti(3) == 1

    def test_becn_coalescing_window(self):
        sim, ts = self._make(becn_min_interval=500.0)
        ts.on_becn(3)
        ts.on_becn(3)  # within the window: coalesced
        assert ts.ccti(3) == 1
        assert ts.becns == 2
        sim.schedule(600.0, lambda: None)
        sim.run(until=600.0)  # past the window, before the decay timer
        ts.on_becn(3)
        assert ts.ccti(3) == 2

    def test_lti_gates_next_injection(self):
        sim, ts = self._make(becn_min_interval=0.0)
        ts.on_becn(3)  # IRD = 100
        ts.record_injection(3, now=50.0)
        assert ts.next_allowed(3) == 150.0
        # other destinations unaffected
        assert ts.next_allowed(4) == 0.0

    def test_release_callback_fires_on_decay(self):
        sim = Simulator()
        fired = []
        ts = ThrottleState(
            sim,
            CCParams(cct=linear_cct(entries=4, step=10.0), ccti_timer=100.0, becn_min_interval=0.0),
            on_release=lambda: fired.append(sim.now),
        )
        ts.on_becn(1)
        sim.run(until=300.0)
        assert fired == [100.0]
