"""Unit tests for lossless links."""

import pytest

from repro.network.link import CONTROL_HOP_DELAY, Link, LinkError
from repro.network.packet import Becn, CfqStop, Packet
from repro.sim.engine import Simulator


class StubRx:
    """Receiver that accepts up to `capacity` bytes."""

    def __init__(self, capacity=1 << 30):
        self.capacity = capacity
        self.reserved = 0
        self.delivered = []
        self.controls = []

    def can_accept(self, pkt):
        return self.reserved + pkt.size <= self.capacity

    def reserve(self, pkt):
        self.reserved += pkt.size

    def receive_packet(self, pkt, link):
        self.delivered.append((pkt, link.sim.now))

    def receive_control(self, msg, link):
        self.controls.append((msg, link.sim.now))


class StubTx:
    def __init__(self):
        self.tx_done_at = []
        self.credits = []
        self.reverse = []

    def on_tx_done(self, link):
        self.tx_done_at.append(link.sim.now)

    def on_credit(self, link):
        self.credits.append(link.sim.now)

    def receive_reverse_control(self, msg, link):
        self.reverse.append((msg, link.sim.now))


def make_link(bandwidth=2.5, delay=20.0, capacity=1 << 30, **kw):
    sim = Simulator()
    link = Link(sim, "l", bandwidth, delay, **kw)
    tx, rx = StubTx(), StubRx(capacity)
    link.connect(tx, rx)
    return sim, link, tx, rx


def test_serialization_and_delivery_times():
    sim, link, tx, rx = make_link()
    pkt = Packet(0, 1, 2048, "f")
    done = link.send(pkt)
    assert done == pytest.approx(2048 / 2.5)
    sim.run()
    assert tx.tx_done_at == [pytest.approx(819.2)]
    (delivered, at), = rx.delivered
    assert delivered is pkt
    assert at == pytest.approx(819.2 + 20.0)


def test_send_while_busy_raises():
    sim, link, tx, rx = make_link()
    link.send(Packet(0, 1, 2048, "f"))
    with pytest.raises(LinkError):
        link.send(Packet(0, 1, 2048, "f"))


def test_send_without_downstream_space_raises():
    sim, link, tx, rx = make_link(capacity=1024)
    pkt = Packet(0, 1, 2048, "f")
    assert not link.can_send(pkt)
    with pytest.raises(LinkError):
        link.send(pkt)


def test_space_reserved_at_send_time():
    sim, link, tx, rx = make_link(capacity=4096)
    link.send(Packet(0, 1, 2048, "f"))
    # Space committed immediately, before delivery.
    assert rx.reserved == 2048
    assert rx.can_accept(Packet(0, 1, 2048, "f"))
    assert not rx.can_accept(Packet(0, 1, 4096, "f"))


def test_credit_return_reaches_tx_after_delay():
    sim, link, tx, rx = make_link(delay=20.0)
    link.return_credit(2048)
    sim.run()
    assert tx.credits == [pytest.approx(20.0)]


def test_non_positive_credit_raises():
    sim, link, tx, rx = make_link()
    with pytest.raises(LinkError):
        link.return_credit(0)


def test_forward_control_channel():
    sim, link, tx, rx = make_link(delay=20.0)
    msg = Becn(src=1, dst=0, congested_destination=1)
    link.send_control(msg)
    sim.run()
    (got, at), = rx.controls
    assert got is msg
    assert at == pytest.approx(20.0 + CONTROL_HOP_DELAY)


def test_reverse_control_channel():
    sim, link, tx, rx = make_link(delay=20.0)
    msg = CfqStop(destination=4)
    link.send_reverse_control(msg)
    sim.run()
    (got, at), = tx.reverse
    assert got is msg
    assert at == pytest.approx(20.0 + CONTROL_HOP_DELAY)


def test_set_bandwidth_affects_next_packet():
    sim, link, tx, rx = make_link(bandwidth=2.5)
    link.send(Packet(0, 1, 2048, "f"))
    sim.run()
    link.set_bandwidth(1.25)  # link frequency scaling
    done = link.send(Packet(0, 1, 2048, "f"))
    assert done - sim.now == pytest.approx(2048 / 1.25)


def test_invalid_construction():
    sim = Simulator()
    with pytest.raises(ValueError):
        Link(sim, "l", 0.0, 20.0)
    with pytest.raises(ValueError):
        Link(sim, "l", 2.5, -1.0)


def test_counters():
    sim, link, tx, rx = make_link()
    link.send(Packet(0, 1, 2048, "f"))
    sim.run()
    link.send(Packet(0, 1, 1024, "f"))
    sim.run()
    assert link.packets_sent == 2
    assert link.bytes_sent == 3072
