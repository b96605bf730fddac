"""Switch-level tests: forwarding, slotted arbitration, crossbar
concurrency, FECN marking, BECN forwarding."""

import pytest

from repro.core.params import CCParams
from repro.network.fabric import build_fabric
from repro.network.packet import Becn, alloc_packet
from repro.network.topology import SwitchSpec, Topology, config1_adhoc, k_ary_n_tree
from repro.traffic.flows import FlowSpec, attach_traffic


def test_forwarding_counters():
    fab = build_fabric(config1_adhoc(), scheme="1Q", seed=0)
    attach_traffic(fab, flows=[FlowSpec("f", src=0, dst=4, rate=2.5, end=100_000.0)])
    fab.run(until=300_000.0)
    # the packet crosses both switches
    assert fab.switches[0].packets_forwarded == fab.switches[1].packets_forwarded > 0


def test_slot_quantum_resolved_per_switch():
    fab = build_fabric(config1_adhoc(), scheme="1Q", seed=0)
    # Config #1: fastest link 5 GB/s -> slot = 2048/5 = 409.6 ns
    assert fab.switches[0].quantum == pytest.approx(409.6)
    fab2 = build_fabric(k_ary_n_tree(2, 3), scheme="1Q", seed=0)
    assert fab2.switches[0].quantum == pytest.approx(819.2)


def test_event_driven_mode_available():
    fab = build_fabric(
        config1_adhoc(), scheme="1Q", params=CCParams(match_quantum=0.0), seed=0
    )
    assert fab.switches[0].quantum == 0.0
    attach_traffic(fab, flows=[FlowSpec("f", src=0, dst=3, rate=2.5, end=200_000.0)])
    fab.run(until=400_000.0)
    assert fab.stats()["delivered_packets"] > 0


def test_crossbar_speedup_allows_concurrent_reads():
    """Config #1's 5 GB/s crossbar: switch 1's inter-switch input port
    must sustain ~5 GB/s aggregate across two destinations — twice a
    single 2.5 GB/s link."""
    fab = build_fabric(config1_adhoc(), scheme="VOQnet", seed=0)
    attach_traffic(
        fab,
        flows=[
            FlowSpec("a", src=0, dst=3, rate=2.5),
            FlowSpec("b", src=1, dst=4, rate=2.5),
        ],
    )
    fab.run(until=2_000_000.0)
    got_a = fab.collector.flow_bandwidth("a", 1_000_000.0, 2_000_000.0)
    got_b = fab.collector.flow_bandwidth("b", 1_000_000.0, 2_000_000.0)
    # both flows at full rate through the same input port of switch 1
    assert got_a == pytest.approx(2.5, rel=0.05)
    assert got_b == pytest.approx(2.5, rel=0.05)


def test_link_degrade_refreshes_the_slowest_link_prefilter():
    """The matching round skips an input port that could not even feed
    the slowest attached link.  That bandwidth is cached, and a link
    getting slower mid-run has to drop the cache: here a second packet
    fits the crossbar budget only once its link is degraded."""
    topo = Topology(
        name="one-switch",
        num_nodes=3,
        switches=[SwitchSpec(id=0, num_ports=3)],
        node_attach={n: (0, n, 2.0) for n in range(3)},
        switch_links=[],
        routes={(0, n): n for n in range(3)},
        crossbar_bw=3.0,  # speedup 1.5: one read at 2.0, or 2.0 + 1.0
    )
    fab = build_fabric(topo, scheme="VOQsw", params=CCParams(match_quantum=0.0), seed=0)
    sw, sim = fab.switches[0], fab.sim
    port = sw.input_ports[0]
    for dst in (1, 2):  # two heads in two VOQs of the same input port
        pkt = alloc_packet(0, dst, 2048, f"to{dst}", created_at=0.0)
        port.reserve(pkt)
        port.receive_packet(pkt, port.link_in)
    sim.run(until=100.0)
    busy, idle = sorted((fab.nodes[1].downlink, fab.nodes[2].downlink),
                        key=lambda link: link.in_flight is None)
    assert busy.in_flight is not None and idle.in_flight is None  # 2.0 + 2.0 > 3.0
    assert port.active_rate == 2.0

    idle.degrade(bandwidth_factor=0.5)  # 1.0 GB/s: 2.0 + 1.0 fits
    sw.kick()
    sim.run(until=101.0)
    assert idle.in_flight is not None, "the stale 2.0 GB/s minimum kept the port out of the round"
    assert port.active_rate == 3.0

    idle.clear_degrade()
    sim.run(until=10_000.0)
    assert fab.stats()["delivered_packets"] == 2
    sw.kick()
    sim.run(until=10_001.0)
    assert sw._min_link_bw == 2.0  # and back, after clear_degrade
    fab.nodes[0].downlink.set_bandwidth(0.5)
    sw.kick()
    sim.run(until=10_002.0)
    assert sw._min_link_bw == 0.5


def test_fecn_marking_only_when_congested():
    fab = build_fabric(config1_adhoc(), scheme="CCFIT", seed=0)
    attach_traffic(fab, flows=[FlowSpec("f", src=0, dst=3, rate=2.5, end=500_000.0)])
    fab.run(until=1_000_000.0)
    # a single uncongested flow: no port ever enters the congestion state
    assert fab.stats()["fecn_marked"] == 0
    assert fab.stats()["becns_received"] == 0


def test_becn_forwarded_through_switches():
    fab = build_fabric(k_ary_n_tree(2, 3), scheme="CCFIT", seed=0)
    # node 7 emits a BECN towards node 0; it must cross 5 switches
    n7 = fab.nodes[7]
    n7.uplink.send_control(Becn(src=7, dst=0, congested_destination=7))
    fab.run(until=10_000.0)
    assert fab.nodes[0].throttle.becns == 1


def test_isolated_congested_flow_does_not_block_victim():
    """Direct switch-level view of post-processing: after the hotspot
    saturates, the victim's packets never sit behind congested ones."""
    fab = build_fabric(config1_adhoc(), scheme="FBICM", seed=0)
    attach_traffic(
        fab,
        flows=[
            FlowSpec("hog1", src=1, dst=4, rate=2.5),
            FlowSpec("hog2", src=2, dst=4, rate=2.5),
            FlowSpec("hog5", src=5, dst=4, rate=2.5),
            FlowSpec("vic", src=0, dst=3, rate=2.5),
        ],
    )
    fab.run(until=1_500_000.0)
    # switch 1's inter-switch input port: the NFQ head must not be a
    # hot-destination packet (those live in the CFQ)
    port = fab.switches[1].input_ports[4]
    line = port.scheme.cam.lookup(4)
    assert line is not None, "hot destination never isolated"
    head = port.scheme.nfq.head()
    assert head is None or head.dst != 4
    # and the victim runs at full speed
    assert fab.collector.flow_bandwidth("vic", 500_000.0, 1_500_000.0) > 2.3


def test_stats_shapes():
    fab = build_fabric(config1_adhoc(), scheme="CCFIT", seed=0)
    s = fab.stats()
    for key in (
        "delivered_packets",
        "fecn_marked",
        "becns_received",
        "cfq_alloc_failures",
        "allocated_cfqs",
        "events",
    ):
        assert key in s
    assert fab.in_flight_packets() == 0
