"""Fabric assembly tests: wiring, scheme presets, memory overrides."""

import pytest

from repro.core.ccfit import SCHEMES, scheme_params
from repro.core.isolation import NfqCfqScheme
from repro.core.params import CCParams
from repro.network.fabric import build_fabric
from repro.network.queueing import OneQScheme, VOQnetScheme, VOQswScheme
from repro.network.routing import RoutingTable
from repro.network.topology import config1_adhoc, k_ary_n_tree


def test_every_scheme_builds_every_config():
    for topo in (config1_adhoc(), k_ary_n_tree(2, 3)):
        for scheme in SCHEMES:
            fab = build_fabric(topo, scheme=scheme, seed=0)
            assert len(fab.nodes) == topo.num_nodes
            assert len(fab.switches) == topo.num_switches


def test_unknown_scheme_rejected():
    with pytest.raises(KeyError):
        build_fabric(config1_adhoc(), scheme="MAGIC")
    with pytest.raises(KeyError):
        scheme_params("MAGIC")


def test_link_wiring_is_bidirectional_and_complete():
    topo = k_ary_n_tree(2, 3)
    fab = build_fabric(topo, scheme="1Q", seed=0)
    # 8 node attachments + 16 cables, two links each
    assert len(fab.links) == 2 * (8 + len(topo.switch_links))
    for node in fab.nodes:
        assert node.uplink is not None and node.downlink is not None
        assert node.uplink.tx is node
        assert node.downlink.rx is node
    for sw_spec, sw in zip(topo.switches, fab.switches):
        for port in range(sw_spec.num_ports):
            wired = topo.neighbor(sw_spec.id, port) is not None
            ip, op = sw.input_ports[port], sw.output_ports[port]
            if wired:
                assert ip.link_in is not None and ip.link_in.rx is ip
                assert op.link_out is not None and op.link_out.tx is op
            else:  # top-level switches leave their up ports unwired
                assert ip.link_in is None and op.link_out is None


@pytest.mark.parametrize("make_topo", [config1_adhoc, lambda: k_ary_n_tree(4, 3)],
                         ids=["config1", "config3"])
def test_builder_tables_equal_the_per_switch_accessors(make_topo):
    """Routes and candidates are grouped by switch in one pass
    (``routes_by_switch`` / ``candidate_maps``); the builder and the
    per-switch accessors both hand out exactly the per-switch slice of
    the (switch, dst) indexes (same entries, same order), in dicts of
    their own."""
    topo = make_topo()
    fab = build_fabric(topo, scheme="1Q", seed=0, routing="adaptive")
    det = build_fabric(topo, scheme="1Q", seed=0)
    for spec, sw, det_sw in zip(topo.switches, fab.switches, det.switches):
        want = [(dst, port) for (s, dst), port in topo.routes.items() if s == spec.id]
        table = sw.policy.table._table
        assert list(table.items()) == want
        assert list(RoutingTable.from_topology(topo, spec.id)._table.items()) == want
        cands = [(dst, topo.candidates(spec.id, dst)) for dst, _port in want]
        assert list(sw.policy.candidates.items()) == cands
        assert list(topo.candidate_map(spec.id).items()) == cands
        assert det_sw.policy.candidates is None  # never built for det
        # the fault injector rewrites tables in place: no sharing
        assert table is not det_sw.policy.table._table
        assert table == det_sw.policy.table._table
    assert not any(name.startswith("jitter.") for name in fab.rngs._streams)


def test_jitter_streams_exist_only_when_drawn_from():
    params = CCParams(link_jitter=0.01, match_quantum=0.0)
    fab = build_fabric(config1_adhoc(), scheme="1Q", params=params, seed=0)
    assert all(link.rng is fab.rngs.stream(f"jitter.{name}") for link, name in
               ((fab.nodes[0].uplink, "n0.up"), (fab.nodes[0].downlink, "n0.down"),
                (fab.switches[0].output_ports[3].link_out, "s0p3")))
    assert sum(name.startswith("jitter.") for name in fab.rngs._streams) == len(fab.links)


def test_switch_queue_schemes_match_preset():
    expected = {
        "1Q": OneQScheme,
        "VOQsw": VOQswScheme,
        "ITh": VOQswScheme,
        "VOQnet": VOQnetScheme,
        "FBICM": NfqCfqScheme,
        "CCFIT": NfqCfqScheme,
    }
    for scheme, cls in expected.items():
        fab = build_fabric(config1_adhoc(), scheme=scheme, seed=0)
        assert isinstance(fab.switches[0].input_ports[0].scheme, cls), scheme


def test_only_ccfit_switches_drive_congestion_state():
    fab_cc = build_fabric(config1_adhoc(), scheme="CCFIT", seed=0)
    fab_fb = build_fabric(config1_adhoc(), scheme="FBICM", seed=0)
    assert fab_cc.switches[0].input_ports[0].scheme.drive_congestion_state
    assert not fab_fb.switches[0].input_ports[0].scheme.drive_congestion_state
    assert fab_cc.switches[0].marking and not fab_fb.switches[0].marking


def test_voqnet_memory_override():
    fab = build_fabric(k_ary_n_tree(4, 3), scheme="VOQnet", seed=0)
    port = fab.switches[0].input_ports[0]
    assert port.pool.capacity == 256 * 1024  # 64 dests * 4 KiB (§IV-A)
    fab2 = build_fabric(k_ary_n_tree(4, 3), scheme="CCFIT", seed=0)
    assert fab2.switches[0].input_ports[0].pool.capacity == 64 * 1024


def test_params_are_validated_at_build():
    with pytest.raises(Exception):
        build_fabric(config1_adhoc(), scheme="CCFIT", params=CCParams(marking_rate=0.0))


def test_collector_injection():
    from repro.metrics.collector import Collector

    mine = Collector(bin_ns=50_000.0)
    fab = build_fabric(config1_adhoc(), scheme="1Q", collector=mine, seed=0)
    assert fab.collector is mine


def test_generators_kept_alive_on_fabric():
    from repro.traffic.flows import FlowSpec, attach_traffic

    fab = build_fabric(config1_adhoc(), scheme="1Q", seed=0)
    gens = attach_traffic(fab, flows=[FlowSpec("f", src=0, dst=1, rate=2.5)])
    assert fab.generators == gens
