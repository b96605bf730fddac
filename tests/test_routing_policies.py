"""The pluggable RoutingPolicy layer (docs/routing.md).

Covers the policy registry contract, the topology's minimal-candidate
index, delivery differentials for every multipath policy (ecmp /
adaptive / flowlet must deliver every packet the det reference
delivers — loop-freedom by construction), flowlet stickiness, and the
sweep-layer routing axis (cache keys, labels).
"""

import pytest

from repro.core.params import CCParams, ParamError
from repro.experiments.configs import CONFIG1, CONFIG3
from repro.network.fabric import build_fabric
from repro.network.routing import (
    ROUTING_POLICIES,
    DetRoutingPolicy,
    FlowletRoutingPolicy,
    RoutingPolicySpec,
    RoutingTable,
    get_policy,
    policy_names,
    register_policy,
)
from repro.network.topology import TopologyError, k_ary_n_tree
from repro.traffic.flows import FlowSpec, attach_traffic

ALL_POLICIES = ("det", "ecmp", "adaptive", "flowlet")


# ----------------------------------------------------------------------
# registry contract (mirrors the scheme registry of repro.core.ccfit)
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtin_policies_registered_det_first(self):
        assert policy_names()[0] == "det"
        assert set(ALL_POLICIES) <= set(policy_names())

    def test_get_policy_unknown_name_lists_choices(self):
        with pytest.raises(KeyError) as exc_info:
            get_policy("valiant")
        msg = str(exc_info.value)
        assert "valiant" in msg and "det" in msg

    def test_register_duplicate_rejected_unless_replace(self):
        spec = RoutingPolicySpec("det", DetRoutingPolicy, needs_candidates=False)
        with pytest.raises(ValueError):
            register_policy(spec)
        original = ROUTING_POLICIES["det"]
        try:
            assert register_policy(spec, replace=True) is spec
            assert ROUTING_POLICIES["det"] is spec
        finally:
            register_policy(original, replace=True)

    def test_register_empty_name_rejected(self):
        with pytest.raises(ValueError):
            register_policy(RoutingPolicySpec("", DetRoutingPolicy))

    def test_custom_policy_usable_by_fabric(self):
        """A user-registered policy is buildable end to end."""

        class FirstCandidatePolicy(DetRoutingPolicy):
            name = "first-cand"

        spec = RoutingPolicySpec("first-cand", FirstCandidatePolicy,
                                 needs_candidates=False)
        register_policy(spec)
        try:
            fabric = build_fabric(k_ary_n_tree(2, 2), scheme="1Q",
                                  routing="first-cand")
            assert fabric.routing == "first-cand"
            assert fabric.switches[0].policy.name == "first-cand"
        finally:
            del ROUTING_POLICIES["first-cand"]


# ----------------------------------------------------------------------
# minimal candidate sets
# ----------------------------------------------------------------------
class TestCandidates:
    def test_tree_ascent_offers_all_up_ports(self):
        """On a k-ary n-tree a leaf switch has k equally minimal upward
        ports toward any remote destination, and the DET port is one of
        them."""
        for k, n in [(2, 3), (4, 3)]:
            topo = k_ary_n_tree(k, n)
            leaf = topo.node_attach[0][0]
            local = {d for d, (sw, _p, _b) in topo.node_attach.items() if sw == leaf}
            for dst in range(topo.num_nodes):
                cands = topo.candidates(leaf, dst)
                det_port = topo.routes[(leaf, dst)]
                assert det_port in cands
                if dst in local:
                    assert len(cands) == 1  # the attach port, no choice
                else:
                    assert len(cands) == k  # every up-link is minimal
                assert list(cands) == sorted(cands)

    def test_unknown_key_raises_topology_error(self):
        topo = k_ary_n_tree(2, 2)
        with pytest.raises(TopologyError):
            topo.candidates(0, 999)

    def test_candidate_map_matches_candidates(self):
        topo = k_ary_n_tree(2, 2)
        cmap = topo.candidate_map(0)
        for dst in range(topo.num_nodes):
            assert cmap[dst] == topo.candidates(0, dst)

    def test_policy_audit_accepts_builtin_candidates(self):
        fabric = build_fabric(k_ary_n_tree(2, 3), scheme="1Q", routing="adaptive")
        for sw in fabric.switches:
            sw.policy.audit()

    def test_policy_audit_rejects_nonminimal_det_port(self):
        table = RoutingTable(0, {5: 2})
        policy = DetRoutingPolicy(table, candidates={5: (0, 1)})
        with pytest.raises(TopologyError):
            policy.audit()


# ----------------------------------------------------------------------
# delivery differential: every policy delivers every packet
# ----------------------------------------------------------------------
def _run_incast(k, n, routing, duration=400_000.0):
    topo = k_ary_n_tree(k, n)
    fabric = build_fabric(topo, scheme="CCFIT", seed=5, routing=routing,
                          validate=True)
    hot = topo.num_nodes - 1
    flows = [
        FlowSpec(f"F{s}", src=s, dst=hot, rate=1.0, end=duration / 2)
        for s in range(min(3, topo.num_nodes - 1))
    ]
    attach_traffic(fabric, flows=flows)
    fabric.run(until=duration)
    return fabric


@pytest.mark.parametrize("routing", ALL_POLICIES)
@pytest.mark.parametrize("k,n", [(2, 3), (4, 3)])
def test_every_policy_delivers_every_packet(k, n, routing):
    """Incast onto one node, flows stop at half time, the fabric drains:
    generated == delivered under the invariant guard for every policy
    (minimal candidates make any per-packet choice loop-free)."""
    fabric = _run_incast(k, n, routing)
    stats = fabric.stats()
    assert stats["generated_packets"] > 0
    assert fabric.in_flight_packets() == 0
    assert stats["delivered_packets"] == stats["generated_packets"]
    assert fabric.routing == routing


def test_multipath_policies_actually_divert():
    """ecmp/adaptive must take non-DET ports on a (4,3) incast — if
    they never diverge from the table the policy layer is vacuous."""
    for routing in ("ecmp", "adaptive"):
        fabric = _run_incast(4, 3, routing)
        assert sum(sw.policy.routed for sw in fabric.switches) > 0
        assert sum(sw.policy.diverted for sw in fabric.switches) > 0, routing


def test_det_policy_matches_default_build():
    """routing="det" and the pre-policy default produce identical
    simulations (stats dict equality on a real run)."""
    a = _run_incast(2, 3, "det").stats()
    b = _run_incast(2, 3, ROUTING_POLICIES["det"]).stats()
    assert a == b


@pytest.mark.parametrize("config", [CONFIG1, CONFIG3], ids=["config1", "config3"])
def test_det_ports_carry_the_table_lookup_closure(config):
    """The det policy costs a table lookup because ``Switch.__init__``
    hangs ``route_for``'s closure on every input port, over the generic
    ``InputPort.route`` that dispatches through the policy object -- and
    the closure answers what the table answers.  (Its cost is held by
    ``pkts_per_s`` on the benchmark's ``case1_ccfit``, a det cell.)"""
    fabric = build_fabric(config.topo(), scheme="CCFIT", seed=0)
    pkts = [_FakePkt(0, dst) for dst in range(fabric.topo.num_nodes)]
    for sw in fabric.switches:
        table = sw.policy.table
        for port in sw.input_ports:
            assert vars(port)["route"].__qualname__.startswith("DetRoutingPolicy.route_for.")
            assert [port.route(p) for p in pkts] == [table.lookup(p.dst) for p in pkts]


def test_switch_snapshot_exposes_policy_state():
    fabric = _run_incast(2, 3, "flowlet")
    snap = fabric.switches[0].snapshot()
    assert snap["routing"]["policy"] == "flowlet"
    assert "flowlets" in snap["routing"]
    assert "gap_ns" in snap["routing"]


# ----------------------------------------------------------------------
# flowlet stickiness (unit level, fake switch)
# ----------------------------------------------------------------------
class _FakeSim:
    def __init__(self):
        self.now = 0.0


class _FakeLink:
    def __init__(self, occ):
        self._occ = occ
        self.busy_until = 0.0
        self.bandwidth = 2.5

        class _Rx:
            def __init__(self, occ):
                self._occ = occ

            def occupancy(self):
                return self._occ

        self.rx = _Rx(occ)


class _FakeOutPort:
    def __init__(self, occ):
        self.link_out = _FakeLink(occ)


class _FakeSwitch:
    def __init__(self, occupancies):
        self.sim = _FakeSim()
        self.output_ports = [_FakeOutPort(o) for o in occupancies]


class _FakePkt:
    def __init__(self, src, dst):
        self.src = src
        self.dst = dst


class TestFlowletStickiness:
    def test_flow_keeps_port_within_gap_and_reselects_after(self):
        params = CCParams(flowlet_gap=1_000.0)
        policy = FlowletRoutingPolicy(
            RoutingTable(0, {9: 0}), candidates={9: (0, 1)}, params=params
        )
        assert policy.gap == 1_000.0
        sw = _FakeSwitch([0, 4096])  # port 0 empty, port 1 loaded
        pkt = _FakePkt(3, 9)
        assert policy.select_output(sw, pkt, (0, 1)) == 0
        # port 0 now looks terrible, but we're inside the gap: sticky
        sw.output_ports[0].link_out.rx._occ = 10_000_000
        sw.sim.now = 900.0
        assert policy.select_output(sw, pkt, (0, 1)) == 0
        # repeated arrivals refresh last_seen: still sticky past t=1000
        sw.sim.now = 1_800.0
        assert policy.select_output(sw, pkt, (0, 1)) == 0
        # a real idle gap ends the flowlet -> adaptive re-selection
        sw.sim.now = 3_000.0
        assert policy.select_output(sw, pkt, (0, 1)) == 1
        assert policy.flowlets == 2

    def test_distinct_flows_have_independent_flowlets(self):
        policy = FlowletRoutingPolicy(
            RoutingTable(0, {9: 0}), candidates={9: (0, 1)},
            params=CCParams(flowlet_gap=1_000.0),
        )
        sw = _FakeSwitch([0, 0])
        policy.select_output(sw, _FakePkt(1, 9), (0, 1))
        policy.select_output(sw, _FakePkt(2, 9), (0, 1))
        assert policy.flowlets == 2

    def test_negative_flowlet_gap_rejected(self):
        with pytest.raises(ParamError):
            CCParams(flowlet_gap=-1.0).validate()


# ----------------------------------------------------------------------
# sweep layer: routing axis, cache keys
# ----------------------------------------------------------------------
class TestSweepRoutingAxis:
    def test_det_job_payload_has_no_routing_key(self):
        from repro.experiments.sweep import SimJob

        job = SimJob(case="case1", scheme="CCFIT")
        assert "routing" not in job.payload()

    def test_non_det_routing_changes_cache_key(self):
        from repro.experiments.sweep import SimJob

        det = SimJob(case="case1", scheme="CCFIT")
        ecmp = SimJob(case="case1", scheme="CCFIT", routing="ecmp")
        assert ecmp.payload()["routing"] == "ecmp"
        assert det.key() != ecmp.key()

    def test_label_tags_non_det_routing(self):
        from repro.experiments.sweep import SimJob

        assert SimJob(case="case1", scheme="ITh").label() == "case1/ITh"
        assert (
            SimJob(case="case1", scheme="ITh", routing="flowlet").label()
            == "case1/ITh@flowlet"
        )

    def test_routing_grid_experiment_crosses_axes(self):
        from repro.experiments.registry import get

        exp = get("routing_grid")
        jobs = exp.jobs()
        assert len(jobs) == 3 * 4  # (ITh, FBICM, CCFIT) x 4 policies
        assert {j.routing for j in jobs} == set(ALL_POLICIES)
        assert all(dict(j.extra)["num_trees"] == 4 for j in jobs)
