"""The fault-injection subsystem (repro.sim.faults, docs/faults.md).

Covers the FaultPlan spec grammar and its serialization/scaling
contract, injector validation and switch-target expansion, the guard's
expected-loss ledger across a link flap (production queue and heap
oracle), the
stall watchdog's fault snapshot, byte-identity of fault-free runs,
cache-key semantics, the routing reaction (adaptive rides out a kill
that makes det drop at the source; the delayed deterministic re-route
recovers) and the error-context satellites.
"""

import json

import pytest

from repro import build_fabric, k_ary_n_tree
from repro.experiments.runner import run_case
from repro.experiments.sweep import SimJob
from repro.network.link import LinkError
from repro.network.packet import Packet
from repro.network.topology import TopologyError
from repro.sim.faults import (
    DEFAULT_REROUTE_DELAY,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
)
from repro.sim.guard import GuardConfig, StallError
from repro.traffic.flows import FlowSpec, attach_traffic

SCALE = 0.05

#: k_ary_n_tree(2, 2): n0/n1 under s0, n2/n3 under s1; two root
#: switches s2/s3 reachable through uplink ports 2 and 3.
UPLINK = "s0p2->s2p0"
DOWNLINK = "s1p0->n2"
#: Config #1 (the ad-hoc 7-node Fig. 5 network): its single
#: inter-switch link, used by the case1-based tests.
CASE1_LINK = "s0p3->s1p4"


def tiny_fabric(faults=None, routing="det", validate=None, sim=None, scheme="1Q"):
    return build_fabric(
        k_ary_n_tree(2, 2), scheme=scheme, seed=1, sim=sim,
        validate=validate, routing=routing, faults=faults,
    )


# ---------------------------------------------------------------------------
# plan grammar + serialization
# ---------------------------------------------------------------------------
class TestPlanParsing:
    def test_basic_clause(self):
        plan = FaultPlan.parse("down:s0p4->s16p0@1.2ms")
        assert plan.events == (
            FaultEvent(time=1.2e6, action="down", target="s0p4->s16p0"),
        )
        assert plan.reroute_delay == DEFAULT_REROUTE_DELAY

    @pytest.mark.parametrize(
        "text,ns", [("1.5ms", 1.5e6), ("60us", 60e3), ("5000ns", 5000.0), ("250", 250.0)]
    )
    def test_time_suffixes(self, text, ns):
        assert FaultPlan.parse(f"kill:x@{text}").events[0].time == ns

    def test_seed_and_reroute_clauses(self):
        plan = FaultPlan.parse("seed=7;reroute=none;kill:x@1ms")
        assert plan.seed == 7 and plan.reroute_delay is None
        assert FaultPlan.parse("reroute=50us;down:x@0").reroute_delay == 50e3

    def test_degrade_options(self):
        ev = FaultPlan.parse("degrade:x@2ms:bw=0.25,delay=10us,drop=0.01").events[0]
        assert ev.bandwidth_factor == 0.25
        assert ev.extra_delay == 10e3
        assert ev.drop_prob == 0.01

    @pytest.mark.parametrize(
        "spec",
        [
            "explode:x@1ms",          # unknown action
            "down:x",                 # missing @time
            "down:@1ms",              # missing target
            "down:x@1ms:bw=0.5",      # options on a non-degrade clause
            "degrade:x@1ms:rate=2",   # unknown degrade option
            "seed=abc;down:x@1ms",    # bad seed
            "reroute=1ms",            # no fault events
            "",                       # empty
            "kill:x@-5",              # negative time
            "degrade:x@1ms:drop=1.5",  # drop_prob out of range
        ],
    )
    def test_bad_specs_raise(self, spec):
        with pytest.raises(FaultPlanError):
            FaultPlan.parse(spec)

    def test_roundtrip_and_name_excluded_from_dict(self):
        plan = FaultPlan.parse("seed=3;degrade:L@1ms:bw=0.5,drop=0.1", name="scenario")
        data = plan.to_dict()
        assert "name" not in json.dumps(data)
        back = FaultPlan.from_dict(json.loads(json.dumps(data)))
        assert back.to_dict() == data
        assert plan.label() == "scenario"
        assert FaultPlan.parse("kill:x@1ms").label() == "1ev"

    def test_scaled(self):
        plan = FaultPlan.parse("degrade:L@1ms:delay=10us;up:L@2ms")
        scaled = plan.scaled(0.1)
        assert scaled.events[0].time == pytest.approx(1e5)
        assert scaled.events[0].extra_delay == pytest.approx(1e3)
        assert scaled.events[1].time == pytest.approx(2e5)
        assert scaled.reroute_delay == pytest.approx(DEFAULT_REROUTE_DELAY * 0.1)
        assert plan.scaled(1.0) is plan
        with pytest.raises(FaultPlanError):
            plan.scaled(0.0)


# ---------------------------------------------------------------------------
# injector validation + targeting
# ---------------------------------------------------------------------------
class TestInjectorTargets:
    def test_unknown_target_rejected_at_build_time(self):
        with pytest.raises(FaultPlanError) as exc_info:
            tiny_fabric(faults=FaultPlan.parse("down:s9p9->s8p8@1ms"))
        assert "s9p9->s8p8" in str(exc_info.value)

    def test_switch_target_expands_to_attached_links(self):
        fabric = tiny_fabric(faults=FaultPlan.parse("down:s0@10us"))
        fabric.run(until=20_000)
        snap = fabric.faults.snapshot()
        # down/drain hits the switch's incoming links only
        assert set(snap["links_down"]) == {"n0->s0p0", "n1->s0p1", "s2p0->s0p2", "s3p0->s0p3"}

    def test_double_arm_rejected(self):
        fabric = tiny_fabric(faults=FaultPlan.parse("down:%s@10us" % UPLINK))
        with pytest.raises(RuntimeError):
            fabric.faults.arm()

    def test_no_plan_leaves_fabric_unarmed(self):
        fabric = tiny_fabric()
        assert fabric.faults is None
        assert all(lk._wire is None for lk in fabric.links)


# ---------------------------------------------------------------------------
# guard ledger across a flap (production queue and heap oracle)
# ---------------------------------------------------------------------------
class TestGuardLedger:
    def test_flap_conserves_packets_under_guard(self, sim_cls):
        plan = FaultPlan.parse(f"down:{UPLINK}@30us;up:{UPLINK}@60us;reroute=20us")
        fabric = tiny_fabric(faults=plan, validate=True, sim=sim_cls())
        attach_traffic(fabric, flows=[
            FlowSpec("f02", src=0, dst=2, rate=2.5),
            FlowSpec("f13", src=1, dst=3, rate=2.5),
        ])
        fabric.run(until=200_000)  # guard sweeps + flap + recovery
        assert fabric.guard is not None and fabric.guard.checks > 0
        snap = fabric.faults.snapshot()
        lost = snap["wire_drops"] + snap["source_drops"]
        generated = sum(n.packets_generated for n in fabric.nodes)
        delivered = fabric.collector.delivered_packets
        assert generated >= delivered + lost
        # the flap closed: nothing stays down and traffic recovered
        assert snap["links_down"] == []
        assert delivered > 0

    def test_wire_drop_reconciles_credits(self):
        # packets on the wire when the link fails are dropped and their
        # downstream reservation cancelled; the guard would flag any
        # credit leak, so just run a kill under validation.
        plan = FaultPlan.parse(f"kill:{UPLINK}@25us")
        fabric = tiny_fabric(faults=plan, validate=True)
        attach_traffic(fabric, flows=[FlowSpec("f02", src=0, dst=2, rate=2.5)])
        fabric.run(until=150_000)
        snap = fabric.faults.snapshot()
        assert snap["killed"] == [UPLINK]
        assert fabric.guard.checks > 0


# ---------------------------------------------------------------------------
# stall watchdog (satellite: fault snapshot in the dump)
# ---------------------------------------------------------------------------
class TestStallDump:
    def test_stall_dump_contains_fault_snapshot(self):
        # sever the only downlink to n2 with re-routing disabled: the
        # packets already buffered for n2 can never drain -> stall, and
        # the dump must point straight at the fault.
        plan = FaultPlan.parse(f"kill:{DOWNLINK}@30us;reroute=none")
        fabric = tiny_fabric(faults=plan, validate=True)
        fabric.guard.config = GuardConfig(check_interval=10_000.0, stall_checks=3)
        attach_traffic(fabric, flows=[FlowSpec("f02", src=0, dst=2, rate=2.5)])
        with pytest.raises(StallError) as exc_info:
            fabric.run(until=2_000_000)
        dump = exc_info.value.dump
        assert "faults" in dump
        assert dump["faults"]["killed"] == [DOWNLINK]
        # every source is doomed for the partitioned destination
        assert all("2" in doomed or 2 in doomed
                   for doomed in dump["faults"]["doomed"].values())


# ---------------------------------------------------------------------------
# byte-identity, determinism and cache keys
# ---------------------------------------------------------------------------
class TestDeterminism:
    def test_no_plan_results_have_no_faults_key(self):
        res = run_case("case1", scheme="CCFIT", time_scale=SCALE, seed=1)
        assert res.faults is None and "faults" not in res.to_dict()

    def test_fixed_plan_is_deterministic(self):
        kwargs = dict(scheme="CCFIT", time_scale=SCALE, seed=1,
                      faults=f"seed=5;degrade:{CASE1_LINK}@0:drop=0.02")
        a = run_case("case1", **kwargs).to_dict()
        b = run_case("case1", **kwargs).to_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert a["faults"]["plan"]["seed"] == 5

    def test_plan_splits_cache_key_but_name_does_not(self):
        base = SimJob("case1", "CCFIT")
        plan = FaultPlan.parse("kill:x@1ms", name="a")
        same_content = FaultPlan.parse("kill:x@1ms", name="b")
        other = FaultPlan.parse("kill:x@2ms")
        assert SimJob("case1", "CCFIT", faults=plan).key() != base.key()
        assert (SimJob("case1", "CCFIT", faults=plan).key()
                == SimJob("case1", "CCFIT", faults=same_content).key())
        assert (SimJob("case1", "CCFIT", faults=plan).key()
                != SimJob("case1", "CCFIT", faults=other).key())

    def test_label_carries_plan(self):
        plan = FaultPlan.parse("kill:x@1ms", name="kill")
        assert SimJob("case1", "CCFIT", faults=plan).label() == "case1/CCFIT+kill"


# ---------------------------------------------------------------------------
# routing reaction
# ---------------------------------------------------------------------------
class TestRoutingReaction:
    def _run(self, routing, reroute):
        plan = FaultPlan.parse(f"kill:{UPLINK}@20us;reroute={reroute}")
        fabric = tiny_fabric(faults=plan, routing=routing)
        attach_traffic(fabric, flows=[FlowSpec("f02", src=0, dst=2, rate=2.5)])
        fabric.run(until=300_000)
        return fabric

    def test_adaptive_rides_out_kill_that_makes_det_drop(self):
        det = self._run("det", "none")
        adaptive = self._run("adaptive", "none")
        det_snap = det.faults.snapshot()
        ad_snap = adaptive.faults.snapshot()
        # det's only route for dst 2 died: traffic degrades to source drops
        assert det_snap["source_drops"] > 0
        # adaptive excludes the dead uplink and keeps delivering
        assert ad_snap["source_drops"] == 0
        assert (adaptive.collector.delivered_packets
                > det.collector.delivered_packets)

    def test_det_reroute_recovers_table_and_traffic(self):
        fabric = self._run("det", "30us")
        # s0's route for dst 2 moved off the killed port 2
        assert fabric.switches[0].policy.table.lookup(2) == 3
        snap = fabric.faults.snapshot()
        assert any(e["action"] == "reroute" for e in snap["applied"])
        # after the re-route no destination stays doomed
        assert snap["doomed"] == {}
        assert fabric.collector.delivered_packets > 0

    def test_windows_pair_down_with_up(self):
        plan = FaultPlan.parse(f"down:{UPLINK}@20us;up:{UPLINK}@50us;kill:{DOWNLINK}@70us")
        fabric = tiny_fabric(faults=plan)
        fabric.run(until=100_000)
        assert fabric.faults.windows() == [(20_000.0, 50_000.0), (70_000.0, None)]


# ---------------------------------------------------------------------------
# degraded links
# ---------------------------------------------------------------------------
class TestDegradedLinks:
    def test_degrade_slows_and_restore_recovers(self):
        plan = FaultPlan.parse(f"degrade:{UPLINK}@1us:bw=0.5,delay=100ns")
        fabric = tiny_fabric(faults=plan)
        lk = next(l for l in fabric.links if l.name == UPLINK)
        bw0, d0 = lk.bandwidth, lk.delay
        fabric.run(until=25_000)
        assert lk.bandwidth == pytest.approx(bw0 * 0.5)
        assert lk.delay == pytest.approx(d0 + 100.0)
        assert fabric.faults.snapshot()["degraded"] == [UPLINK]

        restored = FaultPlan.parse(
            f"degrade:{UPLINK}@1us:bw=0.5,delay=100ns;restore:{UPLINK}@50us"
        )
        fabric2 = tiny_fabric(faults=restored)
        lk2 = next(l for l in fabric2.links if l.name == UPLINK)
        bw0, d0 = lk2.bandwidth, lk2.delay
        fabric2.run(until=60_000)
        assert lk2.bandwidth == pytest.approx(bw0)
        assert lk2.delay == pytest.approx(d0)
        assert fabric2.faults.snapshot()["degraded"] == []

    def test_probabilistic_corruption_drops_are_seeded(self):
        def run(seed):
            plan = FaultPlan.parse(f"seed={seed};degrade:{UPLINK}@0:drop=0.2")
            fabric = tiny_fabric(faults=plan)
            attach_traffic(fabric, flows=[FlowSpec("f02", src=0, dst=2, rate=2.5)])
            fabric.run(until=100_000)
            return fabric.faults.snapshot()["wire_drops"]

        assert run(1) > 0
        assert run(1) == run(1)


# ---------------------------------------------------------------------------
# satellites: error context, batch fallback
# ---------------------------------------------------------------------------
class TestErrorContext:
    def test_link_error_names_endpoints_and_time(self):
        fabric = tiny_fabric(faults=FaultPlan.parse(f"kill:{UPLINK}@10us"))
        fabric.run(until=20_000)
        lk = next(l for l in fabric.links if l.name == UPLINK)
        with pytest.raises(LinkError) as exc_info:
            lk.send(Packet(0, 2, 512, "f"))
        msg = str(exc_info.value)
        assert "failed link" in msg and "tx=" in msg and "rx=" in msg and "t=" in msg

    def test_topology_error_names_switch_and_time(self):
        fabric = tiny_fabric()
        with pytest.raises(TopologyError) as exc_info:
            fabric.switches[0].routing.lookup(99)
        msg = str(exc_info.value)
        assert "99" in msg and "at sw0" in msg and "t=" in msg


# ---------------------------------------------------------------------------
# telemetry + experiment surface
# ---------------------------------------------------------------------------
class TestSurfaces:
    def test_telemetry_bundle_carries_fault_state(self):
        from repro.telemetry import TelemetryConfig

        res = run_case("case1", scheme="CCFIT", time_scale=SCALE, seed=1,
                       telemetry=TelemetryConfig(interval=50_000.0),
                       faults=f"down:{CASE1_LINK}@100us;up:{CASE1_LINK}@200us")
        assert "faults" in res.telemetry
        for rec in res.telemetry.get("trees", []):
            assert isinstance(rec["during_fault"], bool)

    def test_fault_resilience_experiment_registered(self):
        from repro.experiments import registry

        exp = registry.get("fault_resilience")
        assert exp.kind == "faults"
        jobs = exp.jobs(schemes=("CCFIT",), routings=("adaptive",))
        # 1 scheme x 1 routing x 4 fault scenarios (incl. the baseline)
        assert len(jobs) == 4
        labels = {j.faults.label() for j in jobs if j.faults is not None}
        assert labels == {"flap", "kill", "degrade"}

    def test_render_fault_matrix(self):
        from repro.experiments.report import render_fault_matrix

        res = run_case("case4", scheme="CCFIT", time_scale=0.02, seed=1,
                       num_trees=1, faults="kill:s0p4->s16p0@1.2ms")
        table = render_fault_matrix({"CCFIT@adaptive+kill": res})
        assert "delivered" in table and "recovery_us" in table
        assert "CCFIT" in table and "kill" in table

    def test_cli_case_prints_faulted_cell(self, capsys):
        """`case`/`trees` must find the result under its faulted key
        (``SCHEME[@routing]+label``), not print nothing."""
        from repro.cli import main

        rc = main(["--scale", "0.02", "--seed", "3",
                   "--faults", f"down:{CASE1_LINK}@1ms;up:{CASE1_LINK}@1.2ms",
                   "case", "1", "--scheme", "ITh"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "delivered_packets" in out

    @pytest.mark.tier2
    def test_fault_resilience_smoke_cell(self, tmp_path):
        """One end-to-end fault_resilience cell through the CLI."""
        from repro.cli import main

        rc = main(["--scale", "0.05", "--seed", "3", "--no-cache",
                   "sweep", "fault_resilience", "--scheme", "CCFIT",
                   "--routing", "adaptive",
                   "--manifest", str(tmp_path / "manifest.json")])
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["failed"] == 0 and manifest["cells"] == 4
