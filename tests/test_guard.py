"""The runtime invariant guard (repro.sim.guard).

Four properties matter: every fabric runs under the guard (a broken
invariant fails the cell, in process and in a worker pool alike), the
guard never changes results (a run checked every 100 µs gives the bytes
of one unchunked run, also on the heap oracle), a corrupted simulation
state is *detected* (tampering trips the matching check), and a frozen
network raises a structured StallError instead of hanging.
"""

import functools
import json
import math
import re
import weakref

import pytest

from repro import build_fabric, k_ary_n_tree
from repro.core.ccfit import SCHEMES, SchemeSpec
from repro.core.params import CCParams
from repro.experiments.runner import PAPER_SCHEMES, run_case
from repro.experiments.sweep import SimJob, SweepOptions, run_sweep
from repro.network.buffers import BufferError, PacketQueue
from repro.network.packet import Packet
from repro.network.queueing import OneQScheme
from repro.sim import guard
from repro.sim.guard import (
    FabricGuard,
    GuardConfig,
    InvariantViolation,
    StallError,
)

SCALE = 0.02


def tiny_fabric(scheme="CCFIT", params=None):
    return build_fabric(k_ary_n_tree(2, 2), scheme=scheme, params=params, seed=1)


# ---------------------------------------------------------------------------
# every cell is guarded
# ---------------------------------------------------------------------------
class _BrokenQueue(OneQScheme):
    def audit(self) -> None:
        raise BufferError("audit tripped on purpose")


class TestGuardAttachment:
    def test_every_fabric_is_guarded(self):
        assert isinstance(build_fabric(k_ary_n_tree(2, 2)).guard, FabricGuard)

    def test_the_guard_does_not_keep_its_fabric_alive(self):
        """A run fabric is freed with its last reference, not at the next
        cyclic collection: the guard holds it weakly."""
        fabric = tiny_fabric()
        fabric.run(until=200_000.0)
        gone = weakref.ref(fabric)
        del fabric
        assert gone() is None

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_broken_invariant_fails_the_cell(self, jobs, monkeypatch):
        """A scheme whose audit trips fails its cell with the guard's
        exception, whether the cell runs in this process or in a worker
        pool; no flag or environment variable asks for the check."""
        broken = SchemeSpec("__broken__", lambda port, _n: _BrokenQueue(port), "fifo")
        monkeypatch.setitem(SCHEMES, broken.name, broken)
        cells = [SimJob("case1", broken.name, time_scale=SCALE, seed=seed) for seed in (1, 2)]
        report = run_sweep(cells, options=SweepOptions(jobs=jobs, max_retries=0))
        assert report.workers == jobs
        assert report.results == [None, None]
        assert [f.exception for f in report.failures] == ["InvariantViolation"] * 2
        assert all("audit tripped on purpose" in f.message for f in report.failures)


# ---------------------------------------------------------------------------
# the guard cannot change results
# ---------------------------------------------------------------------------
@pytest.fixture
def one_chunk(monkeypatch):
    """Fabrics built from here on check once, at the end of the run: the
    whole span is one ``sim.run``, as the pins were recorded."""
    monkeypatch.setattr(guard, "GuardConfig",
                        functools.partial(GuardConfig, check_interval=math.inf))


class TestBitIdentical:
    @pytest.mark.parametrize("scheme", PAPER_SCHEMES)
    def test_paper_schemes_clean_and_identical(self, scheme, request):
        """Every paper scheme passes the invariant sweep on Case #1, and
        the result -- the event count included -- is the same whether
        the run is checked every 100 µs or once at its end."""
        chunked = run_case("case1", scheme=scheme, time_scale=SCALE)
        request.getfixturevalue("one_chunk")
        whole = run_case("case1", scheme=scheme, time_scale=SCALE)
        assert chunked.to_dict() == whole.to_dict()
        assert chunked.stats["events"] == whole.stats["events"]

    def test_heap_kernel_identical_under_guard(self, request):
        from tests.heap_oracle import HeapSimulator

        chunked = run_case("case1", scheme="CCFIT", time_scale=SCALE,
                           sim_factory=HeapSimulator)
        request.getfixturevalue("one_chunk")
        whole = run_case("case1", scheme="CCFIT", time_scale=SCALE)
        assert chunked.to_dict() == whole.to_dict()

    def test_guard_actually_ran(self):
        fabric = tiny_fabric()
        fabric.run(until=500_000.0)
        assert fabric.guard.checks >= 5


# ---------------------------------------------------------------------------
# tamper detection — each corruption trips the matching check
# ---------------------------------------------------------------------------
class TestTamperDetection:
    def test_packet_conservation(self):
        fabric = tiny_fabric()
        fabric.nodes[0].packets_generated += 1
        with pytest.raises(InvariantViolation, match="packet conservation"):
            fabric.guard.check_all()

    def test_credit_imbalance(self):
        fabric = tiny_fabric()
        fabric.switches[0].input_ports[0].pool.reserve(64)
        with pytest.raises(InvariantViolation, match="credit imbalance"):
            fabric.guard.check_all()

    def test_wire_byte_counters(self):
        fabric = tiny_fabric()
        fabric.links[0].bytes_received += 100
        with pytest.raises(InvariantViolation, match="received more"):
            fabric.guard.check_all()

    def test_ccti_out_of_bounds(self):
        fabric = tiny_fabric("CCFIT")
        fabric.nodes[0].throttle._ccti[1] = 999
        with pytest.raises(InvariantViolation, match="CCTI"):
            fabric.guard.check_all()

    def test_ccti_without_live_timer(self):
        fabric = tiny_fabric("CCFIT")
        fabric.nodes[0].throttle._ccti[1] = 2  # raised, but no timer armed
        with pytest.raises(InvariantViolation, match="no live"):
            fabric.guard.check_all()

    def test_cam_leak(self):
        fabric = tiny_fabric("CCFIT")
        scheme = fabric.switches[0].input_ports[0].scheme
        scheme.cam.allocations += 1  # a CFQ allocated but never freed
        with pytest.raises(InvariantViolation, match="alloc"):
            fabric.guard.check_all()

    def test_queue_byte_drift(self):
        fabric = tiny_fabric()
        q = fabric.switches[0].input_ports[0].scheme.queues()[0]
        q.bytes += 7
        with pytest.raises(InvariantViolation):
            fabric.guard.check_all()

    @pytest.mark.parametrize("site", ["advoq", "voqnet"])
    @pytest.mark.parametrize("dsts, problem", [
        ((), "is empty but still live"),
        ((2,), "for destination 1 holds a packet for 2"),
    ])
    def test_live_queue_map_holds_packets_for_its_key_only(self, site, dsts, problem):
        if site == "advoq":
            fabric = tiny_fabric()
            live, name = fabric.nodes[0].advoqs, "node0.advoq1"
        else:
            fabric = tiny_fabric("VOQnet")
            port = fabric.switches[0].input_ports[0]
            live, name = port.scheme.voqs, f"{port.name}.d1"
        live[1] = PacketQueue(name)
        for d in dsts:
            live[1].push(Packet(src=0, dst=d, size=2048, flow="F0"))
        with pytest.raises(InvariantViolation, match=re.escape(f"queue {name} {problem}")):
            fabric.guard.check_all()

    def test_pfc_ledger_drift(self):
        fabric = tiny_fabric("PFC", params=CCParams(buffer_model="shared"))
        fabric.switches[0].buffer_model.pauses_sent += 1  # a PAUSE never resumed
        with pytest.raises(InvariantViolation, match="sw0: PFC ledger drift — 1 pauses vs 0 resumes"):
            fabric.guard.check_all()

    def test_a_shared_pool_violation_names_its_switch_once(self):
        fabric = tiny_fabric("PFC", params=CCParams(buffer_model="shared"))
        fabric.switches[0].buffer_model.shared_used += 64  # bytes no PG holds
        with pytest.raises(InvariantViolation, match="shared_used=64B but PG shares sum to 0B") as exc:
            fabric.guard.check_all()
        assert str(exc.value).count("sw0:") == 1

    def test_violations_are_collected_not_first_only(self):
        fabric = tiny_fabric()
        fabric.nodes[0].packets_generated += 1
        fabric.links[0].bytes_received += 100
        with pytest.raises(InvariantViolation) as exc:
            fabric.guard.check_all()
        assert len(exc.value.violations) >= 2
        assert "now" in exc.value.dump


# ---------------------------------------------------------------------------
# the no-progress watchdog
# ---------------------------------------------------------------------------
def strand_packet(fabric):
    """Plant a queued packet with no event to ever move it (a synthetic
    dead network that still satisfies every conservation identity)."""
    node = fabric.nodes[0]
    node.advoqs[1] = PacketQueue("node0.advoq1")
    node.advoqs[1].push(Packet(src=0, dst=1, size=2048, flow="F0"))
    node.packets_generated += 1


class TestWatchdog:
    def test_deadlock_detected_immediately(self):
        fabric = tiny_fabric()
        strand_packet(fabric)
        with pytest.raises(StallError) as exc:
            fabric.run(until=10e6)
        err = exc.value
        assert err.kind == "deadlock"
        assert "1 packet(s) buffered" in str(err)
        # the run stopped at the first check, not after 10 ms of nothing
        assert fabric.sim.now <= 200_000.0

    def test_livelock_detected_as_stall(self):
        fabric = tiny_fabric()
        strand_packet(fabric)

        def tick():  # events keep firing, packets never move
            fabric.sim.schedule_in(500.0, tick)

        fabric.sim.schedule_in(500.0, tick)
        fabric.guard = FabricGuard(
            fabric, GuardConfig(check_interval=1_000.0, stall_checks=3)
        )
        with pytest.raises(StallError) as exc:
            fabric.run(until=10e6)
        assert exc.value.kind == "stall"
        assert "tick" in str(exc.value)  # the histogram names the culprit

    def test_dump_is_structured_and_json_safe(self):
        fabric = tiny_fabric()
        strand_packet(fabric)
        with pytest.raises(StallError) as exc:
            fabric.run(until=10e6)
        dump = exc.value.dump
        for key in ("now", "pending_events", "event_histogram", "stats",
                    "in_flight_packets", "switches", "nodes"):
            assert key in dump
        assert dump["in_flight_packets"] == 1
        node0 = dump["nodes"][0]
        assert node0["advoq_backlog"]["1"]["packets"] == 1
        json.dumps(dump)  # must serialize for the failure manifest

    def test_healthy_run_never_trips(self):
        fabric = tiny_fabric()
        fabric.run(until=1e6)  # no traffic, no packets, no stall
        assert fabric.guard.checks > 0
