"""The runtime invariant guard (repro.sim.guard).

Three properties matter: guard mode never changes results (bit-identical
with the guard on or off, also on the heap oracle), a corrupted
simulation state is *detected* (tampering trips the matching check),
and a frozen network raises a structured StallError instead of hanging.
"""

import json

import pytest

from repro import build_fabric, k_ary_n_tree
from repro.experiments.runner import PAPER_SCHEMES, run_case
from repro.network.packet import Packet
from repro.sim.guard import (
    ENV_VALIDATE,
    FabricGuard,
    GuardConfig,
    InvariantViolation,
    StallError,
    validation_enabled,
)

SCALE = 0.02


def tiny_fabric(scheme="CCFIT"):
    return build_fabric(k_ary_n_tree(2, 2), scheme=scheme, seed=1, validate=True)


# ---------------------------------------------------------------------------
# switch resolution
# ---------------------------------------------------------------------------
class TestValidationEnabled:
    def test_explicit_flag_wins(self, monkeypatch):
        monkeypatch.setenv(ENV_VALIDATE, "1")
        assert validation_enabled(False) is False
        monkeypatch.delenv(ENV_VALIDATE)
        assert validation_enabled(True) is True

    def test_default_off(self, monkeypatch):
        monkeypatch.delenv(ENV_VALIDATE, raising=False)
        assert validation_enabled() is False

    @pytest.mark.parametrize("value", ["1", "true", "YES", " on "])
    def test_truthy_env(self, monkeypatch, value):
        monkeypatch.setenv(ENV_VALIDATE, value)
        assert validation_enabled() is True

    @pytest.mark.parametrize("value", ["", "0", "no", "off", "garbage"])
    def test_falsy_env(self, monkeypatch, value):
        monkeypatch.setenv(ENV_VALIDATE, value)
        assert validation_enabled() is False


class TestGuardAttachment:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv(ENV_VALIDATE, raising=False)
        assert build_fabric(k_ary_n_tree(2, 2)).guard is None

    def test_validate_true_attaches(self):
        fabric = tiny_fabric()
        assert isinstance(fabric.guard, FabricGuard)

    def test_env_attaches(self, monkeypatch):
        monkeypatch.setenv(ENV_VALIDATE, "1")
        assert build_fabric(k_ary_n_tree(2, 2)).guard is not None

    def test_explicit_false_overrides_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VALIDATE, "1")
        assert build_fabric(k_ary_n_tree(2, 2), validate=False).guard is None

    def test_cli_validate_flag_sets_env(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv(ENV_VALIDATE, "0")  # recorded + restored by monkeypatch
        assert main(["--scale", str(SCALE), "case", "1",
                     "--scheme", "CCFIT", "--validate"]) == 0
        import os
        assert os.environ[ENV_VALIDATE] == "1"


# ---------------------------------------------------------------------------
# guard mode cannot change results
# ---------------------------------------------------------------------------
class TestBitIdentical:
    @pytest.mark.parametrize("scheme", PAPER_SCHEMES)
    def test_paper_schemes_clean_and_identical(self, scheme):
        """Every paper scheme passes the invariant sweep on Case #1, and
        the guarded result — including the event count — is bit-identical
        to the unguarded one (guard mode can never poison the cache)."""
        plain = run_case("case1", scheme=scheme, time_scale=SCALE)
        guarded = run_case("case1", scheme=scheme, time_scale=SCALE, validate=True)
        assert guarded.to_dict() == plain.to_dict()
        assert guarded.stats["events"] == plain.stats["events"]

    def test_heap_kernel_identical_under_guard(self):
        from tests.heap_oracle import HeapSimulator

        plain = run_case("case1", scheme="CCFIT", time_scale=SCALE)
        guarded = run_case("case1", scheme="CCFIT", time_scale=SCALE, validate=True,
                           sim_factory=HeapSimulator)
        assert guarded.to_dict() == plain.to_dict()

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
