"""The pluggable congestion-control scheme architecture.

Covers the public extension surface the refactor introduced: what
the ``SCHEMES`` registry holds (its mechanics are
``tests/test_registries.py``'s), the ``CongestionControlScheme`` base
hooks, the policy objects on :class:`SchemeSpec`, and the bundled
RCM scheme (built *entirely* from that public API) — unit level and
end-to-end under the invariant guard.
"""

import pytest

from repro.core.ccfit import SCHEMES, SchemeSpec, oneq_queues
from repro.core.params import CCParams
from repro.network.fabric import build_fabric
from repro.network.packet import CfqStop
from repro.experiments.configs import CONFIG1
from repro.network.topology import config1_adhoc, k_ary_n_tree
from repro.schemes.rcm import PEAK_RATE, QueueDepthMarking, RcmGate
from repro.sim.engine import Simulator
from repro.traffic.flows import FlowSpec, attach_traffic


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
class TestRegistry:
    def _spec(self, name="__test__"):
        return SchemeSpec(name, oneq_queues, "fifo", description="test-only")

    def test_duplicate_rejected_unless_replace(self):
        """A study shadows a preset by assigning the entry, not by
        registering it again, and restores it after."""
        original = SCHEMES["1Q"]
        with pytest.raises(ValueError, match="already registered"):
            SCHEMES.register(self._spec(name="1Q"))
        try:
            SCHEMES["1Q"] = shadow = self._spec(name="1Q")
            assert build_fabric(config1_adhoc(), scheme="1Q").spec is shadow
        finally:
            SCHEMES["1Q"] = original

    def test_bad_staging_rejected(self):
        """A bad spec fails when it is built, before any registry sees it."""
        with pytest.raises(ValueError, match="staging"):
            SchemeSpec("__bad__", oneq_queues, "warp")

    def test_unknown_scheme_error_lists_names(self):
        with pytest.raises(KeyError, match="RCM"):
            SCHEMES["QUIC"]

    def test_paper_presets_present_plus_rcm(self):
        assert set(SCHEMES) >= {
            "1Q", "VOQsw", "DBBM", "VOQnet", "FBICM", "ITh", "CCFIT", "RCM",
        }

    #: what each registered scheme builds on Config #1: the switch-port
    #: queue scheme and its detection flag (``VOQswScheme.detect_hot`` /
    #: ``NfqCfqScheme.drive_congestion_state``, None where the class has
    #: none), the IA staging mode and its stage scheme, the switches'
    #: marker and the end nodes' injection gate.
    COMPOSITION = {
        "1Q": ("OneQScheme", None, "fifo", "OneQScheme", None, None),
        "VOQsw": ("VOQswScheme", False, "fifo", "OneQScheme", None, None),
        "DBBM": ("DbbmScheme", None, "fifo", "OneQScheme", None, None),
        "VOQnet": ("VOQnetScheme", None, "bypass", None, None, None),
        "FBICM": ("NfqCfqScheme", False, "isolation", "NfqCfqScheme", None, None),
        "ITh": ("VOQswScheme", True, "fifo", "OneQScheme",
                "CongestionStateMarking", "ThrottleState"),
        "CCFIT": ("NfqCfqScheme", True, "isolation", "NfqCfqScheme",
                  "CongestionStateMarking", "ThrottleState"),
        "RCM": ("VOQswScheme", False, "fifo", "OneQScheme", "QueueDepthMarking", "RcmGate"),
        "PFC": ("PfcQueueScheme", None, "fifo", "OneQScheme", None, None),
        "PFC+RCM": ("PfcQueueScheme", None, "fifo", "OneQScheme",
                    "QueueDepthMarking", "RcmGate"),
    }

    def test_preset_policies(self):
        """Every registered scheme builds exactly the parts pinned in
        ``COMPOSITION``, the same on every port and every node."""

        def name(obj):
            return type(obj).__name__ if obj is not None else None

        def detection(scheme):
            for flag in ("detect_hot", "drive_congestion_state"):
                if hasattr(scheme, flag):
                    return getattr(scheme, flag)
            return None

        built = {}
        for scheme in SCHEMES:
            fab = build_fabric(CONFIG1.topo(), scheme=scheme, seed=0)
            parts = {
                (name(port.scheme), detection(port.scheme), node.staging_mode,
                 name(node.stage_scheme), name(sw.marker), name(node.throttle))
                for sw in fab.switches for port in sw.input_ports for node in fab.nodes
            }
            assert len(parts) == 1, (scheme, parts)
            built[scheme] = parts.pop()
        assert built == self.COMPOSITION


# ---------------------------------------------------------------------------
# base-class hooks
# ---------------------------------------------------------------------------
class TestBaseHooks:
    def test_defaults_on_plain_scheme(self):
        """A scheme without CAM machinery inherits safe no-op hooks."""
        fab = build_fabric(config1_adhoc(), scheme="1Q", seed=0)
        scheme = fab.switches[0].input_ports[0].scheme
        scheme.on_control_message(CfqStop(destination=4))  # no-op
        assert scheme.holds_destination(4) is False
        assert scheme.allocated_cfqs() == 0
        assert scheme.cam_alloc_failures() == 0
        assert scheme.snapshot() == {"queues": {}}
        scheme.audit()  # empty queues audit clean

    def test_isolation_scheme_overrides(self):
        fab = build_fabric(config1_adhoc(), scheme="CCFIT", seed=0)
        scheme = fab.switches[0].input_ports[0].scheme
        snap = scheme.snapshot()
        assert "cam" in snap and snap["cam"] == []  # idle CAM, but reported


# ---------------------------------------------------------------------------
# QueueDepthMarking (RCM's ECN policy)
# ---------------------------------------------------------------------------
class _FakeQueue:
    def __init__(self, nbytes):
        self.bytes = nbytes


class TestQueueDepthMarking:
    def _marker(self, seed=0):
        import numpy as np

        return QueueDepthMarking(CCParams(), np.random.default_rng(seed))

    def test_below_kmin_never_marks(self):
        m = self._marker()
        assert not any(
            m.should_mark(None, _FakeQueue(m.kmin - 1), None) for _ in range(200)
        )

    def test_at_kmax_always_marks(self):
        m = self._marker()
        assert all(
            m.should_mark(None, _FakeQueue(m.kmax), None) for _ in range(200)
        )

    def test_between_marks_probabilistically(self):
        m = self._marker(seed=3)
        mid = (m.kmin + m.kmax) // 2
        hits = sum(m.should_mark(None, _FakeQueue(mid), None) for _ in range(400))
        # expectation is pmax/2 = 0.25 -> 100 of 400; allow wide slack
        assert 40 < hits < 180
        assert m.considered == 400 and m.marked == hits


# ---------------------------------------------------------------------------
# RcmGate (RCM's reaction point)
# ---------------------------------------------------------------------------
class TestRcmGate:
    def _gate(self):
        sim = Simulator()
        params = CCParams()
        gate = RcmGate(sim, params)
        return sim, params, gate

    def test_full_rate_by_default(self):
        _, _, gate = self._gate()
        assert gate.rate(7) == PEAK_RATE
        assert gate.next_allowed(7) == 0.0
        assert gate.throttled_destinations() == []

    def test_becn_multiplicative_decrease(self):
        _, _, gate = self._gate()
        gate.on_becn(7)
        assert gate.rate(7) == PEAK_RATE / 2
        assert gate.becns == 1 and gate.decreases == 1
        gate.audit()  # rate in range, timer live

    def test_becns_coalesced_within_min_interval(self):
        sim, params, gate = self._gate()
        gate.on_becn(7)
        gate.on_becn(7)  # same instant: coalesced, no second decrease
        assert gate.decreases == 1 and gate.rate(7) == PEAK_RATE / 2
        sim.schedule_in(params.becn_min_interval, gate.on_becn, 7)
        sim.run(until=params.becn_min_interval)
        assert gate.decreases == 2 and gate.rate(7) == PEAK_RATE / 4

    def test_pacing_follows_rate(self):
        _, _, gate = self._gate()
        gate.on_becn(7)
        gate.record_injection(7, now=100.0, size=250)
        # next packet no earlier than LTI + size/rate
        assert gate.next_allowed(7) == pytest.approx(100.0 + 250 / (PEAK_RATE / 2))

    def test_recovery_restores_full_rate_and_drops_state(self):
        sim, params, gate = self._gate()
        gate.on_becn(7)
        sim.run(until=20 * params.ccti_timer)
        assert gate.rate(7) == PEAK_RATE
        assert gate.throttled_destinations() == []
        assert gate.snapshot() == {}
        gate.audit()

    def test_audit_catches_lost_recovery_timer(self):
        _, _, gate = self._gate()
        gate.on_becn(7)
        gate._timers[7].cancel()  # simulate the bug the guard must catch
        with pytest.raises(RuntimeError, match="never recover"):
            gate.audit()


# ---------------------------------------------------------------------------
# RCM end-to-end: registered scheme runs the full stack under the guard
# ---------------------------------------------------------------------------
class TestRcmEndToEnd:
    def test_hotspot_run_under_guard(self):
        fab = build_fabric(k_ary_n_tree(2, 3), scheme="RCM", seed=1)
        end = 400_000.0
        attach_traffic(
            fab,
            flows=[
                FlowSpec(f"h{s}", src=s, dst=7, rate=2.5, end=end)
                for s in (0, 1, 2, 3)
            ],
        )
        fab.run(until=end)
        fab.run(until=fab.sim.now + 5_000_000.0)
        assert fab.in_flight_packets() == 0
        stats = fab.stats()
        assert stats["delivered_packets"] == stats["generated_packets"]
        # the congestion loop actually closed: marks flowed, rates moved
        assert sum(sw.fecn_marked for sw in fab.switches) > 0
        assert sum(n.throttle.becns for n in fab.nodes) > 0
        assert fab.guard.checks > 0

    def test_rcm_in_cost_table_and_cli(self, capsys):
        from repro.cli import main
        from repro.experiments.costs import cost_table

        rows = cost_table(k_ary_n_tree(2, 3))
        assert any(r["scheme"] == "RCM" for r in rows)
        assert main(["--scale", "0.02", "sweep", "case1", "--scheme", "RCM", "--no-cache"]) == 0
        assert "RCM" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# acceptance: the device layer is scheme-agnostic
# ---------------------------------------------------------------------------
def test_device_layer_has_no_scheme_isinstance():
    """switch.py / endnode.py / fabric.py must not special-case any
    concrete scheme class — all dispatch goes through the hook API."""
    from pathlib import Path

    root = Path(__file__).parent.parent / "src" / "repro" / "network"
    for fname in ("switch.py", "endnode.py", "fabric.py"):
        text = (root / fname).read_text()
        assert "isinstance" not in text or "NfqCfqScheme" not in [
            tok
            for line in text.splitlines()
            if "isinstance" in line
            for tok in line.replace("(", " ").replace(",", " ").split()
        ], f"{fname} still type-switches on a concrete scheme"
