"""Congestion-control parameters and the §III-E tuning rules.

The paper's parameter inventory (§III-E): *Congestion detection
threshold*, *CFQ Stop/Go thresholds*, *CFQ High/Low thresholds*,
*CCTI_Timer*, *Marking_Rate* and *Packet_Size*.  Defaults follow §IV-A:

* ``CCTI_Timer`` = 8000 ns, ``Marking_Rate`` = 85 %;
* ITh VOQ High/Low = 4 / 2 packets;
* CCFIT Stop/Go = 10 / 4 MTUs, 2 CFQs per input port;
* MTU 2048 B, 64 KiB input-port memory.

:meth:`CCParams.validate` enforces the §III-E consistency rules:
``High − Low >= 1 MTU``, ``Stop > High`` (so a root CFQ can mark before
upstream CFQs are blocked), and ``Stop − Go`` wide enough to avoid
Stop/Go thrash.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List

__all__ = ["CCParams", "linear_cct", "exponential_cct", "ParamError", "MTU"]

#: default maximum transfer unit (bytes) — Table I.
MTU = 2048


class ParamError(ValueError):
    """Raised when a parameter set violates the §III-E tuning rules."""


def linear_cct(entries: int = 128, step: float = MTU / 2.5) -> List[float]:
    """A CCT whose IRD grows linearly: ``CCT[i] = i * step`` ns.

    The default step is one MTU serialisation time at 2.5 GB/s
    (819.2 ns), so index ``i`` roughly divides the flow's injection rate
    by ``i + 1``.
    """
    if entries < 2:
        raise ParamError(f"CCT needs >= 2 entries, got {entries}")
    if step <= 0:
        raise ParamError(f"CCT step must be positive, got {step}")
    return [i * step for i in range(entries)]


def exponential_cct(entries: int = 16, base: float = MTU / 2.5) -> List[float]:
    """A CCT whose IRD doubles per index: ``CCT[i] = base * (2**i - 1)``.

    Reacts faster but coarser than the linear default.
    """
    if entries < 2:
        raise ParamError(f"CCT needs >= 2 entries, got {entries}")
    if base <= 0:
        raise ParamError(f"CCT base must be positive, got {base}")
    return [base * (2.0**i - 1.0) for i in range(entries)]


@dataclass
class CCParams:
    """Every knob of the modelled switches, IAs and CC mechanisms.

    Thresholds are stored in **bytes** (the paper states them in
    packets/MTUs; multiply by :attr:`mtu`).
    """

    # -- fabric-wide constants (Table I) --------------------------------
    mtu: int = MTU
    #: input-port RAM per switch port (bytes).
    memory_size: int = 64 * 1024
    #: IA output-stage RAM (bytes).
    ia_memory_size: int = 64 * 1024
    #: link propagation delay (ns).
    link_delay: float = 20.0
    #: iSlip iterations per matching round.  The switches run slotted,
    #: cycle-level iSlip (§IV-A): every slot, one MTU serialisation time
    #: at the switch's fastest link, all free inputs and outputs are
    #: matched together.
    islip_iterations: int = 2

    # -- congested-flow isolation (FBICM / CCFIT) -----------------------
    #: CFQs per input port ("We use 2 CFQs per input port", §IV-A).
    num_cfqs: int = 2
    #: NFQ occupancy that triggers congestion detection (bytes).
    detection_threshold: int = 4 * MTU
    #: which destination a detection blames: "dominant" scans the NFQ
    #: for the destination holding the most bytes (the flow actually
    #: responsible for the backlog); "head" blames the head packet —
    #: simpler hardware.
    detection_policy: str = "dominant"
    #: CFQ occupancy that propagates the congestion tree upstream.
    propagation_threshold: int = 4 * MTU
    #: CFQ Stop/Go flow-control thresholds ("Stop" 10 MTUs, "Go" 4).
    cfq_stop: int = 10 * MTU
    cfq_go: int = 4 * MTU
    #: CFQ High/Low — drive the output port's congestion state (CCFIT).
    #: High sits above the standing-queue level a released victim burst
    #: can park in a root CFQ (a few MTUs) and below Stop, so genuine
    #: oversubscription still crosses it on the way to Stop.
    cfq_high: int = 8 * MTU
    #: Low must sit *below* the trough a root CFQ dips to while the Go
    #: round-trip restarts its upstream feeder (~go - 2 MTU), or the
    #: congestion-state dwell disarms on every Stop/Go saw cycle and
    #: the port never marks.
    cfq_low: int = 1 * MTU
    #: the congestion state exits when the root CFQ drains to this
    #: level.  Exiting within the Go band (default 3 MTU) leaves a few
    #: MTUs of backlog in the tree, so the hot link stays busy while
    #: the sources' CCTIs decay — draining all the way to Low first
    #: (set cfq_cs_exit = cfq_low) empties the tree and the link idles
    #: through every throttle trough.
    cfq_cs_exit: int = 3 * MTU
    #: a root CFQ that was hot within this window (ns) re-enters the
    #: congestion state without re-serving the dwell: the dwell filters
    #: *victim* transients, and a line that already proved to be a
    #: genuine root keeps that proof while its tree persists.  Without
    #: this, sustained congestion marks on a low duty cycle (one dwell
    #: per Stop/Go saw) and the throttle never reaches its operating
    #: point on deep incast patterns.
    cfq_rearm_window: float = 50_000.0
    #: a root CFQ must stay above High this long (ns) before its output
    #: port enters the congestion state.  Genuine oversubscription keeps
    #: the CFQ full indefinitely; transient arrival bursts (a victim
    #: flow released upstream) drain within a few packet times, so the
    #: dwell filters them out and victims are not FECN-marked.
    cfq_high_dwell: float = 50_000.0
    #: minimum CFQ lifetime before deallocation (ns) — hysteresis so an
    #: empty-but-active root CFQ is not thrashed (DESIGN.md §5).
    cfq_min_lifetime: float = 5_000.0

    # -- injection throttling (ITh / CCFIT) -----------------------------
    #: VOQ High/Low thresholds for ITh detection (4 / 2 packets, §IV-A).
    voq_high: int = 4 * MTU
    voq_low: int = 2 * MTU
    #: fraction of eligible packets FECN-marked in the congestion state.
    marking_rate: float = 0.85
    #: only packets at least this large are FECN-marked (Packet_Size).
    min_marking_size: int = 0
    #: decay period of the per-destination CCT index (ns).
    ccti_timer: float = 8_000.0
    #: CCTI increment per received BECN.
    ccti_increase: int = 1
    #: minimum spacing (ns) between CCTI increases for one destination;
    #: BECNs arriving faster are coalesced.  Anti-windup: during a long
    #: marking episode the raw BECN rate tracks the flow's packet rate
    #: (~2.6/µs at wire speed), which would integrate the CCTI far past
    #: the operating point and leave the source crawling long after the
    #: episode ends.  Real HCAs bound their reaction frequency the same
    #: way.  0 disables coalescing.
    becn_min_interval: float = 1_000.0
    #: the Congestion Control Table of Injection Rate Delays (ns).
    cct: List[float] = field(default_factory=linear_cct)

    # -- queue schemes ---------------------------------------------------
    #: DBBM's destination-hash buckets per input port.  VOQsw-family
    #: ports (VOQsw, ITh, RCM) build one VOQ per output port instead,
    #: whatever this says (8 on Config #3's radix-8 switches, §IV-A).
    num_voqs: int = 8
    #: minimum per-destination queue size for VOQnet (4 KiB, §IV-A).
    voqnet_queue_size: int = 4 * 1024
    #: AdVOQ depth at the IA before the generator blocks (packets).
    advoq_cap_packets: int = 32

    # -- the shared buffer pool / PFC (repro.network.buffers) -----------
    # Which buffer model a switch runs is the cell's ``buffer_model``
    # axis, not a parameter (docs/buffers.md); these size "shared".
    #: PFC priority groups per port (802.1Qbb allows up to 8; packets
    #: map by ``dst % pfc_priorities``, like DBBM's bucket hash).
    pfc_priorities: int = 4
    #: dynamic-threshold scaling: a PG may hold up to
    #: ``shared_alpha * free_shared`` bytes of the shared space.
    shared_alpha: float = 2.0
    #: guaranteed minimum per (port, priority-group), bytes.
    shared_reserved: int = MTU
    #: PFC headroom per port (bytes) — sized to absorb the bytes in
    #: flight between XOFF emission and the upstream honouring it
    #: (2 * MTU covers one serialising packet + one crossing the wire
    #: at Table-I link delays).
    pfc_headroom: int = 2 * MTU
    #: XON hysteresis: resume once the PG's shared occupancy falls
    #: below this fraction of its dynamic threshold.
    pfc_xon_fraction: float = 0.5

    # -- adaptive routing (repro.network.routing) -----------------------
    #: flowlet idle gap (ns): the ``flowlet`` routing policy keeps a
    #: flow on its current path while consecutive packets arrive within
    #: this gap, and re-selects adaptively after a longer silence.  The
    #: default is ~60 MTU serialisation times at 2.5 GB/s — long enough
    #: that a back-to-back burst never splits, short enough that a
    #: throttled flow re-routes within one CCTI_Timer period.
    flowlet_gap: float = 50_000.0

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Enforce the §III-E tuning relations; raise :class:`ParamError`."""
        if self.mtu <= 0:
            raise ParamError(f"mtu must be positive, got {self.mtu}")
        if self.memory_size < 2 * self.mtu:
            raise ParamError("input memory must hold at least two MTUs")
        if self.num_cfqs < 0:
            raise ParamError(f"num_cfqs must be >= 0, got {self.num_cfqs}")
        if self.cfq_high - self.cfq_low < self.mtu:
            raise ParamError(
                "CFQ High/Low must differ by at least one MTU (§III-E): "
                f"high={self.cfq_high} low={self.cfq_low}"
            )
        if self.cfq_stop <= self.cfq_high:
            raise ParamError(
                "the Stop threshold must exceed High so root CFQs can mark "
                f"before upstream CFQs block (§III-E): stop={self.cfq_stop} "
                f"high={self.cfq_high}"
            )
        if self.cfq_stop - self.cfq_go < self.mtu:
            raise ParamError(
                "Stop - Go must leave at least one MTU of hysteresis: "
                f"stop={self.cfq_stop} go={self.cfq_go}"
            )
        if not (0 <= self.detection_threshold <= self.memory_size):
            raise ParamError(f"detection threshold {self.detection_threshold} out of range")
        if self.detection_policy not in ("dominant", "head"):
            raise ParamError(f"unknown detection policy {self.detection_policy!r}")
        if self.cfq_high_dwell < 0:
            raise ParamError(f"cfq_high_dwell must be >= 0, got {self.cfq_high_dwell}")
        if self.cfq_rearm_window < 0:
            raise ParamError(f"cfq_rearm_window must be >= 0, got {self.cfq_rearm_window}")
        if not (self.cfq_low <= self.cfq_cs_exit < self.cfq_high):
            raise ParamError(
                "the congestion-state exit level must lie between Low and "
                f"High: low={self.cfq_low} exit={self.cfq_cs_exit} high={self.cfq_high}"
            )
        if self.voq_high - self.voq_low < self.mtu:
            raise ParamError("VOQ High/Low must differ by at least one MTU")
        if not (0.0 < self.marking_rate <= 1.0):
            raise ParamError(f"marking rate must be in (0, 1], got {self.marking_rate}")
        if self.ccti_timer <= 0:
            raise ParamError(f"CCTI_Timer must be positive, got {self.ccti_timer}")
        if self.ccti_increase < 1:
            raise ParamError(f"CCTI_Increase must be >= 1, got {self.ccti_increase}")
        if self.becn_min_interval < 0:
            raise ParamError(f"becn_min_interval must be >= 0, got {self.becn_min_interval}")
        if len(self.cct) < 2 or self.cct[0] != 0.0:
            raise ParamError("CCT must start at IRD 0 and have >= 2 entries")
        if any(b < a for a, b in zip(self.cct, self.cct[1:])):
            raise ParamError("CCT must be non-decreasing")
        if self.num_voqs < 1:
            raise ParamError(f"num_voqs must be >= 1, got {self.num_voqs}")
        if self.voqnet_queue_size < self.mtu:
            raise ParamError("VOQnet queues must hold at least one MTU")
        if self.advoq_cap_packets < 1:
            raise ParamError("AdVOQ capacity must be >= 1 packet")
        if self.flowlet_gap < 0:
            raise ParamError(f"flowlet_gap must be >= 0, got {self.flowlet_gap}")
        if self.islip_iterations < 1:
            raise ParamError("iSlip needs at least one iteration")
        if self.pfc_priorities < 1:
            raise ParamError(f"pfc_priorities must be >= 1, got {self.pfc_priorities}")
        if self.shared_alpha <= 0:
            raise ParamError(f"shared_alpha must be positive, got {self.shared_alpha}")
        if self.shared_reserved < 0:
            raise ParamError(f"shared_reserved must be >= 0, got {self.shared_reserved}")
        if self.pfc_headroom < self.mtu:
            raise ParamError(
                "pfc_headroom must hold at least one MTU (the packet in "
                f"flight when XOFF lands), got {self.pfc_headroom}"
            )
        if not (0.0 < self.pfc_xon_fraction <= 1.0):
            raise ParamError(
                f"pfc_xon_fraction must be in (0, 1], got {self.pfc_xon_fraction}"
            )

    def with_overrides(self, **kw) -> "CCParams":
        """Return a validated copy with fields replaced."""
        p = replace(self, **kw)
        p.validate()
        return p
