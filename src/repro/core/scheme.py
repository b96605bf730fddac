"""Device-neutral congestion-control policy objects.

A congestion-control *scheme* (1Q, FBICM, ITh, CCFIT, your own) is a
composition of three policies, each with a fixed hook surface that the
device layer calls blindly — no device file knows any concrete scheme
class (see docs/schemes.md):

* a **queue policy** — how each switch input port organises its RAM,
  and what evidence (if any) moves an output port into the
  *congestion state*.  This is the
  :class:`repro.network.queueing.CongestionControlScheme` object itself
  (``on_arrival`` / ``eligible_heads`` / ``after_dequeue`` /
  ``on_control_message`` / ``audit`` / ``snapshot``); the paper's two
  detectors are VOQ occupancy (ITh, [12]) and root-CFQ occupancy
  (CCFIT, §III-C), each armed by its queue builder in
  :mod:`repro.core.ccfit`;
* a **marking policy** (:class:`MarkingPolicy`) — ``should_mark``,
  asked by the switch for every packet crossing an output port.  The
  paper schemes mark only in the congestion state, subject to the
  Marking_Rate lottery; rate-based schemes (RCM/DCQCN family) mark on
  instantaneous queue depth instead;
* an **injection gate** (:class:`InjectionGate`) — the source-side
  reaction.  The IA arbiter asks ``next_allowed(dest)`` before moving
  a packet out of its AdVOQ and reports every move via
  ``record_injection``; BECNs arrive through ``on_becn``.  The paper's
  gate is the CCT/CCTI table walker
  (:class:`repro.core.throttling.ThrottleState`); DCQCN-style gates
  keep an explicit per-destination rate instead.

:class:`repro.core.ccfit.SchemeSpec` bundles one of each; the fabric
builder hands them to switches and end nodes without inspecting them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Protocol, runtime_checkable

from repro.core.params import CCParams
from repro.network.packet import Packet

if TYPE_CHECKING:
    from repro.sim.rng import Stream

__all__ = [
    "MarkingPolicy",
    "InjectionGate",
    "CongestionStateMarking",
]


# ----------------------------------------------------------------------
# marking
# ----------------------------------------------------------------------
@runtime_checkable
class MarkingPolicy(Protocol):
    """Switch-resident marking decision, one call per crossing packet."""

    def should_mark(self, pkt: Packet, queue, out_port) -> bool:
        """Mark ``pkt`` as it crosses ``out_port``?

        ``queue`` is the input queue the packet was just popped from
        (its remaining ``bytes`` is the standing depth towards this
        output).  Returning True makes the switch set the FECN bit and
        bump its ``fecn_marked`` counter.
        """


class CongestionStateMarking:
    """The paper's marking policy (ITh / CCFIT, §III-B).

    Packets are eligible only while their output port is in the
    congestion state and only from the ``Packet_Size`` floor
    (``min_marking_size``) up; an eligible packet is then marked with
    probability ``Marking_Rate`` (85 % by default, so the BECN storm
    stays bounded).  The lottery draws from its RNG only for eligible
    packets: every pinned result depends on that draw order.
    """

    __slots__ = ("rate", "min_size", "rng")

    def __init__(self, params: CCParams, rng: Stream) -> None:
        self.rate = params.marking_rate
        self.min_size = params.min_marking_size
        self.rng = rng

    def should_mark(self, pkt: Packet, queue, out_port) -> bool:
        if not out_port.congested or pkt.size < self.min_size:
            return False
        return self.rate >= 1.0 or self.rng.random() < self.rate


# ----------------------------------------------------------------------
# injection gate
# ----------------------------------------------------------------------
@runtime_checkable
class InjectionGate(Protocol):
    """Source-side reaction state owned by one Input Adapter.

    The IA arbiter consults the gate before moving any packet from an
    AdVOQ towards the network, so one object implements every
    source-side throttling flavour — table-driven IRDs
    (:class:`repro.core.throttling.ThrottleState`) or explicit
    per-destination rates (:class:`repro.schemes.rcm.RcmGate`).
    """

    #: BECNs absorbed (the ``becns_received`` fabric statistic).
    becns: int

    def next_allowed(self, dest: int) -> float:
        """Earliest time the next packet for ``dest`` may leave its
        AdVOQ (0.0 = immediately)."""

    def record_injection(self, dest: int, now: float, size: int = 0) -> None:
        """A packet of ``size`` bytes for ``dest`` just left its AdVOQ."""

    def on_becn(self, dest: int) -> None:
        """A BECN for ``dest`` reached this source."""

    def audit(self) -> None:
        """Invariant-guard hook: internal state must be self-consistent
        and every throttled destination must be able to recover."""

    def snapshot(self) -> Dict[int, object]:
        """JSON-safe per-destination state for watchdog diagnostics.
        Also the telemetry sampler's per-destination sample source
        (CCTI index per throttled destination for table gates, current
        rate per limited destination for rate gates)."""

    def telemetry_sample(self) -> Dict[str, object]:
        """Fixed-schema scalar fields for the telemetry sampler — a
        cheap per-interval summary of the gate (throttled-destination
        count plus the gate's own severity scalar)."""
