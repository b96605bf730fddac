"""Packets and control messages.

Data packets carry the two InfiniBand-style congestion-notification
bits the paper builds on:

* **FECN** — set by a switch output port in the *congestion state*
  (§III-C, Event #7); carried forward to the destination.
* BECN travels as a dedicated :class:`Becn` congestion-notification
  packet (CNP) from destination back to source (§III-B).

Control messages (BECN, CFQ Alloc/Dealloc/Stop/Go, PFC PAUSE/RESUME)
are modelled out-of-band: they experience link latency and a per-hop
forwarding delay but do not consume data credits.  DESIGN.md §2
documents why this preserves the evaluated behaviour (the paper gives
BECNs priority, so they are effectively never blocked; control volume
is negligible against 2 KiB data packets).
"""

from __future__ import annotations

import itertools
from typing import Optional

__all__ = [
    "Packet",
    "ControlMessage",
    "Becn",
    "CfqAlloc",
    "CfqDealloc",
    "CfqStop",
    "CfqGo",
    "PfcPause",
    "PfcResume",
]

_packet_ids = itertools.count()


class Packet:
    """A data packet.

    Attributes
    ----------
    src, dst:
        End-node ids.  Distributed deterministic routing only needs
        ``dst`` (§III-A: "the unique routing information packets need to
        include in their header is the destination").
    size:
        Bytes on the wire (the evaluation uses MTU-sized 2048 B packets).
    flow:
        Label of the generating flow, for per-flow bandwidth metrics.
    fecn:
        Forward Explicit Congestion Notification bit.
    pid:
        Monotone creation id; in-order delivery checks compare it.
    injected_at:
        When the source put the packet on its link (the collector's
        latency start).
    """

    __slots__ = ("pid", "src", "dst", "size", "flow", "fecn", "injected_at")

    def __init__(self, src: int, dst: int, size: int, flow: str) -> None:
        self.pid = next(_packet_ids)
        self.src = src
        self.dst = dst
        self.size = size
        self.flow = flow
        self.fecn = False
        self.injected_at: Optional[float] = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        mark = " FECN" if self.fecn else ""
        return f"<Pkt#{self.pid} {self.flow} {self.src}->{self.dst} {self.size}B{mark}>"


class ControlMessage:
    """Base class for out-of-band control traffic."""

    __slots__ = ()


class Becn(ControlMessage):
    """Backward Explicit Congestion Notification packet (CNP).

    Generated by a destination end node on receipt of a FECN-marked
    packet; addressed to the marked packet's source, identifying the
    destination whose flow must be throttled.
    """

    __slots__ = ("src", "dst", "congested_destination")

    def __init__(self, src: int, dst: int, congested_destination: int) -> None:
        self.src = src  # the end node generating the BECN
        self.dst = dst  # the source to throttle
        self.congested_destination = congested_destination

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<BECN {self.src}->{self.dst} throttle dest {self.congested_destination}>"


class CfqAlloc(ControlMessage):
    """Congestion-tree propagation: 'allocate a CFQ for ``destination``'.

    Sent by a switch input port to the upstream device when the local
    CFQ for that congestion tree crosses the propagation threshold
    (§III-C, Event #4/#5 neighbourhood; same scheme as FBICM).
    """

    __slots__ = ("destination",)

    def __init__(self, destination: int) -> None:
        self.destination = destination


class CfqDealloc(ControlMessage):
    """Congestion-tree teardown notification for ``destination``."""

    __slots__ = ("destination",)

    def __init__(self, destination: int) -> None:
        self.destination = destination


class CfqStop(ControlMessage):
    """Stop/Go flow control: downstream CFQ filled past its Stop mark."""

    __slots__ = ("destination",)

    def __init__(self, destination: int) -> None:
        self.destination = destination


class CfqGo(ControlMessage):
    """Stop/Go flow control: downstream CFQ drained below its Go mark."""

    __slots__ = ("destination",)

    def __init__(self, destination: int) -> None:
        self.destination = destination


class PfcPause(ControlMessage):
    """Priority Flow Control XOFF for one priority group (802.1Qbb).

    Emitted by a shared-buffer downstream port when the group crosses
    its dynamic threshold; travels up the ingress link like the CFQ
    Stop/Go messages.  ``out_port`` is stamped by the receiving switch
    (the egress the message arrived on) so queue schemes can pause only
    the affected (output, priority) pair; it stays ``None`` at an end
    node, which pauses the priority outright.
    """

    __slots__ = ("priority", "out_port")

    def __init__(self, priority: int) -> None:
        self.priority = priority
        self.out_port: Optional[int] = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<PFC-PAUSE pg{self.priority} out={self.out_port}>"


class PfcResume(ControlMessage):
    """Priority Flow Control XON: the paired release of :class:`PfcPause`."""

    __slots__ = ("priority", "out_port")

    def __init__(self, priority: int) -> None:
        self.priority = priority
        self.out_port: Optional[int] = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<PFC-RESUME pg{self.priority} out={self.out_port}>"
