"""PFC — per-priority queues honouring 802.1Qbb PAUSE frames.

The datacenter counterpart of the paper's HPC schemes: instead of
isolating *congested flows* (CCFIT/FBICM) or throttling *sources*
(ITh), a PFC switch simply stops whole priority classes hop by hop
when the downstream shared buffer crosses its dynamic threshold
(:class:`repro.network.buffers.SharedBufferModel`,
docs/buffers.md).  Flows land in one of ``pfc_priorities`` priority
groups by destination hash — the DSCP/TC mapping of a real RoCEv2
deployment — and a PAUSE for a group freezes **every** flow in it.
That is the scheme's famous pathology: one incast victimises all
traffic sharing its priority, and the pause cascades upstream
(congestion spreading) exactly like the HoL trees of §II.  The
``datacenter_incast`` experiment measures both effects against CCFIT.

Two registrations:

* ``PFC`` — the bare 802.1Qbb switch: per-PG queues that honour
  PAUSE, no marking, no source reaction;
* ``PFC+RCM`` — the RoCEv2 stack of Liu et al. (arXiv:1509.03559,
  PAPERS.md): the same PFC substrate with DCQCN-style queue-depth
  ECN and the RCM rate limiter at the sources (both reused verbatim
  from :mod:`repro.schemes.rcm`), so PFC only has to catch what RCM's
  end-to-end loop is too slow for.

Like RCM, the module is assembled purely from the public hook API —
``repro.core.ccfit.SCHEMES.register`` plus the
:class:`~repro.network.queueing.CongestionControlScheme` hooks
(``on_arrival`` / ``eligible_heads`` / ``on_control_message``) — with
zero edits to the device layer.  PAUSE/RESUME messages reach the
scheme through the same ``on_control_message`` fan-out the CFQ tree
protocol uses; the scheme runs (inertly) under the static buffer
model, which simply never generates a PAUSE.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.core.ccfit import SCHEMES, SchemeSpec
from repro.network.buffers import PacketQueue
from repro.network.packet import ControlMessage, Packet, PfcPause, PfcResume
from repro.network.queueing import CongestionControlScheme, PortHost
from repro.schemes.rcm import QueueDepthMarking, RcmGate

__all__ = ["PfcQueueScheme", "pfc_queues", "PFC", "PFC_RCM"]


class PfcQueueScheme(CongestionControlScheme):
    """One FIFO per priority group, gated by received PAUSE state.

    Structurally DBBM with ``pfc_priorities`` buckets (packets file by
    ``dst % nprios``), plus the 802.1Qbb control half: the scheme
    tracks which (output, priority) pairs the downstream has paused —
    stamped onto the message by :meth:`Switch.on_tree_message` — and
    masks their heads out of :meth:`eligible_heads`.  A head whose
    output is paused therefore blocks its whole priority group, which
    is PFC's HoL pathology working as designed, not a bug.
    """

    def __init__(self, host: PortHost, nprios: int) -> None:
        super().__init__(host)
        if nprios < 1:
            raise ValueError(f"PFC needs >= 1 priority group, got {nprios}")
        self.nprios = nprios
        self.pgs = [PacketQueue(f"{host.name}.pg{g}") for g in range(nprios)]
        self._queues = list(self.pgs)
        #: (out_port, priority) pairs currently paused downstream.
        #: ``out_port`` is None at an IA stage (an end node has one
        #: uplink, so its pauses are port-wide).
        self._paused: Set[Tuple[object, int]] = set()

    # -- data path -------------------------------------------------------
    def on_arrival(self, pkt: Packet) -> None:
        self.pgs[pkt.dst % self.nprios].push(pkt)
        self.invalidate_heads()
        self.host.kick()

    def _build_heads(self) -> List[Tuple[PacketQueue, int, Packet]]:
        out = []
        paused = self._paused
        for g, q in enumerate(self.pgs):
            head = q.head()
            if head is None:
                continue
            o = self.host.route(head)
            if paused and ((o, g) in paused or (None, g) in paused):
                continue
            out.append((q, o, head))
        return out

    # -- control path (802.1Qbb) -----------------------------------------
    def on_control_message(self, msg: ControlMessage) -> None:
        if isinstance(msg, PfcPause):
            key = (msg.out_port, msg.priority)
            if key not in self._paused:
                self._paused.add(key)
                self.invalidate_heads()
        elif isinstance(msg, PfcResume):
            key = (msg.out_port, msg.priority)
            if key in self._paused:
                self._paused.discard(key)
                self.invalidate_heads()
                self.host.kick()

    # -- introspection ---------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        dump = super().snapshot()
        if self._paused:
            dump["pfc_paused"] = sorted(
                f"out{o if o is not None else '*'}.pg{g}" for o, g in self._paused
            )
        return dump

    def telemetry_sample(self) -> Dict[str, int]:
        sample = super().telemetry_sample()
        sample["pfc_paused_pairs"] = len(self._paused)
        return sample


def pfc_queues(port, _n) -> PfcQueueScheme:
    """Queue-policy builder: per-priority PAUSE-honouring FIFOs."""
    return PfcQueueScheme(port, port.params.pfc_priorities)


#: registered at import time (:mod:`repro.core.ccfit` imports this package).
PFC = SCHEMES.register(SchemeSpec(
    "PFC",
    pfc_queues,
    "fifo",
    description="802.1Qbb: per-priority queues + hop-by-hop PAUSE "
    "(pair with --buffer-model shared)",
))

PFC_RCM = SCHEMES.register(SchemeSpec(
    "PFC+RCM",
    pfc_queues,
    "fifo",
    marking=QueueDepthMarking,
    injection_gate=RcmGate,
    description="the RoCEv2 datacenter stack: PFC substrate + "
    "DCQCN-style depth ECN and RCM source rates",
))
