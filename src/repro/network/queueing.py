"""Input-port queue schemes.

Each evaluated technique organises the per-port RAM differently
(§IV-A).  A *scheme* object owns the port's queues and answers three
questions for its host port:

1. where does an arriving packet go (``on_arrival``);
2. which queue heads may currently request which output ports
   (``eligible_heads``);
3. does the port accept another packet beyond the shared-pool check
   (``can_accept_extra`` — only VOQnet adds per-queue limits).

Schemes defined here:

* :class:`OneQScheme` — a single FIFO, no HoL protection (the paper's
  "1Q" baseline).
* :class:`VOQswScheme` — one queue per switch output port [21]; with
  ``detect_hot=True`` it also runs the ITh High/Low occupancy
  detection of [12] that drives FECN marking.
* :class:`VOQnetScheme` — one queue per network destination [22], the
  theoretically HoL-free but unscalable upper bound.

The NFQ+CFQ scheme used by FBICM and CCFIT lives in
:mod:`repro.core.isolation` next to the congestion-tree protocol it
implements.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Protocol, Tuple

from repro.core.params import CCParams
from repro.network.buffers import BufferPool, PacketQueue
from repro.network.packet import ControlMessage, Packet

__all__ = [
    "PortHost",
    "CongestionControlScheme",
    "OneQScheme",
    "VOQswScheme",
    "VOQnetScheme",
    "audit_by_destination",
]


def audit_by_destination(queues: Mapping[int, PacketQueue]) -> None:
    """Audit a live per-destination map (AdVOQs, VOQnet queues): raise
    :class:`BufferError` for an empty entry, a packet filed under a
    destination it does not have, or a drifted counter."""
    for dest, q in queues.items():
        if q.empty:
            raise BufferError(f"queue {q.name} is empty but still live")
        stray = next((p.dst for p in q if p.dst != dest), None)
        if stray is not None:
            raise BufferError(f"queue {q.name} for destination {dest} holds a packet for {stray}")
        q.audit()


class PortHost(Protocol):
    """What a queue scheme needs from its owning port."""

    pool: BufferPool
    params: CCParams
    name: str

    def route(self, pkt: Packet) -> int:
        """Output-port index ``pkt`` will request."""

    def kick(self) -> None:
        """Ask the owner to re-run arbitration soon."""

    def set_output_hot(self, out_port: int, source: object, hot: bool) -> None:
        """Report a queue crossing the ITh High/Low thresholds."""


class CongestionControlScheme:
    """The queue-policy half of a congestion-control scheme.

    One instance owns the RAM of one switch input port (or one IA
    output stage) and answers every scheme-specific question its host
    device has, so the device layer never branches on a concrete
    scheme class:

    * **data path** — :meth:`on_arrival`, :meth:`eligible_heads`,
      :meth:`after_dequeue`, :meth:`can_accept_extra` /
      :meth:`reserve_extra`;
    * **control path** — :meth:`on_control_message` receives every
      tree-protocol message the device sees (CfqAlloc/Stop/Go/Dealloc);
      schemes without a tree protocol inherit the no-op;
    * **source-side coupling** — :meth:`holds_destination` tells the IA
      arbiter whether this staging scheme is itself holding packets for
      a destination back (FBICM/CCFIT Stop or a full staging CFQ);
    * **introspection** — :meth:`allocated_cfqs` /
      :meth:`cam_alloc_failures` feed the fabric statistics,
      :meth:`snapshot` the watchdog dumps, and :meth:`audit` the
      PR-3 invariant guard.

    ``eligible_heads`` results are cached: the arbitration loop asks
    for them far more often than the queues change (profiling showed
    the rebuild as a top cost on the 64-node runs), so subclasses
    implement :meth:`_build_heads` and call :meth:`invalidate_heads`
    from every mutation.
    """

    def __init__(self, host: PortHost) -> None:
        self.host = host
        self._queues: List[PacketQueue] = []
        self._heads: List[Tuple[PacketQueue, int, Packet]] = None  # type: ignore[assignment]

    # -- policy hooks ----------------------------------------------------
    def on_arrival(self, pkt: Packet) -> None:
        raise NotImplementedError

    def eligible_heads(self) -> List[Tuple[PacketQueue, int, Packet]]:
        """(queue, out_port, head packet) for every queue allowed to
        request its output right now (cached between mutations)."""
        heads = self._heads
        if heads is None:
            heads = self._heads = self._build_heads()
        return heads

    def _build_heads(self) -> List[Tuple[PacketQueue, int, Packet]]:
        raise NotImplementedError

    def invalidate_heads(self) -> None:
        """Drop the cached eligibility list (call after any mutation)."""
        self._heads = None

    def after_dequeue(self, queue: PacketQueue) -> None:
        """State refresh after a packet left ``queue`` (hook for
        detection/thresholds; the base just drops the head cache)."""
        self.invalidate_heads()

    # -- admission beyond the shared pool ---------------------------------
    def can_accept_extra(self, pkt: Packet) -> bool:
        return True

    def reserve_extra(self, pkt: Packet) -> None:
        pass

    def cancel_extra(self, pkt: Packet) -> None:
        """Undo :meth:`reserve_extra` for a packet dropped on the wire
        (fault injection): the packet will never reach ``on_arrival``."""

    # -- control path ------------------------------------------------------
    def on_control_message(self, msg: ControlMessage) -> None:
        """A tree-protocol message reached the host device.  Schemes
        without a congestion-tree protocol ignore it (the device fans
        every message out to every port's scheme)."""

    # -- source-side coupling ----------------------------------------------
    def holds_destination(self, dest: int) -> bool:
        """Is this (staging) scheme itself holding ``dest`` back?  The
        IA arbiter skips AdVOQs whose destination the staging scheme
        cannot currently absorb.  Schemes without per-destination
        back-pressure never hold anything."""
        return False

    # -- introspection -----------------------------------------------------
    def queues(self) -> List[PacketQueue]:
        return self._queues

    def total_packets(self) -> int:
        return sum(len(q) for q in self.queues())

    def total_bytes(self) -> int:
        return sum(q.bytes for q in self.queues())

    def allocated_cfqs(self) -> int:
        """Congested-flow queues currently allocated (0 for schemes
        without dynamic isolation queues)."""
        return 0

    def cam_alloc_failures(self) -> int:
        """Times an isolation allocation failed for lack of CAM lines
        (the Fig. 8 scalability metric; 0 without a CAM)."""
        return 0

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe state dump for the watchdog (non-empty queues)."""
        return {
            "queues": {
                q.name: {"packets": len(q), "bytes": q.bytes}
                for q in self.queues()
                if len(q)
            }
        }

    def telemetry_sample(self) -> Dict[str, int]:
        """Fixed-schema numeric fields for the telemetry sampler
        (:mod:`repro.telemetry`) — cheap enough to read every sampling
        interval, unlike the diagnostic :meth:`snapshot`.  Schemes with
        richer state (CAM/CFQ isolation) extend the dict; the keys a
        given scheme returns never vary between samples."""
        return {
            "queued_bytes": self.total_bytes(),
            "queued_packets": self.total_packets(),
        }

    # -- validation hook ---------------------------------------------------
    def audit(self) -> None:
        """Invariant-guard hook: per-queue counter integrity.  Schemes
        with richer state (CAMs, CFQ ownership) extend this."""
        for q in self._queues:
            q.audit()


class OneQScheme(CongestionControlScheme):
    """Everything in one FIFO: maximal HoL blocking, minimal hardware."""

    def __init__(self, host: PortHost) -> None:
        super().__init__(host)
        self.q = PacketQueue(f"{host.name}.q0")
        self._queues = [self.q]

    def on_arrival(self, pkt: Packet) -> None:
        self.q.push(pkt)
        self.invalidate_heads()
        self.host.kick()

    def _build_heads(self) -> List[Tuple[PacketQueue, int, Packet]]:
        head = self.q.head()
        if head is None:
            return []
        return [(self.q, self.host.route(head), head)]


class VOQswScheme(CongestionControlScheme):
    """Virtual output queues at switch level.

    One FIFO per output port removes HoL blocking *inside* the switch;
    congestion spreading from other switches still mixes flows in one
    VOQ (§II).  With ``detect_hot`` the scheme additionally flags
    output ports whose VOQ occupancy crosses the High threshold and
    clears them below Low — the ITh congestion detector of [12].
    """

    def __init__(self, host: PortHost, num_outputs: int, detect_hot: bool = False) -> None:
        super().__init__(host)
        self.num_outputs = num_outputs
        self.detect_hot = detect_hot
        self.voqs = [PacketQueue(f"{host.name}.voq{o}") for o in range(num_outputs)]
        self._queues = list(self.voqs)
        self._hot = [False] * num_outputs

    def on_arrival(self, pkt: Packet) -> None:
        out = self.host.route(pkt)
        self.voqs[out].push(pkt)
        self._check_thresholds(out)
        self.invalidate_heads()
        self.host.kick()

    def _build_heads(self) -> List[Tuple[PacketQueue, int, Packet]]:
        out = []
        for o, q in enumerate(self.voqs):
            head = q.head()
            if head is not None:
                out.append((q, o, head))
        return out

    def after_dequeue(self, queue: PacketQueue) -> None:
        self.invalidate_heads()
        if self.detect_hot:
            self._check_thresholds(self.voqs.index(queue))

    def _check_thresholds(self, out: int) -> None:
        if not self.detect_hot:
            return
        p = self.host.params
        occ = self.voqs[out].bytes
        if not self._hot[out] and occ >= p.voq_high:
            self._hot[out] = True
            self.host.set_output_hot(out, self.voqs[out], True)
        elif self._hot[out] and occ <= p.voq_low:
            self._hot[out] = False
            self.host.set_output_hot(out, self.voqs[out], False)


class DbbmScheme(CongestionControlScheme):
    """Destination-Based Buffer Management [24].

    A fixed, small set of queues; every packet is filed by a hash of
    its destination (``dst mod num_queues``).  Packets to one
    destination never interleave across queues, so HoL blocking is
    *reduced* (only destinations sharing a hash bucket can block each
    other) without CAMs or per-destination state — the cheapest of the
    §II queue-scheme family.  Congested destinations still poison
    their whole bucket, which is exactly the gap FBICM/CCFIT close.
    """

    def __init__(self, host: PortHost, num_queues: int) -> None:
        super().__init__(host)
        if num_queues < 1:
            raise ValueError(f"DBBM needs >= 1 queue, got {num_queues}")
        self.num_queues = num_queues
        self.queues_by_hash = [
            PacketQueue(f"{host.name}.dbbm{i}") for i in range(num_queues)
        ]
        self._queues = list(self.queues_by_hash)

    def on_arrival(self, pkt: Packet) -> None:
        self.queues_by_hash[pkt.dst % self.num_queues].push(pkt)
        self.invalidate_heads()
        self.host.kick()

    def _build_heads(self) -> List[Tuple[PacketQueue, int, Packet]]:
        out = []
        for q in self.queues_by_hash:
            head = q.head()
            if head is not None:
                out.append((q, self.host.route(head), head))
        return out


class VOQnetScheme(CongestionControlScheme):
    """Virtual output queues at network level — one FIFO per destination.

    Completely HoL-free, but needs per-destination buffer space
    (4 KiB/queue in §IV-A, i.e. 256 KiB ports on the 64-node network).
    Admission is per-queue: the transmitter may only send a packet when
    the *destination's* queue has room, so one hot destination can
    never squeeze the others out of the port (per-queue credits).
    In-flight reservations are tracked per destination because space is
    committed at transmission start, one link delay before arrival.
    """

    def __init__(self, host: PortHost, num_destinations: int) -> None:
        super().__init__(host)
        # The port memory is divided into as many queues as network
        # end-nodes; ``voqnet_queue_size`` is the *minimum* per-queue
        # share (§IV-A fixes it at 4 KiB, which sizes the 64-node
        # configuration's ports at 256 KiB).
        per_queue = max(host.params.voqnet_queue_size, host.pool.capacity // num_destinations)
        if per_queue * num_destinations > host.pool.capacity:
            raise ValueError(
                f"{host.name}: pool {host.pool.capacity}B cannot back "
                f"{num_destinations} VOQnet queues of {per_queue}B"
            )
        self.num_destinations = num_destinations  # the queues the port models
        self.per_queue = per_queue
        #: the non-empty queues and non-zero in-flight bytes, by destination
        self.voqs: Dict[int, PacketQueue] = {}
        self._pending: Dict[int, int] = {}

    def can_accept_extra(self, pkt: Packet) -> bool:
        q = self.voqs.get(pkt.dst)
        return self._pending.get(pkt.dst, 0) + (q.bytes if q else 0) + pkt.size <= self.per_queue

    def reserve_extra(self, pkt: Packet) -> None:
        self._pending[pkt.dst] = self._pending.get(pkt.dst, 0) + pkt.size

    def cancel_extra(self, pkt: Packet) -> None:
        left = self._pending.pop(pkt.dst, 0) - pkt.size
        if left < 0:
            raise BufferError(f"{self.host.name}: VOQnet pending bytes for {pkt.dst} below zero")
        if left:
            self._pending[pkt.dst] = left

    def on_arrival(self, pkt: Packet) -> None:
        self.cancel_extra(pkt)  # the reservation becomes queued bytes
        q = self.voqs.get(pkt.dst) or PacketQueue(f"{self.host.name}.d{pkt.dst}", max_bytes=self.per_queue)
        q.push(pkt)
        self.voqs[pkt.dst] = q
        self.invalidate_heads()
        self.host.kick()

    def after_dequeue(self, queue: PacketQueue) -> None:
        if queue.empty:
            del self.voqs[next(d for d, q in self.voqs.items() if q is queue)]
        self.invalidate_heads()

    def _build_heads(self) -> List[Tuple[PacketQueue, int, Packet]]:
        # ascending destination order: the matcher round-robins among
        # the heads that request one output in this order
        out = []
        for q in self.queues():
            head = q.head()
            out.append((q, self.host.route(head), head))
        return out

    def queues(self) -> List[PacketQueue]:
        return [self.voqs[d] for d in sorted(self.voqs)]

    def audit(self) -> None:
        audit_by_destination(self.voqs)
