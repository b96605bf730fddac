"""Lossless links with credit-based flow control.

A :class:`Link` is one *unidirectional* data channel (topologies create
one per direction).  It bundles:

* the wire itself — ``bandwidth`` (bytes/ns) and ``delay`` (ns), one
  packet serialised at a time;
* lossless **credit-based flow control**: a packet may start
  transmission only when the link is idle *and* the downstream buffer
  has committed space for it.  We implement credits by send-time
  reservation: ``send`` immediately calls ``rx.reserve(pkt)`` (the
  credit is consumed), and the receiver announces freed space through
  :meth:`return_credit`, which reaches the transmitter after the wire
  delay (the credit-return latency).  This is byte-exact VCT-style
  whole-packet buffering; the only simplification against hardware
  credit counters is that the transmitter's view of free space is fresh
  rather than one round-trip stale (~40 ns against the millisecond-scale
  dynamics the paper evaluates).  Overflow is impossible by
  construction and asserted downstream.  The credit view is whatever
  the receiver's ``can_accept`` answers: under the default static
  buffer model that is raw per-port pool free bytes, while non-static
  models (``repro.network.buffers``, docs/buffers.md) shadow the
  receiver's admission methods so dynamic thresholds and PFC headroom
  become the credit view with no change here;
* a reverse **control channel** (CFQ Alloc/Dealloc/Stop/Go congestion
  propagation, PFC Pause/Resume, credit notifications) and a forward
  control channel
  (BECN hop-by-hop forwarding) — out-of-band, see
  :mod:`repro.network.packet` and DESIGN.md §2.
* an **operational/degraded state machine** for fault injection
  (docs/faults.md): :meth:`fail` takes the link down (in-flight packets
  are doomed and dropped at their would-be delivery time, with the
  downstream reservation cancelled and the credit returned so the
  guard's conservation ledger still balances), :meth:`restore` brings
  it back, and :meth:`degrade` models a CRC-retrying link with reduced
  bandwidth, added latency and/or seeded probabilistic corruption
  drops.  Fault-free fabrics never arm the machinery: the per-delivery
  cost is one ``None`` check on :attr:`_wire`.

Endpoints are duck-typed:

* the receiver implements ``can_accept(pkt)``, ``reserve(pkt)``,
  ``receive_packet(pkt, link)`` and ``receive_control(msg, link)``
  (plus optional ``cancel_reservation(pkt)`` for fault drops);
* the transmitter implements ``on_tx_done(link)`` (serialisation
  finished; the output port is free again), ``on_credit(link)`` and
  ``receive_reverse_control(msg, link)`` (plus optional
  ``on_bandwidth_change(link)`` after a re-scale or degrade).

Link bandwidth may be changed mid-simulation with
:meth:`set_bandwidth` — this models the frequency/voltage link scaling
the paper's introduction lists among congestion causes, and is used by
the ``link_downscaling`` example.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.network.packet import ControlMessage, Packet, free_packet
from repro.sim.engine import Simulator

__all__ = ["Link", "LinkError", "CONTROL_HOP_DELAY"]

#: forwarding latency added to every control-message hop (ns).  Small
#: against the 819.2 ns MTU serialisation time, non-zero so control
#: information is never instantaneous.
CONTROL_HOP_DELAY = 10.0


class LinkError(RuntimeError):
    """Raised on protocol violations (sending while busy / without
    space / on a failed link).  Messages carry the link name, both
    endpoints and the current simulated time."""


def _end_name(obj: Any) -> str:
    """Printable endpoint name for error context (ports have ``name``,
    end nodes have ``id``)."""
    if obj is None:
        return "unconnected"
    name = getattr(obj, "name", None)
    if name is not None:
        return str(name)
    nid = getattr(obj, "id", None)
    return f"node{nid}" if nid is not None else type(obj).__name__


class Link:
    """One unidirectional data channel plus its control channels."""

    __slots__ = (
        "sim",
        "name",
        "bandwidth",
        "delay",
        "jitter",
        "rng",
        "tx",
        "rx",
        "busy_until",
        "in_flight",
        "bytes_sent",
        "packets_sent",
        "bytes_received",
        "packets_received",
        "up",
        "drop_prob",
        "fault_rng",
        "bytes_dropped",
        "packets_dropped",
        "on_drop",
        "_wire",
        "_doomed",
        "_base",
    )

    def __init__(
        self,
        sim: Simulator,
        name: str,
        bandwidth: float,
        delay: float,
        jitter: float = 0.0,
        rng: Any = None,
    ) -> None:
        """``jitter`` stretches each serialisation by a uniform factor in
        ``[0, jitter)`` (seeded ``rng`` required when non-zero).

        With every link and crossbar clocked at exact multiples of the
        819.2 ns MTU time, an event-driven packet-grain model can lock
        into pathological phase alignments (an input port busy at the
        exact instants an output frees, forever).  Real fabrics never
        sustain such alignment — every device runs its own oscillator
        and queueing noise decorrelates phases.  A fraction of a percent
        of seeded serialisation jitter restores that asynchrony at
        negligible bandwidth cost (DESIGN.md §5)."""
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        if jitter < 0 or jitter >= 0.5:
            raise ValueError(f"jitter must be in [0, 0.5), got {jitter}")
        if jitter > 0 and rng is None:
            raise ValueError("jitter requires a seeded rng")
        self.sim = sim
        self.name = name
        self.bandwidth = float(bandwidth)
        self.delay = float(delay)
        self.jitter = float(jitter)
        self.rng = rng
        self.tx: Any = None
        self.rx: Any = None
        self.busy_until = 0.0
        self.in_flight: Optional[Packet] = None
        self.bytes_sent = 0
        self.packets_sent = 0
        #: delivered-side counters; sent minus received minus dropped is
        #: exactly the wire-resident traffic (reserved downstream, not
        #: yet arrived), which the invariant guard balances against
        #: buffer accounting.
        self.bytes_received = 0
        self.packets_received = 0
        #: operational state (fault injection); a down link refuses new
        #: sends and dooms its in-flight packets.
        self.up = True
        #: per-packet corruption-drop probability while degraded.
        self.drop_prob = 0.0
        self.fault_rng: Any = None
        #: expected-loss ledger terms (guard conservation).
        self.bytes_dropped = 0
        self.packets_dropped = 0
        #: ``hook(link, pkt, kind)`` observer, called on every fault
        #: drop before the packet returns to the pool.
        self.on_drop: Any = None
        #: packets between send and delivery; ``None`` until a fault
        #: injector arms the fabric (the fault-free fast path).
        self._wire: Optional[set] = None
        #: in-flight packets condemned by :meth:`fail`, intercepted at
        #: their (non-cancellable) delivery event.
        self._doomed: Optional[set] = None
        #: pristine ``(bandwidth, delay)`` while a degrade is active.
        self._base: Optional[tuple] = None

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def connect(self, tx: Any, rx: Any) -> None:
        """Attach the transmitter and receiver endpoints."""
        self.tx = tx
        self.rx = rx

    def _context(self) -> str:
        """Error-message suffix: endpoints + current simulated time."""
        return (
            f" (tx={_end_name(self.tx)}, rx={_end_name(self.rx)}, "
            f"t={self.sim.now})"
        )

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    @property
    def idle(self) -> bool:
        return self.sim.now >= self.busy_until

    def can_send(self, pkt: Packet) -> bool:
        """True when ``pkt`` could start transmission right now."""
        return self.up and self.idle and self.rx.can_accept(pkt)

    def serialization_time(self, nbytes: int) -> float:
        return nbytes / self.bandwidth

    def send(self, pkt: Packet) -> float:
        """Start transmitting ``pkt``.

        Reserves downstream buffer space immediately (the credit is
        consumed), occupies the wire for ``size/bandwidth``, then
        delivers after the propagation delay.  Returns the
        serialisation-complete time (when the transmitter frees up).
        """
        if not self.up:
            raise LinkError(f"{self.name}: send on a failed link{self._context()}")
        if not self.idle:
            raise LinkError(
                f"{self.name}: send while busy until "
                f"{self.busy_until}{self._context()}"
            )
        if not self.rx.can_accept(pkt):
            raise LinkError(
                f"{self.name}: send without downstream space for "
                f"{pkt!r}{self._context()}"
            )
        self.rx.reserve(pkt)
        ser = pkt.size / self.bandwidth
        if self.jitter > 0.0:
            ser *= 1.0 + self.rng.random() * self.jitter
        done = self.sim.now + ser
        self.busy_until = done
        self.in_flight = pkt
        self.bytes_sent += pkt.size
        self.packets_sent += 1
        if self._wire is not None:
            self._wire.add(pkt)
        # One call covers the whole wire lifetime of the packet:
        # serialisation-done at ``done``, delivery one propagation delay
        # later.  Both sequence numbers are reserved here, so ordering is
        # bit-identical to two separate schedules.
        self.sim.schedule_pair(done, self._tx_done, (), done + self.delay, self._deliver, (pkt,))
        return done

    def _tx_done(self) -> None:
        self.in_flight = None
        if self.tx is not None:
            self.tx.on_tx_done(self)

    def _deliver(self, pkt: Packet) -> None:
        wire = self._wire
        if wire is not None:
            wire.discard(pkt)
            doomed = self._doomed
            if doomed is not None and pkt in doomed:
                doomed.discard(pkt)
                self._drop(pkt, "fault-drop")
                return
            if self.drop_prob > 0.0 and self.fault_rng.random() < self.drop_prob:
                self._drop(pkt, "fault-corrupt")
                return
        pkt.hops += 1
        self.bytes_received += pkt.size
        self.packets_received += 1
        self.rx.receive_packet(pkt, self)

    def _drop(self, pkt: Packet, kind: str) -> None:
        """Drop an in-flight packet (link failure or corruption):
        reconcile the credit the send consumed — cancel the downstream
        reservation and return the credit the normal delivery path
        would eventually have produced — then record the loss in the
        expected-loss ledger and recycle the packet."""
        self.bytes_dropped += pkt.size
        self.packets_dropped += 1
        cancel = getattr(self.rx, "cancel_reservation", None)
        if cancel is not None:
            cancel(pkt)
        self.return_credit(pkt.size)
        hook = self.on_drop
        if hook is not None:
            hook(self, pkt, kind)
        free_packet(pkt)

    # ------------------------------------------------------------------
    # fault state machine
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Take the link down: refuse new sends and doom every packet
        currently between send and delivery (their non-cancellable
        delivery events are intercepted in :meth:`_deliver`).  The
        serialisation-done event still fires so the transmitter frees
        up normally.  Requires an armed fabric (``_wire`` tracking)."""
        if not self.up:
            return
        self.up = False
        wire = self._wire
        if wire:
            if self._doomed is None:
                self._doomed = set(wire)
            else:
                self._doomed.update(wire)

    def restore(self) -> None:
        """Bring the link back up and wake the transmitter.  Packets
        doomed while the link was down stay doomed — they were on a
        dead wire."""
        if self.up:
            return
        self.up = True
        if self.tx is not None:
            self.tx.on_credit(self)

    def degrade(
        self,
        *,
        bandwidth_factor: float = 1.0,
        extra_delay: float = 0.0,
        drop_prob: float = 0.0,
        rng: Any = None,
    ) -> None:
        """Degrade the link in place (CRC-retry model): scale bandwidth,
        add propagation delay and/or drop packets with ``drop_prob``
        (seeded ``rng`` required).  Repeated calls re-derive from the
        pristine parameters; :meth:`clear_degrade` restores them."""
        if bandwidth_factor <= 0:
            raise ValueError(
                f"bandwidth_factor must be positive, got {bandwidth_factor}"
            )
        if extra_delay < 0:
            raise ValueError(f"extra_delay must be >= 0, got {extra_delay}")
        if not 0.0 <= drop_prob < 1.0:
            raise ValueError(f"drop_prob must be in [0, 1), got {drop_prob}")
        if drop_prob > 0.0 and rng is None:
            raise ValueError("drop_prob requires a seeded rng")
        if self._base is None:
            self._base = (self.bandwidth, self.delay)
        base_bandwidth, base_delay = self._base
        self.bandwidth = base_bandwidth * bandwidth_factor
        self.delay = base_delay + extra_delay
        self.drop_prob = float(drop_prob)
        if rng is not None:
            self.fault_rng = rng
        self._bandwidth_changed()

    def clear_degrade(self) -> None:
        """Undo :meth:`degrade`: restore pristine bandwidth/delay and
        stop corrupting packets."""
        if self._base is not None:
            self.bandwidth, self.delay = self._base
            self._base = None
            self._bandwidth_changed()
        self.drop_prob = 0.0

    # ------------------------------------------------------------------
    # credits (reverse channel)
    # ------------------------------------------------------------------
    def return_credit(self, nbytes: int) -> None:
        """Called by the *receiver* when bytes leave its buffer; wakes
        the transmitter after the credit-return wire delay."""
        if nbytes <= 0:
            raise LinkError(
                f"{self.name}: non-positive credit {nbytes}{self._context()}"
            )
        self.sim.post(self.sim.now + self.delay, self._credit_arrive)

    def _credit_arrive(self) -> None:
        if self.tx is not None:
            self.tx.on_credit(self)

    # ------------------------------------------------------------------
    # control channels
    # ------------------------------------------------------------------
    def send_control(self, msg: ControlMessage) -> None:
        """Forward-direction control (follows the data): e.g. BECN hops.

        Control channels stay available while the data path is down —
        the out-of-band network keeps Stop/Go and CFQ state coherent
        through data-link faults (docs/faults.md)."""
        self.sim.post(
            self.sim.now + self.delay + CONTROL_HOP_DELAY, self._deliver_control, msg
        )

    def _deliver_control(self, msg: ControlMessage) -> None:
        self.rx.receive_control(msg, self)

    def send_reverse_control(self, msg: ControlMessage) -> None:
        """Reverse-direction control (against the data): CFQ
        Alloc/Dealloc/Stop/Go congestion propagation."""
        self.sim.post(
            self.sim.now + self.delay + CONTROL_HOP_DELAY,
            self._deliver_reverse_control,
            msg,
        )

    def _deliver_reverse_control(self, msg: ControlMessage) -> None:
        self.tx.receive_reverse_control(msg, self)

    # ------------------------------------------------------------------
    # extensions
    # ------------------------------------------------------------------
    def set_bandwidth(self, bandwidth: float) -> None:
        """Re-scale the link speed (takes effect for the next packet)."""
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        self.bandwidth = float(bandwidth)
        self._bandwidth_changed()

    def _bandwidth_changed(self) -> None:
        """Tell the transmitter its link speed moved (optional endpoint
        hook: a switch output port caches the slowest attached link)."""
        hook = getattr(self.tx, "on_bandwidth_change", None)
        if hook is not None:
            hook(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Link {self.name} {self.bandwidth}B/ns busy_until={self.busy_until}>"
