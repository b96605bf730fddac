"""End nodes: traffic sink plus the CCFIT Input Adapter (§III-B/D).

One :class:`EndNode` owns both directions of a node's connection:

* **sink side** (receiver of the downlink): consumes packets at link
  rate, timestamps deliveries for the metrics collector, and — the
  forward half of the notification loop — answers every FECN-marked
  packet with a :class:`repro.network.packet.Becn` sent back to the
  packet's source through the switches' prioritised control plane;
* **Input Adapter (IA)** side (transmitter of the uplink), per Fig. 2:

  - one **AdVOQ** per destination absorbs generated traffic without
    injection HoL blocking;
  - an **output stage** models the IA's output buffer.  Its layout
    follows the evaluated scheme: FBICM/CCFIT get the full
    NFQ+CFQs+CAM organisation participating in the congestion-tree
    protocol announced by the first switch; the other schemes use a
    two-MTU staging FIFO (1Q/ITh/VOQsw) or inject straight from the
    AdVOQs (VOQnet, whose admission is per-destination anyway);
  - the **throttling state** (CCT/CCTI/Timer/LTI) gates the RR arbiter
    that moves packets from AdVOQs into the output stage: a packet for
    destination *i* may move only when ``now >= LTI[i] + IRD[i]``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.cam import OutputCamLine
from repro.core.params import CCParams
from repro.core.scheme import InjectionGate
from repro.network.buffers import BufferPool, PacketQueue
from repro.network.link import Link
from repro.network.packet import (
    Becn,
    CfqAlloc,
    CfqDealloc,
    CfqGo,
    CfqStop,
    ControlMessage,
    Packet,
    PfcPause,
    PfcResume,
    free_packet,
)
from repro.network.queueing import CongestionControlScheme, OneQScheme
from repro.sim.engine import Simulator

__all__ = ["EndNode", "IaStage"]

#: staging FIFO depth (bytes) for schemes without IA isolation: just a
#: link staging register, so the IA itself is never a HoL point.
FIFO_STAGING_BYTES = 2 * 2048


def _default_stage_factory(
    staging: str,
) -> Callable[["IaStage"], CongestionControlScheme]:
    """Stage scheme of a spec that names none (``SchemeSpec.ia_scheme``
    is None): the staging mode's own."""
    if staging == "isolation":
        from repro.core.isolation import NfqCfqScheme

        return lambda stage: NfqCfqScheme(stage, drive_congestion_state=False)
    return OneQScheme


class IaStage:
    """Host object for the IA output-stage queue scheme.

    Satisfies :class:`repro.core.isolation.IsolationHost` so the exact
    same :class:`NfqCfqScheme` used by switch ports runs at the IA
    ("IA has a CAM with the same behavior as the ones located at
    switches", §III-B).  The stage's single "output port" is the
    injection link, so ``route`` is always 0 (end nodes have a single
    uplink — the switch-side :class:`~repro.network.routing.RoutingPolicy`
    never applies here); there is nothing above the AdVOQs, so
    upstream propagation is a no-op.
    """

    def __init__(self, node: "EndNode", capacity: int) -> None:
        self.node = node
        self.name = f"node{node.id}.ia"
        self.params = node.params
        self.pool = BufferPool(capacity)

    def route(self, pkt: Packet) -> int:
        return 0

    def kick(self) -> None:
        self.node.kick_injection()
        # protocol state changes (Go, deallocation) may release AdVOQ
        # packets the pump was holding back on CAM state
        self.node.pump()

    def now(self) -> float:
        return self.node.sim.now

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        self.node.sim.post_in(delay, fn)

    def send_upstream(self, msg: ControlMessage) -> None:
        pass  # the IA is the top of every congestion tree

    def announced_tree(self, dest: int) -> Optional[OutputCamLine]:
        return self.node._announced.get(dest)

    def root_cfq_hot_changed(self, dest: int, hot: bool) -> None:
        pass  # IAs never FECN-mark (only switch output ports do)

    def set_output_hot(self, out_port: int, source: object, hot: bool) -> None:
        pass


class EndNode:
    """A processing node: sink + Input Adapter.

    Parameters
    ----------
    sim, node_id, num_nodes:
        Engine, this node's id, and the network size (AdVOQ count).
    params:
        CC parameters.
    staging:
        ``"isolation"`` (NFQ+CFQs, FBICM/CCFIT), ``"fifo"`` (two-MTU
        FIFO, 1Q/VOQsw/ITh) or ``"bypass"`` (inject from AdVOQs,
        VOQnet).  Decides the stage RAM size and whether a stage
        exists at all.
    stage_factory:
        ``f(stage) -> CongestionControlScheme`` building the output
        stage's queue scheme (the spec's ``ia_scheme``); None falls
        back to the staging mode's default.
    gate_factory:
        ``f(sim, params, on_release) -> InjectionGate`` building the
        source-side gate (the spec's ``injection_gate``); None leaves
        the source unthrottled.
    on_delivery:
        Callback ``f(pkt, now)`` for the metrics collector.
    """

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        num_nodes: int,
        params: CCParams,
        staging: str = "fifo",
        stage_factory: Optional[
            Callable[["IaStage"], CongestionControlScheme]
        ] = None,
        gate_factory: Optional[Callable[..., InjectionGate]] = None,
        on_delivery: Optional[Callable[[Packet, float], None]] = None,
    ) -> None:
        if staging not in ("isolation", "fifo", "bypass"):
            raise ValueError(f"unknown staging mode {staging!r}")
        self.sim = sim
        self.id = node_id
        self.num_nodes = num_nodes
        self.params = params
        self.staging_mode = staging
        self.on_delivery = on_delivery
        self.uplink: Optional[Link] = None
        self.downlink: Optional[Link] = None

        cap_bytes = params.advoq_cap_packets * params.mtu
        self.advoqs: List[PacketQueue] = [
            PacketQueue(f"node{node_id}.advoq{d}", max_bytes=cap_bytes)
            for d in range(num_nodes)
        ]
        #: destinations with a non-empty AdVOQ (the pump and bypass
        #: arbiters iterate this instead of all ``num_nodes`` queues).
        self._active_dests: set = set()

        self.stage: Optional[IaStage] = None
        self.stage_scheme: Optional[CongestionControlScheme] = None
        if staging == "isolation":
            self.stage = IaStage(self, params.ia_memory_size)
        elif staging == "fifo":
            self.stage = IaStage(self, FIFO_STAGING_BYTES)
        if self.stage is not None:
            if stage_factory is None:
                stage_factory = _default_stage_factory(staging)
            self.stage_scheme = stage_factory(self.stage)

        self.throttle: Optional[InjectionGate] = None
        if gate_factory is not None:
            self.throttle = gate_factory(sim, params, self.pump)

        self._announced: Dict[int, OutputCamLine] = {}
        #: priority groups the first switch has PFC-paused (shared
        #: buffer model only); the injection arbiters skip matching
        #: packets.  End nodes have one uplink, so the pause is
        #: port-wide — exactly 802.1Qbb at a NIC.
        self.paused_priorities: set = set()
        self._nprios: int = max(1, getattr(params, "pfc_priorities", 4))
        self._stage_inflight: Optional[int] = None
        self._inject_scheduled = False
        self._pump_event = None
        self._pump_ptr = 0
        self._inject_ptr = 0
        self._in_pump = False
        self.packets_generated = 0
        self.packets_injected = 0
        self.packets_delivered = 0
        self.becns_sent = 0
        self.offers_rejected = 0
        #: destinations currently unreachable through live links
        #: (maintained by the fault injector); ``None`` — the
        #: fault-free common case — keeps ``offer`` on one check.
        self.fault_doomed: Optional[set] = None
        #: packets dropped at generation because their destination was
        #: unroutable (part of the guard's expected-loss ledger).
        self.source_drops = 0
        #: ``hook(node, pkt)`` observer, called on every source drop
        #: before the packet returns to the pool.
        self.on_fault_drop: Optional[Callable[["EndNode", Packet], None]] = None

    # ------------------------------------------------------------------
    # traffic generation interface
    # ------------------------------------------------------------------
    def offer(self, pkt: Packet) -> bool:
        """Admit a freshly generated packet into its AdVOQ.

        Returns False (and the generator must retry later) when the
        AdVOQ is full — application backpressure.
        """
        if pkt.dst == self.id:
            raise ValueError(f"node {self.id} generating traffic to itself")
        doomed = self.fault_doomed
        if doomed is not None and pkt.dst in doomed:
            # Unroutable destination (fault injection): degrade to a
            # traced source drop instead of wedging the lossless
            # fabric.  Counted as generated so delivered fraction
            # reflects the loss; True so generators don't retry-spin.
            self.packets_generated += 1
            self.source_drops += 1
            hook = self.on_fault_drop
            if hook is not None:
                hook(self, pkt)
            free_packet(pkt)
            return True
        q = self.advoqs[pkt.dst]
        if not q.fits(pkt.size):
            self.offers_rejected += 1
            return False
        q.push(pkt)
        self._active_dests.add(pkt.dst)
        self.packets_generated += 1
        if self.staging_mode == "bypass":
            self.kick_injection()
        else:
            self.pump()
        return True

    def advoq_backlog(self) -> int:
        """Total bytes waiting in AdVOQs (generation backlog)."""
        return sum(q.bytes for q in self.advoqs)

    # ------------------------------------------------------------------
    # AdVOQ -> output stage mover (Event #8), gated by the IRD
    # ------------------------------------------------------------------
    def pump(self) -> None:
        if self.stage is None or self._in_pump:
            return
        self._in_pump = True
        try:
            self._pump_loop()
        finally:
            self._in_pump = False

    def _pump_loop(self) -> None:
        now = self.sim.now
        earliest_blocked: Optional[float] = None
        progressed = True
        while progressed:
            progressed = False
            if not self._active_dests:
                break
            # RR over the non-empty AdVOQs, starting at the pointer.
            ptr = self._pump_ptr
            order = sorted(self._active_dests, key=lambda d: (d < ptr, d))
            for dest in order:
                q = self.advoqs[dest]
                pkt = q.head()
                if pkt is None:
                    continue
                if self.throttle is not None:
                    allowed = self.throttle.next_allowed(dest)
                    if now < allowed:
                        if earliest_blocked is None or allowed < earliest_blocked:
                            earliest_blocked = allowed
                        continue
                if self.stage_scheme.holds_destination(dest):
                    # §III-D: the arbiter decision consults the staging
                    # scheme (the CAM, for FBICM/CCFIT) — a destination
                    # whose stage CFQ is stopped (or at its Stop level)
                    # stays in its AdVOQ, so congested packets cannot
                    # hog the stage RAM and starve the node's other
                    # flows.  Resumed by the Go/dealloc kicks.
                    continue
                if self.stage.pool.free < pkt.size:
                    # Shared stage RAM full: nothing else fits either.
                    self._schedule_pump(earliest_blocked)
                    return
                q.pop()
                if q.empty:
                    self._active_dests.discard(dest)
                self.stage.pool.reserve(pkt.size)
                if self.throttle is not None:
                    self.throttle.record_injection(dest, now, pkt.size)
                self.stage_scheme.on_arrival(pkt)
                self._pump_ptr = (dest + 1) % self.num_nodes
                progressed = True
        self._schedule_pump(earliest_blocked)

    def _schedule_pump(self, at: Optional[float]) -> None:
        if at is None:
            return
        ev = self._pump_event
        # Only coalesce against an event that is still in the future —
        # a fired event's handle lingers here and must not block
        # scheduling the next IRD wake-up.
        if ev is not None and not ev.cancelled and ev.time > self.sim.now:
            if ev.time <= at:
                return
            ev.cancel()
        self._pump_event = self.sim.schedule(at, self.pump)

    # ------------------------------------------------------------------
    # output stage -> link (the injection arbiter)
    # ------------------------------------------------------------------
    def kick_injection(self) -> None:
        if not self._inject_scheduled:
            self._inject_scheduled = True
            self.sim.post(self.sim.now, self._inject)

    def _inject(self) -> None:
        self._inject_scheduled = False
        link = self.uplink
        if link is None or not link.idle:
            return
        if self.staging_mode == "bypass":
            self._inject_bypass(link)
        else:
            self._inject_staged(link)

    def _inject_staged(self, link: Link) -> None:
        heads = self.stage_scheme.eligible_heads()
        paused = self.paused_priorities
        if paused:
            nprios = self._nprios
            heads = [h for h in heads if (h[2].dst % nprios) not in paused]
        sendable = [(q, pkt) for q, _out, pkt in heads if link.can_send(pkt)]
        if not sendable:
            return
        queue, pkt = sendable[self._inject_ptr % len(sendable)]
        self._inject_ptr += 1
        queue.pop()
        pkt.injected_at = self.sim.now
        self.packets_injected += 1
        self._stage_inflight = pkt.size
        link.send(pkt)
        self.stage_scheme.after_dequeue(queue)

    def _inject_bypass(self, link: Link) -> None:
        ptr = self._inject_ptr
        paused = self.paused_priorities
        for dest in sorted(self._active_dests, key=lambda d: (d < ptr, d)):
            if paused and (dest % self._nprios) in paused:
                continue
            q = self.advoqs[dest]
            pkt = q.head()
            if pkt is None or not link.can_send(pkt):
                continue
            q.pop()
            if q.empty:
                self._active_dests.discard(dest)
            pkt.injected_at = self.sim.now
            self.packets_injected += 1
            link.send(pkt)
            self._inject_ptr = (dest + 1) % self.num_nodes
            return

    # ------------------------------------------------------------------
    # uplink transmitter endpoint
    # ------------------------------------------------------------------
    def on_tx_done(self, link: Link) -> None:
        # The packet left the stage RAM when serialisation finished.
        if self.stage is not None and self._stage_inflight is not None:
            self.stage.pool.release(self._stage_inflight)
            self._stage_inflight = None
            self.pump()
        self.kick_injection()

    def on_credit(self, link: Link) -> None:
        self.kick_injection()

    def receive_reverse_control(self, msg: ControlMessage, link: Link) -> None:
        """Congestion-tree protocol announced by the first switch:
        update the IA's announcement record, then hand the message to
        the stage scheme's ``on_control_message`` hook."""
        if isinstance(msg, CfqAlloc):
            if msg.destination not in self._announced:
                self._announced[msg.destination] = OutputCamLine(msg.destination)
        elif isinstance(msg, CfqStop):
            rec = self._announced.get(msg.destination)
            if rec is not None:
                rec.stopped = True
        elif isinstance(msg, CfqGo):
            rec = self._announced.get(msg.destination)
            if rec is not None:
                rec.stopped = False
        elif isinstance(msg, CfqDealloc):
            self._announced.pop(msg.destination, None)
        elif isinstance(msg, PfcPause):
            self.paused_priorities.add(msg.priority)
        elif isinstance(msg, PfcResume):
            self.paused_priorities.discard(msg.priority)
            self.kick_injection()
        if self.stage_scheme is not None:
            self.stage_scheme.on_control_message(msg)

    # ------------------------------------------------------------------
    # downlink receiver endpoint (the sink)
    # ------------------------------------------------------------------
    def can_accept(self, pkt: Packet) -> bool:
        return True  # the node consumes at link rate

    def reserve(self, pkt: Packet) -> None:
        pass

    def cancel_reservation(self, pkt: Packet) -> None:
        pass  # sinks never hold space, so there is nothing to undo

    def receive_packet(self, pkt: Packet, link: Link) -> None:
        pkt.delivered_at = self.sim.now
        self.packets_delivered += 1
        if pkt.fecn and self.uplink is not None:
            self.becns_sent += 1
            self.uplink.send_control(Becn(self.id, pkt.src, pkt.dst))
        if self.on_delivery is not None:
            self.on_delivery(pkt, self.sim.now)
        # The sink is the end of the line; the collector keeps only
        # scalars, so a pooled packet can be recycled immediately.
        free_packet(pkt)

    def receive_control(self, msg: ControlMessage, link: Link) -> None:
        if isinstance(msg, Becn) and msg.dst == self.id:
            if self.throttle is not None:
                self.throttle.on_becn(msg.congested_destination)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """JSON-safe state dump for watchdog diagnostics: AdVOQ backlog,
        stage occupancy, and the throttle table."""
        entry: Dict[str, object] = {
            "node": self.id,
            "generated": self.packets_generated,
            "injected": self.packets_injected,
            "delivered": self.packets_delivered,
            "advoq_backlog": {
                str(d): {"packets": len(q), "bytes": q.bytes}
                for d, q in enumerate(self.advoqs)
                if len(q)
            },
            "stage_inflight": self._stage_inflight,
        }
        if self.source_drops:
            entry["source_drops"] = self.source_drops
        if self.paused_priorities:
            entry["pfc_paused"] = sorted(self.paused_priorities)
        if self.fault_doomed:
            entry["fault_doomed"] = sorted(self.fault_doomed)
        if self.stage is not None:
            entry["stage_pool_used"] = self.stage.pool.used
            entry["stage_pool_capacity"] = self.stage.pool.capacity
            entry["stage_queues"] = self.stage_scheme.snapshot()["queues"]
        if self.throttle is not None:
            entry["ccti"] = self.throttle.snapshot()
        return entry
