"""The input-queued switch.

Architecture per §III-A: memory only at input ports (a
:class:`repro.network.buffers.BufferPool` organised by the configured
queue scheme), iSlip crossbar scheduling [31], table-based distributed
deterministic routing, and — for the CC-enabled schemes — the CAMs and
congestion-state machinery of FBICM/CCFIT plus FECN marking.

Event flow of one packet through the switch:

1. the upstream link delivers into an :class:`InputPort` (space was
   reserved at transmission start — lossless credit semantics);
2. the port's queue scheme files it (NFQ, VOQ, ...), post-processing and
   detection run (see :mod:`repro.core.isolation`), and the switch is
   *kicked*;
3. the next matching round (one event per time instant) collects every
   eligible queue head from every idle input port, filters by output
   availability and downstream space, and runs iSlip;
4. a matched packet is popped, possibly FECN-marked (output port in the
   congestion state), and handed to the output link; input port and
   output stay busy for the serialisation time;
5. on completion the input buffer bytes are released and a credit
   returns upstream.

Congestion-tree protocol messages from the downstream switch arrive at
the :class:`OutputPort` (reverse control channel) and are fanned out to
the input-port schemes; BECNs arriving at input ports are forwarded
towards their destination through the control plane.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.core.cam import OutputCam, OutputCamLine
from repro.core.params import CCParams
from repro.core.scheme import MarkingPolicy
from repro.network.arbiter import ISlip
from repro.network.buffers import BUFFER_MODELS, BufferPool
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
)
from repro.network.queueing import CongestionControlScheme
from repro.network.routing import RoutingPolicy
from repro.sim.engine import Simulator

__all__ = ["Switch", "InputPort", "OutputPort"]


class InputPort:
    """One switch input port: buffer pool + queue scheme + protocol glue.

    Doubles as the *receiver* endpoint of the upstream link and as the
    *host* object its queue scheme talks to (see
    :class:`repro.network.queueing.PortHost` /
    :class:`repro.core.isolation.IsolationHost`).
    """

    def __init__(self, switch: "Switch", index: int) -> None:
        self.switch = switch
        self.index = index
        self.name = f"{switch.name}.in{index}"
        self.params = switch.params
        self.pool = BufferPool(switch.params.memory_size)
        self.scheme: CongestionControlScheme = None  # type: ignore[assignment]  # set by Switch
        self.link_in: Optional[Link] = None
        #: aggregate bandwidth (bytes/ns) of in-progress crossbar reads;
        #: bounded by the switch crossbar bandwidth, so a 2x crossbar
        #: lets one port stream to two outputs concurrently (Table I).
        self.active_rate = 0.0
        self.rr_counter = 0
        #: trace hook, as :attr:`repro.core.cam.InputCam.recorder`.
        self.recorder: Optional[Callable[..., None]] = None

    @property
    def busy(self) -> bool:
        """True while at least one packet is being read (diagnostics)."""
        return self.active_rate > 0.0

    # -- PortHost / IsolationHost ----------------------------------------
    def route(self, pkt: Packet) -> int:
        # Generic fallback; Switch.__init__ shadows this per instance
        # with the policy's specialised callable (RoutingPolicy.route_for)
        # so the per-packet dispatch cost matches the pre-policy direct
        # table lookup.
        return self.switch.policy.route(self, pkt)

    def kick(self) -> None:
        self.switch.kick()

    def now(self) -> float:
        return self.switch.sim.now

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        self.switch.sim.post_in(delay, fn)

    def set_output_hot(self, out_port: int, source: object, hot: bool) -> None:
        self.switch.output_ports[out_port].set_hot((self.index, id(source)), hot)

    def send_upstream(self, msg: ControlMessage) -> None:
        if self.link_in is not None:
            self.link_in.send_reverse_control(msg)

    def announced_tree(self, dest: int) -> Optional[OutputCamLine]:
        # Congestion-tree state anchors on the policy's stable control
        # port (the DET port) even when the data path adapts.
        out = self.switch.policy.control_port(dest)
        return self.switch.output_ports[out].out_cam.lookup(dest)

    def root_cfq_hot_changed(self, dest: int, hot: bool) -> None:
        if self.recorder is not None:
            self.recorder("cs-enter" if hot else "cs-exit", self.name, dest)
        out = self.switch.policy.control_port(dest)
        self.switch.output_ports[out].set_hot((self.index, "root", dest), hot)

    # -- link receiver endpoint -------------------------------------------
    # The upstream link's credit view (`Link.can_send`) is whatever
    # `can_accept` answers.  The defaults below implement the static
    # buffer model (raw per-port pool bytes); non-static models shadow
    # all four methods per instance (BufferModel.attach) so their
    # admission logic becomes the credit view with no extra branch on
    # the golden path.
    def can_accept(self, pkt: Packet) -> bool:
        pool = self.pool
        return pool.capacity - pool.used >= pkt.size and self.scheme.can_accept_extra(pkt)

    def reserve(self, pkt: Packet) -> None:
        self.pool.reserve(pkt.size)
        self.scheme.reserve_extra(pkt)

    def cancel_reservation(self, pkt: Packet) -> None:
        """Undo :meth:`reserve` for a packet that died on the wire
        (fault drop): the committed space is released without the
        packet ever arriving, keeping the credit ledger balanced."""
        self.pool.release(pkt.size)
        self.scheme.cancel_extra(pkt)

    def release_packet(self, pkt: Packet) -> None:
        """Free the buffer bytes of a packet whose tail has left the
        input RAM (transmission complete)."""
        self.pool.release(pkt.size)

    def receive_packet(self, pkt: Packet, link: Link) -> None:
        self.scheme.on_arrival(pkt)

    def receive_control(self, msg: ControlMessage, link: Link) -> None:
        self.switch.forward_control(msg)

    def occupancy(self) -> int:
        return self.pool.used


class OutputPort:
    """One switch output port: link, output CAM, congestion state."""

    def __init__(self, switch: "Switch", index: int) -> None:
        self.switch = switch
        self.index = index
        self.name = f"{switch.name}.out{index}"
        self.link_out: Optional[Link] = None
        self.out_cam = OutputCam(switch.params.num_cfqs)
        #: who keeps this port in the congestion state (root CFQs above
        #: High for CCFIT, hot VOQs for ITh) — congested while non-empty.
        self.hot_sources: set = set()
        #: priority groups the downstream device has PFC-paused; the
        #: matcher skips heads bound here on these priorities.  Always
        #: empty under the static buffer model.
        self.paused_priorities: set = set()
        #: the (input port, packet, read rate) currently crossing to
        #: this output; the rate is what the read added to the input
        #: port's ``active_rate`` and gives back on completion.
        self.current: Optional[Tuple[InputPort, Packet, float]] = None

    # -- congestion state ---------------------------------------------------
    @property
    def congested(self) -> bool:
        return bool(self.hot_sources)

    def set_hot(self, source_key: object, hot: bool) -> None:
        if hot:
            self.hot_sources.add(source_key)
        else:
            self.hot_sources.discard(source_key)

    # -- link transmitter endpoint -------------------------------------------
    def on_tx_done(self, link: Link) -> None:
        """Serialisation finished: the packet's tail has left both the
        crossbar and the input buffer — free the read capacity and the
        RAM, return the link-level credit, and re-arbitrate."""
        assert self.current is not None, "tx done with no transmission"
        port, pkt, rate = self.current
        self.current = None
        port.active_rate -= rate
        if port.active_rate < 1e-12:
            port.active_rate = 0.0
        port.release_packet(pkt)
        if port.link_in is not None:
            port.link_in.return_credit(pkt.size)
        self.switch.kick()

    def on_credit(self, link: Link) -> None:
        self.switch.kick()

    def on_bandwidth_change(self, link: Link) -> None:
        # the matcher's slowest-link pre-filter is derived from it
        self.switch._min_link_bw = None

    def receive_reverse_control(self, msg: ControlMessage, link: Link) -> None:
        self.switch.on_tree_message(self, msg)


class Switch:
    """An input-queued switch with a pluggable queue scheme.

    Parameters
    ----------
    sim, name:
        Engine and diagnostic name.
    num_ports:
        Radix (bidirectional ports; one InputPort + one OutputPort each).
    routing:
        This switch's :class:`repro.network.routing.RoutingPolicy`.
    params:
        CC parameters (thresholds, CFQ counts, marking).
    scheme_factory:
        ``f(input_port) -> CongestionControlScheme`` building each
        port's queues.
    marker:
        The scheme's :class:`repro.core.scheme.MarkingPolicy`, asked
        for every packet crossing an output port; None disables
        marking entirely (1Q/VOQsw/DBBM/VOQnet/FBICM).
    crossbar_bw:
        Crossbar bandwidth in bytes/ns (Table I: 5 GB/s on Config #1,
        2.5 GB/s on the fat trees).  An input port is busy reading a
        matched packet for ``size/crossbar_bw``; with crossbar speedup
        over the link rate, one input port can feed several outputs
        back-to-back — without it, a port mixing a victim and a
        congested flow could never drain faster than one link.
        ``None`` couples the read time to the output link (speedup 1).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        num_ports: int,
        routing: RoutingPolicy,
        params: CCParams,
        scheme_factory: Callable[[InputPort], CongestionControlScheme],
        marker: Optional[MarkingPolicy] = None,
        crossbar_bw: Optional[float] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.num_ports = num_ports
        self.policy: RoutingPolicy = routing
        #: the policy's deterministic table.
        self.routing = routing.table
        # Give the table a way to stamp lookup errors with the switch
        # name and the current simulated time (satellite of
        # docs/faults.md: contextual TopologyError messages).
        self.routing.owner = self
        self.params = params
        self.crossbar_bw = crossbar_bw
        self.marker = marker
        #: trace hook, as :attr:`repro.core.cam.InputCam.recorder`.
        self.recorder: Optional[Callable[..., None]] = None
        self.input_ports = [InputPort(self, i) for i in range(num_ports)]
        self.output_ports = [OutputPort(self, i) for i in range(num_ports)]
        #: how this switch's RAM is carved up (docs/buffers.md).  Built
        #: and attached before the queue schemes so they see the final
        #: pool capacities (VOQnet sizes its queues off pool.capacity).
        self.buffer_model = BUFFER_MODELS[params.buffer_model].build(self)
        self.buffer_model.attach()
        self._nprios: int = params.pfc_priorities
        #: count of PFC-paused (output, priority) pairs; the matcher's
        #: pause filter costs one truthiness check while this is 0.
        self._paused_pairs = 0
        for port in self.input_ports:
            port.scheme = scheme_factory(port)
            # Shadow the generic InputPort.route with the policy's
            # specialised callable: for det this is a closure over
            # table.lookup, making the hot path cost what it did before
            # the policy layer existed (tests/test_routing_policies.py
            # holds that every port carries it).
            port.route = routing.route_for(port)
        self.arbiter = ISlip(num_ports, num_ports, params.islip_iterations)
        #: arbitration slot (ns): one MTU at the fastest attached link,
        #: set by the fabric builder once the links exist.
        self.quantum = 0.0
        self._match_scheduled = False
        #: slowest attached output link (computed on first use, dropped
        #: by :meth:`OutputPort.on_bandwidth_change`) — lets the matcher
        #: skip saturated input ports without scanning queues.
        self._min_link_bw: Optional[float] = None
        self.packets_forwarded = 0
        self.fecn_marked = 0

    @property
    def marking(self) -> bool:
        """Does this switch run a marking policy? (diagnostics)"""
        return self.marker is not None

    # ------------------------------------------------------------------
    # matching
    # ------------------------------------------------------------------
    def kick(self) -> None:
        """Request a matching round at the next arbitration slot
        (kicks arriving within one slot are coalesced).

        A transmission ending exactly on a slot boundary must be
        matchable in that same slot, so boundary hits (within a float
        tolerance) are not pushed a whole slot into the future.
        """
        if not self._match_scheduled:
            self._match_scheduled = True
            q = self.quantum
            now = self.sim.now
            k = now / q
            slot = round(k)
            if -1e-6 < k - slot < 1e-6:
                when = slot * q
            else:
                when = (now // q + 1.0) * q
            if when < now:
                when = now
            self.sim.post(when, self._match)

    def _match(self) -> None:
        """One matching round, in one pass: gather every input port's
        eligible heads that could start right now, arbitrate, start one
        transmission per match.  A round in which nothing can start
        (most of them) allocates nothing.

        A head is a candidate when its output is not PFC-paused for its
        priority, the output link could send it (up, idle, downstream
        space — the three conditions of :meth:`Link.can_send`, tested
        inline) and the input port has crossbar read budget left for
        that link's rate: with no budget (``crossbar_bw is None``) a
        port reads one packet at a time; with one, concurrent reads may
        sum to it, within a relative 1e-9 for float accumulation."""
        self._match_scheduled = False
        min_bw = self._min_link_bw
        if min_bw is None:
            min_bw = self._min_link_bw = min(
                (op.link_out.bandwidth for op in self.output_ports if op.link_out),
                default=0.0,
            )
        budget = self.crossbar_bw
        cap = 0.0 if budget is None else budget * (1.0 + 1e-9)
        output_ports = self.output_ports
        paused = self._paused_pairs > 0
        nprios = self._nprios
        now = self.sim.now
        requests = None  # {input: outputs}, made by the first port that requests
        for port in self.input_ports:
            # The scheme caches this list between mutations, so an idle
            # port costs one truthiness check per round.
            heads = port.scheme.eligible_heads()
            if not heads:
                continue
            active = port.active_rate
            # Saturated read path: not even the slowest link fits.
            if budget is None:
                if active != 0.0:
                    continue
            elif active + min_bw > cap:
                continue
            # Outputs this port requests, in first-seen order, and per
            # output its head — a list of heads once a second queue
            # wants the same output.
            outs = picks = None
            for head in heads:
                _queue, out, pkt = head
                out_port = output_ports[out]
                if paused and (pkt.dst % nprios) in out_port.paused_priorities:
                    continue
                link = out_port.link_out
                if (
                    link is None
                    or not link.up
                    or now < link.busy_until
                    or not link.rx.can_accept(pkt)
                ):
                    continue
                if budget is not None and active + link.bandwidth > cap:
                    continue
                if outs is None:
                    outs = [out]
                    picks = [head]
                elif out in outs:
                    k = outs.index(out)
                    if type(picks[k]) is list:
                        picks[k].append(head)
                    else:
                        picks[k] = [picks[k], head]
                else:
                    outs.append(out)
                    picks.append(head)
            if outs is not None:
                if requests is None:
                    requests, picked = {}, {}
                requests[port.index] = outs
                picked[port.index] = picks
        if requests is None:
            return
        if len(requests) == 1:
            # One requesting input: skip the full grant/accept iteration
            # (ISlip.match_single commits identical arbiter state).
            (inp, outs), = requests.items()
            matches = {inp: self.arbiter.match_single(inp, outs)}
        else:
            matches = self.arbiter.match(requests)
        for inp, out in matches.items():
            self._start_transmission(
                self.input_ports[inp], out, picked[inp][requests[inp].index(out)]
            )
        if matches:
            # A port with crossbar headroom left may start a second
            # concurrent read this very instant (iSlip grants one match
            # per input per round) — run another round.
            self.kick()

    def _start_transmission(self, port: InputPort, out: int, pick) -> None:
        """Start the matched transmission ``port`` -> ``out``; ``pick``
        is that pair's head, or the list of its heads to round-robin
        among."""
        if type(pick) is list:
            pick = pick[port.rr_counter % len(pick)]
        port.rr_counter += 1
        queue, _out, pkt = pick
        out_port = self.output_ports[out]
        popped = queue.pop()
        assert popped is pkt, "queue head changed between match and pop"
        rate = out_port.link_out.bandwidth
        port.active_rate += rate
        out_port.current = (port, pkt, rate)
        marker = self.marker
        if marker is not None and marker.should_mark(pkt, queue, out_port):
            if self.recorder is not None:
                self.recorder("fecn", self.name, pkt.dst, pkt.flow)
            pkt.fecn = True
            self.fecn_marked += 1
        out_port.link_out.send(pkt)
        self.packets_forwarded += 1
        port.scheme.after_dequeue(queue)

    # ------------------------------------------------------------------
    # congestion-tree protocol (reverse control from downstream)
    # ------------------------------------------------------------------
    def on_tree_message(self, out_port: OutputPort, msg: ControlMessage) -> None:
        """Update this switch's output CAM, then fan the message out to
        every input-port scheme (``on_control_message`` hook) — schemes
        without a tree protocol inherit the no-op."""
        if isinstance(msg, CfqAlloc):
            out_port.out_cam.allocate(msg.destination)
        elif isinstance(msg, CfqStop):
            line = out_port.out_cam.lookup(msg.destination)
            if line is not None:
                line.stopped = True
        elif isinstance(msg, CfqGo):
            line = out_port.out_cam.lookup(msg.destination)
            if line is not None:
                line.stopped = False
        elif isinstance(msg, CfqDealloc):
            if out_port.out_cam.lookup(msg.destination) is not None:
                out_port.out_cam.free(msg.destination)
        elif isinstance(msg, PfcPause):
            # Stamp the egress the XOFF arrived on so the fan-out below
            # (and the PFC queue scheme) can pause just this (output,
            # priority) pair; the sender only knows its ingress.
            msg.out_port = out_port.index
            if msg.priority not in out_port.paused_priorities:
                out_port.paused_priorities.add(msg.priority)
                self._paused_pairs += 1
        elif isinstance(msg, PfcResume):
            msg.out_port = out_port.index
            if msg.priority in out_port.paused_priorities:
                out_port.paused_priorities.discard(msg.priority)
                self._paused_pairs -= 1
                self.kick()
        else:  # pragma: no cover - unknown control is a wiring bug
            raise TypeError(f"unexpected reverse control {msg!r}")
        for port in self.input_ports:
            port.scheme.on_control_message(msg)

    # ------------------------------------------------------------------
    # control-plane forwarding (BECNs travelling to their destination)
    # ------------------------------------------------------------------
    def forward_control(self, msg: ControlMessage) -> None:
        if isinstance(msg, Becn):
            out = self.policy.control_port(msg.dst)
            link = self.output_ports[out].link_out
            if link is not None:
                link.send_control(msg)
        else:  # pragma: no cover - unknown control is a wiring bug
            raise TypeError(f"unexpected forward control {msg!r}")

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def total_buffered_bytes(self) -> int:
        return sum(p.pool.used for p in self.input_ports)

    def allocated_cfqs(self) -> int:
        return sum(p.scheme.allocated_cfqs() for p in self.input_ports)

    def cam_alloc_failures(self) -> int:
        return sum(p.scheme.cam_alloc_failures() for p in self.input_ports)

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe state dump for watchdog diagnostics: per-port pool
        occupancy, non-empty queue depths, CAM/CFQ tables, and the
        congestion state of every output port."""
        inputs = []
        for port in self.input_ports:
            pool = port.pool.snapshot()
            entry: Dict[str, object] = {
                "name": port.name,
                "pool_used": pool["used"],
                "pool_capacity": pool["capacity"],
                "active_rate": port.active_rate,
            }
            entry.update(port.scheme.snapshot())
            inputs.append(entry)
        outputs = []
        for out in self.output_ports:
            cur = out.current  # (input port, packet, read rate) or None
            outputs.append(
                {
                    "name": out.name,
                    "congested": out.congested,
                    "reading_from": cur[0].name if cur is not None else None,
                    "link_busy_until": out.link_out.busy_until if out.link_out else None,
                    "out_cam": {
                        ln.dest: ("STOP" if ln.stopped else "GO")
                        for ln in out.out_cam.lines()
                    },
                }
            )
        dump: Dict[str, object] = {
            "switch": self.name,
            "routing": self.policy.snapshot(),
            "inputs": inputs,
            "outputs": outputs,
        }
        if self.buffer_model.name != "static":
            dump["buffer_model"] = self.buffer_model.snapshot()
        return dump
