"""Congested-flow isolation: the NFQ+CFQ scheme and its tree protocol.

This module implements the FBICM-style machinery CCFIT builds on
(§III-A/C/D):

* every arriving packet is stored in the port's **NFQ** (Event #1);
* **detection**: when NFQ occupancy exceeds the detection threshold, a
  CFQ plus CAM line is allocated for the destination of the blocking
  head packet (Event #2).  The line is *root* — one hop from the
  congestion point — which matters for CCFIT's FECN marking;
* **post-processing** (Event #3): whenever a packet reaches the NFQ
  head, its destination is looked up in the port CAM (and in the
  switch's output-port CAMs for trees announced from downstream); on a
  match the packet moves to the corresponding CFQ, so only
  non-congested packets ever occupy the NFQ head — HoL blocking is
  gone the moment the CFQ exists;
* **propagation** (Events #4/#5): a CFQ filling past the propagation
  threshold sends ``CfqAlloc`` to the upstream device, which records it
  in the output-port CAM and lazily allocates its own input CFQs;
  Stop/Go flow control then runs per congestion tree between the
  neighbouring CFQs;
* **deallocation** (Event #6): an empty CFQ whose CAM line is in Go
  status frees itself (after a small hysteresis lifetime) and notifies
  upstream, releasing resources for new congestion trees;
* **congestion state** (Event #7, CCFIT only): a *root* CFQ crossing
  the High threshold moves its output port into the congestion state;
  dropping below Low backs it out.  Non-root CFQs never mark — the
  paper is explicit that a CFQ two hops from the congestion point does
  not move its output into the congestion state.

The scalability limit the paper probes in Fig. 8 falls out naturally:
with every CAM line busy, ``InputCam.allocate`` fails, congested
packets stay in the NFQ, and HoL blocking returns (the miss is
counted).
"""

from __future__ import annotations

from typing import List, Optional, Protocol, Tuple

from repro.core.cam import CamLine, InputCam, OutputCamLine
from repro.core.params import CCParams
from repro.network.buffers import BufferPool, PacketQueue
from repro.network.packet import (
    CfqAlloc,
    CfqDealloc,
    CfqGo,
    CfqStop,
    ControlMessage,
    Packet,
)
from repro.network.queueing import QueueScheme

__all__ = ["IsolationHost", "NfqCfqScheme"]


class IsolationHost(Protocol):
    """What the NFQ+CFQ scheme needs from its owning port, beyond
    :class:`repro.network.queueing.PortHost`."""

    pool: BufferPool
    params: CCParams
    name: str

    def route(self, pkt: Packet) -> int: ...

    def kick(self) -> None: ...

    def now(self) -> float:
        """Current simulation time."""

    def schedule(self, delay: float, fn) -> None:
        """Run ``fn()`` after ``delay`` ns (for dealloc hysteresis)."""

    def send_upstream(self, msg: ControlMessage) -> None:
        """Forward a tree-protocol message towards the traffic source.
        No-op at input adapters (there is nothing above the AdVOQs)."""

    def announced_tree(self, dest: int) -> Optional[OutputCamLine]:
        """The downstream-announced congestion tree for ``dest``
        relevant to this port (the output CAM line at the switch, the
        IA's announcement record), or None."""

    def root_cfq_hot_changed(self, dest: int, hot: bool) -> None:
        """CCFIT congestion-state hook: a root CFQ crossed High/Low."""


class NfqCfqScheme(QueueScheme):
    """One NFQ plus ``params.num_cfqs`` dynamically allocated CFQs.

    Parameters
    ----------
    host:
        The owning input port / IA output stage.
    drive_congestion_state:
        True only for CCFIT switches: root CFQs crossing the High/Low
        thresholds move the output port in/out of the congestion state.
        False for plain FBICM (no marking) and for input adapters.
    """

    def __init__(self, host: IsolationHost, drive_congestion_state: bool) -> None:
        super().__init__(host)
        self.drive_congestion_state = drive_congestion_state
        self.nfq = PacketQueue(f"{host.name}.nfq", track_dests=True)
        self.cfqs = [
            PacketQueue(f"{host.name}.cfq{i}") for i in range(host.params.num_cfqs)
        ]
        self.cam = InputCam(host.params.num_cfqs)
        self._queues = [self.nfq, *self.cfqs]
        self._in_update = False
        self._lifetime_recheck: set[int] = set()
        #: cfq_index -> the CamLine awaiting its congestion-state dwell.
        self._hot_pending: dict[int, CamLine] = {}
        self.moves = 0

    # ------------------------------------------------------------------
    # QueueScheme interface
    # ------------------------------------------------------------------
    def on_arrival(self, pkt: Packet) -> None:
        self.nfq.push(pkt)
        self.update()
        self.host.kick()

    def after_dequeue(self, queue: PacketQueue) -> None:
        self.update()

    def _build_heads(self) -> List[Tuple[PacketQueue, int, Packet]]:
        out: List[Tuple[PacketQueue, int, Packet]] = []
        route = self.host.route
        nfq = self.nfq
        head = nfq.head()
        if head is not None:
            # A congested head that post-processing could not isolate
            # (CAM full) is forwarded anyway — blocking it forever would
            # deadlock the lossless network.  That is exactly FBICM's
            # out-of-resources mode: HoL blocking returns, and the miss
            # is visible in ``self.cam.alloc_failures``.
            out.append((nfq, route(head), head))
        cfqs = self.cfqs
        for line in self.cam.lines():
            if line.stopped:
                continue
            cfq = cfqs[line.cfq_index]
            chead = cfq.head()
            if chead is not None:
                out.append((cfq, route(chead), chead))
        return out

    # ------------------------------------------------------------------
    # tree-protocol inputs (called by the switch / IA)
    # ------------------------------------------------------------------
    def on_control_message(self, msg: ControlMessage) -> None:
        """Hook-API entry point: the host device fans every reverse
        control message out to its port schemes *after* updating its own
        announcement record (output CAM / IA ``_announced``), so
        ``announced_tree`` already reflects the message here."""
        if isinstance(msg, CfqAlloc):
            self.on_tree_announced()
        elif isinstance(msg, CfqStop):
            self.tree_stopped(msg.destination, True)
        elif isinstance(msg, CfqGo):
            self.tree_stopped(msg.destination, False)
        elif isinstance(msg, CfqDealloc):
            self.tree_orphaned(msg.destination)

    def tree_stopped(self, dest: int, stopped: bool) -> None:
        """Downstream Stop/Go for the tree towards ``dest``."""
        line = self.cam.lookup(dest)
        if line is None:
            return  # raced with our own deallocation — benign
        line.stopped = stopped
        self.invalidate_heads()
        if stopped:
            # A true root's downstream is the congested point itself,
            # which never sends Stop — so this line cannot be the root
            # (the IB "port has credits to forward" root condition).
            self._demote_root(line)
        else:
            self.update()
            self.host.kick()

    def tree_orphaned(self, dest: int) -> None:
        """The downstream tree for ``dest`` deallocated: non-root lines
        stop capturing packets and free themselves once drained."""
        line = self.cam.lookup(dest)
        if line is None or line.root:
            return
        line.orphaned = True
        line.stopped = False  # a dead tree cannot hold us stopped
        self.update()
        self.host.kick()

    def on_tree_announced(self) -> None:
        """A new output-CAM line appeared: re-run post-processing, and
        demote any local "root" line for a tree that downstream has now
        announced (the real root is closer to the congested point)."""
        for line in self.cam.lines():
            if line.root and self.host.announced_tree(line.dest) is not None:
                self._demote_root(line)
        self.update()
        self.host.kick()

    def _demote_root(self, line: CamLine) -> None:
        if not line.root:
            return
        line.root = False
        if self._hot_pending.get(line.cfq_index) is line:
            del self._hot_pending[line.cfq_index]
        if line.hot:
            line.hot = False
            line.last_hot_at = self.host.now()
            self.host.root_cfq_hot_changed(line.dest, False)

    # ------------------------------------------------------------------
    # the state machine (idempotent; run after every mutation)
    # ------------------------------------------------------------------
    def update(self) -> None:
        if self._in_update:
            return
        self._in_update = True
        try:
            nfq = self.nfq
            cam = self.cam
            cfqs = self.cfqs
            host = self.host
            # local detection needs CFQs to allocate and an NFQ at the
            # threshold (untracked <= total NFQ bytes)
            detect_at = host.params.detection_threshold if cfqs else float("inf")
            while True:
                # step 1, post-processing: move congested heads out of
                # the NFQ, into the CFQ of their live CAM line or of the
                # tree downstream has announced for their destination.
                moved = False
                while True:
                    head = nfq.head()
                    if head is None:
                        break
                    dest = head.dst
                    line = cam.lookup(dest)
                    if line is None or line.orphaned:
                        rec = host.announced_tree(dest)
                        if rec is None:
                            break
                        if line is not None:
                            # an orphaned line still draining: the
                            # announcement revives it, so one
                            # destination never occupies two CFQs
                            line.orphaned = False
                        else:
                            line = cam.allocate(dest, root=False, now=host.now())
                            if line is None:
                                break
                        line.stopped = rec.stopped
                    nfq.pop()
                    cfqs[line.cfq_index].push(head)
                    self.moves += 1
                    moved = True
                # step 2, local detection; it runs again after a pass
                # that only moved packets
                detected = nfq.bytes >= detect_at and self._detect()
                if not (moved or detected):
                    break
            lines = cam.lines()
            if lines:
                self._check_thresholds(lines)
        finally:
            self._in_update = False
            self._heads = None

    # -- step 2: local congestion detection --------------------------------
    def _detect(self) -> bool:
        """Allocate (or revive) a root line for the destination clogging
        the NFQ.  :meth:`update` calls it only with ``num_cfqs > 0`` and
        the NFQ at the detection threshold."""
        cam = self.cam
        if cam.full:
            for ln in cam.lines():
                if ln.orphaned:
                    break
            else:
                # Every CFQ is holding a live tree: no allocation (nor
                # orphan revival) is possible, so skip the occupancy
                # scan.  This is the port's saturated steady state on
                # the 64-node runs, so the early-out matters for
                # simulation speed.
                cam.note_full()
                return False
        if self._untracked_nfq_bytes() < self.host.params.detection_threshold:
            return False
        dest = self._blame_destination()
        if dest is None:
            return False
        existing = cam.lookup(dest)
        if existing is not None:
            if existing.orphaned:
                # Fresh local congestion for a tree that was tearing
                # down: revive the draining line as a root.
                existing.orphaned = False
                existing.root = True
                return True
            return False
        # The tree is only rooted here if downstream has not announced
        # it (a root CFQ's downstream is the congested point itself).
        rec = self.host.announced_tree(dest)
        line = cam.allocate(dest, root=rec is None, now=self.host.now())
        if line is None:
            return False  # out of CFQs — the Fig. 8 scalability wall
        if rec is not None:
            line.stopped = rec.stopped
        return True

    def _untracked_nfq_bytes(self) -> int:
        """NFQ bytes not already belonging to a live congestion tree.

        Packets whose destination has a live CAM line are merely
        waiting for the head-granular post-processing to file them into
        their CFQ — they are *tracked* congestion, and counting them
        towards a new detection would blame an innocent bystander
        destination for a backlog that is not its doing.  Uses the
        queue's incremental per-destination counters (O(#CFQs))."""
        tracked = 0
        dest_bytes = self.nfq.dest_bytes
        for ln in self.cam.lines():
            if not ln.orphaned:
                tracked += dest_bytes.get(ln.dest, 0)
        return self.nfq.bytes - tracked

    def _blame_destination(self) -> Optional[int]:
        """Which destination a detection holds responsible (see
        ``CCParams.detection_policy``).  Destinations already tracked by
        a live CAM line are skipped — their packets are not the ones
        clogging the NFQ head-of-line."""
        if self.host.params.detection_policy == "head":
            head = self.nfq.head()
            return None if head is None else head.dst
        best = None
        best_bytes = 0
        tracked = {ln.dest for ln in self.cam.lines() if not ln.orphaned}
        for dst, nbytes in self.nfq.dest_bytes.items():
            if dst in tracked:
                continue
            # max bytes; ties broken by destination id for determinism.
            if nbytes > best_bytes or (nbytes == best_bytes and best is not None and dst < best):
                best = dst
                best_bytes = nbytes
        return best

    # -- step 3: per-CFQ thresholds (propagate / stop / go / hot / free) ---
    def _check_thresholds(self, lines: List[CamLine]) -> None:
        host = self.host
        p = host.params
        cfqs = self.cfqs
        drive = self.drive_congestion_state
        propagate_at = p.propagation_threshold
        stop_at = p.cfq_stop
        go_at = p.cfq_go
        # deallocation below replaces the CAM's list, not this one
        for line in lines:
            occ = cfqs[line.cfq_index].bytes
            if not line.propagated and occ >= propagate_at and not line.orphaned:
                line.propagated = True
                host.send_upstream(CfqAlloc(line.dest, id(line)))
            if not line.stop_sent and occ >= stop_at:
                if not line.propagated:
                    line.propagated = True
                    host.send_upstream(CfqAlloc(line.dest, id(line)))
                line.stop_sent = True
                host.send_upstream(CfqStop(line.dest, id(line)))
            elif line.stop_sent and occ <= go_at:
                line.stop_sent = False
                host.send_upstream(CfqGo(line.dest, id(line)))
            if drive and line.root:
                if not line.hot and occ >= p.cfq_high:
                    self._arm_hot(line)
                elif line.hot and occ <= p.cfq_cs_exit:
                    # leave the congestion state with backlog still in
                    # the Go band (the link keeps draining the tree
                    # while the sources' CCTIs decay)
                    line.hot = False
                    line.last_hot_at = host.now()
                    host.root_cfq_hot_changed(line.dest, False)
                elif occ <= p.cfq_low:
                    # a pending dwell only survives genuine standing
                    # congestion; full drainage disarms it
                    self._hot_pending.pop(line.cfq_index, None)
            if not occ and not line.stopped:
                self._maybe_deallocate(line)

    def _arm_hot(self, line: CamLine) -> None:
        """Start the congestion-state dwell for a root CFQ above High.

        The port only enters the congestion state if the CFQ is *still*
        above High (and the line still alive and root) after
        ``cfq_high_dwell`` — transient bursts drain before the timer
        fires, so victim flows are not marked (DESIGN.md §5)."""
        idx = line.cfq_index
        if self._hot_pending.get(idx) is line:
            return
        p = self.host.params
        dwell = p.cfq_high_dwell
        recently_hot = (
            self.host.now() - line.last_hot_at <= p.cfq_rearm_window
        )
        if dwell <= 0.0 or recently_hot:
            # the dwell filters victim transients; a line that recently
            # proved to be a genuine root re-enters immediately, so
            # sustained congestion marks continuously instead of once
            # per Stop/Go saw
            line.hot = True
            line.last_hot_at = self.host.now()
            self.host.root_cfq_hot_changed(line.dest, True)
            return
        self._hot_pending[idx] = line

        def confirm() -> None:
            # The arm survives unless the CFQ drained to Low meanwhile
            # (which cancels the pending entry): a true congestion root
            # saw-tooths between Go and Stop without ever emptying,
            # while a victim's transient burst drains right through Low.
            if self._hot_pending.get(idx) is not line:
                return
            del self._hot_pending[idx]
            still = self.cam.line_at(idx)
            if (
                still is line
                and line.root
                and not line.hot
                and self.cfqs[idx].bytes > self.host.params.cfq_low
            ):
                line.hot = True
                line.last_hot_at = self.host.now()
                self.host.root_cfq_hot_changed(line.dest, True)

        self.host.schedule(dwell, confirm)

    def _maybe_deallocate(self, line: CamLine) -> None:
        p = self.host.params
        if not self.cfqs[line.cfq_index].empty or line.stopped:
            return
        # Hysteresis: young CFQs wait out cfq_min_lifetime before
        # deallocating (the 1 ns slack absorbs float rounding of the
        # recheck's wake-up time).
        remaining = p.cfq_min_lifetime - (self.host.now() - line.allocated_at)
        if remaining > 1.0 and not line.orphaned:
            if line.cfq_index not in self._lifetime_recheck:
                self._lifetime_recheck.add(line.cfq_index)
                idx = line.cfq_index

                def recheck() -> None:
                    self._lifetime_recheck.discard(idx)
                    self.update()

                self.host.schedule(remaining, recheck)
            return
        if self._hot_pending.get(line.cfq_index) is line:
            del self._hot_pending[line.cfq_index]
        if line.hot:
            line.hot = False
            line.last_hot_at = self.host.now()
            self.host.root_cfq_hot_changed(line.dest, False)
        if line.stop_sent:
            line.stop_sent = False
            self.host.send_upstream(CfqGo(line.dest, id(line)))
        if line.propagated:
            self.host.send_upstream(CfqDealloc(line.dest, id(line)))
        self.cam.free(line)

    # ------------------------------------------------------------------
    # source-side coupling (IA arbiter decision, §III-D)
    # ------------------------------------------------------------------
    def holds_destination(self, dest: int) -> bool:
        """A destination whose stage CFQ is stopped (or at its Stop
        level) stays in its AdVOQ, so congested packets cannot hog the
        stage RAM and starve the node's other flows.  Resumed by the
        Go/dealloc kicks."""
        line = self.cam.lookup(dest)
        if line is None or line.orphaned:
            return False
        if line.stopped:
            return True
        return self.cfqs[line.cfq_index].bytes >= self.host.params.cfq_stop

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def allocated_cfqs(self) -> int:
        return len(self.cam.lines())

    def cam_alloc_failures(self) -> int:
        return self.cam.alloc_failures

    def cfq_occupancy(self, dest: int) -> int:
        line = self.cam.lookup(dest)
        return 0 if line is None else self.cfqs[line.cfq_index].bytes

    def snapshot(self) -> dict:
        entry = super().snapshot()
        entry["cam"] = [
            {
                "dest": ln.dest,
                "cfq": ln.cfq_index,
                "root": ln.root,
                "stopped": ln.stopped,
                "stop_sent": ln.stop_sent,
                "orphaned": ln.orphaned,
                "hot": ln.hot,
                "bytes": self.cfqs[ln.cfq_index].bytes,
            }
            for ln in self.cam.lines()
        ]
        return entry

    def telemetry_sample(self) -> dict:
        """Adds the isolation-scheme fields the paper's figures turn
        on: NFQ vs CFQ occupancy split, CAM line count, and how many
        lines are Stop'd."""
        entry = super().telemetry_sample()
        cfq_bytes = sum(q.bytes for q in self.cfqs)
        lines = self.cam.lines()
        entry["nfq_bytes"] = self.nfq.bytes
        entry["cfq_bytes"] = cfq_bytes
        entry["cam_lines"] = len(lines)
        entry["stopped_lines"] = sum(1 for ln in lines if ln.stopped)
        return entry

    # -- validation hook -------------------------------------------------
    def audit(self) -> None:
        """Invariant-guard hook: CAM internal consistency, queue counter
        integrity, and the CFQ<->CAM-line mapping (a CFQ holds packets
        only while a line owns it, and only for that line's
        destination).  Raises CamError/BufferError on violation."""
        from repro.core.cam import CamError

        self.cam.audit()
        self.nfq.audit()
        for idx, cfq in enumerate(self.cfqs):
            cfq.audit()
            line = self.cam.line_at(idx)
            if line is None:
                if not cfq.empty:
                    raise CamError(
                        f"{cfq.name}: {len(cfq)} packet(s) without a CAM line"
                    )
                continue
            for pkt in cfq:
                if pkt.dst != line.dest:
                    raise CamError(
                        f"{cfq.name}: packet for dest {pkt.dst} filed in the "
                        f"CFQ isolating dest {line.dest}"
                    )
            if line.hot and not line.root:
                raise CamError(f"{line!r}: hot without being a root")
            if line.stop_sent and not line.propagated:
                raise CamError(f"{line!r}: Stop sent without a prior Alloc")
