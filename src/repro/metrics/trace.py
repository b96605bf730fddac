"""Structured tracing of congestion-control protocol events.

A :class:`ProtocolTrace` records the CC state machine's decisions —
detections, CFQ allocations/deallocations, Stop/Go transitions,
congestion-state entries, FECN marks, BECN receipts, throttle steps —
as timestamped structured events.  Attach one to a fabric to debug a
scenario or to analyse protocol dynamics quantitatively; the
congestion trees are :class:`~repro.telemetry.tracker.TreeTracker`'s
reading of the events:

    trace = ProtocolTrace()
    fabric = build_fabric(topo, scheme="CCFIT", seed=1)
    trace.attach(fabric)
    ...
    fabric.run(until=...)
    for ev in trace.query(kind="detect"):
        print(ev)
    print(TreeTracker().consume(trace.events).records())

Tracing is optional.  Attaching sets the ``recorder`` hook of every
switch input port's isolation scheme, its CAM and its port, of each
marking switch, of each gated node and of the fault injector; a run
without a trace pays one ``None`` check where a decision is made.
The IA stage's CAM, ITh's VOQ congestion state and PFC PAUSE/RESUME
are not traced (docs/telemetry.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = ["TraceEvent", "ProtocolTrace"]


@dataclass(frozen=True)
class TraceEvent:
    """One protocol decision."""

    time: float
    kind: str
    where: str
    dest: Optional[int] = None
    detail: str = ""

    def __str__(self) -> str:
        d = f" dest={self.dest}" if self.dest is not None else ""
        info = f" ({self.detail})" if self.detail else ""
        return f"[{self.time / 1e3:10.2f} us] {self.kind:10s} {self.where}{d}{info}"


class ProtocolTrace:
    """Event recorder; attach to a fabric before running it."""

    def __init__(self, limit: int = 1_000_000) -> None:
        self.events: List[TraceEvent] = []
        self.limit = limit
        #: events discarded after :attr:`limit` was reached.  The first
        #: drop emits a RuntimeWarning; queries over a trace with
        #: ``dropped > 0`` only see the run's head.
        self.dropped = 0
        self._fabric = None

    # ------------------------------------------------------------------
    def attach(self, fabric) -> "ProtocolTrace":
        """Hook this trace into ``fabric``'s isolation schemes, markers,
        injection gates and fault injector.  Call once, before running."""
        from repro.core.isolation import NfqCfqScheme

        if self._fabric is not None:
            raise RuntimeError("trace already attached")
        self._fabric = fabric
        sim = fabric.sim

        def record(kind: str, where: str, dest=None, detail="") -> None:
            if len(self.events) < self.limit:
                self.events.append(TraceEvent(sim.now, kind, where, dest, detail))
            else:
                if self.dropped == 0:
                    import warnings

                    warnings.warn(
                        f"ProtocolTrace reached its {self.limit}-event limit at "
                        f"t={sim.now:.0f} ns; further events are dropped "
                        f"(counted in .dropped)",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                self.dropped += 1

        # Every traced component reports through the same hook the
        # fault injector has: link-down/up, fault-drop and reroute
        # interleave with the protocol's reactions.
        for sw in fabric.switches:
            if sw.marker is not None:
                sw.recorder = record
            for port in sw.input_ports:
                scheme = port.scheme
                if isinstance(scheme, NfqCfqScheme):
                    port.recorder = scheme.recorder = scheme.cam.recorder = record
        for node in fabric.nodes:
            if node.throttle is not None:
                node.recorder = record
        faults = fabric.faults
        if faults is not None:
            faults.recorder = record
        return self

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(
        self,
        kind: Optional[str] = None,
        dest: Optional[int] = None,
        where: Optional[str] = None,
    ) -> List[TraceEvent]:
        """Filter recorded events."""
        out = self.events
        if kind is not None:
            out = [e for e in out if e.kind == kind]
        if dest is not None:
            out = [e for e in out if e.dest == dest]
        if where is not None:
            out = [e for e in out if e.where == where]
        return list(out)

    def counts(self) -> Dict[str, int]:
        """Events per kind."""
        out: Dict[str, int] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out
