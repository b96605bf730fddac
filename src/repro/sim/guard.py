"""Runtime invariant guard: conservation checks + no-progress watchdog.

The paper's claims rest on conservation properties — credits, packets
and dynamically allocated CFQs must balance *exactly* (PAPER.md §III).
A bookkeeping bug (leaked CFQ, lost credit, stuck Stop/Go) would
otherwise surface only as a mysteriously wrong curve.  This module
turns those properties into executable checks:

* **credit / buffer conservation** — per switch input port, the pool's
  byte occupancy must equal the queued bytes plus the packets being
  read through the crossbar plus the inbound wire-resident bytes whose
  space was committed at transmission start (send-time reservation is
  the credit model, see :mod:`repro.network.link`);
* **packet conservation** — every generated packet is exactly one of:
  delivered, queued in an AdVOQ / IA stage / switch queue, or on a
  wire (``packets_sent - packets_received`` per link).  Delivered
  packets return to the allocation pool and drop out of the balance;
* **CFQ allocate/deallocate balance and CAM consistency** — via the
  ``audit()`` hooks on :class:`repro.core.cam.InputCam` and
  :class:`repro.core.isolation.NfqCfqScheme`;
* **shared-pool conservation** (non-static buffer models,
  docs/buffers.md) — per switch, the per-(port, priority-group) byte
  decomposition re-sums to every pool and headroom counter, a PG that
  is not paused holds no headroom bytes, and the XOFF ledger balances
  (pauses − resumes == currently paused pairs);
* **CCTI bounds** — every throttle index stays inside the CCT and
  every raised index keeps a live decay timer
  (:meth:`repro.core.throttling.ThrottleState.audit`);
* a **no-progress watchdog** — a run whose packet counters freeze (or
  whose event queue dies) while packets are still buffered raises
  :class:`StallError` carrying a structured diagnostic dump (event
  histogram, per-port queue depths, CFQ tables) instead of hanging or
  silently returning a flat curve.

Guard mode is opt-in: ``build_fabric(..., validate=True)`` or
``REPRO_SIM_VALIDATE=1`` in the environment (the CLI flag
``--validate`` sets the latter so sweep workers inherit it).  When off
the cost is a single ``None`` check per :meth:`Fabric.run` call.

The guard runs checks **between** engine chunks, never from scheduled
events: :meth:`FabricGuard.run_guarded` advances the simulator in
``check_interval`` slices with ``sim.run(until=..., max_events=...)``
and sweeps the invariants while the event loop is quiescent.  No
events are injected, so event ordering, ``stats()["events"]`` and
every :class:`~repro.experiments.runner.CaseResult` are bit-identical
with the guard on or off — guard mode can never poison the result
cache.  See docs/robustness.md.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "validation_enabled",
    "InvariantViolation",
    "StallError",
    "GuardConfig",
    "FabricGuard",
]

#: environment switch; truthy values: 1/true/yes/on (case-insensitive).
ENV_VALIDATE = "REPRO_SIM_VALIDATE"
_TRUTHY = ("1", "true", "yes", "on")


def validation_enabled(flag: Optional[bool] = None) -> bool:
    """Resolve the guard switch: an explicit ``flag`` wins, otherwise
    the ``REPRO_SIM_VALIDATE`` environment variable decides."""
    if flag is not None:
        return bool(flag)
    return os.environ.get(ENV_VALIDATE, "").strip().lower() in _TRUTHY


class InvariantViolation(RuntimeError):
    """A conservation property failed mid-run.

    Attributes
    ----------
    violations:
        One message per failed check (the exception text joins them).
    dump:
        The structured diagnostic state at the moment of failure.
    """

    def __init__(self, violations: List[str], dump: Dict[str, Any]) -> None:
        self.violations = list(violations)
        self.dump = dump
        lines = "\n  - ".join(violations)
        super().__init__(
            f"{len(violations)} simulation invariant violation(s) at "
            f"t={dump.get('now')}:\n  - {lines}"
        )


class StallError(RuntimeError):
    """The watchdog declared the run stalled (no packet progress while
    packets remain buffered).  ``dump`` holds the diagnostic state;
    ``kind`` is ``"deadlock"`` (event queue dead) or ``"stall"``
    (events firing, packets frozen)."""

    def __init__(self, kind: str, queued: int, dump: Dict[str, Any]) -> None:
        self.kind = kind
        self.dump = dump
        top = sorted(
            dump.get("event_histogram", {}).items(), key=lambda kv: -kv[1]
        )[:5]
        waiting = ", ".join(f"{name} x{n}" for name, n in top) or "nothing"
        super().__init__(
            f"simulation {kind} at t={dump.get('now')}: {queued} packet(s) "
            f"buffered with no progress; event queue holds {waiting} "
            f"(see .dump for per-port queue depths and CFQ tables)"
        )


@dataclass(frozen=True)
class GuardConfig:
    """Tuning for :class:`FabricGuard` (defaults fit the paper cases)."""

    #: sim-time between invariant sweeps (ns).
    check_interval: float = 100_000.0
    #: per-chunk event budget — bounds a same-timestamp livelock so the
    #: guard regains control even when sim time stops advancing.
    max_events_per_chunk: int = 5_000_000
    #: consecutive no-progress sweeps (with packets buffered) before
    #: declaring a stall: 10 x 100 us = 1 ms of a frozen network.
    stall_checks: int = 10


class FabricGuard:
    """Invariant checker + watchdog bound to one
    :class:`repro.network.fabric.Fabric`.

    Read-only: checks never mutate simulation state, so a guarded run
    is observationally identical to an unguarded one.
    """

    def __init__(self, fabric, config: Optional[GuardConfig] = None) -> None:
        self.fabric = fabric
        self.config = config if config is not None else GuardConfig()
        #: invariant sweeps performed.
        self.checks = 0

    # ------------------------------------------------------------------
    # guarded execution
    # ------------------------------------------------------------------
    def run_guarded(self, until: float) -> None:
        """Advance the fabric to ``until`` in chunks, sweeping the
        invariants between chunks and watching for stalls."""
        sim = self.fabric.sim
        cfg = self.config
        stalled = 0
        last_progress = self._progress()
        while True:
            chunk_end = min(until, sim.now + cfg.check_interval)
            sim.run(until=chunk_end, max_events=cfg.max_events_per_chunk)
            self.check_all()
            progress = self._progress()
            queued = self.fabric.in_flight_packets()
            if sim.now >= until:
                break
            if queued > 0 and progress == last_progress:
                if sim.pending() == 0:
                    # nothing left to fire, packets still buffered: the
                    # network is provably dead — no need to wait it out.
                    raise StallError("deadlock", queued, self.dump())
                stalled += 1
                if stalled >= cfg.stall_checks:
                    raise StallError("stall", queued, self.dump())
            else:
                stalled = 0
            last_progress = progress

    def _progress(self) -> Tuple[int, int, int]:
        f = self.fabric
        return (
            int(f.collector.delivered_packets),
            sum(n.packets_injected for n in f.nodes),
            sum(sw.packets_forwarded for sw in f.switches),
        )

    # ------------------------------------------------------------------
    # the invariant sweep
    # ------------------------------------------------------------------
    def check_all(self) -> None:
        """Sweep every invariant; raise :class:`InvariantViolation`
        listing all failures when any check trips."""
        self.checks += 1
        violations: List[str] = []
        self._check_ports(violations)
        self._check_nodes(violations)
        self._check_packet_conservation(violations)
        if violations:
            raise InvariantViolation(violations, self.dump())

    def _check_ports(self, out: List[str]) -> None:
        """Credit/buffer conservation and CFQ/CAM consistency at every
        switch input port, plus the routing policy's own audit (every
        candidate set minimal and non-empty) and the buffer model's
        shared-pool conservation (PG decomposition re-sums to every
        pool counter; a PAUSE-free PG holds no headroom bytes)."""
        for sw in self.fabric.switches:
            try:
                sw.policy.audit()
            except Exception as exc:  # TopologyError
                out.append(f"{sw.name}: {exc}")
            try:
                sw.buffer_model.audit()
            except Exception as exc:  # BufferError
                out.append(f"{sw.name}: {exc}")
            self._check_pause_discipline(sw, out)
            reading: Dict[int, int] = {}
            for op in sw.output_ports:
                if op.current is not None:
                    port, pkt, _rate = op.current
                    reading[port.index] = reading.get(port.index, 0) + pkt.size
            for port in sw.input_ports:
                where = port.name
                scheme = port.scheme
                try:
                    for q in scheme.queues():
                        q.audit()
                    audit = getattr(scheme, "audit", None)
                    if audit is not None:
                        audit()
                except Exception as exc:  # CamError / BufferError
                    out.append(f"{where}: {exc}")
                    continue
                wire = 0
                if port.link_in is not None:
                    # Bytes dropped on the wire (fault injection) had
                    # their reservation cancelled, so they are neither
                    # wire-resident nor buffered — the expected-loss
                    # ledger removes them from the balance (zero on
                    # healthy fabrics).
                    wire = (
                        port.link_in.bytes_sent
                        - port.link_in.bytes_received
                        - port.link_in.bytes_dropped
                    )
                    if wire < 0:
                        out.append(
                            f"{where}: link {port.link_in.name} received more "
                            f"bytes than were sent ({-wire}B excess)"
                        )
                expected = scheme.total_bytes() + reading.get(port.index, 0) + wire
                if port.pool.used != expected:
                    out.append(
                        f"{where}: credit imbalance — pool holds "
                        f"{port.pool.used}B but queues({scheme.total_bytes()}) "
                        f"+ crossbar({reading.get(port.index, 0)}) + "
                        f"wire({wire}) = {expected}B"
                    )

    def _check_pause_discipline(self, sw, out: List[str]) -> None:
        """PFC conservation for non-static buffer models: every PAUSE is
        eventually matched by exactly one RESUME, so the XOFF ledger
        (pauses - resumes) must equal the count of currently paused
        (port, priority) pairs — a drifted ledger means a lost or
        duplicated control message (a deadlocked PG upstream)."""
        paused_pairs = getattr(sw.buffer_model, "paused_pairs", None)
        if paused_pairs is None:
            return
        open_pauses = sw.buffer_model.pauses_sent - sw.buffer_model.resumes_sent
        if open_pauses != len(paused_pairs()):
            out.append(
                f"{sw.name}: PFC ledger drift — {sw.buffer_model.pauses_sent} "
                f"pauses vs {sw.buffer_model.resumes_sent} resumes leaves "
                f"{open_pauses} open, but {len(paused_pairs())} pairs are "
                f"marked paused"
            )

    def _check_nodes(self, out: List[str]) -> None:
        """IA stage accounting and throttle-table sanity per end node."""
        for node in self.fabric.nodes:
            where = f"node{node.id}"
            try:
                node.audit()
            except Exception as exc:
                out.append(f"{where}: {exc}")
            if node.stage is not None:
                try:
                    for q in node.stage_scheme.queues():
                        q.audit()
                    audit = getattr(node.stage_scheme, "audit", None)
                    if audit is not None:
                        audit()
                except Exception as exc:
                    out.append(f"{where}.ia: {exc}")
                else:
                    inflight = node._stage_inflight or 0
                    expected = node.stage_scheme.total_bytes() + inflight
                    if node.stage.pool.used != expected:
                        out.append(
                            f"{where}.ia: stage pool holds "
                            f"{node.stage.pool.used}B but queues"
                            f"({node.stage_scheme.total_bytes()}) + "
                            f"inflight({inflight}) = {expected}B"
                        )
            if node.throttle is not None:
                try:
                    node.throttle.audit()
                except Exception as exc:
                    out.append(f"{where}: {exc}")

    def _check_packet_conservation(self, out: List[str]) -> None:
        """Global balance: generated == delivered + queued + on-wire +
        expected losses.  The loss terms (wire drops on failing or
        degraded links, source drops of unroutable traffic) are the
        fault injector's expected-loss ledger — all zero on a healthy
        fabric, so the check degenerates to strict conservation."""
        f = self.fabric
        generated = sum(n.packets_generated for n in f.nodes)
        delivered_nodes = sum(n.packets_delivered for n in f.nodes)
        delivered = int(f.collector.delivered_packets)
        if delivered != delivered_nodes:
            out.append(
                f"collector counted {delivered} deliveries but nodes "
                f"counted {delivered_nodes}"
            )
        queued = 0
        for node in f.nodes:
            queued += sum(len(q) for q in node.advoqs.values())
            if node.stage_scheme is not None:
                queued += node.stage_scheme.total_packets()
        for sw in f.switches:
            for port in sw.input_ports:
                queued += port.scheme.total_packets()
        on_wire = 0
        wire_dropped = 0
        for lk in f.links:
            on_wire += lk.packets_sent - lk.packets_received - lk.packets_dropped
            wire_dropped += lk.packets_dropped
        source_drops = sum(getattr(n, "source_drops", 0) for n in f.nodes)
        accounted = delivered_nodes + queued + on_wire + wire_dropped + source_drops
        if generated != accounted:
            lost = ""
            if wire_dropped or source_drops:
                lost = (
                    f" + wire_dropped({wire_dropped}) + "
                    f"source_dropped({source_drops})"
                )
            out.append(
                f"packet conservation broken: generated {generated} != "
                f"delivered({delivered_nodes}) + queued({queued}) + "
                f"wire({on_wire}){lost} = {accounted}"
            )

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def dump(self) -> Dict[str, Any]:
        """Structured state snapshot (JSON-safe): what the simulation is
        waiting on and where every packet sits."""
        f = self.fabric
        sim = f.sim
        dump = {
            "now": sim.now,
            "pending_events": sim.pending(),
            "events_dispatched": sim.events_dispatched,
            "event_histogram": sim.queue_snapshot(),
            "stats": f.stats(),
            "in_flight_packets": f.in_flight_packets(),
            "switches": [sw.snapshot() for sw in f.switches],
            "nodes": [n.snapshot() for n in f.nodes],
            "checks_run": self.checks,
        }
        # A stall on a faulted fabric is usually *caused* by the fault
        # (dead route, partition): put the injector state right in the
        # watchdog's hands.
        if f.faults is not None:
            dump["faults"] = f.faults.snapshot()
        return dump
