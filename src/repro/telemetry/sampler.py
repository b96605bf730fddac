"""Periodic network-state sampling.

A :class:`TelemetrySampler` attaches to a built
:class:`~repro.network.fabric.Fabric` and, driven by a
:class:`~repro.sim.engine.PeriodicTask`, walks the fabric's existing
``snapshot()``/``telemetry_sample()`` hooks at a fixed simulated-time
interval.  Every walk appends one fixed-schema sample per entity —
switch input port, end node, link, plus one network-wide aggregate row
— into bounded :class:`~repro.telemetry.series.SeriesRing` buffers
(never unbounded lists; evictions are counted per ring).

Sampling is strictly read-only: it touches no RNG stream, mutates no
device state and injects only its own periodic tick events, whose
dispatch count the fabric subtracts from its ``events`` statistic —
so CaseResults are byte-identical with telemetry on or off (the same
contract the invariant guard keeps).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.telemetry.series import SeriesRing

__all__ = ["TelemetrySampler", "DEFAULT_INTERVAL", "SERIES_CAPACITY", "EVENTS_LIMIT", "TRACK_TREES"]

#: the bundle schema version stamped on every export.
BUNDLE_SCHEMA = "repro.telemetry/1"

#: the default sampling period in simulated ns (100 µs -- the
#: Collector's bin width, fine enough for the paper's 10 ms plots);
#: the period is the one thing a cell chooses (its ``telemetry`` axis).
DEFAULT_INTERVAL = 100_000.0
#: retained samples per ring (older samples are evicted + counted).
SERIES_CAPACITY = 1024
#: ProtocolTrace event limit for the attached structured trace.
EVENTS_LIMIT = 200_000
#: reconstruct congestion-tree lifecycles from the trace.
TRACK_TREES = True


class TelemetrySampler:
    """Walks the fabric's snapshot hooks on a fixed cadence.

    Per sample it records:

    * **ports** — for every switch input port, the scheme's
      ``telemetry_sample()`` fields (NFQ/CFQ occupancy, CAM line
      count, stopped-line count for the isolation schemes; queued
      bytes/packets for all) plus buffer-pool occupancy;
    * **nodes** — injection-queue (AdVOQ) backlog, staging occupancy,
      and the injection gate's per-destination state (CCTI table for
      the CCT gates, current rate for RCM);
    * **links** — cumulative received bytes;
    * **network** — one aggregate row (delivered bytes, allocated
      CFQs, CAM allocation failures, buffered bytes, Stop'd tree
      lines, throttled destinations, AdVOQ backlog).
    """

    def __init__(self, fabric, interval: float = DEFAULT_INTERVAL, trace=None) -> None:
        self.fabric = fabric
        #: sampling period in simulated ns.
        self.interval = float(interval)
        #: optional ProtocolTrace attached to the same fabric; consumed
        #: by the TreeTracker and the JSONL exporter.
        self.trace = trace
        cap = SERIES_CAPACITY
        self.times = SeriesRing(cap)
        self.network = SeriesRing(cap)
        self.ports: Dict[str, SeriesRing] = {
            port.name: SeriesRing(cap)
            for sw in fabric.switches
            for port in sw.input_ports
        }
        self.nodes: Dict[int, SeriesRing] = {node.id: SeriesRing(cap) for node in fabric.nodes}
        self.links: Dict[str, SeriesRing] = {link.name: SeriesRing(cap) for link in fabric.links}
        #: periodic tick events dispatched so far (the fabric subtracts
        #: this from its ``events`` statistic to keep results identical
        #: with telemetry off).
        self.ticks = 0
        self._task = None

    # ------------------------------------------------------------------
    def start(self) -> "TelemetrySampler":
        """Install the periodic sampling task (call once, before the
        run); the first sample lands one interval in."""
        if self._task is not None:
            raise RuntimeError("sampler already started")
        self._task = self.fabric.sim.call_every(self.interval, self.sample)
        return self

    def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            self._task = None

    # ------------------------------------------------------------------
    def sample(self) -> None:
        """Record one fixed-schema sample of the whole fabric (also the
        periodic-task callback).  Read-only by contract."""
        fabric = self.fabric
        self.ticks += 1
        now = fabric.sim.now
        self.times.append(now)

        stop_lines = 0
        for sw in fabric.switches:
            for port in sw.input_ports:
                row = port.scheme.telemetry_sample()
                row["pool_used"] = port.pool.used
                self.ports[port.name].append(row)
            for out in sw.output_ports:
                for line in out.out_cam.lines():
                    if line.stopped:
                        stop_lines += 1

        advoq_total = 0
        throttled_total = 0
        for node in fabric.nodes:
            backlog = node.advoq_backlog()
            advoq_total += backlog
            stage_used = node.stage.pool.used if node.stage is not None else 0
            gate = node.throttle
            row = {"advoq_bytes": backlog, "stage_bytes": stage_used, "gate": {}}
            if gate is not None:
                detail = {str(d): v for d, v in gate.snapshot().items()}
                throttled_total += len(detail)
                row["gate"] = detail
                row.update(gate.telemetry_sample())
            self.nodes[node.id].append(row)

        for link in fabric.links:
            self.links[link.name].append(link.bytes_received)

        collector = fabric.collector
        self.network.append(
            {
                "delivered_bytes": collector.delivered_bytes,
                "delivered_packets": collector.delivered_packets,
                "allocated_cfqs": sum(sw.allocated_cfqs() for sw in fabric.switches),
                "cam_alloc_failures": sum(sw.cam_alloc_failures() for sw in fabric.switches),
                "buffered_bytes": sum(sw.total_buffered_bytes() for sw in fabric.switches),
                "stop_lines": stop_lines,
                "advoq_bytes": advoq_total,
                "throttled_destinations": throttled_total,
            }
        )

    # ------------------------------------------------------------------
    @property
    def dropped(self) -> int:
        """Total samples evicted across every ring."""
        total = self.times.dropped + self.network.dropped
        for ring in self.ports.values():
            total += ring.dropped
        for ring in self.nodes.values():
            total += ring.dropped
        for ring in self.links.values():
            total += ring.dropped
        return total

    def bundle(self, duration: Optional[float] = None) -> Dict[str, Any]:
        """A JSON-safe dict of everything sampled (plus the trace's
        tree-lifecycle records when a trace is attached) — the payload
        attached to :class:`~repro.experiments.runner.CaseResult` and
        consumed by the exporters.  All keys are strings so the dict
        round-trips ``json.dumps``/``loads`` exactly."""
        out: Dict[str, Any] = {
            "schema": BUNDLE_SCHEMA,
            # what the sampler ran with
            "config": {"interval": self.interval, "series_capacity": SERIES_CAPACITY,
                       "events_limit": EVENTS_LIMIT, "track_trees": TRACK_TREES},
            "duration": float(duration) if duration is not None else float(self.fabric.sim.now),
            "ticks": self.ticks,
            "dropped": self.dropped,
            "times": self.times.values(),
            "network": self.network.values(),
            "ports": {
                name: {"dropped": ring.dropped, "rows": ring.values()}
                for name, ring in self.ports.items()
            },
            "nodes": {
                str(nid): {"dropped": ring.dropped, "rows": ring.values()}
                for nid, ring in self.nodes.items()
            },
            "links": {
                name: {"dropped": ring.dropped, "rx_bytes": ring.values()}
                for name, ring in self.links.items()
            },
        }
        if self.trace is not None:
            out["events"] = {
                "recorded": len(self.trace.events),
                "dropped": self.trace.dropped,
                "counts": self.trace.counts(),
            }
            if TRACK_TREES:
                from repro.telemetry.tracker import TreeTracker

                tracker = TreeTracker(num_cfqs=self.fabric.params.num_cfqs)
                tracker.consume(self.trace.events)
                out["trees"] = [rec.to_dict() for rec in tracker.records()]
                out["tree_stats"] = tracker.stats()
        # Fault attribution (docs/faults.md): the injector's event log
        # plus, per congestion tree, whether it was born inside a fault
        # window — separating fault-induced trees from the workload's
        # own.  Absent on fault-free fabrics, keeping bundles identical.
        faults = self.fabric.faults
        if faults is not None:
            out["faults"] = faults.snapshot()
            trees = out.get("trees")
            if trees:
                windows = faults.windows()
                for rec in trees:
                    birth = rec.get("birth")
                    rec["during_fault"] = birth is not None and any(
                        start <= birth and (end is None or birth <= end)
                        for start, end in windows
                    )
        return out
