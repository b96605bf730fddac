"""Deterministic fabric fault injection (docs/faults.md).

Production HPC interconnects routinely see link flaps, degraded
(CRC-retry) links and drained switches, and congestion pathologies are
amplified by such events.  This module lets every experiment ask the
question the paper's fault-free fabric cannot: do congested-flow
isolation and injection throttling still work — and does adaptive or
flowlet routing help or hurt — when the topology is failing underneath
them?

Three pieces:

* :class:`FaultEvent` — one scheduled fault action (``down``/``up``/
  ``kill``/``degrade``/``restore``) against a link or a switch at an
  absolute simulated time;
* :class:`FaultPlan` — a frozen, hashable, picklable bundle of events
  plus the fault RNG seed and the control-plane re-route delay.  Plans
  ride on :class:`~repro.experiments.sweep.SimJob` cells into worker
  processes and cache keys (``FaultPlan.to_dict()`` is the cache-key
  contribution; the cosmetic :attr:`FaultPlan.name` is excluded so two
  plans with equal content share cache entries).  :meth:`FaultPlan.parse`
  accepts the CLI ``--faults`` spec grammar;
* :class:`FaultInjector` — armed on a built fabric by
  :func:`repro.network.fabric.build_fabric`; schedules one engine event
  per plan entry and wires the consequences through every layer:
  :meth:`repro.network.link.Link.fail`/``restore``/``degrade``,
  :meth:`repro.network.routing.RoutingPolicy.on_link_down` dead-port
  exclusion, deterministic-table recomputation over the surviving
  links after :attr:`FaultPlan.reroute_delay`, and per-node
  unroutable-destination sets so sources degrade to traced drops
  instead of wedging the lossless fabric.

Determinism contract: with no plan nothing here is imported at all and
results are byte-identical to a fault-free build; with a fixed plan and
seed, every simulator event — including the probabilistic corruption drops
(seeded by :attr:`FaultPlan.seed`) — replays identically, so faulted
cells are cacheable exactly like healthy ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["FaultEvent", "FaultPlan", "FaultInjector", "FaultPlanError"]

#: recognised fault actions (the spec grammar's verbs).
ACTIONS = ("down", "up", "kill", "degrade", "restore")

#: default control-plane re-route latency (ns): how long after a
#: link-state change the deterministic tables are recomputed (200 µs —
#: the order of a subnet-manager sweep, scaled with ``time_scale``).
DEFAULT_REROUTE_DELAY = 200_000.0


class FaultPlanError(ValueError):
    """A fault-plan spec string or event is malformed."""


def _parse_time(text: str) -> float:
    """``"1.2ms"`` / ``"60us"`` / ``"5000"`` (ns) -> nanoseconds."""
    text = text.strip()
    scale = 1.0
    if text.endswith("ms"):
        text, scale = text[:-2], 1e6
    elif text.endswith("us"):
        text, scale = text[:-2], 1e3
    elif text.endswith("ns"):
        text = text[:-2]
    try:
        return float(text) * scale
    except ValueError:
        raise FaultPlanError(f"bad time {text!r} (expected e.g. 1.2ms, 60us, 5000)") from None


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault action.

    ``target`` is a link name (e.g. ``"s0p4->s16p0"``, as printed by
    ``Link.name``) or a switch (``"s16"`` / ``"sw16"``), which the
    injector expands to the switch's attached links.  The degrade knobs
    apply only to ``action="degrade"``.
    """

    time: float
    action: str
    target: str
    #: multiply the link bandwidth (degrade); 1.0 = unchanged.
    bandwidth_factor: float = 1.0
    #: add to the link propagation delay in ns (degrade).
    extra_delay: float = 0.0
    #: per-packet corruption-drop probability in [0, 1) (degrade).
    drop_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise FaultPlanError(
                f"unknown fault action {self.action!r}; choose from {ACTIONS}"
            )
        if self.time < 0:
            raise FaultPlanError(f"fault time must be >= 0, got {self.time}")
        if self.bandwidth_factor <= 0:
            raise FaultPlanError(
                f"bandwidth_factor must be positive, got {self.bandwidth_factor}"
            )
        if not 0.0 <= self.drop_prob < 1.0:
            raise FaultPlanError(f"drop_prob must be in [0, 1), got {self.drop_prob}")
        if self.extra_delay < 0:
            raise FaultPlanError(f"extra_delay must be >= 0, got {self.extra_delay}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "time": self.time,
            "action": self.action,
            "target": self.target,
            "bandwidth_factor": self.bandwidth_factor,
            "extra_delay": self.extra_delay,
            "drop_prob": self.drop_prob,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultEvent":
        return cls(
            time=float(data["time"]),
            action=str(data["action"]),
            target=str(data["target"]),
            bandwidth_factor=float(data.get("bandwidth_factor", 1.0)),
            extra_delay=float(data.get("extra_delay", 0.0)),
            drop_prob=float(data.get("drop_prob", 0.0)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of fabric faults.

    Frozen and hashable so it can ride on frozen
    :class:`~repro.experiments.sweep.SimJob` cells, cross process
    boundaries by pickle, and contribute to cache keys via
    :meth:`to_dict` (which deliberately **excludes** :attr:`name`: the
    label is cosmetic; two plans with identical content are the same
    experiment).

    Event times are expressed at ``time_scale=1.0``;
    :func:`repro.experiments.runner.run_case` applies
    :meth:`scaled` automatically so a plan stays aligned with the
    traffic pattern at every scale.
    """

    events: Tuple[FaultEvent, ...] = ()
    #: seeds the corruption-drop RNG (degraded links).
    seed: int = 0
    #: delay (ns) from a link-state change to the deterministic-table
    #: recomputation; ``None`` disables re-routing entirely (``det``
    #: then drops unroutable traffic at the source for the fault's
    #: whole duration).
    reroute_delay: Optional[float] = DEFAULT_REROUTE_DELAY
    #: cosmetic label (experiment scenario name); NOT part of
    #: :meth:`to_dict`, so it never splits the cache.
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        if self.reroute_delay is not None and self.reroute_delay < 0:
            raise FaultPlanError(
                f"reroute_delay must be >= 0 or None, got {self.reroute_delay}"
            )

    # -- serialization (cache keys + results) ---------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "events": [ev.to_dict() for ev in self.events],
            "seed": self.seed,
            "reroute_delay": self.reroute_delay,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any], name: str = "") -> "FaultPlan":
        return cls(
            events=tuple(FaultEvent.from_dict(e) for e in data.get("events", ())),
            seed=int(data.get("seed", 0)),
            reroute_delay=(
                None
                if data.get("reroute_delay") is None
                else float(data["reroute_delay"])
            ),
            name=name,
        )

    def scaled(self, factor: float) -> "FaultPlan":
        """The same plan with every time (event times and the re-route
        delay) multiplied by ``factor`` — how ``time_scale`` shrinks a
        plan together with the traffic pattern."""
        if factor == 1.0:
            return self
        if factor <= 0:
            raise FaultPlanError(f"scale factor must be positive, got {factor}")
        return FaultPlan(
            events=tuple(
                FaultEvent(
                    time=ev.time * factor,
                    action=ev.action,
                    target=ev.target,
                    bandwidth_factor=ev.bandwidth_factor,
                    extra_delay=ev.extra_delay * factor,
                    drop_prob=ev.drop_prob,
                )
                for ev in self.events
            ),
            seed=self.seed,
            reroute_delay=(
                None if self.reroute_delay is None else self.reroute_delay * factor
            ),
            name=self.name,
        )

    # -- the CLI spec grammar -------------------------------------------
    @classmethod
    def parse(cls, spec: str, name: str = "") -> "FaultPlan":
        """Parse the ``--faults`` spec grammar (docs/faults.md)::

            spec    := clause (';' clause)*
            clause  := 'seed=' INT
                     | 'reroute=' (TIME | 'none')
                     | ACTION ':' TARGET '@' TIME [':' OPTS]
            ACTION  := down|up|kill|degrade|restore
            OPTS    := KEY '=' VALUE (',' KEY '=' VALUE)*   # degrade only
            KEY     := bw (bandwidth factor) | delay (extra, TIME)
                     | drop (probability)
            TIME    := FLOAT ['us'|'ms'|'ns']               # default ns

        Example: ``"down:s0p4->s16p0@1.2ms;up:s0p4->s16p0@1.5ms"`` —
        a transient flap of the first leaf's first uplink.
        """
        events: List[FaultEvent] = []
        seed = 0
        reroute: Optional[float] = DEFAULT_REROUTE_DELAY
        for clause in spec.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            if clause.startswith("seed="):
                try:
                    seed = int(clause[5:])
                except ValueError:
                    raise FaultPlanError(f"bad seed clause {clause!r}") from None
                continue
            if clause.startswith("reroute="):
                value = clause[8:].strip()
                reroute = None if value == "none" else _parse_time(value)
                continue
            action, sep, rest = clause.partition(":")
            if not sep or action not in ACTIONS:
                raise FaultPlanError(
                    f"bad fault clause {clause!r}: expected "
                    f"'<action>:<target>@<time>' with action in {ACTIONS}"
                )
            target, sep, rest = rest.partition("@")
            if not sep or not target:
                raise FaultPlanError(
                    f"bad fault clause {clause!r}: missing '@<time>'"
                )
            when, _sep, opts = rest.partition(":")
            kwargs: Dict[str, float] = {}
            if opts:
                if action != "degrade":
                    raise FaultPlanError(
                        f"options {opts!r} are only valid on 'degrade' clauses"
                    )
                for item in opts.split(","):
                    key, sep, value = item.partition("=")
                    key = key.strip()
                    if not sep:
                        raise FaultPlanError(f"bad degrade option {item!r}")
                    if key == "bw":
                        kwargs["bandwidth_factor"] = float(value)
                    elif key == "delay":
                        kwargs["extra_delay"] = _parse_time(value)
                    elif key == "drop":
                        kwargs["drop_prob"] = float(value)
                    else:
                        raise FaultPlanError(
                            f"unknown degrade option {key!r} (bw/delay/drop)"
                        )
            events.append(
                FaultEvent(
                    time=_parse_time(when), action=action, target=target, **kwargs
                )
            )
        if not events:
            raise FaultPlanError(f"fault spec {spec!r} contains no fault events")
        return cls(events=tuple(events), seed=seed, reroute_delay=reroute, name=name)

    def label(self) -> str:
        return self.name or f"{len(self.events)}ev"


class FaultInjector:
    """Applies one :class:`FaultPlan` to one built fabric.

    Armed by :func:`repro.network.fabric.build_fabric` (never present
    on a fault-free fabric, so the no-plan hot path pays exactly one
    ``None`` check per packet delivery).  The injector owns all fault
    bookkeeping:

    * scheduling — one engine event per plan entry, switch targets
      expanded to their attached links at apply time;
    * routing reaction — immediate
      :meth:`~repro.network.routing.RoutingPolicy.on_link_down`
      notifications (adaptive/flowlet exclude dead candidates on the
      very next decision) and a deterministic-table recomputation over
      the *surviving* links ``reroute_delay`` ns later (modelling the
      fabric manager's sweep);
    * source protection — per-node unroutable-destination sets
      (``EndNode.fault_doomed``) so generated traffic to a partitioned
      destination becomes a traced source drop instead of wedging the
      lossless fabric;
    * the expected-loss ledger the invariant guard balances against
      (:meth:`packets_lost`, per-link drop counters) and the
      trace/telemetry surface (:attr:`recorder`, :meth:`snapshot`,
      :meth:`windows`).
    """

    def __init__(self, fabric, plan: FaultPlan) -> None:
        self.fabric = fabric
        self.plan = plan
        #: ``record(kind, where, dest, detail)`` hook; wired by
        #: :meth:`repro.metrics.trace.ProtocolTrace.attach`.
        self.recorder: Optional[Callable[..., None]] = None
        #: applied link-level actions: {"time", "action", "target"}.
        self.log: List[Dict[str, Any]] = []
        #: names of links currently down (killed ones included).
        self.down: set = set()
        #: names of permanently failed links (never restorable).
        self.killed: set = set()
        #: names of links with an active degrade.
        self.degraded: set = set()
        self._drop_rng = random.Random(plan.seed)
        self._by_name = {lk.name: lk for lk in fabric.links}
        self._sw_by_id = {
            spec.id: sw for spec, sw in zip(fabric.topo.switches, fabric.switches)
        }
        self._id_of = {id(sw): sid for sid, sw in self._sw_by_id.items()}
        self._armed = False

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------
    def arm(self) -> "FaultInjector":
        """Validate the plan against this fabric, install the drop
        hooks, and schedule every fault event.  Call once."""
        if self._armed:
            raise RuntimeError("fault injector already armed")
        self._armed = True
        for ev in self.plan.events:
            self._targets(ev)  # raises FaultPlanError on unknown targets
        for lk in self.fabric.links:
            lk._wire = set()
            lk.on_drop = self._on_wire_drop
        for node in self.fabric.nodes:
            node.fault_doomed = None
            node.on_fault_drop = self._on_source_drop
        sim = self.fabric.sim
        for ev in self.plan.events:
            sim.post(ev.time, self._apply, ev)
        return self

    def _targets(self, ev: FaultEvent) -> List[Any]:
        """Expand an event target to concrete links."""
        lk = self._by_name.get(ev.target)
        if lk is not None:
            return [lk]
        sid = self._switch_id(ev.target)
        if sid is not None:
            sw = self._sw_by_id.get(sid)
            if sw is None:
                raise FaultPlanError(
                    f"fault target {ev.target!r}: no switch {sid} in this fabric"
                )
            incoming = [
                link
                for link in self.fabric.links
                if getattr(link.rx, "switch", None) is sw
            ]
            outgoing = [
                link
                for link in self.fabric.links
                if getattr(link.tx, "switch", None) is sw
            ]
            if ev.action == "down":
                # stop accepting new traffic (incoming links down);
                # the switch still empties its queues.
                return incoming
            return incoming + outgoing
        raise FaultPlanError(
            f"unknown fault target {ev.target!r}: not a link name or a "
            f"switch ('sN'); this fabric has {len(self._by_name)} link(s)"
        )

    @staticmethod
    def _switch_id(target: str) -> Optional[int]:
        body = target[2:] if target.startswith("sw") else (
            target[1:] if target.startswith("s") else None
        )
        if body is not None and body.isdigit():
            return int(body)
        return None

    # ------------------------------------------------------------------
    # applying events
    # ------------------------------------------------------------------
    def _apply(self, ev: FaultEvent) -> None:
        action = ev.action
        for lk in self._targets(ev):
            if action in ("down", "kill"):
                self._link_down(lk, permanent=action == "kill")
            elif action == "up":
                self._link_up(lk)
            elif action == "degrade":
                self._degrade(lk, ev)
            elif action == "restore":
                self._restore(lk)

    def _log_action(self, action: str, target: str) -> None:
        self.log.append(
            {"time": self.fabric.sim.now, "action": action, "target": target}
        )

    def _record(self, kind: str, where: str, dest=None, detail: str = "") -> None:
        rec = self.recorder
        if rec is not None:
            rec(kind, where, dest, detail)

    def _link_down(self, lk, permanent: bool) -> None:
        name = lk.name
        if permanent:
            self.killed.add(name)
        if name in self.down:
            return  # already down; possibly just upgraded to killed
        self.down.add(name)
        lk.fail()
        tx = lk.tx
        sw = getattr(tx, "switch", None)
        if sw is not None:  # tx is a switch OutputPort
            sw.policy.on_link_down(tx.index)
        kind = "link-kill" if permanent else "link-down"
        self._log_action("kill" if permanent else "down", name)
        self._record(kind, name)
        self._topology_changed()

    def _link_up(self, lk) -> None:
        name = lk.name
        if name in self.killed or name not in self.down:
            return  # killed links never come back; idempotent ups
        self.down.discard(name)
        lk.restore()
        tx = lk.tx
        sw = getattr(tx, "switch", None)
        if sw is not None:
            sw.policy.on_link_up(tx.index)
        self._log_action("up", name)
        self._record("link-up", name)
        self._topology_changed()

    def _degrade(self, lk, ev: FaultEvent) -> None:
        self.degraded.add(lk.name)
        lk.degrade(
            bandwidth_factor=ev.bandwidth_factor,
            extra_delay=ev.extra_delay,
            drop_prob=ev.drop_prob,
            rng=self._drop_rng if ev.drop_prob > 0.0 else None,
        )
        self._log_action("degrade", lk.name)
        self._record(
            "link-degrade",
            lk.name,
            detail=f"bw={ev.bandwidth_factor},delay={ev.extra_delay},drop={ev.drop_prob}",
        )

    def _restore(self, lk) -> None:
        if lk.name not in self.degraded:
            return
        self.degraded.discard(lk.name)
        lk.clear_degrade()
        self._log_action("restore", lk.name)
        self._record("link-restore", lk.name)

    # ------------------------------------------------------------------
    # routing reaction
    # ------------------------------------------------------------------
    def _topology_changed(self) -> None:
        self._recompute_doomed()
        delay = self.plan.reroute_delay
        if delay is not None:
            sim = self.fabric.sim
            sim.post(sim.now + delay, self._reroute)

    def _reroute(self) -> None:
        """Recompute every deterministic table over the surviving links
        (the fabric manager's sweep), then wake everything that may
        have been parked on a dead route."""
        changed = self._recompute_tables()
        self._recompute_doomed()
        self._log_action("reroute", f"{changed} route(s)")
        self._record("reroute", "fabric", detail=f"{changed} route(s) updated")
        if not changed:
            return
        for sw in self.fabric.switches:
            sw.policy.rerouted = True
            for port in sw.input_ports:
                port.scheme.invalidate_heads()
            sw.kick()
        for node in self.fabric.nodes:
            node.pump()
            node.kick_injection()

    def _live_ports(self, sw, dst: int) -> Tuple[int, ...]:
        """Output ports the routing layer may use at ``sw`` for ``dst``
        (the policy's minimal candidates, or the det table port)."""
        pol = sw.policy
        cands = None if pol.candidates is None else pol.candidates.get(dst)
        if cands is not None:
            return cands
        port = pol.table._table.get(dst)
        return () if port is None else (port,)

    def _recompute_tables(self) -> int:
        """Deterministic re-route over the live links: the lowest
        min-hop port (:func:`repro.network.routing.min_hop_ports`, the
        walk behind ``build_routing``) merged in place into every
        switch's det table.  Destinations a switch can no longer reach
        -- partitioned, or the downlink itself dead -- keep their old
        (dead) route; the per-node doomed sets make sources drop that
        traffic instead.  Returns the number of table entries that
        changed."""
        from repro.network.routing import min_hop_ports  # repro.network imports repro.sim

        links: Dict[int, List[Tuple[int, int]]] = {sid: [] for sid in self._sw_by_id}
        attach: Dict[int, Tuple[int, int]] = {}
        for sid, sw in self._sw_by_id.items():
            for p, op in enumerate(sw.output_ports):
                link = op.link_out
                if link is None or not link.up:
                    continue
                other = getattr(link.rx, "switch", None)
                if other is None:
                    attach[link.rx.id] = (sid, p)
                else:
                    links[sid].append((p, self._id_of[id(other)]))

        changed = 0
        for (sid, dst), ports in min_hop_ports(links, attach).items():
            table = self._sw_by_id[sid].policy.table._table
            if table.get(dst) != ports[0]:
                table[dst] = ports[0]
                changed += 1
        return changed

    # ------------------------------------------------------------------
    # source protection (unroutable destinations)
    # ------------------------------------------------------------------
    def _recompute_doomed(self) -> None:
        """Refresh every node's unroutable-destination set: a
        destination is doomed for a node when no sequence of live,
        routing-usable ports connects them.  ``None`` (everything
        reachable) keeps the generation hot path on a single check."""
        fabric = self.fabric
        if not self.down:
            for node in fabric.nodes:
                node.fault_doomed = None
            return
        num = fabric.topo.num_nodes
        reaching = [self._switches_reaching(dst) for dst in range(num)]
        for node in fabric.nodes:
            up = node.uplink
            if up is None or not up.up:
                doomed = set(range(num))
                doomed.discard(node.id)
                node.fault_doomed = doomed
                continue
            attach = getattr(up.rx, "switch", None)
            akey = id(attach)
            doomed = {
                dst
                for dst in range(num)
                if dst != node.id and akey not in reaching[dst]
            }
            node.fault_doomed = doomed if doomed else None

    def _switches_reaching(self, dst: int) -> set:
        """``id(switch)`` set of switches that can deliver to ``dst``
        through live links along routing-usable ports."""
        edges_in: Dict[int, List[Any]] = {}
        seeds: List[Any] = []
        for sw in self.fabric.switches:
            for p in self._live_ports(sw, dst):
                link = sw.output_ports[p].link_out
                if link is None or not link.up:
                    continue
                nxt = getattr(link.rx, "switch", None)
                if nxt is None:
                    if link.rx.id == dst:
                        seeds.append(sw)
                else:
                    edges_in.setdefault(id(nxt), []).append(sw)
        reach: set = set()
        stack = seeds
        while stack:
            sw = stack.pop()
            key = id(sw)
            if key in reach:
                continue
            reach.add(key)
            stack.extend(edges_in.get(key, ()))
        return reach

    # ------------------------------------------------------------------
    # drop hooks (ledger + trace)
    # ------------------------------------------------------------------
    def _on_wire_drop(self, link, pkt, kind: str) -> None:
        self._record(kind, link.name, pkt.dst, f"src={pkt.src}")

    def _on_source_drop(self, node, pkt) -> None:
        self._record("fault-source-drop", f"node{node.id}", pkt.dst)

    # ------------------------------------------------------------------
    # accounting surface
    # ------------------------------------------------------------------
    def wire_drops(self) -> int:
        return sum(lk.packets_dropped for lk in self.fabric.links)

    def wire_bytes_dropped(self) -> int:
        return sum(lk.bytes_dropped for lk in self.fabric.links)

    def source_drops(self) -> int:
        return sum(n.source_drops for n in self.fabric.nodes)

    def packets_lost(self) -> int:
        """Total expected loss (the guard's ledger term): packets
        dropped on failing/degraded wires plus source drops of
        unroutable traffic."""
        return self.wire_drops() + self.source_drops()

    def windows(self) -> List[Tuple[float, Optional[float]]]:
        """Per-target fault windows (start, end) from the applied log;
        an interval still open at the end of the run has ``end=None``.
        Telemetry uses these for "born during a fault" attribution."""
        out: List[Tuple[float, Optional[float]]] = []
        open_: Dict[str, float] = {}
        for entry in self.log:
            action, target, t = entry["action"], entry["target"], entry["time"]
            if action in ("down", "kill", "degrade"):
                open_.setdefault(target, t)
            elif action in ("up", "restore"):
                t0 = open_.pop(target, None)
                if t0 is not None:
                    out.append((t0, t))
        out.extend((t0, None) for t0 in open_.values())
        out.sort(key=lambda w: w[0])
        return out

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe fault state: rides on CaseResults, the telemetry
        bundle and the watchdog dump.  Like the cache key, it leaves out
        the plan's cosmetic name, so equal plans give equal bytes."""
        doomed = {
            str(n.id): sorted(n.fault_doomed)
            for n in self.fabric.nodes
            if n.fault_doomed
        }
        return {
            "plan": self.plan.to_dict(),
            "applied": list(self.log),
            "links_down": sorted(self.down),
            "killed": sorted(self.killed),
            "degraded": sorted(self.degraded),
            "wire_drops": self.wire_drops(),
            "wire_bytes_dropped": self.wire_bytes_dropped(),
            "source_drops": self.source_drops(),
            "doomed": doomed,
        }
