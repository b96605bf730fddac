"""Routing: deterministic tables and the pluggable policy layer.

The paper's switches use "distributed deterministic routing
(InfiniBand being a prominent example) ... table-based" (§III-A,
Table I).  At runtime a switch owns a :class:`RoutingTable`: a plain
destination → output-port map, queried once per packet head.

:func:`build_routing` derives such tables for *arbitrary* topologies by
deterministic BFS (lowest-port tie-break).  The fat-tree builders ship
their own DET tables (see :mod:`repro.network.topology`); BFS routing
is used for ad-hoc test topologies and as a differential-testing
baseline (both must deliver every packet).

Routing policies
----------------
Since the follow-on question of Rocher-Gonzalez et al. — does adaptive
routing help or hurt under congestion management? — the *choice* among
minimal output ports is a pluggable :class:`RoutingPolicy`, mirroring
the congestion-control scheme registry of :mod:`repro.core.ccfit`:

* ``det`` — :class:`DetRoutingPolicy`, the paper's table-based DET
  (byte-identical golden reference; the default everywhere);
* ``ecmp`` — :class:`EcmpRoutingPolicy`, deterministic (src, dst) hash
  over the minimal candidate set;
* ``adaptive`` — :class:`AdaptiveRoutingPolicy`, least-occupied
  candidate by downstream buffer occupancy + local serialisation
  backlog;
* ``flowlet`` — :class:`FlowletRoutingPolicy`, adaptive re-selection
  only after a per-flow idle gap (``CCParams.flowlet_gap``), so
  packet bursts stay on one path.

Policies are *per-switch* objects built from a
:class:`RoutingPolicySpec` registered in :data:`ROUTING_POLICIES` (a
:class:`repro.registry.Registry`); the CLI ``--routing`` flag, the sweep engine and the invariant guard all read the live
registry.  Every policy restricts itself to the topology's minimal
candidate sets (:meth:`repro.network.topology.Topology.candidates`),
so delivery is loop-free by construction; the congestion-tree control
plane always anchors on the deterministic port
(:meth:`RoutingPolicy.control_port`), keeping tree announcements
stable while the data path adapts.  See docs/routing.md.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.network.topology import Topology, TopologyError
from repro.registry import Registry

__all__ = [
    "RoutingTable",
    "build_routing",
    "min_hop_ports",
    "RoutingPolicy",
    "DetRoutingPolicy",
    "EcmpRoutingPolicy",
    "AdaptiveRoutingPolicy",
    "FlowletRoutingPolicy",
    "RoutingPolicySpec",
    "ROUTING_POLICIES",
]


class RoutingTable:
    """Per-switch destination → output-port map."""

    __slots__ = ("switch_id", "_table", "owner")

    def __init__(self, switch_id: int, table: Dict[int, int]) -> None:
        self.switch_id = switch_id
        self._table = table
        #: the live Switch this table routes for (set by
        #: ``Switch.__init__``); used only to stamp lookup errors with
        #: the switch name and the current simulated time.
        self.owner: Any = None

    def lookup(self, dst: int) -> int:
        """Output port for destination ``dst``.

        Raises :class:`~repro.network.topology.TopologyError` naming
        the switch, destination, endpoints and simulated time for
        unroutable destinations — a configuration error, never
        expected at runtime.
        """
        try:
            return self._table[dst]
        except KeyError:
            context = ""
            owner = self.owner
            if owner is not None:
                context = f" at {owner.name}, t={owner.sim.now}"
            raise TopologyError(
                f"switch {self.switch_id} has no route for destination "
                f"{dst} (table covers {len(self._table)} "
                f"destination(s)){context}"
            ) from None

    def __contains__(self, dst: int) -> bool:
        return dst in self._table

    def __len__(self) -> int:
        return len(self._table)

    @classmethod
    def from_topology(cls, topo: Topology, switch_id: int) -> "RoutingTable":
        return cls(switch_id, topo.routes_by_switch().get(switch_id, {}))


def min_hop_ports(
    links: Dict[int, List[Tuple[int, int]]],
    attach: Dict[int, Tuple[int, int]],
) -> Dict[Tuple[int, int], Tuple[int, ...]]:
    """The one backward min-hop walk: ``(switch, dst) -> `` the sorted
    output ports that bring a packet one hop closer to node ``dst``.

    ``links`` is a directed port adjacency, ``switch -> [(out_port,
    neighbour switch)]`` (a cable is two entries, a dead direction is
    simply absent); ``attach`` is ``dst -> (switch, port)``.  One BFS
    per attach switch, backwards along the links; at that switch the
    only candidate is the node's own port.  A pair that cannot reach
    ``dst`` has no entry -- what that means is the caller's policy.
    The first port of an entry is the deterministic (lowest-port) route.
    """
    into: Dict[int, List[int]] = {sw: [] for sw in links}
    for sw, ports in links.items():
        for _port, other in ports:
            into[other].append(sw)
    toward: Dict[int, Dict[int, Tuple[int, ...]]] = {}  # attach switch -> switch -> ports
    index: Dict[Tuple[int, int], Tuple[int, ...]] = {}
    for dst in sorted(attach):
        root, port = attach[dst]
        closer = toward.get(root)
        if closer is None:
            dist = {root: 0}
            frontier = deque([root])
            while frontier:
                sw = frontier.popleft()
                for other in into[sw]:
                    if other not in dist:
                        dist[other] = dist[sw] + 1
                        frontier.append(other)
            closer = toward[root] = {
                sw: tuple(sorted(p for p, other in links[sw] if dist.get(other) == d - 1))
                for sw, d in dist.items()
                if sw != root
            }
        for sw in links:
            if sw == root:
                index[(sw, dst)] = (port,)
            elif sw in closer:
                index[(sw, dst)] = closer[sw]
    return index


def build_routing(topo: Topology) -> Dict[Tuple[int, int], int]:
    """Compute deterministic shortest-path routes for any topology.

    The lowest of :func:`min_hop_ports` at each switch, for every
    destination node.  Returns the same ``(switch_id, dst) ->
    out_port`` mapping shape that
    :class:`repro.network.topology.Topology` stores, so callers can do
    ``topo.routes = build_routing(topo)`` for hand-built topologies.
    """
    ports = min_hop_ports(*topo.adjacency())
    routes: Dict[Tuple[int, int], int] = {}
    for dst in range(topo.num_nodes):
        for sw in topo.switches:
            toward = ports.get((sw.id, dst))
            if toward is None:
                raise TopologyError(f"switch {sw.id} cannot reach destination {dst}")
            routes[(sw.id, dst)] = toward[0]
    return routes


# ----------------------------------------------------------------------
# routing policies
# ----------------------------------------------------------------------
class RoutingPolicy:
    """Per-switch routing decision object (one instance per switch).

    The contract mirrors
    :class:`repro.network.queueing.CongestionControlScheme`: devices
    never branch on concrete policy classes — they call the hooks:

    * :meth:`route` — the data path, once per packet head;
    * :meth:`select_output` — the *only* method most policies override:
      pick one port from the minimal candidate set;
    * :meth:`control_port` — where congestion-tree state for a
      destination lives.  Always the deterministic table port, so CAM
      announcements, root-CFQ hot marks and BECN forwarding stay on
      one stable anchor per (switch, destination) even while the data
      path spreads packets (a modelling approximation, documented in
      docs/routing.md);
    * :meth:`snapshot` / :meth:`audit` — introspection for the
      watchdog dump and the invariant guard.

    ``candidates`` maps ``dst -> minimal output ports`` (sorted), from
    :meth:`repro.network.topology.Topology.candidate_map`; it may be
    ``None`` for policies that never consult it (``det``).
    """

    #: registry name, set on subclasses.
    name = "base"

    def __init__(
        self,
        table: RoutingTable,
        candidates: Optional[Dict[int, Tuple[int, ...]]] = None,
        params=None,
    ) -> None:
        self.table = table
        self.candidates = candidates
        self.params = params
        #: data-path decisions that deviated from the DET port.
        self.diverted = 0
        #: data-path decisions total (policies that route adaptively).
        self.routed = 0
        #: output ports whose link is currently down (fault injection);
        #: excluded from candidate sets on the very next decision.
        self.dead_ports: set = set()
        #: True once a fault re-route rewrote the DET table — relaxes
        #: the audit's DET-port-is-minimal invariant (recovery routes
        #: over the surviving links are deliberately non-minimal).
        self.rerouted = False

    # -- data path -----------------------------------------------------
    def route(self, port, pkt) -> int:
        """Output port for ``pkt`` at input ``port`` (the hot path)."""
        cands = None if self.candidates is None else self.candidates.get(pkt.dst)
        if cands is None or len(cands) < 2:
            return self.table.lookup(pkt.dst)
        dead = self.dead_ports
        if dead:
            live = tuple(c for c in cands if c not in dead)
            # All candidates dead: fall through with the original set
            # (the source-side doom check stops new traffic; whatever
            # is already inside the fabric waits for a re-route).
            if live:
                cands = live
        if len(cands) == 1:
            out = cands[0]
        else:
            out = self.select_output(port.switch, pkt, cands)
        self.routed += 1
        if out != self.table.lookup(pkt.dst):
            self.diverted += 1
        return out

    def route_for(self, port) -> Callable[[Any], int]:
        """A specialised per-port route callable; installed over
        ``InputPort.route`` by ``Switch.__init__`` so the per-packet
        dispatch cost matches the pre-policy direct table lookup."""
        return lambda pkt: self.route(port, pkt)

    def select_output(self, switch, pkt, candidates: Tuple[int, ...]) -> int:
        """Pick one output port from ``candidates`` (len >= 2)."""
        raise NotImplementedError

    # -- control plane -------------------------------------------------
    def control_port(self, dst: int) -> int:
        """The stable per-destination port the congestion-tree protocol
        anchors on (CAM announcements, root-CFQ hot marks, BECN
        forwarding): always the deterministic table port."""
        return self.table.lookup(dst)

    # -- fault notifications (docs/faults.md) --------------------------
    def on_link_down(self, out_port: int) -> None:
        """The link behind ``out_port`` went down: exclude it from
        every candidate set immediately.  ``det`` keeps routing by
        table (its ``route`` never consults ``dead_ports``) until the
        injector's delayed re-route rewrites the table."""
        self.dead_ports.add(out_port)

    def on_link_up(self, out_port: int) -> None:
        """The link behind ``out_port`` came back: candidates may use
        it again on the very next decision."""
        self.dead_ports.discard(out_port)

    # -- introspection -------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe state for watchdog diagnostics."""
        snap: Dict[str, Any] = {
            "policy": self.name,
            "switch": self.table.switch_id,
            "routed": self.routed,
            "diverted": self.diverted,
        }
        # fault state rides only when present, keeping healthy dumps
        # byte-identical to the pre-fault subsystem.
        if self.dead_ports:
            snap["dead_ports"] = sorted(self.dead_ports)
        if self.rerouted:
            snap["rerouted"] = True
        return snap

    def audit(self) -> None:
        """Invariant sweep hook (:mod:`repro.sim.guard`): every
        candidate set must be non-empty and contain the DET port, so
        any adaptive choice stays on a minimal (loop-free) path.  Once
        a fault re-route has rewritten the table (``rerouted``), the
        DET-port-is-minimal clause is waived: recovery routes around
        dead links are deliberately non-minimal."""
        if self.candidates is None:
            return
        for dst, cands in self.candidates.items():
            if not cands:
                raise TopologyError(
                    f"switch {self.table.switch_id}: empty candidate set "
                    f"for destination {dst}"
                )
            if (
                not self.rerouted
                and dst in self.table
                and self.table.lookup(dst) not in cands
            ):
                raise TopologyError(
                    f"switch {self.table.switch_id}: DET port "
                    f"{self.table.lookup(dst)} for destination {dst} is "
                    f"not a minimal candidate {cands}"
                )


class DetRoutingPolicy(RoutingPolicy):
    """The paper's deterministic table-based DET routing, behind the
    policy API.  Byte-identical to the pre-policy switch: the data
    path is exactly one table lookup."""

    name = "det"

    def route(self, port, pkt) -> int:
        return self.table.lookup(pkt.dst)

    def route_for(self, port) -> Callable[[Any], int]:
        lookup = self.table.lookup
        return lambda pkt: lookup(pkt.dst)

    def select_output(self, switch, pkt, candidates: Tuple[int, ...]) -> int:
        return self.table.lookup(pkt.dst)


def _mix(a: int, b: int) -> int:
    """Deterministic 64-bit integer mix (splitmix64 finaliser) — NOT
    Python ``hash()``, whose per-process randomisation would make ECMP
    placement differ between runs and cache entries."""
    x = (a * 0x9E3779B97F4A7C15 + b) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


class EcmpRoutingPolicy(RoutingPolicy):
    """Oblivious multipath: a deterministic hash of (src, dst) picks
    one minimal candidate per flow, spreading distinct flows across
    the upward links while keeping every flow on a single path (no
    reordering)."""

    name = "ecmp"

    def select_output(self, switch, pkt, candidates: Tuple[int, ...]) -> int:
        return candidates[_mix(pkt.src, pkt.dst) % len(candidates)]


class AdaptiveRoutingPolicy(RoutingPolicy):
    """Least-occupied minimal candidate, judged by local state only
    (what real adaptive switches can see): the downstream input
    buffer's occupancy — fresh under send-time credit reservation, see
    :mod:`repro.network.link` — plus the bytes still serialising on
    this switch's own output link.  Lowest port wins ties, so the
    choice is deterministic for a fixed simulation state."""

    name = "adaptive"

    def select_output(self, switch, pkt, candidates: Tuple[int, ...]) -> int:
        best = candidates[0]
        best_score = None
        now = switch.sim.now
        output_ports = switch.output_ports
        for out in candidates:
            link = output_ports[out].link_out
            if link is None:
                continue
            # bytes committed to the far buffer (credit view) ...
            occupancy = getattr(link.rx, "occupancy", None)
            score = float(occupancy()) if occupancy is not None else 0.0
            # ... plus our own serialisation backlog on that link.
            backlog = link.busy_until - now
            if backlog > 0.0:
                score += backlog * link.bandwidth
            if best_score is None or score < best_score:
                best, best_score = out, score
        return best


class FlowletRoutingPolicy(AdaptiveRoutingPolicy):
    """Flowlet switching (Harvard CS145 design): a flow keeps its port
    while packets arrive within ``CCParams.flowlet_gap`` ns of each
    other; an idle gap longer than that ends the flowlet and the next
    packet re-selects adaptively.  Bursts stay in order on one path;
    path choice still tracks congestion at flowlet granularity."""

    name = "flowlet"

    def __init__(self, table, candidates=None, params=None) -> None:
        super().__init__(table, candidates, params)
        self.gap = params.flowlet_gap
        #: (src, dst) -> [last_seen_ns, port]
        self._flows: Dict[Tuple[int, int], list] = {}
        self.flowlets = 0

    def select_output(self, switch, pkt, candidates: Tuple[int, ...]) -> int:
        now = switch.sim.now
        key = (pkt.src, pkt.dst)
        rec = self._flows.get(key)
        if rec is not None and now - rec[0] <= self.gap and rec[1] in candidates:
            rec[0] = now
            return rec[1]
        out = AdaptiveRoutingPolicy.select_output(self, switch, pkt, candidates)
        self._flows[key] = [now, out]
        self.flowlets += 1
        return out

    def snapshot(self) -> Dict[str, Any]:
        snap = super().snapshot()
        snap["flowlets"] = self.flowlets
        snap["gap_ns"] = self.gap
        return snap


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RoutingPolicySpec:
    """A registered routing policy: name + per-switch factory.

    ``factory(table=..., candidates=..., params=...)`` returns one
    :class:`RoutingPolicy` per switch.  ``needs_candidates`` lets the
    fabric builder skip computing the topology's candidate index for
    purely deterministic policies (it is never built for ``det``).
    """

    name: str
    factory: Callable[..., RoutingPolicy]
    needs_candidates: bool = True
    description: str = ""


#: the live routing-policy registry (name -> spec), iterated in
#: registration order so ``det`` comes first.
ROUTING_POLICIES: Registry[RoutingPolicySpec] = Registry("routing policy")

ROUTING_POLICIES.register(RoutingPolicySpec(
    "det", DetRoutingPolicy, needs_candidates=False,
    description="table-based deterministic DET (the paper's routing)",
))
ROUTING_POLICIES.register(RoutingPolicySpec(
    "ecmp", EcmpRoutingPolicy,
    description="deterministic (src,dst)-hash over the minimal candidates",
))
ROUTING_POLICIES.register(RoutingPolicySpec(
    "adaptive", AdaptiveRoutingPolicy,
    description="least-occupied minimal candidate by local queue/credit state",
))
ROUTING_POLICIES.register(RoutingPolicySpec(
    "flowlet", FlowletRoutingPolicy,
    description="adaptive per flowlet: re-select only after an idle gap",
))
