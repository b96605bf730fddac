"""Topology descriptions and builders.

A :class:`Topology` is a pure description (no simulator state): switch
port counts, node attachment points, inter-switch cables, per-link
bandwidths and a complete deterministic routing table — everything
:func:`repro.network.fabric.build_fabric` needs to instantiate a
running network.

Builders provided:

* :func:`k_ary_n_tree` — the fat-tree family used by the paper's
  Config #2 (2-ary 3-tree: 8 nodes / 12 switches) and Config #3
  (4-ary 3-tree: 64 nodes / 48 switches), with the deterministic
  destination-based DET routing of Gomez et al. [33]: at every upward
  stage the up-port is chosen by the corresponding digit of the
  destination address, so all traffic towards one destination converges
  onto a single tree — exactly the behaviour that shapes congestion
  trees in the evaluation.
* :func:`config1_adhoc` — the 2-switch / 7-node network of Fig. 5,
  reconstructed from the prose (see DESIGN.md §2): nodes 0–2 on
  switch 0, nodes 3–6 on switch 1, 2.5 GB/s node links and a 5 GB/s
  inter-switch link; flows F1 (1→4) and F2 (2→4) share the inter-switch
  input port of switch 1 with the victim F0 (0→3), while F5 (5→4) and
  F6 (6→4) own private input ports — the parking-lot setting of §IV-C.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["Topology", "SwitchSpec", "k_ary_n_tree", "config1_adhoc", "TopologyError"]


class TopologyError(ValueError):
    """Raised for malformed topology descriptions."""


@dataclass
class SwitchSpec:
    """Static description of one switch."""

    id: int
    num_ports: int
    #: fat-tree level (0 = leaf) or -1 for ad-hoc topologies.
    level: int = -1
    #: fat-tree digit address, empty for ad-hoc topologies.
    address: Tuple[int, ...] = ()


@dataclass
class Topology:
    """Pure data: who connects to whom, at what speed, routed how."""

    name: str
    num_nodes: int
    switches: List[SwitchSpec]
    #: node_id -> (switch_id, switch_port, bandwidth bytes/ns)
    node_attach: Dict[int, Tuple[int, int, float]]
    #: (sw_a, port_a, sw_b, port_b, bandwidth) — bidirectional cables.
    switch_links: List[Tuple[int, int, int, int, float]]
    #: (switch_id, dst_node) -> output port.
    routes: Dict[Tuple[int, int], int]
    #: free-form extras (e.g. fat-tree (k, n)).
    meta: Dict[str, object] = field(default_factory=dict)
    #: switch crossbar bandwidth (bytes/ns); None = fastest attached
    #: link (Table I: 5 GB/s on Config #1, 2.5 GB/s on the fat trees).
    crossbar_bw: Optional[float] = None
    #: lazily built (switch, port) -> endpoint index backing
    #: :meth:`neighbor` (the 4-ary 3-tree has 256 cables; `path()`
    #: used to re-scan all of them per hop).
    _port_index: Optional[Dict[Tuple[int, int], Tuple[str, int, int]]] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: lazily built (switch, dst) -> minimal-output-candidate index
    #: backing :meth:`candidates` (adaptive routing); never built when
    #: only deterministic routing runs.
    _candidate_index: Optional[Dict[Tuple[int, int], Tuple[int, ...]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def effective_crossbar_bw(self) -> float:
        """Resolve :attr:`crossbar_bw`, defaulting to the fastest link."""
        if self.crossbar_bw is not None:
            return self.crossbar_bw
        bws = [bw for (_s, _p, bw) in self.node_attach.values()]
        bws += [bw for (*_x, bw) in self.switch_links]
        return max(bws)

    # ------------------------------------------------------------------
    @property
    def num_switches(self) -> int:
        return len(self.switches)

    def neighbor(self, switch_id: int, port: int) -> Optional[Tuple[str, int, int]]:
        """What hangs off ``(switch_id, port)``.

        Returns ``("node", node_id, 0)``, ``("switch", other_id,
        other_port)`` or ``None`` for an unused port.  Backed by a
        prebuilt port index (O(1) per lookup); call
        :meth:`invalidate_port_index` after editing ``node_attach`` or
        ``switch_links`` in place.
        """
        index = self._port_index
        if index is None:
            index = self._port_index = self._build_port_index()
        return index.get((switch_id, port))

    def _build_port_index(self) -> Dict[Tuple[int, int], Tuple[str, int, int]]:
        index: Dict[Tuple[int, int], Tuple[str, int, int]] = {}
        for a, pa, b, pb, _bw in reversed(self.switch_links):
            index[(a, pa)] = ("switch", b, pb)
            index[(b, pb)] = ("switch", a, pa)
        # node attachments win over cables on a (bogus) shared port,
        # matching the historical scan order; validate() rejects such
        # topologies anyway.
        for nid, (sw, p, _bw) in self.node_attach.items():
            index[(sw, p)] = ("node", nid, 0)
        return index

    def invalidate_port_index(self) -> None:
        """Drop the cached port/candidate indexes (after in-place
        wiring edits)."""
        self._port_index = None
        self._candidate_index = None

    # ------------------------------------------------------------------
    # fault notifications (docs/faults.md)
    # ------------------------------------------------------------------
    def on_link_down(self, link_name: str) -> None:
        """A fabric built from this description lost ``link_name``.

        The description itself is pure data, so this only records the
        outage (``meta["links_down"]``) for diagnostics; the live
        consequences (routing recomputation, candidate exclusion) are
        handled by :class:`repro.sim.faults.FaultInjector` on the
        running fabric."""
        down = self.meta.setdefault("links_down", [])
        if link_name not in down:
            down.append(link_name)

    def on_link_up(self, link_name: str) -> None:
        """``link_name`` came back; drop it from the outage record."""
        down = self.meta.get("links_down")
        if down and link_name in down:
            down.remove(link_name)

    # ------------------------------------------------------------------
    # minimal-path output candidates (adaptive routing)
    # ------------------------------------------------------------------
    def candidates(self, switch_id: int, dst: int) -> Tuple[int, ...]:
        """Every output port of ``switch_id`` on a *minimal* path to
        node ``dst``, sorted ascending.

        Computed from per-destination BFS distances over the switch
        graph: a port qualifies when its neighbour switch is strictly
        closer to the destination's attach switch (or when it is the
        destination's own attach port).  Any walk that only crosses
        such ports monotonically decreases the remaining distance, so
        adaptive policies choosing among candidates are loop-free by
        construction.  On a k-ary n-tree this yields exactly the DET
        structure the paper assumes: all ``k`` up-ports while
        ascending, the unique down port while descending — the
        "upward candidate set" of Rocher-Gonzalez et al.

        Raises :class:`TopologyError` when ``dst`` is unreachable from
        ``switch_id``.  The index is built lazily on first use and
        cached; call :meth:`invalidate_port_index` after editing the
        wiring in place.
        """
        index = self._candidates()
        try:
            return index[(switch_id, dst)]
        except KeyError:
            raise TopologyError(
                f"switch {switch_id} has no minimal-path candidates for "
                f"destination {dst}"
            ) from None

    def candidate_map(self, switch_id: int) -> Dict[int, Tuple[int, ...]]:
        """``dst -> candidate ports`` for one switch (the per-switch
        slice of :meth:`candidates`, handed to routing policies)."""
        return self.candidate_maps().get(switch_id, {})

    def candidate_maps(self) -> Dict[int, Dict[int, Tuple[int, ...]]]:
        """:meth:`candidate_map` of every switch, from one pass over
        the index (the fabric builder wants all of them)."""
        maps: Dict[int, Dict[int, Tuple[int, ...]]] = {s.id: {} for s in self.switches}
        for (sw, dst), ports in self._candidates().items():
            maps[sw][dst] = ports
        return maps

    def _candidates(self) -> Dict[Tuple[int, int], Tuple[int, ...]]:
        """The (switch, dst) candidate index, built on first use."""
        index = self._candidate_index
        if index is None:
            from repro.network.routing import min_hop_ports  # imports this module

            index = self._candidate_index = min_hop_ports(*self.adjacency())
        return index

    def routes_by_switch(self) -> Dict[int, Dict[int, int]]:
        """:attr:`routes` regrouped as ``switch -> {dst: out_port}``:
        the table of every switch, from one pass.  The dicts are new on
        every call, the caller's to keep and edit."""
        tables: Dict[int, Dict[int, int]] = {s.id: {} for s in self.switches}
        for (sw, dst), port in self.routes.items():
            tables.setdefault(sw, {})[dst] = port
        return tables

    def adjacency(self) -> Tuple[Dict[int, List[Tuple[int, int]]], Dict[int, Tuple[int, int]]]:
        """The wiring as :func:`repro.network.routing.min_hop_ports`
        reads it: ``switch -> [(out_port, neighbour switch)]`` with
        both directions of every cable, and ``node -> (switch, port)``."""
        links: Dict[int, List[Tuple[int, int]]] = {s.id: [] for s in self.switches}
        for a, pa, b, pb, _bw in self.switch_links:
            links[a].append((pa, b))
            links[b].append((pb, a))
        return links, {nid: (sw, p) for nid, (sw, p, _bw) in self.node_attach.items()}

    def path(self, src: int, dst: int) -> List[Tuple[int, int]]:
        """Follow the routing tables from ``src`` to ``dst``.

        Returns the list of ``(switch_id, out_port)`` hops.  Raises
        :class:`TopologyError` on a routing loop or dead end — used by
        the validation tests.
        """
        if src == dst:
            return []
        sw, port, _bw = self.node_attach[src]
        hops: List[Tuple[int, int]] = []
        seen = set()
        where: Optional[Tuple[str, int, int]] = ("switch", sw, port)
        while where is not None and where[0] == "switch":
            sw_id = where[1]
            if sw_id in seen:
                raise TopologyError(f"routing loop at switch {sw_id} for {src}->{dst}")
            seen.add(sw_id)
            key = (sw_id, dst)
            if key not in self.routes:
                raise TopologyError(f"no route at switch {sw_id} for dst {dst}")
            out = self.routes[key]
            hops.append((sw_id, out))
            where = self.neighbor(sw_id, out)
        if where is None or where[0] != "node" or where[1] != dst:
            raise TopologyError(f"route {src}->{dst} ends at {where}")
        return hops

    def validate(self) -> None:
        """Check structural sanity and full any-to-any reachability."""
        used: set[Tuple[int, int]] = set()
        for nid, (sw, p, bw) in self.node_attach.items():
            if not (0 <= sw < self.num_switches):
                raise TopologyError(f"node {nid} attached to unknown switch {sw}")
            if not (0 <= p < self.switches[sw].num_ports):
                raise TopologyError(f"node {nid} attached to bad port {p}")
            if (sw, p) in used:
                raise TopologyError(f"port ({sw},{p}) used twice")
            used.add((sw, p))
            if bw <= 0:
                raise TopologyError(f"node {nid} link bandwidth {bw}")
        for a, pa, b, pb, bw in self.switch_links:
            for sw, p in ((a, pa), (b, pb)):
                if not (0 <= sw < self.num_switches):
                    raise TopologyError(f"cable on unknown switch {sw}")
                if not (0 <= p < self.switches[sw].num_ports):
                    raise TopologyError(f"cable on bad port ({sw},{p})")
                if (sw, p) in used:
                    raise TopologyError(f"port ({sw},{p}) used twice")
                used.add((sw, p))
            if bw <= 0:
                raise TopologyError(f"cable ({a},{pa})-({b},{pb}) bandwidth {bw}")
        for src in range(self.num_nodes):
            for dst in range(self.num_nodes):
                if src != dst:
                    self.path(src, dst)


# ----------------------------------------------------------------------
# k-ary n-tree
# ----------------------------------------------------------------------
def _digits(value: int, count: int, k: int) -> Tuple[int, ...]:
    """Base-``k`` digits of ``value``, least-significant first, length ``count``."""
    out = []
    for _ in range(count):
        out.append(value % k)
        value //= k
    return tuple(out)


def k_ary_n_tree(k: int, n: int, bandwidth: float = 2.5, name: Optional[str] = None) -> Topology:
    """Build a k-ary n-tree with DET deterministic routing.

    ``k**n`` nodes, ``n * k**(n-1)`` switches of radix ``2k`` arranged
    in ``n`` levels (level 0 attaches the nodes; the top level uses only
    its ``k`` down ports).  Port layout per switch: ports ``0..k-1`` go
    down (port ``j`` towards the neighbour whose distinguishing digit is
    ``j``), ports ``k..2k-1`` go up (port ``k+j`` towards the level
    above with this switch's free digit set to ``j``).

    Routing (DET, destination-based): a packet for destination ``d``
    (base-k digits ``d_0 d_1 ...``, least significant first — ``d_0``
    is the node's index within its leaf, ``d_{i+1}`` the leaf digits
    ``v_i``) ascends choosing up digit ``d_l`` at level ``l`` until it
    reaches a switch agreeing with the leaf digits ``v`` on all digits
    >= its level, then descends setting digit ``l-1 = v[l-1]`` at each
    step and finally exits on down port ``d_0``.

    Starting the ascent digits at ``d_0`` (not ``v_0``) is what makes
    DET balanced: every destination gets a private descent chain
    (apex → ... → leaf) whose capacity equals the destination's own
    node link, so uniform traffic saturates the fabric instead of
    funnelling each apex switch through a single down port, while all
    traffic towards one destination still converges onto a single tree.
    """
    if k < 2 or n < 1:
        raise TopologyError(f"need k>=2, n>=1, got k={k}, n={n}")
    num_nodes = k**n
    per_level = k ** (n - 1)
    ndigits = n - 1

    def sid(level: int, w: int) -> int:
        return level * per_level + w

    switches = [
        SwitchSpec(id=sid(l, w), num_ports=2 * k, level=l, address=_digits(w, ndigits, k))
        for l in range(n)
        for w in range(per_level)
    ]

    node_attach: Dict[int, Tuple[int, int, float]] = {}
    for node in range(num_nodes):
        leaf_w, down_port = node // k, node % k
        node_attach[node] = (sid(0, leaf_w), down_port, bandwidth)

    switch_links: List[Tuple[int, int, int, int, float]] = []
    for l in range(n - 1):
        for w in range(per_level):
            wd = list(_digits(w, ndigits, k))
            for j in range(k):
                # up port k+j of (l, w) -> level l+1 switch with digit l = j,
                # which receives us on its down port = our digit l.
                wu = wd.copy()
                down_digit = wu[l]
                wu[l] = j
                w_up = sum(d * (k**i) for i, d in enumerate(wu))
                switch_links.append(
                    (sid(l, w), k + j, sid(l + 1, w_up), down_digit, bandwidth)
                )

    routes: Dict[Tuple[int, int], int] = {}
    for l in range(n):
        for w in range(per_level):
            wd = _digits(w, ndigits, k)
            for dst in range(num_nodes):
                d = _digits(dst, n, k)
                v = d[1:]  # leaf digits
                if all(wd[i] == v[i] for i in range(l, ndigits)):
                    # On the destination's down path.
                    out = d[0] if l == 0 else v[l - 1]
                else:
                    out = k + d[l]
                routes[(sid(l, w), dst)] = out

    return Topology(
        name=name or f"{k}-ary {n}-tree",
        num_nodes=num_nodes,
        switches=switches,
        node_attach=node_attach,
        switch_links=switch_links,
        routes=routes,
        meta={"k": k, "n": n},
    )


# ----------------------------------------------------------------------
# Config #1 ad-hoc network (Fig. 5)
# ----------------------------------------------------------------------
def config1_adhoc(
    node_bandwidth: float = 2.5, interswitch_bandwidth: float = 5.0
) -> Topology:
    """The 7-node / 2-switch network of the paper's Config #1.

    * switch 0: ports 0,1,2 -> nodes 0,1,2; port 3 -> switch 1.
    * switch 1: ports 0,1,2,3 -> nodes 3,4,5,6; port 4 -> switch 0.

    The hot spot of Traffic Case #1 is node 4 (switch 1 port 1); the
    victim flow F0 (0→3) shares switch 1's inter-switch input port with
    the remote contributors F1 (1→4) and F2 (2→4).
    """
    switches = [SwitchSpec(id=0, num_ports=4), SwitchSpec(id=1, num_ports=5)]
    node_attach = {
        0: (0, 0, node_bandwidth),
        1: (0, 1, node_bandwidth),
        2: (0, 2, node_bandwidth),
        3: (1, 0, node_bandwidth),
        4: (1, 1, node_bandwidth),
        5: (1, 2, node_bandwidth),
        6: (1, 3, node_bandwidth),
    }
    switch_links = [(0, 3, 1, 4, interswitch_bandwidth)]
    routes: Dict[Tuple[int, int], int] = {}
    for dst in range(7):
        routes[(0, dst)] = dst if dst <= 2 else 3
        routes[(1, dst)] = 4 if dst <= 2 else dst - 3
    return Topology(
        name="config1-adhoc",
        num_nodes=7,
        switches=switches,
        node_attach=node_attach,
        switch_links=switch_links,
        routes=routes,
        meta={"hot_node": 4, "victim_dst": 3},
        crossbar_bw=5.0,
    )
