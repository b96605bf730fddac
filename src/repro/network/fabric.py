"""Fabric assembly: topology + scheme + parameters → a running network.

:func:`build_fabric` instantiates switches, end nodes and links from a
:class:`repro.network.topology.Topology`, wires every endpoint, and
returns a :class:`Fabric` handle exposing the simulator, the devices,
and aggregate statistics.  This is the main entry point of the public
API::

    from repro import build_fabric, k_ary_n_tree
    fabric = build_fabric(k_ary_n_tree(2, 3), scheme="CCFIT", seed=1)
    fabric.nodes[0].offer(...)        # or use repro.traffic generators
    fabric.run(until=10e6)            # 10 ms, under the invariant guard
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.ccfit import SCHEMES, SchemeSpec
from repro.core.params import CCParams
from repro.metrics.collector import Collector
from repro.network.buffers import BUFFER_MODELS
from repro.network.endnode import EndNode
from repro.network.link import Link
from repro.network.routing import ROUTING_POLICIES, RoutingTable
from repro.network.switch import Switch
from repro.network.topology import Topology
from repro.sim.engine import Simulator
from repro.sim.guard import FabricGuard
from repro.sim.rng import RngFactory

__all__ = ["Fabric", "build_fabric"]


@dataclass
class Fabric:
    """A fully wired network ready to simulate."""

    sim: Simulator
    topo: Topology
    params: CCParams
    spec: SchemeSpec
    nodes: List[EndNode]
    switches: List[Switch]
    links: List[Link]
    collector: Collector
    rngs: RngFactory
    #: name of the routing policy every switch runs ("det" unless
    #: overridden — see :mod:`repro.network.routing`).
    routing: str = "det"
    #: name of the buffer model every switch runs ("static" unless
    #: overridden — see :mod:`repro.network.buffers` / docs/buffers.md).
    buffer_model: str = "static"
    #: generators registered by the traffic layer (kept alive here).
    generators: List[object] = field(default_factory=list)
    #: invariant guard every run advances through (:mod:`repro.sim.guard`).
    #: A test that tunes the check cadence or the watchdog's patience
    #: replaces it with a :class:`FabricGuard` of its own.
    guard: FabricGuard = field(init=False)
    #: telemetry sampler (see :mod:`repro.telemetry`); None unless one
    #: was attached.  Its periodic ticks are subtracted from the
    #: ``events`` statistic so results are byte-identical either way.
    telemetry: Optional[object] = None
    #: armed fault injector (:class:`repro.sim.faults.FaultInjector`);
    #: None — the common case — unless the fabric was built with a
    #: :class:`~repro.sim.faults.FaultPlan`.
    faults: Optional[object] = None

    def __post_init__(self) -> None:
        self.guard = FabricGuard(self)

    def run(self, until: float) -> None:
        """Advance the simulation to time ``until`` (ns) through the
        guard: the run is chunked so conservation invariants are swept
        between event batches -- no events are injected, so results
        are those of one unchunked ``sim.run``."""
        self.guard.run_guarded(until)

    # ------------------------------------------------------------------
    # aggregate statistics (used by experiments and tests)
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        s: Dict[str, float] = {
            "delivered_packets": self.collector.delivered_packets,
            "delivered_bytes": self.collector.delivered_bytes,
            "generated_packets": sum(n.packets_generated for n in self.nodes),
            "injected_packets": sum(n.packets_injected for n in self.nodes),
            "fecn_marked": sum(sw.fecn_marked for sw in self.switches),
            "becns_sent": sum(n.becns_sent for n in self.nodes),
            "becns_received": sum(
                n.throttle.becns for n in self.nodes if n.throttle is not None
            ),
            "cfq_alloc_failures": sum(sw.cam_alloc_failures() for sw in self.switches),
            "allocated_cfqs": sum(sw.allocated_cfqs() for sw in self.switches),
            "buffered_bytes": sum(sw.total_buffered_bytes() for sw in self.switches),
            # telemetry sampling is read-only but its periodic ticks do
            # dispatch; exclude them so this count only reflects the
            # simulation itself (byte-identical with telemetry off).
            "events": self.sim.events_dispatched
            - (self.telemetry.ticks if self.telemetry is not None else 0),
        }
        # fault-injection statistics ride only on faulted fabrics, so
        # healthy stats dicts stay byte-identical to the seed.
        if self.faults is not None:
            s["fault_wire_drops"] = self.faults.wire_drops()
            s["fault_source_drops"] = self.faults.source_drops()
            s["fault_link_events"] = len(self.faults.log)
        # PFC/shared-pool statistics likewise ride only on non-static
        # fabrics (static models report no counters).
        for sw in self.switches:
            for key, value in sw.buffer_model.stats().items():
                s[key] = s.get(key, 0.0) + value
        return s

    def in_flight_packets(self) -> int:
        """Packets generated but not yet delivered or lost to an
        injected fault (conservation checks)."""
        in_flight = int(
            sum(n.packets_generated for n in self.nodes)
            - self.collector.delivered_packets
        )
        if self.faults is not None:
            in_flight -= self.faults.packets_lost()
        return in_flight


def build_fabric(
    topo: Topology,
    scheme: str = "CCFIT",
    params: Optional[CCParams] = None,
    seed: int = 0,
    collector: Optional[Collector] = None,
    sim: Optional[Simulator] = None,
    routing: str = "det",
    buffer_model: str = "static",
    faults=None,
) -> Fabric:
    """Instantiate a simulated network.

    Parameters
    ----------
    topo:
        The network description (see :mod:`repro.network.topology`).
    scheme:
        A registered scheme name (:data:`repro.core.ccfit.SCHEMES`):
        ``1Q, VOQsw, VOQnet, FBICM, ITh, CCFIT`` (§IV-A) and more.
    params:
        CC parameters; defaults to the paper's configuration.
    routing:
        A registered routing-policy name (``det``, ``ecmp``,
        ``adaptive``, ``flowlet`` — see :mod:`repro.network.routing`).
        The default ``det`` is the paper's table-based deterministic
        routing and is byte-identical to the pre-policy builder.
    buffer_model:
        A registered buffer-model name (``static``, ``shared`` — see
        :data:`repro.network.buffers.BUFFER_MODELS`): how every
        switch carves up its RAM.  The default ``static`` is the
        paper's per-port partition (docs/buffers.md).
    seed:
        Root seed — identical seeds give identical simulations.
    collector, sim:
        Inject your own metrics collector / engine if needed.
    faults:
        Optional :class:`repro.sim.faults.FaultPlan`: arms a
        :class:`~repro.sim.faults.FaultInjector` on the built fabric
        and schedules every fault event (docs/faults.md).  ``None``
        (the default) builds a fault-free fabric byte-identical to the
        pre-fault builder.
    """
    spec = SCHEMES[scheme]
    params = params if params is not None else CCParams()
    params.validate()
    policy_spec = ROUTING_POLICIES[routing]
    buffer_spec = BUFFER_MODELS[buffer_model]
    sim = sim if sim is not None else Simulator()
    rngs = RngFactory(seed)
    collector = collector if collector is not None else Collector()

    memory = spec.memory_override(params, topo.num_nodes)
    switch_params = params.with_overrides(memory_size=memory)

    nodes = [
        EndNode(
            sim,
            nid,
            topo.num_nodes,
            params,
            staging=spec.ia_staging,
            gate_factory=spec.injection_gate,
            on_delivery=collector.record_delivery,
        )
        for nid in range(topo.num_nodes)
    ]

    num_nodes = topo.num_nodes
    # One pass over the (switch, dst) indexes for all switches, fresh
    # dicts per fabric: the fault injector rewrites tables in place.
    tables = topo.routes_by_switch()
    # the candidate index is never built for det (perf)
    candidates = topo.candidate_maps() if policy_spec.needs_candidates else None
    crossbar_bw = topo.effective_crossbar_bw()
    switches = [
        Switch(
            sim,
            f"sw{s.id}",
            num_ports=s.num_ports,
            routing=policy_spec.factory(
                table=RoutingTable(s.id, tables[s.id]),
                candidates=candidates[s.id] if candidates is not None else None,
                params=switch_params,
            ),
            params=switch_params,
            buffer_model=buffer_spec,
            scheme_factory=lambda port, _n=num_nodes: spec.switch_scheme(port, _n),
            marker=(
                spec.marking(switch_params, rngs.stream(f"mark.sw{s.id}"))
                if spec.marking is not None
                else None
            ),
            crossbar_bw=crossbar_bw,
        )
        for s in topo.switches
    ]

    links: List[Link] = []
    delay = params.link_delay

    for nid, (sw, port, bw) in sorted(topo.node_attach.items()):
        node, switch = nodes[nid], switches[sw]
        up = Link(sim, f"n{nid}->s{sw}p{port}", bw, delay)
        up.connect(tx=node, rx=switch.input_ports[port])
        node.uplink = up
        switch.input_ports[port].link_in = up
        down = Link(sim, f"s{sw}p{port}->n{nid}", bw, delay)
        down.connect(tx=switch.output_ports[port], rx=node)
        switch.output_ports[port].link_out = down
        node.downlink = down
        links.extend((up, down))

    for a, pa, b, pb, bw in topo.switch_links:
        ab = Link(sim, f"s{a}p{pa}->s{b}p{pb}", bw, delay)
        ab.connect(tx=switches[a].output_ports[pa], rx=switches[b].input_ports[pb])
        switches[a].output_ports[pa].link_out = ab
        switches[b].input_ports[pb].link_in = ab
        ba = Link(sim, f"s{b}p{pb}->s{a}p{pa}", bw, delay)
        ba.connect(tx=switches[b].output_ports[pb], rx=switches[a].input_ports[pa])
        switches[b].output_ports[pb].link_out = ba
        switches[a].input_ports[pa].link_in = ba
        links.extend((ab, ba))

    # The arbitration slot: one MTU serialisation time at the switch's
    # fastest attached link (all slower Table-I links are integer
    # ratios, so every transmission ends on a slot boundary).
    for switch in switches:
        fastest = max(
            op.link_out.bandwidth
            for op in switch.output_ports
            if op.link_out is not None
        )
        switch.quantum = params.mtu / fastest

    fabric = Fabric(
        sim=sim,
        topo=topo,
        params=params,
        spec=spec,
        nodes=nodes,
        switches=switches,
        links=links,
        collector=collector,
        rngs=rngs,
        routing=policy_spec.name,
        buffer_model=buffer_spec.name,
    )
    if faults is not None:
        # Deferred import: fault-free fabrics never load the module.
        from repro.sim.faults import FaultInjector

        fabric.faults = FaultInjector(fabric, faults).arm()
    return fabric
