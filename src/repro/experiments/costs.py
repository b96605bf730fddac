"""Hardware-cost accounting for the evaluated schemes.

The paper's argument for CCFIT is partly economic: VOQnet "is actually
almost unfeasible" (per-port memory grows with the network), while
CCFIT needs one NFQ, two CFQs and a small CAM per port.  This module
computes, for any scheme and network configuration, the per-port and
total queue/memory/CAM budget — the quantities behind §IV-A's memory
discussion (e.g. VOQnet's 256 KiB ports on the 64-node network).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.ccfit import SCHEMES
from repro.core.isolation import NfqCfqScheme
from repro.core.params import CCParams
from repro.network.fabric import build_fabric
from repro.network.topology import Topology

__all__ = ["SchemeCost", "scheme_cost", "cost_table"]


@dataclass(frozen=True)
class SchemeCost:
    """Per-input-port and fabric-wide hardware budget of one scheme."""

    scheme: str
    queues_per_port: int
    memory_per_port: int
    cam_lines_per_port: int
    #: output-port CAM lines (FBICM/CCFIT propagate through them).
    out_cam_lines_per_port: int
    total_ports: int
    total_memory: int

    @property
    def memory_per_port_kib(self) -> float:
        return self.memory_per_port / 1024

    @property
    def total_memory_mib(self) -> float:
        return self.total_memory / (1024 * 1024)


def scheme_cost(
    scheme: str, topo: Topology, params: Optional[CCParams] = None
) -> SchemeCost:
    """Compute the switch buffer/CAM budget of ``scheme`` on ``topo``.

    Queues and CAM lines are counted on the switch ports that
    :func:`repro.network.fabric.build_fabric` builds for the scheme (the
    widest port, where radices differ), so every scheme registered in
    :data:`repro.core.ccfit.SCHEMES` appears in the table automatically;
    an unknown name is the registry's ``KeyError``.  Memory is the
    spec's ``memory_override``."""
    spec = SCHEMES[scheme]
    params = params if params is not None else CCParams()
    memory = spec.memory_override(params, topo.num_nodes)

    fabric = build_fabric(topo, scheme, params)
    ports = [port.scheme for sw in fabric.switches for port in sw.input_ports]
    # a VOQnet port models a queue per destination, built only while it holds packets
    queues = max(getattr(q, "num_destinations", len(q.queues())) for q in ports)
    # only the isolation schemes keep a CAM; an output port's CAM mirrors
    # the CFQs of the input port downstream of it, so it is as deep
    cam = max(q.cam.num_lines if isinstance(q, NfqCfqScheme) else 0 for q in ports)

    total_ports = sum(s.num_ports for s in topo.switches)
    return SchemeCost(
        scheme=scheme,
        queues_per_port=queues,
        memory_per_port=memory,
        cam_lines_per_port=cam,
        out_cam_lines_per_port=cam,
        total_ports=total_ports,
        total_memory=memory * total_ports,
    )


def cost_table(
    topo: Topology, params: Optional[CCParams] = None
) -> List[Dict[str, object]]:
    """One row per scheme — the §IV-A memory-cost comparison."""
    rows = []
    for scheme in SCHEMES:
        c = scheme_cost(scheme, topo, params)
        rows.append(
            {
                "scheme": c.scheme,
                "queues/port": c.queues_per_port,
                "CAM lines/port": c.cam_lines_per_port or "-",
                "memory/port KiB": f"{c.memory_per_port_kib:.0f}",
                "fabric memory MiB": f"{c.total_memory_mib:.1f}",
            }
        )
    return rows
