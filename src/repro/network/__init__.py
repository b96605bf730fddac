"""Interconnection-network substrate.

Everything the paper's simulator models below the congestion-control
layer lives here: packets, lossless credit-based links, input-port
buffer pools and queue schemes, input-queued switches with iSlip
scheduling, end nodes (sinks and Input Adapters), deterministic
table-based routing, and topology builders for the three evaluated
network configurations.
"""

from repro.network.packet import (
    Becn,
    CfqAlloc,
    CfqDealloc,
    CfqGo,
    CfqStop,
    ControlMessage,
    Packet,
)
from repro.network.buffers import BufferPool, PacketQueue
from repro.network.link import Link
from repro.network.topology import Topology, config1_adhoc, k_ary_n_tree
from repro.network.routing import RoutingTable, build_routing

# NOTE: repro.network.fabric is intentionally not imported here — it
# depends on repro.core (scheme presets), which depends back on the
# queue/buffer primitives of this package.  Import it explicitly:
# ``from repro.network.fabric import build_fabric`` (also re-exported
# at the top level as ``repro.build_fabric``).

__all__ = [
    "Packet",
    "ControlMessage",
    "Becn",
    "CfqAlloc",
    "CfqDealloc",
    "CfqStop",
    "CfqGo",
    "BufferPool",
    "PacketQueue",
    "Link",
    "Topology",
    "config1_adhoc",
    "k_ary_n_tree",
    "RoutingTable",
    "build_routing",
]
