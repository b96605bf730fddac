"""repro — reproduction of *Combining Congested-Flow Isolation and
Injection Throttling in HPC Interconnection Networks* (Escudero-
Sahuquillo et al., ICPP 2011).

The package models lossless, credit-flow-controlled interconnection
networks at packet granularity and implements the paper's congestion
control mechanisms end to end:

* **CCFIT** — the paper's contribution: FBICM-style congested-flow
  isolation (NFQ + dynamically allocated CFQs + CAMs + Stop/Go tree
  propagation) combined with InfiniBand-style injection throttling
  (FECN/BECN, CCT/CCTI at the sources), §III;
* the standalone baselines it is evaluated against: **1Q**, **FBICM**,
  **ITh** (VOQsw + throttling), **VOQnet** and **VOQsw**, §IV-A;
* the three evaluated network configurations (Table I) and four
  traffic cases, with one runner per figure in
  :mod:`repro.experiments`;
* a pluggable routing layer (:mod:`repro.network.routing`): the
  paper's deterministic ``det`` routing plus ``ecmp``, ``adaptive``
  and ``flowlet`` multipath policies for studying how adaptive routing
  interacts with the congestion-control schemes (docs/routing.md).

Quick start::

    from repro import build_fabric, k_ary_n_tree, attach_traffic, FlowSpec

    fabric = build_fabric(k_ary_n_tree(2, 3), scheme="CCFIT", seed=7)
    attach_traffic(fabric, flows=[FlowSpec("F0", src=0, dst=7, rate=2.5)])
    fabric.run(until=2_000_000)          # 2 ms (time unit: ns)
    print(fabric.collector.flow_bandwidth("F0", 0, 2_000_000), "GB/s")

The names above are imported on first use: ``import repro`` itself
loads nothing else, and every scheme registers (the paper presets
first, then :mod:`repro.schemes`) in ``repro.SCHEMES``, whichever
module a process imports first.
"""

import importlib

__version__ = "1.0.0"

#: name -> the module of this package it is read from.  A name is
#: imported on first use, so that a process which only talks to a
#: service (or only parses a command line) does not load the simulator
#: and numpy.
_EXPORTS = {
    "SCHEMES": "core.ccfit",
    "SchemeSpec": "core.ccfit",
    "CCParams": "core.params",
    "linear_cct": "core.params",
    "exponential_cct": "core.params",
    "Collector": "metrics.collector",
    "jain_index": "metrics.analysis",
    "oscillation_score": "metrics.analysis",
    "Fabric": "network.fabric",
    "build_fabric": "network.fabric",
    "ROUTING_POLICIES": "network.routing",
    "RoutingPolicy": "network.routing",
    "RoutingPolicySpec": "network.routing",
    "Topology": "network.topology",
    "config1_adhoc": "network.topology",
    "k_ary_n_tree": "network.topology",
    "Simulator": "sim.engine",
    "TelemetryConfig": "telemetry.sampler",
    "TelemetrySampler": "telemetry.sampler",
    "TreeTracker": "telemetry.tracker",
    "FlowSpec": "traffic.flows",
    "attach_traffic": "traffic.flows",
    "patterns": "traffic",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
