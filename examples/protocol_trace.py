#!/usr/bin/env python
"""Watch the CCFIT protocol make its decisions, event by event.

Attaches a :class:`repro.metrics.trace.ProtocolTrace` to a hotspot
scenario and prints the congestion tree's life story: detection,
isolation, upstream propagation (Stop/Go), the congestion state,
FECN/BECN, and the final deallocation — the numbered events of the
paper's Figs. 3 and 4, live.

Run:  python examples/protocol_trace.py
"""

from repro import build_fabric, config1_adhoc
from repro.metrics.trace import ProtocolTrace
from repro.telemetry import TreeRecord, TreeTracker
from repro.traffic.flows import FlowSpec, attach_traffic

MS = 1_000_000.0


def main() -> None:
    fabric = build_fabric(config1_adhoc(), scheme="CCFIT", seed=11)
    trace = ProtocolTrace().attach(fabric)
    attach_traffic(
        fabric,
        flows=[
            FlowSpec("h1", src=1, dst=4, rate=2.5, end=1.0 * MS),
            FlowSpec("h2", src=2, dst=4, rate=2.5, end=1.0 * MS),
            FlowSpec("h5", src=5, dst=4, rate=2.5, end=1.0 * MS),
        ],
    )
    fabric.run(until=3 * MS)

    print("first 25 protocol events:")
    for ev in trace.events[:25]:
        print(" ", ev)

    print("\nevent counts over the whole run:")
    for kind, n in sorted(trace.counts().items()):
        print(f"  {kind:10s} {n}")

    detect, becn = (trace.query(kind=kind, dest=4) for kind in ("detect", "becn"))
    latency = becn[0].time - detect[0].time
    print(f"\ndetection -> first BECN at a source: {latency / 1e3:.1f} us")

    closed = [r for r in TreeTracker().consume(trace.events).records() if r.drain is not None]
    if closed:
        longest = max(closed, key=TreeRecord.lifetime)
        print(
            f"longest congestion tree: {longest.lifetime() / 1e3:.1f} us, rooted at "
            f"{longest.root or '?'} (dest {longest.dest}), peak extent {longest.peak_extent} ports"
        )
    print(
        "\nNote how Stop/Go cycles at the upstream ports bracket the"
        " congestion-state episodes at the root, and how every"
        " allocation is eventually matched by a deallocation after the"
        " flows end — the resource-release loop that makes two CFQs"
        " per port enough."
    )


if __name__ == "__main__":
    main()
