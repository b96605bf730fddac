#!/usr/bin/env python
"""The Fig. 8 scalability probe: more congestion trees than CFQs.

Runs Config #3 (64-node 4-ary 3-tree, 48 uniform sources at full load)
through a hotspot burst forming several simultaneous congestion trees,
and compares FBICM (isolation only) against CCFIT (isolation +
throttling).  With more trees than the two CFQs per port, FBICM's
isolation runs out of resources — HoL blocking returns in the NFQs —
while CCFIT's throttling keeps draining trees and freeing CFQs.

Run:  python examples/congestion_trees.py [num_trees] [time_scale]
      (defaults: 4 trees at 0.4x time scale, ~1 min)
"""

import sys

from repro.experiments.report import render_fig8_summary, render_series
from repro.experiments.runner import run_case


def main() -> None:
    trees = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    time_scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.4
    print(
        f"Config #3: 48 uniform sources at 100% load; 16 hotspot senders "
        f"blast {trees} destination(s) during the burst window ..."
    )

    results = {}
    for scheme in ("1Q", "FBICM", "CCFIT"):
        print(f"  simulating {scheme} ...", flush=True)
        results[scheme] = run_case(
            "case4", scheme=scheme, num_trees=trees, time_scale=time_scale, seed=1
        )

    print()
    print(render_series(results, stride=max(1, len(results['1Q'].throughput[0]) // 15)))
    print()
    print(render_fig8_summary(results))
    print()
    fb, cc = results["FBICM"], results["CCFIT"]
    print(
        f"during the burst: FBICM {fb.mean_throughput():.1f} GB/s vs "
        f"CCFIT {cc.mean_throughput():.1f} GB/s "
        f"(CAM allocation failures: FBICM {int(fb.stats['cfq_alloc_failures'])}, "
        f"CCFIT {int(cc.stats['cfq_alloc_failures'])})"
    )
    print(
        "CCFIT's throttling drains the trees so the isolation half never "
        "starves for CFQs — the gap over FBICM grows with the tree count "
        "(try: python examples/congestion_trees.py 6)."
    )


if __name__ == "__main__":
    main()
