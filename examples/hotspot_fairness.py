#!/usr/bin/env python
"""The fairness study of §IV-C (Fig. 9), runnable in ~20 s.

Replays Traffic Case #1 on Config #1 under all four evaluated schemes
and prints the per-flow bandwidth table: watch the victim flow F0 and
the parking-lot split between the remote contributors (F1, F2 — they
share switch 1's inter-switch input port) and the local ones (F5, F6 —
private ports).

Run:  python examples/hotspot_fairness.py [time_scale]
"""

import sys

from repro.experiments import registry
from repro.experiments.report import render_flow_table
from repro.metrics.analysis import jain_index

FLOWS = ("F0", "F1", "F2", "F5", "F6")
CONTRIBUTORS = ("F1", "F2", "F5", "F6")


def main() -> None:
    time_scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.5
    print(f"running Traffic Case #1 at {time_scale:.1f}x of the paper's 10 ms ...")
    results, _report = registry.get("fig9").run(time_scale=time_scale, seed=1)

    print()
    print(render_flow_table(results, FLOWS))
    print()
    for scheme, story in (
        ("1Q", "victim crushed by HoL blocking; F5/F6 exploit the parking lot"),
        ("ITh", "victim restored, contributors equalised — but it took BECN round-trips"),
        ("FBICM", "victim at wire speed instantly; the parking lot is untouched"),
        ("CCFIT", "victim at wire speed AND fair contributors — both halves at work"),
    ):
        res = results[scheme]
        jain = jain_index([res.flow_bandwidth[f] for f in CONTRIBUTORS])
        print(
            f"  {scheme:6s} F0={res.flow_bandwidth['F0']:4.2f} GB/s, "
            f"contributor fairness={jain:.3f}   <- {story}"
        )


if __name__ == "__main__":
    main()
