#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md from full paper-scale simulation runs.

Runs every figure of §IV at time_scale 1.0 (the paper's 10 ms windows
for Figs. 7/9/10; the 3 ms Case #4 window for Fig. 8), with the cells
the claims of ``repro.experiments.claims`` add, in one sweep
(``repro.experiments.sweep``): ``--jobs N`` fans the cells out across
N worker processes, and finished cells are memoized in the on-disk
cache, so a re-run (or a prior ``python -m repro sweep ...``) is served
without re-simulating.  The record is a pure function of the results:
run again, it is the same bytes.

Writes the paper-vs-measured record, every figure's tables and its
claims table, and exits 1 when a claim's verdict is not the one
expected at paper scale (or a cell failed).

Usage:  python scripts/make_experiments.py [output.md]
                                           [--jobs N] [--scale X]
                                           [--cache-dir PATH | --no-cache]
"""

from __future__ import annotations

import argparse
import sys
from math import fsum

from repro.experiments import claims
from repro.experiments.configs import table1
from repro.experiments.report import (
    render_fig8_summary,
    render_flow_table,
    render_series,
    render_table,
)
from repro.experiments.sweep import SweepOptions, default_cache_dir
from repro.metrics.analysis import jain_index, oscillation_score

SEED = 1
FIGURES = ("fig7a", "fig7b", "fig7c", "fig8a", "fig8b", "fig8c", "fig9", "fig10")

chunks: list[str] = []


def emit(text: str = "") -> None:
    chunks.append(text)


def code(block: str) -> None:
    chunks.append("```text\n" + block + "\n```")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("output", nargs="?", default="EXPERIMENTS.md")
    ap.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="worker processes for the simulation grid")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="time compression (1.0 = the paper-scale record)")
    ap.add_argument("--cache-dir", type=str, default=None)
    ap.add_argument("--no-cache", action="store_true")
    args = ap.parse_args()
    options = SweepOptions(
        jobs=args.jobs,
        cache_dir=None if args.no_cache else (args.cache_dir or default_cache_dir()),
    )

    points = [(name, (), args.scale, SEED) for name in FIGURES]
    points += [(c.experiment, c.params, args.scale, SEED) for c in claims.CLAIMS]
    measured, report = claims.measure(points, options)
    print(f"sweep: {report.summary()}", flush=True)
    if report.failures:
        for failure in report.failures:
            print(f"sweep: FAILED {failure.summary()}", file=sys.stderr)
        return 1
    figures = {name: measured[(name, (), args.scale, SEED)] for name in FIGURES}
    unexpected = []

    def verdicts(name: str) -> None:
        rows = [(c, measured[(c.experiment, c.params, args.scale, SEED)])
                for c in claims.CLAIMS if c.experiment == name]
        emit("Claims (`repro.experiments.claims`; a > margin × b):")
        emit()
        emit(claims.render_claims(rows))
        unexpected.extend(c.id for c, res in rows if c.holds([res]) != c.expect)

    emit("# EXPERIMENTS — paper vs. measured")
    emit()
    emit(
        "Full-scale reproduction record for every table and figure of the\n"
        "evaluation section (§IV) of *Combining Congested-Flow Isolation and\n"
        "Injection Throttling in HPC Interconnection Networks* (ICPP 2011).\n"
        "Regenerated, byte for byte, by `python scripts/make_experiments.py`;\n"
        "`tests/test_claims.py` checks that in tier-2, and evaluates the claims\n"
        "of Figs. 7a, 9 and 10 at reduced scale in tier-1.\n"
        "All runs use seed 1; absolute numbers are simulator-specific.  Each\n"
        "figure ends with its claims: the paper's statement, both measured\n"
        "sides and the verdict.  A claim recorded as failing is a divergence\n"
        "from the paper."
    )
    emit()

    # ------------------------------------------------------------- Table I
    emit("## Table I — network configurations")
    emit()
    code(render_table(table1()))
    emit()
    emit(
        "Matches the paper exactly (7/8/64 nodes, 2/12/48 switches, 5 or\n"
        "2.5 GB/s crossbars, 2048 B MTU, 64 KiB port memory, credit flow\n"
        "control, iSlip, deterministic table-based routing)."
    )
    emit()

    # ------------------------------------------------------------- Fig 7
    fig7_meta = {
        "a": "Config #1 / Case #1: staircase of 4 hotspot flows onto node 4 plus one victim",
        "b": "Config #2 / Case #2: staircase of 5 flows onto two hot nodes of the 2-ary 3-tree",
        "c": "Config #2 / Case #3: Case #2 plus three uniform sources",
    }
    for panel, desc in fig7_meta.items():
        emit(f"## Fig. 7{panel} — network throughput vs time")
        emit()
        emit(desc + ".")
        emit()
        res = figures[f"fig7{panel}"]
        code(render_series(res, stride=max(1, len(res["1Q"].throughput[0]) // 20)))
        rows = [
            {"scheme": s, "steady tail GB/s": f"{r.mean_throughput():.2f}",
             "oscillation": f"{oscillation_score(r.throughput[1]):.2f}"}
            for s, r in res.items()
        ]
        code(render_table(rows))
        emit()
        verdicts(f"fig7{panel}")
        emit()

    # ------------------------------------------------------------- Fig 8
    for trees, panel in {1: "a", 4: "b", 6: "c"}.items():
        emit(f"## Fig. 8{panel} — Config #3, {trees} congestion tree(s)")
        emit()
        res = figures[f"fig8{panel}"]
        code(render_series(res, stride=max(1, len(res["1Q"].throughput[0]) // 15)))
        code(render_fig8_summary(res))
        emit()
        verdicts(f"fig8{panel}")
        emit()

    # ------------------------------------------------------------- Fig 9
    emit("## Fig. 9 — per-flow bandwidth, Config #1 / Case #1 (fairness)")
    emit()
    res9 = figures["fig9"]
    contributors = ("F1", "F2", "F5", "F6")
    code(render_flow_table(res9, ("F0", *contributors)))
    rows = [
        {
            "scheme": s,
            "victim F0 GB/s": f"{r.flow_bandwidth['F0']:.2f}",
            "jain(contributors)": f"{jain_index([r.flow_bandwidth[f] for f in contributors]):.3f}",
        }
        for s, r in res9.items()
    ]
    code(render_table(rows))
    emit()
    verdicts("fig9")
    emit()

    # ------------------------------------------------------------ Fig 10
    emit("## Fig. 10 — per-flow bandwidth, Config #2 / Case #2")
    emit()
    res10 = figures["fig10"]
    flows10 = ("F0", "F1", "F2", "F3", "F4")
    code(render_flow_table(res10, flows10))
    rows = [
        {
            "scheme": s,
            "total GB/s": f"{fsum(r.flow_bandwidth.values()):.2f}",
            "jain(all flows)": f"{jain_index([r.flow_bandwidth[f] for f in flows10]):.3f}",
            "parking-lot F4/F1": f"{r.flow_bandwidth['F4'] / max(r.flow_bandwidth['F1'], 1e-9):.2f}",
        }
        for s, r in res10.items()
    ]
    code(render_table(rows))
    emit()
    verdicts("fig10")

    with open(args.output, "w") as fh:
        fh.write("\n".join(chunks) + "\n")
    print(f"wrote {args.output}")
    if unexpected:
        print(f"verdicts other than expected: {', '.join(unexpected)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
