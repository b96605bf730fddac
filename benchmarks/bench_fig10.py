"""Fig. 10 — per-flow bandwidth on Config #2 / Case #2.

Five flows converge on one hot node of the 2-ary 3-tree; the flow
whose path merges last (F4) is the parking-lot winner.  Paper shape:
1Q poor throughput and unfair; ITh fair; FBICM max throughput but
unfairness dominant; CCFIT combines high throughput with the highest
fairness.
"""

from conftest import run_figure, run_once

from repro.experiments.report import render_flow_table
from repro.experiments.runner import PAPER_SCHEMES

FLOWS = ("F0", "F1", "F2", "F3", "F4")


def test_fig10(benchmark, scale, seed):
    results = run_once(
        benchmark, run_figure, "fig10", schemes=PAPER_SCHEMES, time_scale=scale, seed=seed
    )
    print()
    print("FIG 10 — per-flow bandwidth (GB/s), Config #2 Case #2, steady tail")
    print(render_flow_table(results, FLOWS))

    jain = {s: r.fairness(FLOWS) for s, r in results.items()}
    total = {s: sum(r.flow_bandwidth.values()) for s, r in results.items()}

    # parking lot at node 7's apex: F4 (private input port) doubles
    # F1 (sharing a port with F2) without per-flow throttling
    for s in ("1Q", "FBICM"):
        r = results[s].flow_bandwidth
        assert r["F4"] > 1.6 * r["F1"], f"{s}: F4 should be the parking-lot winner"
    # throttling equalises; the combination is the fairest
    assert jain["ITh"] > 0.95
    assert jain["CCFIT"] > jain["FBICM"], "CCFIT must improve on FBICM fairness"
    # combined mechanism keeps throughput at least at ITh's level
    assert total["CCFIT"] >= total["ITh"] * 0.95
