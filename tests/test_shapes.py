"""Miniaturised paper-shape tests.

Compressed-time versions of the evaluation's qualitative claims — the
full-scale record lives in EXPERIMENTS.md and the benchmark harness.
Each test states the paper claim it guards.
"""

import pytest

from repro.experiments.runner import run_case
from repro.metrics.analysis import jain_index

CONTRIB1 = ("F1", "F2", "F5", "F6")


@pytest.fixture(scope="module")
def case1():
    """Case #1 at 0.3x for the four paper schemes (shared; ~8 s)."""
    return {
        s: run_case("case1", scheme=s, time_scale=0.3, seed=1)
        for s in ("1Q", "ITh", "FBICM", "CCFIT")
    }


def test_paper_claim_1q_victimises_and_parks(case1):
    """§IV-C: under 1Q the victim suffers HoL blocking AND contributors
    suffer the parking-lot problem."""
    bw = case1["1Q"].flow_bandwidth
    assert bw["F0"] < 0.8
    assert bw["F5"] > 1.6 * bw["F1"]
    assert bw["F6"] > 1.6 * bw["F2"]


def test_paper_claim_isolation_restores_victim_not_fairness(case1):
    """§IV-C: FBICM restores the victim fully but 'the unfairness has
    increased'."""
    bw = case1["FBICM"].flow_bandwidth
    assert bw["F0"] > 2.3
    assert jain_index([bw[f] for f in CONTRIB1]) < 0.93


def test_paper_claim_throttling_restores_fairness(case1):
    """§IV-C: ITh solves the parking-lot problem per-flow."""
    bw = case1["ITh"].flow_bandwidth
    assert jain_index([bw[f] for f in CONTRIB1]) > 0.96
    assert bw["F0"] > 2 * case1["1Q"].flow_bandwidth["F0"]


def test_paper_claim_ccfit_gets_both(case1):
    """§I/§V: CCFIT extracts the best of both approaches."""
    bw = case1["CCFIT"].flow_bandwidth
    assert bw["F0"] > 2.0, "victim protected"
    assert jain_index([bw[f] for f in CONTRIB1]) > 0.93, "contributors fair"


def test_paper_claim_cc_schemes_beat_1q_in_throughput(case1):
    tail = {s: r.mean_throughput() for s, r in case1.items()}
    for s in ("ITh", "FBICM", "CCFIT"):
        assert tail[s] > tail["1Q"] * 1.25, s


def test_paper_claim_fig10_ccfit_highest_fair_throughput():
    """§IV-C (Fig. 10d): CCFIT combines high throughput with the
    highest fairness; FBICM's extra throughput comes with the parking
    lot intact."""
    res = {
        s: run_case("case2", scheme=s, time_scale=0.5, seed=1) for s in ("ITh", "FBICM", "CCFIT")
    }
    flows = ("F0", "F1", "F2", "F3", "F4")
    jain = {s: jain_index([r.flow_bandwidth[f] for f in flows]) for s, r in res.items()}
    total = {s: sum(r.flow_bandwidth.values()) for s, r in res.items()}
    # FBICM: node 7's apex parking lot intact (F4 doubles F1)
    fb = res["FBICM"].flow_bandwidth
    assert fb["F4"] > 1.6 * fb["F1"]
    # CCFIT: fairest of the three while clearly out-delivering ITh
    assert jain["CCFIT"] > jain["FBICM"]
    assert jain["CCFIT"] > 0.95
    assert total["CCFIT"] > total["ITh"] * 1.1
    assert total["FBICM"] > total["CCFIT"]  # isolation alone maxes raw GB/s


@pytest.mark.slow
def test_paper_claim_fig8_ccfit_survives_cfq_exhaustion():
    """§IV-B (Fig. 8b): with more congestion trees than CFQs, CCFIT
    stays above FBICM because throttling frees isolation resources."""
    kw = dict(num_trees=4, time_scale=0.25, seed=1, duration_ms=3.0)
    fb = run_case("case4", scheme="FBICM", **kw)
    cc = run_case("case4", scheme="CCFIT", **kw)
    oneq = run_case("case4", scheme="1Q", **kw)
    assert cc.mean_throughput() >= fb.mean_throughput() * 0.98
    assert fb.mean_throughput() > oneq.mean_throughput() * 1.2
    assert fb.stats["cfq_alloc_failures"] > 0, "exhaustion never happened"
