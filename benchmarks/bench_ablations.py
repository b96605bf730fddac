"""Ablation benches for the design choices DESIGN.md calls out.

Not paper figures — these isolate the effect of individual mechanisms
and parameters, and back the claims made in EXPERIMENTS.md about where
our defaults come from:

* number of CFQs per port (the Fig. 8 resource axis, swept directly);
* detection policy ("dominant" vs the simpler "head" blame);
* BECN coalescing (anti-windup) on the victim flow;
* arbiter selection rule (LRG vs classic pointers: the capture
  pathology);
* CCT shape (linear vs exponential response);
* ITh parameter sensitivity (CCTI_Timer sweep) — the paper's point
  that "finding optimal CC parameters for throttling is a challenging
  task".
"""

from conftest import run_once

from repro.core.params import CCParams, exponential_cct, linear_cct
from repro.experiments.report import render_table
from repro.experiments.runner import run_case

CONTRIBUTORS = ("F1", "F2", "F5", "F6")


def test_ablation_cfq_count(benchmark, scale_cfg3, seed):
    """FBICM with more CFQs closes the gap to CCFIT; with 1 it widens."""

    def sweep():
        rows = []
        for n in (1, 2, 4):
            for scheme in ("FBICM", "CCFIT"):
                res = run_case(
                    "case4",
                    scheme=scheme,
                    num_trees=4,
                    time_scale=scale_cfg3,
                    seed=seed,
                    params=CCParams(num_cfqs=n),
                )
                rows.append(
                    {
                        "cfqs": n,
                        "scheme": scheme,
                        "burst GB/s": f"{res.mean_throughput():.1f}",
                        "cam_failures": int(res.stats["cfq_alloc_failures"]),
                    }
                )
        return rows

    rows = run_once(benchmark, sweep)
    print()
    print("ABLATION — CFQs per port (Config #3, 4 trees, burst window)")
    print(render_table(rows))
    by = {(r["cfqs"], r["scheme"]): float(r["burst GB/s"]) for r in rows}
    assert by[(4, "FBICM")] >= by[(1, "FBICM")], "more CFQs must not hurt FBICM"


def test_ablation_detection_policy(benchmark, scale, seed):
    """Head-blame detection can misfile the victim flow."""

    def sweep():
        rows = []
        for policy in ("dominant", "head"):
            res = run_case(
                "case1",
                scheme="CCFIT",
                time_scale=scale,
                seed=seed,
                params=CCParams(detection_policy=policy),
            )
            rows.append(
                {
                    "policy": policy,
                    "victim F0 GB/s": f"{res.flow_bandwidth['F0']:.2f}",
                    "jain(contributors)": f"{res.fairness(CONTRIBUTORS):.3f}",
                }
            )
        return rows

    rows = run_once(benchmark, sweep)
    print()
    print("ABLATION — detection blame policy (Config #1, Case #1, CCFIT)")
    print(render_table(rows))


def test_ablation_becn_coalescing(benchmark, scale, seed):
    """Per-BECN CCTI increments wind the victim's throttle up."""

    def sweep():
        rows = []
        for interval in (0.0, 2_000.0, 8_000.0):
            res = run_case(
                "case1",
                scheme="CCFIT",
                time_scale=scale,
                seed=seed,
                params=CCParams(becn_min_interval=interval),
            )
            rows.append(
                {
                    "becn_min_interval ns": int(interval),
                    "victim F0 GB/s": f"{res.flow_bandwidth['F0']:.2f}",
                    "total GB/s": f"{sum(res.flow_bandwidth.values()):.2f}",
                    "becns": int(res.stats["becns_received"]),
                }
            )
        return rows

    rows = run_once(benchmark, sweep)
    print()
    print("ABLATION — BECN coalescing / anti-windup (Config #1, CCFIT)")
    print(render_table(rows))


def test_ablation_cct_shape(benchmark, scale, seed):
    def sweep():
        rows = []
        for name, cct in (
            ("linear", linear_cct()),
            ("linear/2", linear_cct(step=409.6)),
            ("exponential", exponential_cct()),
        ):
            res = run_case(
                "case1", scheme="CCFIT", time_scale=scale, seed=seed, params=CCParams(cct=cct)
            )
            rows.append(
                {
                    "cct": name,
                    "victim F0 GB/s": f"{res.flow_bandwidth['F0']:.2f}",
                    "jain(contributors)": f"{res.fairness(CONTRIBUTORS):.3f}",
                    "total GB/s": f"{sum(res.flow_bandwidth.values()):.2f}",
                }
            )
        return rows

    rows = run_once(benchmark, sweep)
    print()
    print("ABLATION — CCT response shape (Config #1, CCFIT)")
    print(render_table(rows))


def test_ablation_ith_parameter_sensitivity(benchmark, scale, seed):
    """The paper: ITh's showing 'could partly be caused by unfortunate
    CC parameter values... finding optimal CC parameters for throttling
    is a challenging task'.  A 16x CCTI_Timer swing moves ITh's victim
    and fairness results substantially; CCFIT is steadier (§IV-B:
    'CCFIT is not as sensitive to the parameters')."""

    def sweep():
        rows = []
        for scheme in ("ITh", "CCFIT"):
            for timer in (2_000.0, 8_000.0, 32_000.0):
                res = run_case(
                    "case1",
                    scheme=scheme,
                    time_scale=scale,
                    seed=seed,
                    params=CCParams(ccti_timer=timer),
                )
                rows.append(
                    {
                        "scheme": scheme,
                        "ccti_timer ns": int(timer),
                        "victim F0 GB/s": f"{res.flow_bandwidth['F0']:.2f}",
                        "total GB/s": f"{sum(res.flow_bandwidth.values()):.2f}",
                    }
                )
        return rows

    rows = run_once(benchmark, sweep)
    print()
    print("ABLATION — CCTI_Timer sensitivity (Config #1, Case #1)")
    print(render_table(rows))


def test_ablation_arbitration_timing(benchmark, scale, seed):
    """Slotted (cycle-level) vs event-driven arbitration.

    The paper's switches are simulated at cycle level: each slot, every
    free input and output is matched together.  Re-matching greedily on
    every completion event instead can lock into self-reinforcing
    input/output pairings that starve a queue outright — the
    ``min contributor`` column collapses.  Seeded serialisation jitter
    (clock asynchrony) softens but does not repair it.  This is why the
    package defaults to slotted arbitration (DESIGN.md §5)."""

    def sweep():
        rows = []
        for label, kw in (
            ("slotted (default)", dict()),
            ("event-driven", dict(match_quantum=0.0)),
            ("event-driven + jitter", dict(match_quantum=0.0, link_jitter=0.005)),
        ):
            res = run_case("case1", scheme="FBICM", time_scale=scale, seed=seed, params=CCParams(**kw))
            rows.append(
                {
                    "arbitration": label,
                    "victim F0 GB/s": f"{res.flow_bandwidth['F0']:.2f}",
                    "min contributor": f"{min(res.flow_bandwidth[f] for f in CONTRIBUTORS):.2f}",
                    "total GB/s": f"{sum(res.flow_bandwidth.values()):.2f}",
                }
            )
        return rows

    rows = run_once(benchmark, sweep)
    print()
    print("ABLATION — arbitration timing (Config #1, FBICM)")
    print(render_table(rows))


def test_ablation_detection_threshold(benchmark, scale, seed):
    """§III-E: 'the detection threshold value should allow to detect
    congestion not too early and not too late'."""

    def sweep():
        rows = []
        for mtu_count in (2, 4, 8):
            res = run_case(
                "case1",
                scheme="CCFIT",
                time_scale=scale,
                seed=seed,
                params=CCParams(detection_threshold=mtu_count * 2048),
            )
            rows.append(
                {
                    "detection MTU": mtu_count,
                    "victim F0 GB/s": f"{res.flow_bandwidth['F0']:.2f}",
                    "total GB/s": f"{sum(res.flow_bandwidth.values()):.2f}",
                    "cfq allocs": int(res.stats["allocated_cfqs"]),
                }
            )
        return rows

    rows = run_once(benchmark, sweep)
    print()
    print("ABLATION — congestion detection threshold (Config #1, CCFIT)")
    print(render_table(rows))


def test_ablation_marking_rate(benchmark, scale, seed):
    """The Marking_Rate parameter (85 % in §IV-A): lower rates mean
    fewer BECNs and slower, gentler throttling."""

    def sweep():
        rows = []
        for rate in (0.25, 0.85, 1.0):
            res = run_case(
                "case1", scheme="CCFIT", time_scale=scale, seed=seed, params=CCParams(marking_rate=rate)
            )
            rows.append(
                {
                    "marking_rate": rate,
                    "becns": int(res.stats["becns_received"]),
                    "victim F0 GB/s": f"{res.flow_bandwidth['F0']:.2f}",
                    "jain(contributors)": f"{res.fairness(CONTRIBUTORS):.3f}",
                }
            )
        return rows

    rows = run_once(benchmark, sweep)
    print()
    print("ABLATION — Marking_Rate (Config #1, CCFIT)")
    print(render_table(rows))
