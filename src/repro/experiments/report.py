"""ASCII rendering of experiment results.

The CLI prints, for every figure, the same rows/series the paper
plots; EXPERIMENTS.md embeds these tables.
"""

from __future__ import annotations

from math import fsum
from typing import Dict, Iterable, List, Optional, Sequence

from repro.experiments.runner import CaseResult

__all__ = [
    "render_table",
    "render_series",
    "render_flow_table",
    "render_fig8_summary",
    "render_routing_grid",
    "render_fault_matrix",
    "render_pfc_matrix",
]


def _mean(values: List[float]) -> float:
    # fsum rounds once, whatever the order: a result read back from the
    # cache lists its flows sorted by name, a fresh one as they ran.
    return fsum(values) / len(values)


def render_table(rows: List[dict], columns: Optional[Sequence[str]] = None) -> str:
    """Generic list-of-dicts → aligned ASCII table."""
    if not rows:
        return "(empty)"
    cols = list(columns) if columns is not None else list(rows[0])
    widths = {c: max(len(str(c)), *(len(str(r.get(c, ""))) for r in rows)) for c in cols}
    head = " | ".join(str(c).ljust(widths[c]) for c in cols)
    sep = "-+-".join("-" * widths[c] for c in cols)
    body = [
        " | ".join(str(r.get(c, "")).ljust(widths[c]) for c in cols) for r in rows
    ]
    return "\n".join([head, sep, *body])


def render_series(
    results: Dict[str, CaseResult],
    stride: int = 1,
    label: str = "throughput (GB/s)",
) -> str:
    """Throughput-vs-time, one row per scheme (Figs. 7 and 8)."""
    lines = [f"-- {label}; columns are bin mid-times (ms) --"]
    first = next(iter(results.values()))
    times = first.throughput[0][::stride] / 1e6
    lines.append("t(ms)   " + " ".join(f"{t:6.2f}" for t in times))
    for scheme, res in results.items():
        rates = res.throughput[1][::stride]
        lines.append(f"{scheme:7s} " + " ".join(f"{r:6.1f}" for r in rates))
    return "\n".join(lines)


def render_flow_table(
    results: Dict[str, CaseResult], flows: Iterable[str]
) -> str:
    """Per-flow steady-window bandwidth, one row per scheme (Figs. 9/10)."""
    flows = list(flows)
    rows = []
    for scheme, res in results.items():
        row = {"scheme": scheme}
        for f in flows:
            row[f] = f"{res.flow_bandwidth.get(f, 0.0):.3f}"
        row["jain"] = f"{res.fairness(flows):.3f}"
        rows.append(row)
    return render_table(rows, columns=["scheme", *flows, "jain"])


def render_fig8_summary(results: Dict[str, CaseResult]) -> str:
    """Burst-window mean / post-burst recovery summary for Fig. 8."""
    rows = []
    for scheme, res in results.items():
        t0, t1 = res.window
        rows.append(
            {
                "scheme": scheme,
                "pre-burst": f"{res.mean_throughput(0.2 * t0, t0):.1f}",
                "burst": f"{res.mean_throughput(t0, t1):.1f}",
                "post-burst": f"{res.mean_throughput(t1, res.duration):.1f}",
                "cam_failures": int(res.stats.get("cfq_alloc_failures", 0)),
                "becns": int(res.stats.get("becns_received", 0)),
            }
        )
    return render_table(rows)


def render_routing_grid(results: Dict[str, CaseResult]) -> str:
    """Scheme x routing-policy matrix of burst-window mean throughput
    (GB/s) — the ``routing_grid`` experiment's table.

    ``results`` keys are ``"<scheme>"`` (det routing) or
    ``"<scheme>@<routing>"`` as produced by
    :meth:`repro.experiments.registry.Experiment.run`.
    """
    cells: Dict[str, Dict[str, CaseResult]] = {}
    routings: List[str] = []
    for key, res in results.items():
        scheme, _, routing = key.partition("@")
        routing = routing or res.routing
        cells.setdefault(scheme, {})[routing] = res
        if routing not in routings:
            routings.append(routing)
    rows = []
    for scheme, by_routing in cells.items():
        row: Dict[str, object] = {"scheme": scheme}
        for routing in routings:
            res = by_routing.get(routing)
            row[routing] = f"{res.mean_throughput():.1f}" if res is not None else "-"
        rows.append(row)
    header = "-- burst-window mean throughput (GB/s), scheme x routing --"
    return header + "\n" + render_table(rows, columns=["scheme", *routings])


def _recovery_us(res: CaseResult) -> str:
    """Time (us) from the first fault to the throughput series regaining
    90 % of its pre-fault level, or "never"/"-" when it doesn't / when
    the cell ran fault-free."""
    if res.faults is None:
        return "-"
    onsets = [
        rec["time"] for rec in res.faults.get("applied", ())
        if rec["action"] in ("down", "kill", "fail", "drain", "degrade")
    ]
    if not onsets:
        return "-"
    t_fault = min(onsets)
    times, rates = res.throughput
    pre = (times >= 0.5 * t_fault) & (times < t_fault)
    if not pre.any():
        return "-"
    target = 0.9 * float(rates[pre].mean())
    after = times >= t_fault
    recovered = after & (rates >= target)
    if not recovered.any():
        return "never"
    return f"{(float(times[recovered][0]) - t_fault) / 1e3:.0f}"


def render_fault_matrix(results: Dict[str, CaseResult]) -> str:
    """One row per (scheme, routing, fault scenario) cell — the
    ``fault_resilience`` experiment's table.

    ``results`` keys are ``"<scheme>[@<routing>]+<scenario>"`` as
    produced by :meth:`repro.experiments.registry.Experiment.run`.
    Columns: delivered fraction, burst-window mean throughput, mean
    hot-flow bandwidth (the congestion victims the fault compounds),
    fault drops split wire/source, and the 90 %-recovery time.
    """
    rows = []
    for key, res in results.items():
        base, _, scenario = key.partition("+")
        scheme, _, routing = base.partition("@")
        gen = res.stats.get("generated_packets", 0)
        delivered = res.stats.get("delivered_packets", 0) / gen if gen else 0.0
        hot = list(res.flow_bandwidth.values())
        snap = res.faults or {}
        rows.append(
            {
                "scheme": scheme,
                "routing": routing or res.routing,
                "fault": scenario or "none",
                "delivered": f"{delivered:.4f}",
                "burst": f"{res.mean_throughput():.1f}",
                "hot_bw": f"{_mean(hot):.3f}" if hot else "-",
                "wire_drops": int(snap.get("wire_drops", 0)),
                "src_drops": int(snap.get("source_drops", 0)),
                "recovery_us": _recovery_us(res),
            }
        )
    header = "-- fault resilience: delivered fraction, drops, recovery --"
    return header + "\n" + render_table(rows)


def render_pfc_matrix(results: Dict[str, CaseResult]) -> str:
    """One row per (scheme, buffer model) cell — the
    ``datacenter_incast`` experiment's table.

    ``results`` keys are ``"<scheme>[%<buffer model>]"`` as produced by
    :meth:`repro.experiments.registry.Experiment.run` (no suffix =
    static).  Columns: burst-window mean throughput, mean hot-flow
    bandwidth (the victims PFC's congestion spreading starves), the
    PAUSE-storm counters from
    :meth:`repro.network.buffers.SharedBufferModel.stats`, and the
    shared-pool / headroom peaks — all "-" for static cells, whose
    per-port partitioning keeps no switch-wide state and never pauses.
    """
    rows = []
    for key, res in results.items():
        scheme, _, model = key.partition("%")
        pauses = res.stats.get("pfc_pauses_sent")
        hot = list(res.flow_bandwidth.values())
        rows.append(
            {
                "scheme": scheme,
                "buffers": model or res.buffer_model,
                "burst": f"{res.mean_throughput():.1f}",
                "hot_bw": f"{_mean(hot):.3f}" if hot else "-",
                "pauses": int(pauses) if pauses is not None else "-",
                "resumes": (
                    int(res.stats["pfc_resumes_sent"])
                    if "pfc_resumes_sent" in res.stats else "-"
                ),
                "pool_peak": (
                    int(res.stats["shared_pool_peak"])
                    if "shared_pool_peak" in res.stats else "-"
                ),
                "headroom_peak": (
                    int(res.stats["pfc_headroom_peak"])
                    if "pfc_headroom_peak" in res.stats else "-"
                ),
            }
        )
    header = "-- datacenter incast: PAUSE storms and victim flows, scheme x buffers --"
    return header + "\n" + render_table(rows)

