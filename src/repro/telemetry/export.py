"""Telemetry exporters: JSONL, Prometheus text exposition, dashboard.

All exporters consume the JSON-safe *bundle* dict produced by
:meth:`repro.telemetry.sampler.TelemetrySampler.bundle` (also the
``telemetry`` payload attached to a
:class:`~repro.experiments.runner.CaseResult`), so they work equally
on a live sampler's output, on a cached result, or on a bundle read
back from disk.

* :func:`write_jsonl` — one structured record per line (header,
  samples, protocol events, tree records), fsync'd before close so a
  crash cannot leave a torn export;
* :func:`render_prometheus` — Prometheus-style ``# HELP``/``# TYPE``
  text exposition of the final sample (plus counters), scrapable by
  any Prometheus-compatible collector;
* :func:`render_dashboard` — a self-contained HTML page embedding SVG
  line charts (:mod:`repro.metrics.svgplot`) of the aggregate series
  and the per-tree summary table.  No external assets.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

__all__ = [
    "TELEMETRY_FORMATS",
    "write_jsonl",
    "format_exposition",
    "render_prometheus",
    "render_dashboard",
    "write_bundle",
]

#: formats understood by :func:`write_bundle` and the CLI.
TELEMETRY_FORMATS = ("jsonl", "prom", "html", "all")


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def _line(record: Dict[str, Any]) -> str:
    # sorted keys: an export is a function of what the bundle holds, not
    # of the order its dicts were filled in -- a bundle read back from
    # the result cache (stored with sorted keys) exports to the bytes a
    # fresh one does.  render_prometheus walks entities sorted for the
    # same reason.
    return json.dumps(record, sort_keys=True) + "\n"


def write_jsonl(bundle: Dict[str, Any], path, events: Optional[List] = None) -> str:
    """Write the bundle as structured JSONL: a ``header`` record, one
    ``sample`` record per sampling instant (times + aggregate row +
    per-entity rows), one ``event`` record per traced protocol event
    (when ``events`` — e.g. ``trace.events`` — is given), and one
    ``tree`` record per reconstructed lifecycle.  The file is flushed
    and fsync'd before close.  Returns ``path``."""
    times = bundle.get("times", [])
    network = bundle.get("network", [])
    with open(path, "w") as fh:
        header = {
            "record": "header",
            "schema": bundle.get("schema"),
            "config": bundle.get("config"),
            "duration": bundle.get("duration"),
            "ticks": bundle.get("ticks"),
            "dropped": bundle.get("dropped"),
            "events": bundle.get("events"),
        }
        fh.write(_line(header))
        ports = bundle.get("ports", {})
        nodes = bundle.get("nodes", {})
        links = bundle.get("links", {})
        for i, t in enumerate(times):
            rec: Dict[str, Any] = {"record": "sample", "t": t}
            if i < len(network):
                rec["network"] = network[i]
            rec["ports"] = {
                name: entry["rows"][i]
                for name, entry in ports.items()
                if i < len(entry["rows"])
            }
            rec["nodes"] = {
                name: entry["rows"][i]
                for name, entry in nodes.items()
                if i < len(entry["rows"])
            }
            rec["links"] = {
                name: entry["rx_bytes"][i]
                for name, entry in links.items()
                if i < len(entry["rx_bytes"])
            }
            fh.write(_line(rec))
        for ev in events or []:
            fh.write(
                _line(
                    {
                        "record": "event",
                        "t": ev.time,
                        "kind": ev.kind,
                        "where": ev.where,
                        "dest": ev.dest,
                        "detail": ev.detail,
                    }
                )
            )
        for tree in bundle.get("trees", []):
            fh.write(_line({"record": "tree", **tree}))
        fh.flush()
        os.fsync(fh.fileno())
    return str(path)


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _esc(label: str) -> str:
    return str(label).replace("\\", "\\\\").replace('"', '\\"')


def format_exposition(specs: List) -> str:
    """Low-level Prometheus text formatting shared by
    :func:`render_prometheus` and the ``repro serve`` ``/metrics``
    endpoint.  ``specs`` is a list of ``(name, help, type, rows)``
    where ``rows`` is ``[(labels_dict, value), ...]``; names are
    emitted under the ``repro_`` prefix and None values are skipped."""
    lines: List[str] = []
    for name, help_, type_, rows in specs:
        lines.append(f"# HELP {name} {help_}")
        lines.append(f"# TYPE {name} {type_}")
        for labels, value in rows:
            if value is None:
                continue
            label_s = (
                "{" + ",".join(f'{k}="{_esc(v)}"' for k, v in labels.items()) + "}"
                if labels
                else ""
            )
            lines.append(f"repro_{name}{label_s} {value}")
    return "\n".join(lines) + "\n"


def render_prometheus(bundle: Dict[str, Any]) -> str:
    """Prometheus-style text exposition of the bundle's *final* sample
    (gauges) and its run counters.  Self-contained text; suitable for a
    node-exporter-style textfile collector (or, live, the ``repro
    serve`` ``/metrics`` scrape endpoint)."""
    specs: List = []

    def metric(name: str, help_: str, type_: str, rows: List) -> None:
        specs.append((name, help_, type_, rows))

    metric("telemetry_samples_total", "Samples recorded", "counter",
           [({}, bundle.get("ticks", 0))])
    metric("telemetry_dropped_total", "Samples evicted from full rings", "counter",
           [({}, bundle.get("dropped", 0))])

    network = bundle.get("network", [])
    if network:
        last = network[-1]
        metric("delivered_bytes_total", "Bytes delivered to sinks", "counter",
               [({}, last.get("delivered_bytes"))])
        metric("allocated_cfqs", "CFQ lines currently allocated", "gauge",
               [({}, last.get("allocated_cfqs"))])
        metric("cam_alloc_failures_total", "CAM line allocation failures", "counter",
               [({}, last.get("cam_alloc_failures"))])
        metric("stop_lines", "Out-CAM lines currently in Stop state", "gauge",
               [({}, last.get("stop_lines"))])
        metric("throttled_destinations", "Destinations under injection control", "gauge",
               [({}, last.get("throttled_destinations"))])
        metric("advoq_backlog_bytes", "Injection-queue backlog (all nodes)", "gauge",
               [({}, last.get("advoq_bytes"))])

    port_rows = []
    pool_rows = []
    for name, entry in sorted(bundle.get("ports", {}).items()):
        rows = entry.get("rows", [])
        if not rows:
            continue
        last = rows[-1]
        port_rows.append(({"port": name}, last.get("queued_bytes")))
        pool_rows.append(({"port": name}, last.get("pool_used")))
    metric("port_queued_bytes", "Bytes queued at the input port", "gauge", port_rows)
    metric("port_pool_used_bytes", "Input buffer pool occupancy", "gauge", pool_rows)

    gate_rows = []
    for name, entry in sorted(bundle.get("nodes", {}).items()):
        rows = entry.get("rows", [])
        if not rows:
            continue
        for dest, value in sorted(rows[-1].get("gate", {}).items()):
            gate_rows.append(({"node": name, "dest": dest}, value))
    metric("node_gate_state", "Per-destination injection-gate state "
           "(CCTI index or RCM rate)", "gauge", gate_rows)

    stats = bundle.get("tree_stats")
    if stats:
        metric("congestion_trees_total", "Congestion trees observed", "counter",
               [({}, stats.get("trees"))])
        metric("congestion_trees_peak", "Peak simultaneous congestion trees", "gauge",
               [({}, stats.get("max_concurrent_trees"))])
        metric("congestion_tree_cam_full_total", "CAM-full events", "counter",
               [({}, stats.get("cam_full_events"))])
    return format_exposition(specs)


# ----------------------------------------------------------------------
# SVG/HTML dashboard
# ----------------------------------------------------------------------
def _chart(title: str, ylabel: str, times_ms: List[float], series: Dict[str, List[float]]) -> str:
    from repro.metrics.svgplot import LineChart

    chart = LineChart(title=title, xlabel="time (ms)", ylabel=ylabel, width=560, height=320)
    for name, ys in series.items():
        chart.add_series(name, times_ms, ys)
    return chart.render()


def render_dashboard(bundle: Dict[str, Any], title: str = "repro telemetry") -> str:
    """A single self-contained HTML page: aggregate SVG charts
    (throughput, CFQ occupancy, Stop lines, throttled destinations,
    concurrent trees) plus the per-tree summary table."""
    times = bundle.get("times", [])
    network = bundle.get("network", [])
    times_ms = [t / 1e6 for t in times]
    charts: List[str] = []
    if times_ms and network:
        interval = float(bundle.get("config", {}).get("interval", 1.0)) or 1.0
        delivered = [row.get("delivered_bytes", 0) for row in network]
        # cumulative delivered bytes -> per-interval GB/s (1 B/ns = 1 GB/s)
        rate = [
            (b - a) / interval for a, b in zip([0] + delivered[:-1], delivered)
        ]
        charts.append(_chart("Delivered throughput", "GB/s", times_ms, {"network": rate}))
        charts.append(_chart(
            "Congestion-tree resources", "count", times_ms,
            {
                "allocated CFQs": [row.get("allocated_cfqs", 0) for row in network],
                "Stop lines": [row.get("stop_lines", 0) for row in network],
                "throttled dests": [row.get("throttled_destinations", 0) for row in network],
            },
        ))
        charts.append(_chart(
            "Buffer state", "bytes", times_ms,
            {
                "switch buffers": [row.get("buffered_bytes", 0) for row in network],
                "AdVOQ backlog": [row.get("advoq_bytes", 0) for row in network],
            },
        ))
    trees = bundle.get("trees", [])
    stats = bundle.get("tree_stats", {})
    rows: List[str] = []
    for t in trees:
        drain = "—" if t.get("drain") is None else f"{t['drain'] / 1e6:.3f}"
        life = "—" if t.get("drain") is None else f"{(t['drain'] - t['birth']) / 1e3:.1f}"
        rows.append(
            "<tr>"
            f"<td>{t['dest']}</td><td>{t['root'] or '—'}</td>"
            f"<td>{t['birth'] / 1e6:.3f}</td><td>{drain}</td><td>{life}</td>"
            f"<td>{t['peak_extent']}</td><td>{t['cfqs_consumed']}</td>"
            f"<td>{t['stops']}</td><td>{t['cam_full']}</td>"
            "</tr>"
        )
    rows_html = "".join(rows)
    summary = ""
    if stats:
        summary = (
            f"<p>{stats.get('trees', 0)} tree(s); peak "
            f"{stats.get('max_concurrent_trees', 0)} simultaneous "
            f"(mean {stats.get('mean_concurrent_trees', 0.0):.2f}) vs "
            f"{stats.get('num_cfqs', 0)} CFQs/port; "
            f"{stats.get('cam_full_events', 0)} CAM-full event(s).</p>"
        )
    table = (
        "<table><thead><tr><th>dest</th><th>root port</th><th>birth (ms)</th>"
        "<th>drain (ms)</th><th>lifetime (µs)</th><th>peak extent</th>"
        "<th>CFQs</th><th>stops</th><th>CAM-full</th></tr></thead>"
        f"<tbody>{rows_html}</tbody></table>"
        if rows_html
        else "<p>No congestion trees observed.</p>"
    )
    dropped = bundle.get("dropped", 0)
    drop_note = (
        f"<p class='warn'>{dropped} sample(s) evicted from full rings — "
        "the head of long series is truncated.</p>"
        if dropped
        else ""
    )
    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        f"<title>{title}</title>"
        "<style>body{font-family:sans-serif;margin:24px;max-width:1240px}"
        "table{border-collapse:collapse}td,th{border:1px solid #ccc;"
        "padding:4px 8px;text-align:right}th{background:#f2f2f2}"
        ".charts{display:flex;flex-wrap:wrap;gap:12px}"
        ".warn{color:#b00}</style></head><body>"
        f"<h1>{title}</h1>"
        f"<p>{bundle.get('ticks', 0)} samples over "
        f"{bundle.get('duration', 0) / 1e6:.2f} ms "
        f"(interval {bundle.get('config', {}).get('interval', 0) / 1e3:.0f} µs, "
        f"schema {bundle.get('schema', '?')}).</p>"
        f"{drop_note}"
        f"<div class='charts'>{''.join(charts)}</div>"
        f"<h2>Congestion trees</h2>{summary}{table}"
        "</body></html>"
    )


# ----------------------------------------------------------------------
def write_bundle(
    bundle: Dict[str, Any],
    out_dir,
    fmt: str = "all",
    events: Optional[List] = None,
    title: str = "repro telemetry",
) -> List[str]:
    """Render ``bundle`` into ``out_dir`` in the requested format(s):
    ``telemetry.jsonl``, ``metrics.prom`` and/or ``dashboard.html``.
    Returns the written paths.  Unknown formats raise ``KeyError``
    (the CLI maps that to a did-you-mean hint + exit 2)."""
    if fmt not in TELEMETRY_FORMATS:
        raise KeyError(f"unknown telemetry format {fmt!r}; choose from {TELEMETRY_FORMATS}")
    os.makedirs(out_dir, exist_ok=True)
    written: List[str] = []
    if fmt in ("jsonl", "all"):
        written.append(write_jsonl(bundle, os.path.join(out_dir, "telemetry.jsonl"), events))
    if fmt in ("prom", "all"):
        path = os.path.join(out_dir, "metrics.prom")
        with open(path, "w") as fh:
            fh.write(render_prometheus(bundle))
        written.append(path)
    if fmt in ("html", "all"):
        path = os.path.join(out_dir, "dashboard.html")
        with open(path, "w") as fh:
            fh.write(render_dashboard(bundle, title=title))
        written.append(path)
    return written
