"""Network-wide time-series telemetry (the observability pillar).

The paper's evidence is time-series observability — Figs. 7–10 plot
throughput, CFQ occupancy and CCTI evolution to show congestion trees
forming, being isolated, throttled and drained.  This package samples
a running fabric the way a production fabric manager would:

* :class:`~repro.telemetry.sampler.TelemetrySampler` — periodic
  fixed-schema sampling of every port/node/link into bounded
  ring-buffer series (:class:`~repro.telemetry.series.SeriesRing`);
* :class:`~repro.telemetry.tracker.TreeTracker` — congestion-tree
  lifecycle reconstruction from the
  :class:`~repro.metrics.trace.ProtocolTrace` event stream;
* :mod:`~repro.telemetry.export` — fsync'd JSONL, Prometheus text
  exposition, and a self-contained SVG/HTML dashboard.

Enable it on any run with ``TelemetryConfig`` (runner/sweep API) or
``--telemetry`` (CLI); results stay byte-identical with telemetry on
or off.  See docs/telemetry.md.
"""

from repro.telemetry.export import (
    TELEMETRY_FORMATS,
    render_dashboard,
    render_prometheus,
    write_bundle,
    write_jsonl,
)
from repro.telemetry.sampler import TelemetryConfig, TelemetrySampler
from repro.telemetry.series import SeriesRing
from repro.telemetry.tracker import TreeRecord, TreeTracker

__all__ = [
    "TelemetryConfig",
    "TelemetrySampler",
    "SeriesRing",
    "TreeTracker",
    "TreeRecord",
    "TELEMETRY_FORMATS",
    "write_jsonl",
    "write_bundle",
    "render_prometheus",
    "render_dashboard",
]
