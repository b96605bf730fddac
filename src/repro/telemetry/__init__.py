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

import importlib

#: name -> the module of this package that defines it; imported on
#: first use, so a cell without telemetry loads only its config.
_EXPORTS = {
    "TelemetryConfig": "sampler",
    "TelemetrySampler": "sampler",
    "SeriesRing": "series",
    "TreeTracker": "tracker",
    "TreeRecord": "tracker",
    "write_jsonl": "export",
    "write_bundle": "export",
    "render_prometheus": "export",
    "render_dashboard": "export",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
