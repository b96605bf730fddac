"""Measurement: time-binned per-flow bandwidth, network throughput,
fairness indices, and curve-shape analysis utilities used to compare
our runs against the paper's figures.

The names below are imported on first use."""

import importlib

#: name -> the module of this package that defines it.
_EXPORTS = {
    "Collector": "collector",
    "jain_index": "analysis",
    "mean_in_window": "analysis",
    "oscillation_score": "analysis",
    "series_mean": "analysis",
    "ProtocolTrace": "trace",
    "TraceEvent": "trace",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
