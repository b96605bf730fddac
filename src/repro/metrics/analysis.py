"""Curve-shape analysis.

The reproduction criterion is *shape*, not absolute numbers (our
substrate is a packet-grain simulator, not the authors' testbed): who
wins, by roughly what factor, where the regime changes.  These helpers
turn bandwidth series into the comparable quantities EXPERIMENTS.md
tabulates and the claims (:mod:`repro.experiments.claims`) compare.
A series may be a list (a :class:`~repro.experiments.runner.CaseResult`
holds lists) or an array: each helper takes it through ``np.asarray``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

__all__ = [
    "jain_index",
    "series_mean",
    "mean_in_window",
    "oscillation_score",
    "ordering",
    "recovery_time",
]


def jain_index(rates: Sequence[float]) -> float:
    """Jain's fairness index: 1 = perfectly fair, 1/n = maximally unfair.

    ``(sum x)^2 / (n * sum x^2)`` over per-flow bandwidths.  Degenerate
    all-zero inputs return 1.0 (everyone equally starved is "fair").
    """
    import numpy as np  # on first use, as in every function below

    x = np.asarray(list(rates), dtype=float)
    if x.size == 0:
        raise ValueError("need at least one rate")
    if np.any(x < 0):
        raise ValueError("rates must be non-negative")
    peak = x.max()
    if peak == 0:
        return 1.0
    x = x / peak  # scale-invariant; avoids under/overflow in the squares
    total = x.sum()
    return float(total**2 / (x.size * np.square(x).sum()))


def series_mean(times: Sequence[float], values: Sequence[float]) -> float:
    """Mean of a series (uniform bins)."""
    if len(values) == 0:
        raise ValueError("empty series")
    import numpy as np

    return float(np.mean(values))


def mean_in_window(
    times: Sequence[float], values: Sequence[float], t0: float, t1: float
) -> float:
    """Mean of the series over bins whose mid-time lies in [t0, t1)."""
    import numpy as np

    times, values = np.asarray(times), np.asarray(values)
    mask = (times >= t0) & (times < t1)
    if not np.any(mask):
        raise ValueError(f"no samples in [{t0}, {t1})")
    return float(np.mean(values[mask]))


def oscillation_score(values: Sequence[float]) -> float:
    """Relative sawtooth-iness of a series: mean absolute first
    difference over the series mean.  The "saw-shape" instability the
    paper attributes to ITh (Fig. 8b) shows up as a higher score."""
    import numpy as np

    v = np.asarray(values, dtype=float)
    if v.size < 2:
        return 0.0
    mean = v.mean()
    if mean == 0:
        return 0.0
    return float(np.abs(np.diff(v)).mean() / mean)


def ordering(throughputs: Dict[str, float]) -> List[str]:
    """Scheme names sorted best-first (ties broken alphabetically so
    the result is deterministic)."""
    return sorted(throughputs, key=lambda k: (-throughputs[k], k))


def recovery_time(
    times: Sequence[float],
    values: Sequence[float],
    t_event: float,
    level: float,
    sustain_bins: int = 3,
) -> float:
    """First time after ``t_event`` the series stays at or above
    ``level`` for ``sustain_bins`` consecutive bins; ``inf`` if never.

    Measures how quickly a scheme restores throughput after a
    congestion burst ends — the reaction-time axis of the paper's
    ITh-vs-CCFIT comparison.
    """
    import numpy as np

    times, values = np.asarray(times), np.asarray(values)
    mask = times >= t_event
    t = times[mask]
    v = values[mask]
    run = 0
    for i in range(len(v)):
        run = run + 1 if v[i] >= level else 0
        if run >= sustain_bins:
            return float(t[i - sustain_bins + 1])
    return float("inf")
