"""Delivery accounting.

The paper bases its evaluation on two metrics (§IV-A): *Flow
Bandwidth* (throughput achieved by each traffic flow over time) and
*network throughput*.  The :class:`Collector` accumulates delivered
bytes into fixed time bins per flow; series extraction then gives the
exact curves of Figs. 7–10.  A series is a pair of plain float lists
(bin mid-times, rates): building one loads no NumPy, and the readers
that do array arithmetic on it (:mod:`repro.metrics.analysis`) take
what they are given through ``np.asarray``.

Unit convenience: with time in nanoseconds and sizes in bytes,
**1 byte/ns = 1 GB/s**, so all rates below read directly in GB/s.
"""

from __future__ import annotations

import math
from array import array
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

from repro.network.packet import Packet

__all__ = ["Collector"]

#: (bin mid-times ns, rates GB/s), one float per bin.
Series = Tuple[List[float], List[float]]


class Collector:
    """Time-binned delivery recorder.

    Parameters
    ----------
    bin_ns:
        Width of a measurement bin (default 100 µs — fine enough to
        show the staircases and saw-teeth of the paper's 10 ms plots).

    Every delivery's injection→delivery latency is kept, 8 bytes each
    in its flow's ``array("d")``, so the latency queries are exact.
    """

    def __init__(self, bin_ns: float = 100_000.0) -> None:
        if bin_ns <= 0:
            raise ValueError(f"bin width must be positive, got {bin_ns}")
        self.bin_ns = float(bin_ns)
        self._flow_bins: Dict[str, Dict[int, int]] = defaultdict(lambda: defaultdict(int))
        self._total_bins: Dict[int, int] = defaultdict(int)
        self.delivered_packets = 0
        self.delivered_bytes = 0
        self._latencies: Dict[str, array] = defaultdict(lambda: array("d"))

    # ------------------------------------------------------------------
    def record_delivery(self, pkt: Packet, now: float) -> None:
        """Hook installed on every end node's sink."""
        b = int(now // self.bin_ns)
        self._flow_bins[pkt.flow][b] += pkt.size
        self._total_bins[b] += pkt.size
        self.delivered_packets += 1
        self.delivered_bytes += pkt.size
        if pkt.injected_at is not None:
            self._latencies[pkt.flow].append(now - pkt.injected_at)

    # ------------------------------------------------------------------
    # series extraction
    # ------------------------------------------------------------------
    def flows(self) -> List[str]:
        return sorted(self._flow_bins)

    def flow_series(self, flow: str, t_end: float, t_start: float = 0.0) -> Series:
        """(bin mid-times ns, bandwidth GB/s) for one flow."""
        return self._series(self._flow_bins.get(flow, {}), t_end, t_start)

    def throughput_series(self, t_end: float, t_start: float = 0.0) -> Series:
        """(bin mid-times ns, aggregate delivered GB/s)."""
        return self._series(self._total_bins, t_end, t_start)

    def _series(self, bins: Dict[int, int], t_end: float, t_start: float) -> Series:
        width = self.bin_ns
        idx = range(int(t_start // width), math.ceil(t_end / width))
        return [(i + 0.5) * width for i in idx], [bins.get(i, 0) / width for i in idx]

    # ------------------------------------------------------------------
    # window aggregates
    # ------------------------------------------------------------------
    def flow_bandwidth(self, flow: str, t0: float, t1: float) -> float:
        """Mean delivered bandwidth of ``flow`` over the bins covering
        [t0, t1) — GB/s.  The window is widened to bin boundaries, and
        the division uses the widened span, so a rate can never exceed
        what the bins actually contain."""
        bins = self._flow_bins.get(flow, {})
        total, span = self._window_bytes(bins, t0, t1)
        return total / span

    def total_bandwidth(self, t0: float, t1: float) -> float:
        total, span = self._window_bytes(self._total_bins, t0, t1)
        return total / span

    def _window_bytes(self, bins: Dict[int, int], t0: float, t1: float) -> Tuple[int, float]:
        if t1 <= t0:
            raise ValueError(f"empty window [{t0}, {t1})")
        b0 = int(t0 // self.bin_ns)
        b1 = max(math.ceil(t1 / self.bin_ns), b0 + 1)
        total = sum(bins.get(b, 0) for b in range(b0, b1))
        return total, (b1 - b0) * self.bin_ns

    def mean_latency(self, flow: str) -> Optional[float]:
        """Mean injection→delivery latency of a flow (ns), if observed."""
        samples = self._latencies.get(flow)
        if not samples:
            return None
        return math.fsum(samples) / len(samples)

    def latency_percentile(self, flow: str, q: float) -> Optional[float]:
        """Latency percentile (ns) over every delivery of the flow.

        ``q`` in [0, 100].  Congestion's other victim signature: HoL
        blocking shows up as a p99 explosion long before the mean moves.
        Interpolates linearly between order statistics, as NumPy's
        ``percentile`` does by default, with the same rounding.
        """
        if not (0.0 <= q <= 100.0):
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        samples = self._latencies.get(flow)
        if not samples:
            return None
        ordered = sorted(samples)
        pos = (len(ordered) - 1) * (q / 100)
        lo = math.floor(pos)
        if lo >= len(ordered) - 1:
            return float(ordered[-1])
        a, b = ordered[lo], ordered[lo + 1]
        t = pos - lo
        # from the nearer end, as NumPy's lerp does, so the rounding matches
        return float(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)

    def fairness(self, flows: Iterable[str], t0: float, t1: float) -> float:
        """Jain index of the given flows' bandwidth over a window.

        An empty ``flows`` iterable returns ``nan`` (fairness of
        nothing is undefined, not an error) rather than propagating
        :func:`~repro.metrics.analysis.jain_index`'s ``ValueError``;
        callers aggregating over dynamic flow sets can filter with
        ``math.isnan``.
        """
        from repro.metrics.analysis import jain_index

        rates = [self.flow_bandwidth(f, t0, t1) for f in flows]
        if not rates:
            return float("nan")
        return jain_index(rates)
