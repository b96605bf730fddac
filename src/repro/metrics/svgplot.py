"""Dependency-free SVG line charts for the paper's figures.

The evaluation plots are throughput-vs-time and bandwidth-vs-time line
charts; this tiny plotter renders them as standalone SVG files so the
reproduction can produce *figures*, not just ASCII tables, without any
plotting dependency (the environment is offline).

    from repro.metrics.svgplot import LineChart
    chart = LineChart(title="Fig. 8b", xlabel="time (ms)", ylabel="GB/s")
    chart.add_series("CCFIT", times_ms, rates)
    chart.write("fig8b.svg")

Colours follow a fixed, colour-blind-safe cycle; axes get padded
"nice" ticks.  The output is plain SVG 1.1 — any browser renders it.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

__all__ = ["LineChart"]

#: Okabe-Ito palette (colour-blind safe), minus yellow-on-white.
_PALETTE = ["#0072B2", "#D55E00", "#009E73", "#CC79A7", "#56B4E9", "#E69F00", "#000000"]


def _nice_ticks(lo: float, hi: float, n: int = 5) -> List[float]:
    """~n human-friendly tick positions covering [lo, hi]."""
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(n, 1)
    mag = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 2.5, 5, 10):
        step = mult * mag
        if raw <= step:
            break
    start = math.floor(lo / step) * step
    ticks = []
    t = start
    while t <= hi + step * 1e-9:
        if t >= lo - step * 1e-9:
            ticks.append(round(t, 10))
        t += step
    return ticks


def _fmt(v: float) -> str:
    if v == int(v):
        return str(int(v))
    return f"{v:g}"


class LineChart:
    """A minimal multi-series line chart."""

    def __init__(
        self,
        title: str = "",
        xlabel: str = "",
        ylabel: str = "",
        width: int = 640,
        height: int = 400,
        y_min: Optional[float] = 0.0,
    ) -> None:
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.width = width
        self.height = height
        self.y_min = y_min
        self._series: List[Tuple[str, List[float], List[float]]] = []

    def add_series(self, name: str, xs: Sequence[float], ys: Sequence[float]) -> None:
        xs, ys = list(map(float, xs)), list(map(float, ys))
        if len(xs) != len(ys):
            raise ValueError(f"series {name!r}: {len(xs)} x vs {len(ys)} y values")
        if not xs:
            raise ValueError(f"series {name!r} is empty")
        self._series.append((name, xs, ys))

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Return the chart as an SVG document string."""
        if not self._series:
            raise ValueError("no series to plot")
        margin_l, margin_r, margin_t, margin_b = 64, 150, 36, 48
        pw = self.width - margin_l - margin_r
        ph = self.height - margin_t - margin_b

        x_lo = min(min(xs) for _n, xs, _y in self._series)
        x_hi = max(max(xs) for _n, xs, _y in self._series)
        y_lo = min(min(ys) for _n, _x, ys in self._series)
        y_hi = max(max(ys) for _n, _x, ys in self._series)
        if self.y_min is not None:
            y_lo = min(self.y_min, y_lo)
        if y_hi <= y_lo:
            y_hi = y_lo + 1.0
        y_hi *= 1.05

        def sx(x: float) -> float:
            return margin_l + (x - x_lo) / (x_hi - x_lo or 1.0) * pw

        def sy(y: float) -> float:
            return margin_t + ph - (y - y_lo) / (y_hi - y_lo) * ph

        out: List[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}" '
            f'font-family="sans-serif" font-size="12">',
            f'<rect width="{self.width}" height="{self.height}" fill="white"/>',
        ]
        if self.title:
            out.append(
                f'<text x="{self.width / 2:.0f}" y="20" text-anchor="middle" '
                f'font-size="15" font-weight="bold">{self.title}</text>'
            )

        # gridlines + ticks
        for t in _nice_ticks(y_lo, y_hi):
            y = sy(t)
            out.append(
                f'<line x1="{margin_l}" y1="{y:.1f}" x2="{margin_l + pw}" '
                f'y2="{y:.1f}" stroke="#dddddd"/>'
            )
            out.append(
                f'<text x="{margin_l - 6}" y="{y + 4:.1f}" text-anchor="end">{_fmt(t)}</text>'
            )
        for t in _nice_ticks(x_lo, x_hi, 6):
            x = sx(t)
            out.append(
                f'<line x1="{x:.1f}" y1="{margin_t + ph}" x2="{x:.1f}" '
                f'y2="{margin_t + ph + 4}" stroke="#333333"/>'
            )
            out.append(
                f'<text x="{x:.1f}" y="{margin_t + ph + 18}" text-anchor="middle">{_fmt(t)}</text>'
            )

        # axes
        out.append(
            f'<rect x="{margin_l}" y="{margin_t}" width="{pw}" height="{ph}" '
            f'fill="none" stroke="#333333"/>'
        )
        if self.xlabel:
            out.append(
                f'<text x="{margin_l + pw / 2:.0f}" y="{self.height - 10}" '
                f'text-anchor="middle">{self.xlabel}</text>'
            )
        if self.ylabel:
            out.append(
                f'<text x="16" y="{margin_t + ph / 2:.0f}" text-anchor="middle" '
                f'transform="rotate(-90 16 {margin_t + ph / 2:.0f})">{self.ylabel}</text>'
            )

        # series + legend
        for i, (name, xs, ys) in enumerate(self._series):
            colour = _PALETTE[i % len(_PALETTE)]
            pts = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(xs, ys))
            out.append(
                f'<polyline points="{pts}" fill="none" stroke="{colour}" '
                f'stroke-width="1.8"/>'
            )
            ly = margin_t + 12 + i * 18
            lx = margin_l + pw + 12
            out.append(
                f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" '
                f'stroke="{colour}" stroke-width="3"/>'
            )
            out.append(f'<text x="{lx + 28}" y="{ly + 4}">{name}</text>')

        out.append("</svg>")
        return "\n".join(out)

    def write(self, path: str) -> str:
        """Render and write the SVG file; returns ``path``."""
        svg = self.render()
        with open(path, "w") as fh:
            fh.write(svg)
        return path


def chart_results(results, title: str, per_flow: bool = False) -> LineChart:
    """Build a chart from a ``{scheme: CaseResult}`` mapping.

    ``per_flow=False`` plots each scheme's network-throughput series
    (Figs. 7/8); ``per_flow=True`` plots each flow of a *single*
    result (Figs. 9/10 panels).
    """
    chart = LineChart(title=title, xlabel="time (ms)", ylabel="throughput (GB/s)")
    if per_flow:
        (scheme, res), = results.items()
        chart.title = f"{title} — {scheme}"
        for flow, (times, rates) in sorted(res.flow_series.items()):
            chart.add_series(flow, [t / 1e6 for t in times], rates)
    else:
        for scheme, res in results.items():
            times, rates = res.throughput
            chart.add_series(scheme, [t / 1e6 for t in times], rates)
    return chart
