"""The paper's claims, one table.

Each row of :data:`CLAIMS` is one statement of the evaluation (§IV,
Figs. 7-10), measured: a registered experiment (plus any
:class:`~repro.core.params.CCParams` overrides), the statement with
its figure or section, and one comparison over the experiment's
:class:`~repro.experiments.runner.CaseResult`\\ s, ``a > margin * b``
on every seed (:func:`claim_holds`).  A side is one scheme's metric
or a constant.

A row carries the verdict it is expected to give at paper scale
(time scale 1, seed 1): ``scripts/make_experiments.py`` renders every
row into EXPERIMENTS.md and exits 1 when a verdict differs.  A row
expected to fail records a divergence from the paper.  Rows of the
experiments in :data:`SLICE` also carry their verdict at that reduced
scale, over its seeds: ``tests/test_claims.py`` evaluates them in
tier-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum
from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

from repro.core.params import CCParams
from repro.experiments import registry
from repro.experiments.runner import CaseResult
from repro.experiments.sweep import SweepOptions, SweepReport, run_sweep

__all__ = ["Metric", "Claim", "CLAIMS", "SLICE", "claim_holds", "measure", "render_claims"]


@dataclass(frozen=True)
class Metric:
    """A number read off one scheme's result, and how it prints."""

    label: str
    of: Callable[[CaseResult], float]
    fmt: str = ".3f"


def flow(name: str) -> Metric:
    """A flow's mean bandwidth (GB/s) over the tail window."""
    return Metric(name, lambda res: res.flow_bandwidth[name])


def jain(label: str, flows: Sequence[str]) -> Metric:
    """Jain's fairness index over ``flows``' tail bandwidths."""
    return Metric(f"jain({label})", lambda res: res.fairness(flows))


#: mean network throughput (GB/s) over the result's window: the steady
#: tail of Cases #1-#3, the hotspot burst of Case #4.
TAIL = Metric("tail GB/s", lambda res: res.mean_throughput())
TOTAL = Metric("total GB/s", lambda res: fsum(res.flow_bandwidth.values()))
CAM_FAILURES = Metric("cam_failures", lambda res: res.stats["cfq_alloc_failures"], ".0f")

#: Case #1's contributors (Fig. 9); Case #2's five flows (Fig. 10).
CONTRIB = jain("contributors", ("F1", "F2", "F5", "F6"))
ALL5 = jain("all flows", registry.CASE2_FLOWS)

#: one scheme's metric, or a constant.
Side = Union[float, Tuple[str, Metric]]


def claim_holds(lhs: Sequence[float], rhs: Sequence[float], margin: float = 1.0) -> bool:
    """Does ``lhs[i] > rhs[i] * margin`` hold seed by seed?

    Paired per-seed comparison is much stronger than comparing means:
    both sides share the seed's workload randomness.
    """
    if len(lhs) != len(rhs):
        raise ValueError("paired comparison needs equal-length sequences")
    return all(a > b * margin for a, b in zip(lhs, rhs))


@dataclass(frozen=True)
class Claim:
    """One row of :data:`CLAIMS`: ``a > margin * b`` on the registered
    experiment that names the id, ``<experiment>.<claim>``."""

    id: str
    #: the paper's statement, with its figure or section.
    paper: str
    a: Side
    b: Side
    margin: float = 1.0
    #: the verdict at paper scale (False: a divergence, recorded).
    expect: bool = True
    #: the verdict at the reduced scale of :data:`SLICE`, for the rows
    #: in it; None leaves the row out of the slice.
    reduced: Optional[bool] = None
    #: ``CCParams`` overrides, as (field, value) pairs.
    params: Tuple[Tuple[str, Any], ...] = ()

    @property
    def experiment(self) -> str:
        return self.id.partition(".")[0]

    def sides(self, results: Mapping[str, CaseResult]) -> Tuple[float, float]:
        return _value(self.a, results), _value(self.b, results)

    def holds(self, runs: Sequence[Mapping[str, CaseResult]]) -> bool:
        """The verdict over ``runs``, one ``{scheme: CaseResult}`` per seed."""
        a, b = zip(*(self.sides(results) for results in runs))
        return claim_holds(a, b, self.margin)


def _value(side: Side, results: Mapping[str, CaseResult]) -> float:
    if isinstance(side, tuple):
        scheme, metric = side
        return float(metric.of(results[scheme]))
    return float(side)


def _text(side: Side, value: float) -> str:
    if isinstance(side, tuple):
        scheme, metric = side
        return f"{scheme} {metric.label} = {value:{metric.fmt}}"
    return f"{value:g}"


def render_claims(rows: Iterable[Tuple[Claim, Mapping[str, CaseResult]]]) -> str:
    """A markdown table of ``(claim, results)`` at one seed: both
    measured sides, the margin and the verdict, marked where it is not
    the one expected at paper scale."""
    lines = ["| claim | paper | a | > margin × | b | verdict |", "|---|---|---|---|---|---|"]
    for claim, results in rows:
        a, b = claim.sides(results)
        ok = claim_holds([a], [b], claim.margin)
        verdict = ("holds" if ok else "fails") + ("" if ok == claim.expect else " (UNEXPECTED)")
        given = "".join(f", {k}={v:g}" for k, v in claim.params)
        lines.append(f"| `{claim.id}`{given} | {claim.paper} | {_text(claim.a, a)} "
                     f"| {claim.margin:g} × | {_text(claim.b, b)} | {verdict} |")
    return "\n".join(lines)


#: a registered experiment, its CCParams overrides, time scale and seed.
Point = Tuple[str, Tuple[Tuple[str, Any], ...], float, int]


def measure(
    points: Iterable[Point], options: Optional[SweepOptions] = None
) -> Tuple[Dict[Point, Dict[str, CaseResult]], SweepReport]:
    """Every point's cells in one :func:`run_sweep` (a cell two points
    share runs once): ``{point: {scheme: CaseResult}}``, and the
    sweep's report.  A point with a failed cell is left out."""
    points = list(dict.fromkeys(points))
    grids = [
        registry.get(name).jobs(time_scale=scale, seed=seed,
                                params=CCParams(**dict(params)) if params else None)
        for name, params, scale, seed in points
    ]
    report = run_sweep([job for jobs in grids for job in jobs], options=options)
    out: Dict[Point, Dict[str, CaseResult]] = {}
    start = 0
    for point, jobs in zip(points, grids):
        results = report.results[start:start + len(jobs)]
        start += len(jobs)
        if None not in results:
            out[point] = {job.scheme: res for job, res in zip(jobs, results)}
    return out, report


#: the tier-1 slice: experiment -> (time scale, seeds).  Figs. 7a and 9
#: are one grid of cells.
SLICE: Dict[str, Tuple[float, Tuple[int, ...]]] = {
    "fig7a": (0.3, (1, 2, 3)),
    "fig9": (0.3, (1, 2, 3)),
    "fig10": (0.5, (1,)),
}

F0, F1, F2, F4, F5, F6 = (flow(f) for f in ("F0", "F1", "F2", "F4", "F5", "F6"))
TIMER_2US, TIMER_32US = (("ccti_timer", 2000.0),), (("ccti_timer", 32000.0),)

CLAIMS: Tuple[Claim, ...] = (
    # -------------------------------------------------------------- Fig. 7
    Claim("fig7a.fbicm-over-1q", "Fig. 7a: the CC techniques stay high; 1Q struggles once "
          "congestion is introduced", ("FBICM", TAIL), ("1Q", TAIL), 1.3, reduced=True),
    Claim("fig7a.ccfit-over-1q", "Fig. 7a: idem, CCFIT", ("CCFIT", TAIL), ("1Q", TAIL), 1.3,
          reduced=True),
    Claim("fig7a.ith-over-1q", "Fig. 7a: idem, ITh", ("ITh", TAIL), ("1Q", TAIL), 1.25,
          reduced=True),
    Claim("fig7b.fbicm-over-1q", "Fig. 7b: a similar picture with several congestion points",
          ("FBICM", TAIL), ("1Q", TAIL), 1.2),
    Claim("fig7b.ccfit-near-1q", "Fig. 7b: idem, CCFIT (which trades throughput for fairness, "
          "Fig. 10)", ("CCFIT", TAIL), ("1Q", TAIL), 0.92),
    Claim("fig7b.ith-near-1q", "Fig. 7b: idem, ITh", ("ITh", TAIL), ("1Q", TAIL), 0.7),
    Claim("fig7b.ith-over-1q", "Fig. 7b: ITh above 1Q (diverges: our ITh gives up throughput "
          "for fairness)", ("ITh", TAIL), ("1Q", TAIL), expect=False),
    Claim("fig7c.fbicm-over-1q", "Fig. 7c: the CC techniques stay high under uniform noise",
          ("FBICM", TAIL), ("1Q", TAIL), 1.02),
    Claim("fig7c.ccfit-near-1q", "Fig. 7c: idem, CCFIT", ("CCFIT", TAIL), ("1Q", TAIL), 0.95),
    Claim("fig7c.ith-near-1q", "Fig. 7c: idem, ITh", ("ITh", TAIL), ("1Q", TAIL), 0.7),
    Claim("fig7c.ith-slow", "Fig. 7c: ITh operates too slowly; it takes time to reach the "
          "others' level", ("CCFIT", TAIL), ("ITh", TAIL)),
    # -------------------------------------------------------------- Fig. 8
    Claim("fig8a.voqnet-ceiling", "Fig. 8a: VOQnet is the maximum", ("VOQnet", TAIL),
          ("CCFIT", TAIL), 0.95),
    Claim("fig8a.ccfit-over-1q", "Fig. 8a: 1Q worst", ("CCFIT", TAIL), ("1Q", TAIL), 1.25),
    Claim("fig8a.fbicm-over-1q", "Fig. 8a: idem, FBICM", ("FBICM", TAIL), ("1Q", TAIL)),
    Claim("fig8a.ccfit-at-fbicm", "Fig. 8a: CCFIT at the level of FBICM (2 CFQs suffice for "
          "one tree)", ("CCFIT", TAIL), ("FBICM", TAIL), 0.99),
    Claim("fig8a.ith-poor", "Fig. 8a: ITh copes poorly", ("CCFIT", TAIL), ("ITh", TAIL), 1.5),
    Claim("fig8b.voqnet-ceiling", "Fig. 8b: VOQnet is the maximum", ("VOQnet", TAIL),
          ("CCFIT", TAIL), 0.95),
    Claim("fig8b.ccfit-over-1q", "Fig. 8b: 1Q worst", ("CCFIT", TAIL), ("1Q", TAIL), 1.25),
    Claim("fig8b.fbicm-over-1q", "Fig. 8b: idem, FBICM", ("FBICM", TAIL), ("1Q", TAIL), 1.2),
    Claim("fig8b.fbicm-exhausted", "§IV-B: with 4 trees FBICM runs out of CFQs (allocations "
          "fail)", ("FBICM", CAM_FAILURES), 0.0),
    Claim("fig8b.ccfit-over-fbicm", "Fig. 8b: CCFIT's throttling frees CFQs; CCFIT above FBICM",
          ("CCFIT", TAIL), ("FBICM", TAIL), 0.99),
    Claim("fig8b.ccfit-over-ith", "Fig. 8b: CCFIT above ITh (diverges: our ITh is stronger)",
          ("CCFIT", TAIL), ("ITh", TAIL), expect=False),
    Claim("fig8c.voqnet-ceiling", "Fig. 8c: VOQnet is the maximum", ("VOQnet", TAIL),
          ("CCFIT", TAIL), 0.95),
    Claim("fig8c.ccfit-over-1q", "Fig. 8c: 1Q worst", ("CCFIT", TAIL), ("1Q", TAIL), 1.2),
    Claim("fig8c.fbicm-over-1q", "Fig. 8c: idem, FBICM", ("FBICM", TAIL), ("1Q", TAIL)),
    Claim("fig8c.ccfit-over-fbicm", "Fig. 8c: with 6 trees CCFIT above FBICM", ("CCFIT", TAIL),
          ("FBICM", TAIL), 0.99),
    Claim("fig8c.ccfit-over-ith", "Fig. 8c: CCFIT above ITh (diverges: our ITh is stronger)",
          ("CCFIT", TAIL), ("ITh", TAIL), expect=False),
    # -------------------------------------------------------------- Fig. 9
    Claim("fig9.1q-victim", "Fig. 9a: under 1Q the victim F0 suffers HoL blocking", 0.8,
          ("1Q", F0), reduced=True),
    Claim("fig9.1q-parking-lot-f5", "Fig. 9a: the parking lot, local F5 gets double remote F1",
          ("1Q", F5), ("1Q", F1), 1.6, reduced=True),
    Claim("fig9.1q-parking-lot-f6", "Fig. 9a: idem, F6 over F2", ("1Q", F6), ("1Q", F2), 1.6,
          reduced=True),
    Claim("fig9.ith-fair", "Fig. 9b: ITh solves the parking lot", ("ITh", CONTRIB), 0.97,
          reduced=True),
    Claim("fig9.ith-victim", "Fig. 9b: ITh improves the victim", ("ITh", F0), ("1Q", F0), 2.0,
          reduced=True),
    Claim("fig9.fbicm-victim", "Fig. 9c: FBICM restores the victim fully", ("FBICM", F0), 2.3,
          reduced=True),
    Claim("fig9.fbicm-unfair", "Fig. 9c: ... but the unfairness has increased", 0.92,
          ("FBICM", CONTRIB), reduced=True),
    Claim("fig9.ccfit-victim", "§I/§V: CCFIT protects the victim", ("CCFIT", F0), 2.3,
          reduced=True),
    Claim("fig9.ccfit-victim-over-1q", "§I/§V: idem, against 1Q", ("CCFIT", F0), ("1Q", F0), 2.5,
          reduced=True),
    Claim("fig9.ccfit-fair", "§I/§V: ... and keeps the contributors fair", ("CCFIT", CONTRIB),
          0.93, reduced=True),
    Claim("fig9.ccfit-fairer-than-fbicm", "§I/§V: combining improves on isolation's fairness",
          ("CCFIT", CONTRIB), ("FBICM", CONTRIB), reduced=True),
    Claim("fig9.ith-timer-2us", "§IV-B: ITh's showing may come from 'unfortunate CC parameter "
          "values': at a 2 µs CCTI_Timer its victim is back at 1Q's level", 0.8, ("ITh", F0),
          params=TIMER_2US),
    Claim("fig9.ccfit-timer-2us", "§IV-B: CCFIT 'is not as sensitive to the parameters': at a "
          "2 µs CCTI_Timer it still protects the victim", ("CCFIT", F0), ("ITh", F0), 2.0,
          params=TIMER_2US),
    Claim("fig9.ccfit-timer-32us", "§IV-B: idem at a 32 µs CCTI_Timer (diverges: CCFIT's "
          "victim falls, ITh's does not)", ("CCFIT", F0), ("ITh", F0), 0.9, expect=False,
          params=TIMER_32US),
    # ------------------------------------------------------------- Fig. 10
    Claim("fig10.1q-parking-lot", "Fig. 10a: 1Q unfair, F4 (a private input port) doubles F1",
          ("1Q", F4), ("1Q", F1), 1.6, reduced=True),
    Claim("fig10.fbicm-parking-lot", "Fig. 10c: FBICM's unfairness dominant", ("FBICM", F4),
          ("FBICM", F1), 1.6, reduced=True),
    Claim("fig10.ith-fair", "Fig. 10b: ITh better on fairness", ("ITh", ALL5), 0.95,
          reduced=True),
    Claim("fig10.fbicm-most-total", "Fig. 10c: FBICM has the highest throughput",
          ("FBICM", TOTAL), ("CCFIT", TOTAL), reduced=True),
    Claim("fig10.ccfit-fair", "Fig. 10d: CCFIT has the highest fairness", ("CCFIT", ALL5), 0.95,
          reduced=True),
    Claim("fig10.ccfit-fairer-than-fbicm", "Fig. 10d: idem, above FBICM", ("CCFIT", ALL5),
          ("FBICM", ALL5), reduced=True),
    Claim("fig10.ccfit-over-ith-total", "Fig. 10d: ... with more throughput than the other "
          "fair scheme, ITh", ("CCFIT", TOTAL), ("ITh", TOTAL), 1.1, reduced=True),
)
