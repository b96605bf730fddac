"""Experiment registry: names -> runnable sweep definitions.

Maps every figure panel and traffic case of §IV (``"fig7a"`` ...
``"fig10"``, ``"case1"`` ... ``"case4"``) to an :class:`Experiment`
bundling the cell runner it decomposes into, its scheme list and how
its results are rendered.  The CLI, the service and
``scripts/make_experiments.py`` all dispatch through this table
instead of hand-written per-subcommand branching, so a new experiment
becomes available everywhere by a single :func:`register` call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.ccfit import FIG8_SCHEMES, PAPER_SCHEMES, SCHEMES
from repro.experiments.runner import CaseResult
from repro.experiments.sweep import AXES, Axis, SimJob, SweepOptions, SweepReport, run_sweep
from repro.sim.faults import FaultPlan

__all__ = ["Experiment", "register", "get", "names", "experiments", "describe", "REGISTRY"]

#: Fig. 9 plots Case #1's victim + contributors; Fig. 10 Case #2's five flows.
CASE1_FLOWS = ("F0", "F1", "F2", "F5", "F6")
CASE2_FLOWS = ("F0", "F1", "F2", "F3", "F4")


@dataclass(frozen=True)
class Experiment:
    """One named sweep: a grid of (scheme x cell) simulations."""

    name: str
    title: str
    #: the cell runner (``repro.experiments.runner.CASE_NAMES`` entry).
    case: str
    #: default scheme list (the paper's, for figures).
    schemes: Tuple[str, ...]
    #: rendering hint: "series" (throughput vs time) | "flows"
    #: (per-flow bandwidth table).
    kind: str = "series"
    #: flow names the "flows" rendering tabulates.
    flows: Tuple[str, ...] = ()
    #: static per-case knobs (e.g. Fig. 8's ``num_trees``).
    extra: Tuple[Tuple[str, Any], ...] = ()
    # The grids of the axes (``Axis.grid`` names each): the values every
    # scheme is crossed with.  Empty means one value per grid, whatever
    # the caller gives (usually nothing: the axis default).
    #: routing policies (docs/routing.md); the ``routing_grid``
    #: experiment lists all four.
    routings: Tuple[str, ...] = ()
    #: fault scenarios (docs/faults.md): named
    #: :class:`~repro.sim.faults.FaultPlan`\ s, and None for the
    #: fault-free baseline they are compared against.
    faults: Tuple[Optional[FaultPlan], ...] = ()
    #: buffer models (docs/buffers.md); ``datacenter_incast`` pits
    #: static against shared.
    buffer_models: Tuple[str, ...] = ()

    def grid(self, axis: Axis) -> Tuple[Any, ...]:
        """The values this experiment crosses ``axis`` over, or ()."""
        return getattr(self, axis.grid, ()) if axis.grid else ()

    def jobs(
        self,
        *,
        schemes: Optional[Tuple[str, ...]] = None,
        time_scale: float = 1.0,
        seed: int = 1,
        params=None,
        **cell,
    ) -> List[SimJob]:
        """Decompose into one :class:`SimJob` per scheme and per value
        of every axis of :data:`~repro.experiments.sweep.AXES`.  ``cell``
        names an axis (``routing="adaptive"``) to give every job that
        one value, a listable axis's grid (``routings=(...)``) to cross
        several, and anything else is a case knob overriding the static
        ``extra`` (the ``trees`` CLI command overrides ``num_trees``
        this way).  An axis is crossed over what the caller listed,
        else over what this experiment declares, else it is the one
        value given (usually none: the default)."""
        grids = []
        for axis in AXES:
            one = cell.pop(axis.name, axis.default)
            listed = cell.pop(axis.grid, None) if axis.listable else None
            grids.append(listed or self.grid(axis) or (one,))
        extra = {**dict(self.extra), **cell}
        return [
            SimJob(self.case, scheme, time_scale, seed, params, extra,
                   **{axis.name: value for axis, value in zip(AXES, combo)})
            for scheme in (schemes if schemes is not None else self.schemes)
            for combo in itertools.product(*grids)
        ]

    def run(
        self, *, options: Optional[SweepOptions] = None, **cell
    ) -> Tuple[Dict[str, CaseResult], SweepReport]:
        """Run the grid ``jobs(**cell)`` through the sweep engine.

        The result mapping is keyed by scheme plus what the cell's axes
        add to its label (:meth:`SimJob.suffix`): ``"CCFIT"`` for the
        paper's cell, ``"CCFIT@adaptive+flap%shared"`` off it, so
        single-policy grids keep their historical keys while crossed
        grids stay unambiguous; the fault-free cell of a grid that
        crosses fault scenarios reads ``"+none"``."""
        report = run_sweep(self.jobs(**cell), options=options)
        crossed = [axis.name for axis in AXES if self.grid(axis)]
        results = {
            job.scheme + job.suffix(crossed): res
            for job, res in zip(report.jobs, report.results)
            if res is not None
        }
        return results, report


REGISTRY: Dict[str, Experiment] = {}


def register(exp: Experiment) -> Experiment:
    if exp.name in REGISTRY:
        raise KeyError(f"experiment {exp.name!r} already registered")
    REGISTRY[exp.name] = exp
    return exp


def get(name: str) -> Experiment:
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; choose from {', '.join(names())}"
        ) from None


def names() -> Tuple[str, ...]:
    return tuple(REGISTRY)


def experiments() -> Tuple[Experiment, ...]:
    return tuple(REGISTRY.values())


def describe() -> List[Dict[str, Any]]:
    """JSON-safe descriptors of every registered experiment — the
    registry as an API surface (``GET /experiments`` on ``repro
    serve``).  Each axis an experiment can cross is listed under its
    grid name by the text its values show in labels (a fault plan by
    its label: plans themselves arrive as spec strings)."""
    out: List[Dict[str, Any]] = []
    for exp in REGISTRY.values():
        row = {
            "name": exp.name,
            "title": exp.title,
            "case": exp.case,
            "kind": exp.kind,
            "schemes": list(exp.schemes),
            "extra": dict(exp.extra),
            "flows": list(exp.flows),
        }
        for axis in AXES:
            if axis.grid is not None:
                row[axis.grid] = [axis.text(v) for v in exp.grid(axis) or (axis.default,)]
        out.append(row)
    return out


# ---------------------------------------------------------------- figures
register(Experiment("fig7a", "Fig. 7a — network throughput vs time (Config #1 / Case #1)",
                    case="case1", schemes=PAPER_SCHEMES, kind="series"))
register(Experiment("fig7b", "Fig. 7b — network throughput vs time (Config #2 / Case #2)",
                    case="case2", schemes=PAPER_SCHEMES, kind="series"))
register(Experiment("fig7c", "Fig. 7c — network throughput vs time (Config #2 / Case #3)",
                    case="case3", schemes=PAPER_SCHEMES, kind="series"))
register(Experiment("fig8a", "Fig. 8a — Config #3, 1 congestion tree",
                    case="case4", schemes=FIG8_SCHEMES, kind="series",
                    extra=(("num_trees", 1),)))
register(Experiment("fig8b", "Fig. 8b — Config #3, 4 congestion trees",
                    case="case4", schemes=FIG8_SCHEMES, kind="series",
                    extra=(("num_trees", 4),)))
register(Experiment("fig8c", "Fig. 8c — Config #3, 6 congestion trees",
                    case="case4", schemes=FIG8_SCHEMES, kind="series",
                    extra=(("num_trees", 6),)))
register(Experiment("fig9", "Fig. 9 — per-flow bandwidth (Config #1 / Case #1, fairness)",
                    case="case1", schemes=PAPER_SCHEMES, kind="flows", flows=CASE1_FLOWS))
register(Experiment("fig10", "Fig. 10 — per-flow bandwidth (Config #2 / Case #2)",
                    case="case2", schemes=PAPER_SCHEMES, kind="flows", flows=CASE2_FLOWS))

# ---------------------------------------------------------------- cases
_ALL_SCHEMES = tuple(SCHEMES)
register(Experiment("case1", "Traffic Case #1 on Config #1 (hotspot staircase + victim)",
                    case="case1", schemes=_ALL_SCHEMES, kind="flows", flows=CASE1_FLOWS))
register(Experiment("case2", "Traffic Case #2 on Config #2 (two hot nodes)",
                    case="case2", schemes=_ALL_SCHEMES, kind="flows", flows=CASE2_FLOWS))
register(Experiment("case3", "Traffic Case #3 on Config #2 (Case #2 + uniform noise)",
                    case="case3", schemes=_ALL_SCHEMES, kind="flows", flows=CASE2_FLOWS))
register(Experiment("case4", "Traffic Case #4 on Config #3 (hotspot burst, scalability)",
                    case="case4", schemes=_ALL_SCHEMES, kind="series",
                    extra=(("num_trees", 1),)))

# ---------------------------------------------------------------- routing
# Adaptive routing x congestion control on the Fig. 8b incast (Config
# #3, 4 simultaneous congestion trees): does spreading flows over the
# alternative upward paths help or hurt once CCFIT/FBICM isolate the
# congested flows?  (Cf. Rocher-Gonzalez et al. on the interaction of
# adaptive routing and congestion control in fat-trees.)
register(Experiment("routing_grid",
                    "Routing x scheme grid on Config #3 (4 congestion trees)",
                    case="case4", schemes=("ITh", "FBICM", "CCFIT"), kind="grid",
                    extra=(("num_trees", 4),),
                    routings=("det", "ecmp", "adaptive", "flowlet")))

# ---------------------------------------------------------------- faults
# Fault scenarios on the Fig. 8a incast (Config #3, one congestion
# tree; hotspot burst [1 ms, 2 ms]).  Each plan strikes mid-burst, when
# congestion control is actively isolating/throttling: ``flap`` drops a
# leaf uplink for 300 us and restores it, ``kill`` severs it for good,
# ``degrade`` quarters a spine uplink's bandwidth.  Plan times are at
# time_scale=1.0 and scale with the cell.  The None entry is the
# fault-free baseline every scenario is compared against (keyed
# "+none"); see docs/faults.md and report.render_fault_matrix.
_FAULT_SCENARIOS = (
    None,
    FaultPlan.parse("down:s0p4->s16p0@1.2ms;up:s0p4->s16p0@1.5ms", name="flap"),
    FaultPlan.parse("kill:s0p4->s16p0@1.2ms", name="kill"),
    FaultPlan.parse("degrade:s16p4->s32p0@1.1ms:bw=0.25", name="degrade"),
)
register(Experiment("fault_resilience",
                    "Scheme x routing x fault scenario on Config #3 (1 tree)",
                    case="case4", schemes=("ITh", "FBICM", "CCFIT"), kind="faults",
                    extra=(("num_trees", 1),),
                    routings=("det", "adaptive", "flowlet"),
                    faults=_FAULT_SCENARIOS))

# ---------------------------------------------------------------- buffers
# Datacenter stack vs CCFIT on the Fig. 8a incast (Config #3, one
# congestion tree): the paper's congested-flow isolation schemes
# against the RoCEv2 answer — shared switch memory with dynamic
# thresholds and 802.1Qbb PAUSE (docs/buffers.md) — crossed with the
# buffer organisation itself, so each scheme is measured both on the
# paper's per-port partitioning and on the shared pool that makes PFC
# bite.  ``report.render_pfc_matrix`` tabulates throughput alongside
# the PAUSE-storm counters (pfc_pauses_sent, headroom peaks) and the
# victim-flow bandwidth that shows PFC's congestion spreading.
register(Experiment("datacenter_incast",
                    "Scheme x buffer model on Config #3 (incast, PFC vs CCFIT)",
                    case="case4", schemes=("ITh", "FBICM", "CCFIT", "PFC+RCM"),
                    kind="buffers",
                    extra=(("num_trees", 1),),
                    buffer_models=("static", "shared")))
