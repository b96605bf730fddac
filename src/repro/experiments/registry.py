"""Experiment registry: names -> runnable sweep definitions.

Maps every figure panel and traffic case of §IV (``"fig7a"`` ...
``"fig10"``, ``"case1"`` ... ``"case4"``) to an :class:`Experiment`
bundling the cell runner it decomposes into, its scheme list and how
its results are rendered.  The CLI, the ``run_fig*`` wrappers and
``scripts/make_experiments.py`` all dispatch through this table
instead of hand-written per-subcommand branching, so a new experiment
becomes available everywhere by a single :func:`register` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.ccfit import FIG8_SCHEMES, PAPER_SCHEMES, SCHEMES
from repro.experiments.runner import CaseResult
from repro.experiments.sweep import SimJob, SweepOptions, SweepReport, run_sweep
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
    #: default routing-policy axis (docs/routing.md).  Empty means one
    #: policy per grid — whatever the caller/options select (usually
    #: "det"); a non-empty tuple (the ``routing_grid`` experiment)
    #: crosses every scheme with every listed policy.
    routings: Tuple[str, ...] = ()
    #: default fault-scenario axis (docs/faults.md): named
    #: :class:`~repro.sim.faults.FaultPlan`\ s (or None for the
    #: fault-free baseline) crossed with every (scheme, routing) cell.
    #: Empty means one scenario per grid — whatever the caller/options
    #: inject (usually none).
    faults: Tuple[Optional[FaultPlan], ...] = ()
    #: default buffer-model axis (docs/buffers.md): registered model
    #: names crossed with every cell (the ``datacenter_incast``
    #: experiment pits static against shared).  Empty means one model
    #: per grid — whatever the caller/options select (usually the
    #: params default, "static").
    buffer_models: Tuple[str, ...] = ()

    def jobs(
        self,
        *,
        schemes: Optional[Tuple[str, ...]] = None,
        routings: Optional[Tuple[str, ...]] = None,
        time_scale: float = 1.0,
        seed: int = 1,
        params=None,
        telemetry=None,
        routing: str = "det",
        faults=None,
        buffer_model=None,
        **overrides,
    ) -> List[SimJob]:
        """Decompose into one :class:`SimJob` per (scheme, routing,
        fault-scenario, buffer-model) cell.  ``overrides`` update the
        static ``extra`` knobs (the ``trees`` CLI command overrides
        ``num_trees`` this way).  The routing axis defaults to
        :attr:`routings`, falling back to the single policy
        ``routing``; the fault axis defaults to :attr:`faults`, falling
        back to the single plan ``faults`` (usually None); the buffer
        axis defaults to :attr:`buffer_models`, falling back to the
        single model ``buffer_model`` (usually None = params
        default)."""
        extra = dict(self.extra)
        extra.update(overrides)
        axis = routings if routings is not None else self.routings
        if not axis:
            axis = (routing,)
        axis_f = self.faults if self.faults else (faults,)
        axis_b = self.buffer_models if self.buffer_models else (buffer_model,)
        return [
            SimJob(
                case=self.case,
                scheme=s,
                time_scale=time_scale,
                seed=seed,
                params=params,
                extra=tuple(sorted(extra.items())),
                telemetry=telemetry,
                routing=r,
                faults=f,
                buffer_model=b,
            )
            for s in (schemes if schemes is not None else self.schemes)
            for r in axis
            for f in axis_f
            for b in axis_b
        ]

    def run(
        self,
        *,
        schemes: Optional[Tuple[str, ...]] = None,
        routings: Optional[Tuple[str, ...]] = None,
        options: Optional[SweepOptions] = None,
        time_scale: Optional[float] = None,
        seed: Optional[int] = None,
        params=None,
        **overrides,
    ) -> Tuple[Dict[str, CaseResult], SweepReport]:
        """Run the grid through the sweep engine; explicit keywords win
        over the corresponding ``options`` fields.

        The result mapping is keyed by scheme for det cells and
        ``"<scheme>@<routing>"`` for non-det cells, so single-policy
        grids keep their historical keys while routing grids stay
        unambiguous; fault-scenario cells append ``"+<plan label>"``
        (the ``fault_resilience`` grid) and non-static buffer-model
        cells append ``"%<model>"`` (the ``datacenter_incast``
        grid)."""
        opts = options if options is not None else SweepOptions()
        jobs = self.jobs(
            schemes=schemes,
            routings=routings,
            time_scale=opts.time_scale if time_scale is None else time_scale,
            seed=opts.seed if seed is None else seed,
            params=params if params is not None else opts.params,
            telemetry=opts.telemetry,
            routing=opts.routing,
            faults=getattr(opts, "faults", None),
            buffer_model=getattr(opts, "buffer_model", None),
            **overrides,
        )
        report = run_sweep(jobs, options=opts)
        results = {}
        for job, res in zip(report.jobs, report.results):
            if res is None:
                continue
            key = job.scheme if job.routing == "det" else f"{job.scheme}@{job.routing}"
            if job.faults is not None:
                key += f"+{job.faults.label()}"
            elif self.faults:
                key += "+none"  # the grid's fault-free baseline cell
            if job.buffer_model is not None and job.buffer_model != "static":
                key += f"%{job.buffer_model}"
            results[key] = res
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
    serve``).  Fault-plan axes are reported by label (plans themselves
    are not part of the submission protocol; they arrive as spec
    strings)."""
    out: List[Dict[str, Any]] = []
    for exp in REGISTRY.values():
        out.append({
            "name": exp.name,
            "title": exp.title,
            "case": exp.case,
            "kind": exp.kind,
            "schemes": list(exp.schemes),
            "routings": list(exp.routings) or ["det"],
            "buffer_models": list(exp.buffer_models) or ["static"],
            "faults": [
                plan.label() if plan is not None else "none" for plan in exp.faults
            ] or ["none"],
            "extra": dict(exp.extra),
            "flows": list(exp.flows),
        })
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
