"""The cell runner: one simulation of one traffic case of §IV.

:func:`run_case` builds the right fabric and workload for one
(case, scheme, seed, time_scale) cell, simulates it, and returns a
:class:`CaseResult` carrying what the figures plot (the
network-throughput series of Fig. 7/8, the per-flow bandwidth series of
Fig. 9/10) plus the aggregates the claims of
:mod:`repro.experiments.claims` compare.  It is keyword-only and is exactly what one
:class:`~repro.experiments.sweep.SimJob` executes; a figure is a grid
of such cells, declared in :mod:`repro.experiments.registry` and run
through :func:`repro.experiments.sweep.run_sweep`.

``time_scale`` shrinks the paper's 10 ms windows proportionally — the
tier-1 claims slice runs at 0.3–0.5x to stay fast; EXPERIMENTS.md
records 1.0x runs.  All runs are deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.ccfit import FIG8_SCHEMES, PAPER_SCHEMES
from repro.core.params import CCParams
from repro.experiments.configs import CONFIG1, CONFIG2, CONFIG3
from repro.metrics.analysis import jain_index
from repro.network.fabric import Fabric, build_fabric
from repro.traffic.flows import attach_traffic
from repro.traffic.patterns import (
    MS,
    case1_flows,
    case2_flows,
    case3_traffic,
    case4_traffic,
)

__all__ = [
    "CaseResult",
    "run_case",
    "CASE_NAMES",
    "PAPER_SCHEMES",
    "FIG8_SCHEMES",
]


@dataclass
class CaseResult:
    """Everything one simulated scheme contributes to a figure.

    The series are plain lists of floats, as the cell's collector built
    them and as JSON holds them: producing, caching and moving a result
    loads no numpy.  Code that does array arithmetic on a series wraps
    it in ``np.asarray`` first (:mod:`repro.metrics.analysis` does).
    """

    scheme: str
    duration: float
    #: (bin mid-times ns, delivered GB/s).
    throughput: Tuple[List[float], List[float]]
    #: flow name -> (times, GB/s) series.
    flow_series: Dict[str, Tuple[List[float], List[float]]] = field(default_factory=dict)
    #: flow name -> mean GB/s over the steady tail window.
    flow_bandwidth: Dict[str, float] = field(default_factory=dict)
    #: aggregate counters from Fabric.stats().
    stats: Dict[str, float] = field(default_factory=dict)
    #: the tail measurement window (ns).
    window: Tuple[float, float] = (0.0, 0.0)
    #: telemetry bundle (:meth:`repro.telemetry.TelemetrySampler.bundle`)
    #: when the cell ran with telemetry enabled; None otherwise.  The
    #: bundle is additive: every other field is byte-identical with
    #: telemetry on or off.
    telemetry: Optional[Dict[str, Any]] = None
    #: routing policy the cell ran under (docs/routing.md).  Serialized
    #: only when not "det", so pre-routing results keep their bytes.
    routing: str = "det"
    #: fault-injector snapshot (:meth:`repro.sim.faults.FaultInjector.
    #: snapshot`) when the cell ran under a FaultPlan; None — and
    #: absent from the serialized form — otherwise (docs/faults.md).
    faults: Optional[Dict[str, Any]] = None
    #: buffer model the cell's switches ran (docs/buffers.md).
    #: Serialized only when not "static", so pre-buffer-model results
    #: keep their bytes.
    buffer_model: str = "static"

    def mean_throughput(self, t0: Optional[float] = None, t1: Optional[float] = None) -> float:
        import numpy as np  # numpy's pairwise mean: the tables' digits

        times, rates = np.asarray(self.throughput[0]), np.asarray(self.throughput[1])
        lo = self.window[0] if t0 is None else t0
        hi = self.window[1] if t1 is None else t1
        mask = (times >= lo) & (times < hi)
        return float(rates[mask].mean()) if mask.any() else 0.0

    def fairness(self, flows: Iterable[str]) -> float:
        return jain_index([self.flow_bandwidth.get(f, 0.0) for f in flows])

    # -- serialization (cache + worker transport) -----------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict; :meth:`from_dict` inverts it losslessly
        (json round-trips finite floats exactly).  The ``telemetry``
        key is present only when a bundle is attached, and the
        ``routing`` key only for non-default policies, so results
        without either serialize exactly as they always have."""
        out: Dict[str, Any] = {
            "scheme": self.scheme,
            "duration": self.duration,
            "throughput": [list(self.throughput[0]), list(self.throughput[1])],
            "flow_series": {
                name: [list(t), list(r)] for name, (t, r) in self.flow_series.items()
            },
            "flow_bandwidth": dict(self.flow_bandwidth),
            "stats": dict(self.stats),
            "window": [self.window[0], self.window[1]],
        }
        if self.telemetry is not None:
            out["telemetry"] = self.telemetry
        if self.routing != "det":
            out["routing"] = self.routing
        if self.faults is not None:
            out["faults"] = self.faults
        if self.buffer_model != "static":
            out["buffer_model"] = self.buffer_model
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CaseResult":
        times, rates = data["throughput"]
        return cls(
            scheme=data["scheme"],
            duration=float(data["duration"]),
            throughput=(list(map(float, times)), list(map(float, rates))),
            flow_series={
                name: (list(map(float, t)), list(map(float, r)))
                for name, (t, r) in data["flow_series"].items()
            },
            flow_bandwidth=dict(data["flow_bandwidth"]),
            stats=dict(data["stats"]),
            window=(float(data["window"][0]), float(data["window"][1])),
            telemetry=data.get("telemetry"),
            routing=data.get("routing", "det"),
            faults=data.get("faults"),
            buffer_model=data.get("buffer_model", "static"),
        )


# ----------------------------------------------------------------------
# the traffic cases: network; workload, length, tail window, bin width
# ----------------------------------------------------------------------
#: the network each case runs on (Table I); its keys are the valid
#: ``case`` identifiers of :func:`run_case` / ``SimJob.case``.
CASE_CONFIG = {"case1": CONFIG1, "case2": CONFIG2, "case3": CONFIG2, "case4": CONFIG3}
CASE_NAMES = tuple(CASE_CONFIG)


def _staircase(traffic):
    """Cases #1-#3: 10 ms (scaled), aggregates over the last fifth."""

    def recipe(time_scale: float):
        duration = 10 * MS * time_scale
        flows, uniform = traffic(time_scale=time_scale)
        window = (0.8 * duration, duration)
        return flows, uniform, duration, window, max(10_000.0, 100_000.0 * time_scale)

    return recipe


def _case4(time_scale: float, num_trees: int = 1, duration_ms: float = 3.0):
    """Case #4, the Fig. 8 scalability probe: the hotspot burst occupies
    [1 ms, 2 ms] (scaled) and the run extends to ``duration_ms`` to
    observe the recovery; the aggregates are taken over the burst
    window itself (where the schemes differ)."""
    flows, uniform = case4_traffic(num_trees=num_trees, time_scale=time_scale)
    window = (1.0 * MS * time_scale, 2.0 * MS * time_scale)
    duration = duration_ms * MS * time_scale
    return flows, uniform, duration, window, max(20_000.0, 100_000.0 * time_scale)


#: case -> ``recipe(time_scale, **knobs)``; a recipe's keywords are the
#: knobs the case takes (declared for cells in ``sweep.KNOBS``).
_WORKLOADS = {
    "case1": _staircase(lambda time_scale: (case1_flows(time_scale=time_scale), [])),
    "case2": _staircase(lambda time_scale: (case2_flows(time_scale=time_scale), [])),
    "case3": _staircase(case3_traffic),
    "case4": _case4,
}


def run_case(
    case: str,
    *,
    scheme: str,
    time_scale: float = 1.0,
    seed: int = 1,
    params: Optional[CCParams] = None,
    routing: str = "det",
    faults=None,
    buffer_model: str = "static",
    telemetry: Optional[float] = None,
    sim_factory=None,
    **knobs,
) -> CaseResult:
    """Run one simulation cell: ``case`` under ``scheme``.

    The keyword-only entry point behind every sweep-engine job
    (:meth:`repro.experiments.sweep.SimJob.run`).  ``routing`` names a
    registered routing policy (docs/routing.md); the default ``det`` is
    the paper's deterministic routing.  ``faults`` is a
    :class:`repro.sim.faults.FaultPlan` (or a spec string for
    :meth:`FaultPlan.parse`) injecting deterministic link/switch
    failures; plan times are expressed at ``time_scale=1.0`` and scaled
    with the cell (docs/faults.md).  ``buffer_model`` names a
    registered buffer model (docs/buffers.md).  ``telemetry`` is a
    sampling period in ns attaching the sampler: the bundle rides on
    the result, every other field stays byte-identical
    (docs/telemetry.md).  With all four at their defaults the cell is
    the paper's.

    ``sim_factory`` is a zero-argument callable returning the
    :class:`repro.sim.engine.Simulator` to run on -- how the golden
    tests inject the heap reference queue and ``benchmarks/e2e`` pins
    ``profile=``.  The cell runs under the invariant guard
    (:mod:`repro.sim.guard`), as every fabric does.  ``knobs`` are the
    case's own (Case #4 takes ``num_trees`` and ``duration_ms``).
    """
    from repro.metrics.collector import Collector

    if case not in CASE_CONFIG:
        raise KeyError(f"unknown case {case!r}; choose from {sorted(CASE_CONFIG)}")
    flows, uniform, duration, window, bin_ns = _WORKLOADS[case](time_scale, **knobs)
    if isinstance(faults, str):
        from repro.sim.faults import FaultPlan

        faults = FaultPlan.parse(faults)
    if faults is not None:
        faults = faults.scaled(time_scale)
    fabric: Fabric = build_fabric(
        CASE_CONFIG[case].topo(),
        scheme=scheme,
        params=params,
        seed=seed,
        collector=Collector(bin_ns=bin_ns),
        sim=sim_factory() if sim_factory is not None else None,
        routing=routing,
        buffer_model=buffer_model,
        faults=faults,
    )
    sampler = None
    if telemetry is not None:
        from repro.metrics.trace import ProtocolTrace
        from repro.telemetry.sampler import EVENTS_LIMIT, TelemetrySampler

        trace = ProtocolTrace(limit=EVENTS_LIMIT).attach(fabric)
        sampler = TelemetrySampler(fabric, interval=telemetry, trace=trace).start()
        fabric.telemetry = sampler
    attach_traffic(fabric, flows=flows, uniform=uniform)
    fabric.run(until=duration)
    c = fabric.collector
    result = CaseResult(
        scheme=scheme,
        duration=duration,
        throughput=c.throughput_series(duration),
        stats=fabric.stats(),
        window=window,
        telemetry=sampler.bundle(duration) if sampler is not None else None,
        routing=fabric.routing,
        faults=fabric.faults.snapshot() if fabric.faults is not None else None,
        buffer_model=fabric.buffer_model,
    )
    for spec in flows:
        result.flow_series[spec.name] = c.flow_series(spec.name, duration)
        result.flow_bandwidth[spec.name] = c.flow_bandwidth(spec.name, *window)
    return result
