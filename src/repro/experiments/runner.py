"""Figure runners: regenerate every curve of §IV.

Each ``run_*`` function builds the right fabric+workload, simulates,
and returns a :class:`CaseResult` per scheme carrying exactly what the
corresponding figure plots (network-throughput series for Fig. 7/8,
per-flow bandwidth series for Fig. 9/10) plus the aggregates the
shape tests and EXPERIMENTS.md assert on.

The layer is split in two since the sweep engine landed
(:mod:`repro.experiments.sweep`):

* :func:`run_case` is the **cell** entry point — one (case, scheme,
  seed, time_scale) simulation, keyword-only, exactly what one
  :class:`~repro.experiments.sweep.SimJob` executes;
* :func:`run_figure` (and the ``run_fig*`` wrappers) are thin
  **aggregation** drivers: they build one job per scheme and hand the
  grid to the engine, which may fan out across worker processes and/or
  serve cells from the on-disk cache.  With no options they degrade to
  the original serial in-process loop, bit-for-bit.

The legacy positional call forms (``run_case1("1Q", 0.3, 7)``,
``run_fig8(4, FIG8_SCHEMES, ...)``) keep working through thin
backwards-compatible shims.

``time_scale`` shrinks the paper's 10 ms windows proportionally — the
benches run at 0.15–0.3x to stay fast; EXPERIMENTS.md records 1.0x
runs.  All runs are deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

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
    "run_figure",
    "run_case1",
    "run_case2",
    "run_case3",
    "run_case4",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_fig10",
    "CASE_NAMES",
    "PAPER_SCHEMES",
    "FIG8_SCHEMES",
]


@dataclass
class CaseResult:
    """Everything one simulated scheme contributes to a figure."""

    scheme: str
    duration: float
    #: (bin mid-times ns, delivered GB/s).
    throughput: Tuple[np.ndarray, np.ndarray]
    #: flow name -> (times, GB/s) series.
    flow_series: Dict[str, Tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
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
        times, rates = self.throughput
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
            "throughput": [self.throughput[0].tolist(), self.throughput[1].tolist()],
            "flow_series": {
                name: [t.tolist(), r.tolist()] for name, (t, r) in self.flow_series.items()
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
            throughput=(np.asarray(times, dtype=float), np.asarray(rates, dtype=float)),
            flow_series={
                name: (np.asarray(t, dtype=float), np.asarray(r, dtype=float))
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


def _run(
    config,
    scheme: str,
    flows,
    uniform,
    duration: float,
    window: Tuple[float, float],
    seed: int,
    params: Optional[CCParams],
    bin_ns: float,
    sim_factory=None,
    validate: Optional[bool] = None,
    telemetry=None,
    routing: str = "det",
    faults=None,
    buffer_model: Optional[str] = None,
) -> CaseResult:
    from repro.metrics.collector import Collector

    if buffer_model is not None:
        base = params if params is not None else CCParams()
        if base.buffer_model != buffer_model:
            params = base.with_overrides(buffer_model=buffer_model)
    sim = sim_factory() if sim_factory is not None else None
    fabric: Fabric = build_fabric(
        config.topo(),
        scheme=scheme,
        params=params,
        seed=seed,
        collector=Collector(bin_ns=bin_ns),
        sim=sim,
        validate=validate,
        routing=routing,
        faults=faults,
    )
    sampler = None
    if telemetry is not None:
        from repro.metrics.trace import ProtocolTrace
        from repro.telemetry import TelemetrySampler

        trace = ProtocolTrace(limit=telemetry.events_limit).attach(fabric)
        sampler = TelemetrySampler(fabric, config=telemetry, trace=trace).start()
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


# ----------------------------------------------------------------------
# cell runners — one independent simulation each (keyword-only)
# ----------------------------------------------------------------------
def _cell_case1(
    *,
    scheme: str,
    time_scale: float,
    seed: int,
    params: Optional[CCParams],
    sim_factory=None,
    validate: Optional[bool] = None,
    telemetry=None,
    routing: str = "det",
    faults=None,
    buffer_model: Optional[str] = None,
) -> CaseResult:
    duration = 10 * MS * time_scale
    return _run(
        CONFIG1,
        scheme,
        case1_flows(time_scale=time_scale),
        [],
        duration,
        window=(0.8 * duration, duration),
        seed=seed,
        params=params,
        bin_ns=max(10_000.0, 100_000.0 * time_scale),
        sim_factory=sim_factory,
        validate=validate,
        telemetry=telemetry,
        routing=routing,
        faults=faults,
        buffer_model=buffer_model,
    )


def _cell_case2(
    *,
    scheme: str,
    time_scale: float,
    seed: int,
    params: Optional[CCParams],
    sim_factory=None,
    validate: Optional[bool] = None,
    telemetry=None,
    routing: str = "det",
    faults=None,
    buffer_model: Optional[str] = None,
) -> CaseResult:
    duration = 10 * MS * time_scale
    return _run(
        CONFIG2,
        scheme,
        case2_flows(time_scale=time_scale),
        [],
        duration,
        window=(0.8 * duration, duration),
        seed=seed,
        params=params,
        bin_ns=max(10_000.0, 100_000.0 * time_scale),
        sim_factory=sim_factory,
        validate=validate,
        telemetry=telemetry,
        routing=routing,
        faults=faults,
        buffer_model=buffer_model,
    )


def _cell_case3(
    *,
    scheme: str,
    time_scale: float,
    seed: int,
    params: Optional[CCParams],
    sim_factory=None,
    validate: Optional[bool] = None,
    telemetry=None,
    routing: str = "det",
    faults=None,
    buffer_model: Optional[str] = None,
) -> CaseResult:
    duration = 10 * MS * time_scale
    flows, uniform = case3_traffic(time_scale=time_scale)
    return _run(
        CONFIG2,
        scheme,
        flows,
        uniform,
        duration,
        window=(0.8 * duration, duration),
        seed=seed,
        params=params,
        bin_ns=max(10_000.0, 100_000.0 * time_scale),
        sim_factory=sim_factory,
        validate=validate,
        telemetry=telemetry,
        routing=routing,
        faults=faults,
        buffer_model=buffer_model,
    )


def _cell_case4(
    *,
    scheme: str,
    time_scale: float,
    seed: int,
    params: Optional[CCParams],
    num_trees: int = 1,
    duration_ms: float = 3.0,
    sim_factory=None,
    validate: Optional[bool] = None,
    telemetry=None,
    routing: str = "det",
    faults=None,
    buffer_model: Optional[str] = None,
) -> CaseResult:
    duration = duration_ms * MS * time_scale
    flows, uniform = case4_traffic(num_trees=num_trees, time_scale=time_scale)
    return _run(
        CONFIG3,
        scheme,
        flows,
        uniform,
        duration,
        window=(1.0 * MS * time_scale, 2.0 * MS * time_scale),
        seed=seed,
        params=params,
        bin_ns=max(20_000.0, 100_000.0 * time_scale),
        sim_factory=sim_factory,
        validate=validate,
        telemetry=telemetry,
        routing=routing,
        faults=faults,
        buffer_model=buffer_model,
    )


_CELLS = {
    "case1": _cell_case1,
    "case2": _cell_case2,
    "case3": _cell_case3,
    "case4": _cell_case4,
}

#: the valid ``case`` identifiers for :func:`run_case` / ``SimJob.case``.
CASE_NAMES = tuple(_CELLS)


def run_case(
    case: str,
    *,
    scheme: str,
    time_scale: Optional[float] = None,
    seed: Optional[int] = None,
    params: Optional[CCParams] = None,
    routing: Optional[str] = None,
    faults=None,
    buffer_model: Optional[str] = None,
    options=None,
    **extra,
) -> CaseResult:
    """Run one simulation cell: ``case`` under ``scheme``.

    This is the unified, keyword-only entry point behind every
    ``run_case*`` wrapper and every sweep-engine job.  ``options`` may
    be a :class:`~repro.experiments.sweep.SweepOptions` supplying the
    defaults for ``time_scale``/``seed``/``params``/``routing``;
    explicit keywords win over it.  ``routing`` names a registered
    routing policy (``det``/``ecmp``/``adaptive``/``flowlet``, see
    docs/routing.md); the default ``det`` is the paper's deterministic
    routing and reproduces pre-policy results byte-for-byte.  ``extra`` carries per-case knobs (Case #4 accepts
    ``num_trees`` and ``duration_ms``) plus ``sim_factory`` — a
    zero-argument callable returning the
    :class:`repro.sim.engine.Simulator` to run on, which is how the
    golden tests inject the heap reference queue and the
    :mod:`repro.perf` harness pins ``profile=``.  ``extra`` may also
    carry ``telemetry``
    — a :class:`repro.telemetry.TelemetryConfig` attaching the sampler
    (results stay byte-identical; the bundle rides on the result) —
    which otherwise defaults from ``options.telemetry``.

    ``faults`` is a :class:`repro.sim.faults.FaultPlan` (or a spec
    string for :meth:`FaultPlan.parse`) injecting deterministic link/
    switch failures; it defaults from ``options.faults``.  Plan times
    are expressed at ``time_scale=1.0`` and scaled automatically so a
    plan stays aligned with the traffic pattern at any scale.  Without
    a plan, results are byte-identical to a fault-free build
    (docs/faults.md).

    ``buffer_model`` names a registered buffer model (``static`` /
    ``shared``, docs/buffers.md); it defaults from
    ``options.buffer_model`` and overrides ``params.buffer_model`` when
    given.  ``None`` with default params runs the ``static`` golden
    reference, byte-identical to pre-buffer-model results.
    """
    if case not in _CELLS:
        raise KeyError(f"unknown case {case!r}; choose from {sorted(_CELLS)}")
    if time_scale is None:
        time_scale = getattr(options, "time_scale", None) if options is not None else None
        time_scale = 1.0 if time_scale is None else time_scale
    if seed is None:
        seed = getattr(options, "seed", None) if options is not None else None
        seed = 1 if seed is None else seed
    if params is None and options is not None:
        params = getattr(options, "params", None)
    if routing is None:
        routing = getattr(options, "routing", None) if options is not None else None
        routing = "det" if routing is None else routing
    if faults is None and options is not None:
        faults = getattr(options, "faults", None)
    if buffer_model is None and options is not None:
        buffer_model = getattr(options, "buffer_model", None)
    if buffer_model is not None:
        extra["buffer_model"] = buffer_model
    if isinstance(faults, str):
        from repro.sim.faults import FaultPlan

        faults = FaultPlan.parse(faults)
    if faults is not None:
        if time_scale != 1.0:
            faults = faults.scaled(time_scale)
        extra["faults"] = faults
    if extra.get("telemetry") is None and options is not None:
        telemetry = getattr(options, "telemetry", None)
        if telemetry is not None:
            extra["telemetry"] = telemetry
    return _CELLS[case](
        scheme=scheme, time_scale=time_scale, seed=seed, params=params, routing=routing, **extra
    )


# ----------------------------------------------------------------------
# legacy per-case wrappers (old positional call forms keep working)
# ----------------------------------------------------------------------
def _legacy(case: str, arg_order: Tuple[str, ...], args: tuple, kw: dict) -> CaseResult:
    if len(args) > len(arg_order):
        raise TypeError(f"run_{case}() takes at most {len(arg_order)} positional arguments")
    for name, value in zip(arg_order, args):
        if name in kw:
            raise TypeError(f"run_{case}() got multiple values for argument {name!r}")
        kw[name] = value
    return run_case(case, **kw)


def run_case1(*args, **kwargs) -> CaseResult:
    """Config #1, Traffic Case #1 (Figs. 7a and 9).

    Canonically keyword-only (``scheme=``, ``time_scale=``, ``seed=``,
    ``params=``, ``options=``); the legacy positional order
    ``(scheme, time_scale, seed, params)`` is still accepted.
    """
    return _legacy("case1", ("scheme", "time_scale", "seed", "params"), args, kwargs)


def run_case2(*args, **kwargs) -> CaseResult:
    """Config #2, Traffic Case #2 (Figs. 7b and 10)."""
    return _legacy("case2", ("scheme", "time_scale", "seed", "params"), args, kwargs)


def run_case3(*args, **kwargs) -> CaseResult:
    """Config #2, Traffic Case #3 = Case #2 plus uniform noise (Fig. 7c)."""
    return _legacy("case3", ("scheme", "time_scale", "seed", "params"), args, kwargs)


def run_case4(*args, **kwargs) -> CaseResult:
    """Config #3, Traffic Case #4: the Fig. 8 scalability probe.

    The hotspot burst occupies [1 ms, 2 ms] (scaled); the run extends
    to ``duration_ms`` (default 3.0) to observe the recovery.  The tail
    window for aggregates is the burst window itself (where the schemes
    differ).  Accepts ``num_trees`` (legacy second positional).
    """
    return _legacy(
        "case4",
        ("scheme", "num_trees", "time_scale", "seed", "params", "duration_ms"),
        args,
        kwargs,
    )


# ----------------------------------------------------------------------
# figure-level drivers — thin aggregation over the sweep engine
# ----------------------------------------------------------------------
def run_figure(
    name: str,
    *,
    schemes: Optional[Iterable[str]] = None,
    time_scale: Optional[float] = None,
    seed: Optional[int] = None,
    params: Optional[CCParams] = None,
    options=None,
) -> Dict[str, CaseResult]:
    """Run every (scheme) cell of one registered figure/case experiment.

    ``name`` is a :mod:`repro.experiments.registry` key (``"fig7a"``,
    ``"fig9"``, ``"case3"``, ...).  The grid goes through
    :func:`repro.experiments.sweep.run_sweep`, so an ``options`` object
    with ``jobs > 1`` fans the schemes out across worker processes and
    ``cache_dir`` memoizes the cells on disk; without options the run
    is serial and uncached, identical to the historical in-process
    loop.
    """
    from repro.experiments import registry  # deferred: registry imports sweep imports us

    exp = registry.get(name)
    results, _report = exp.run(
        schemes=tuple(schemes) if schemes is not None else None,
        options=options,
        time_scale=time_scale,
        seed=seed,
        params=params,
    )
    return results


def _legacy_figure(name: str, arg_order: Tuple[str, ...], args: tuple, kw: dict):
    if len(args) > len(arg_order):
        raise TypeError(f"figure driver takes at most {len(arg_order)} positional arguments")
    for pname, value in zip(arg_order, args):
        if pname in kw:
            raise TypeError(f"got multiple values for argument {pname!r}")
        kw[pname] = value
    return run_figure(name, **kw)


def run_fig7(panel: str, *args, **kwargs) -> Dict[str, CaseResult]:
    """Throughput-vs-time curves of Fig. 7 (panel 'a', 'b' or 'c')."""
    if panel not in ("a", "b", "c"):
        raise KeyError(f"Fig. 7 has panels a/b/c, not {panel!r}")
    return _legacy_figure(f"fig7{panel}", ("schemes", "time_scale", "seed"), args, kwargs)


def run_fig8(num_trees: int, *args, **kwargs) -> Dict[str, CaseResult]:
    """Fig. 8: Config #3 under 1 (a), 4 (b) or 6 (c) congestion trees."""
    panel = {1: "a", 4: "b", 6: "c"}.get(num_trees)
    if panel is not None:
        return _legacy_figure(f"fig8{panel}", ("schemes", "time_scale", "seed"), args, kwargs)
    # off-grid tree counts still run, straight through the engine
    from repro.experiments import registry

    for name, value in zip(("schemes", "time_scale", "seed"), args):
        kwargs[name] = value
    schemes = kwargs.pop("schemes", None)
    options = kwargs.pop("options", None)
    results, _report = registry.get("fig8a").run(
        schemes=tuple(schemes) if schemes is not None else None,
        options=options,
        num_trees=num_trees,
        **kwargs,
    )
    return results


def run_fig9(*args, **kwargs) -> Dict[str, CaseResult]:
    """Fig. 9: per-flow bandwidth on Config #1 / Case #1 (one panel per
    scheme; the paper shows 1Q/ITh/FBICM and discusses CCFIT)."""
    return _legacy_figure("fig9", ("schemes", "time_scale", "seed"), args, kwargs)


def run_fig10(*args, **kwargs) -> Dict[str, CaseResult]:
    """Fig. 10: per-flow bandwidth on Config #2 / Case #2."""
    return _legacy_figure("fig10", ("schemes", "time_scale", "seed"), args, kwargs)
