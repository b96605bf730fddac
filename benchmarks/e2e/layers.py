"""The traced run: spans, profiles and counts per layer (``--trace 1``).

The untraced run (``workloads.py``) knows only the program's public
surface.  Everything the traced run touches beyond it is named in the
tables at the top of this file; a name the program no longer has stops
the traced run with :class:`MissingLayer` carrying that name, and
leaves the untraced run alone.

The real cell recipe is never re-implemented: the callables below are
wrapped where ``run_case`` looks them up, and a real ``run_case`` call
is made.  A span is ``{name, layer, start, end, parent, op_id}``; a
span's self time is its duration minus its children's.
"""

from __future__ import annotations

import cProfile
import contextlib
import functools
import importlib
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (
    CELLS,
    GRID_EXPERIMENT,
    GRID_SCALE,
    Clock,
    Service,
    cell_kwargs,
    digest,
    fresh_dir,
    grid_jobs,
    job_for,
    job_label,
    nproc,
    run_direct,
    svc_rounds,
)

#: span sites: (owner ``module[:Class]``, attribute, span name).  The
#: layer of a span is its name up to the last dot.
SPAN_SITES = (
    ("repro.experiments.configs:NetworkConfig", "topo", "network.topology.build"),
    ("repro.experiments.runner", "build_fabric", "network.fabric.build"),
    ("repro.experiments.runner", "attach_traffic", "traffic.attach"),
    ("repro.network.fabric:Fabric", "run", "sim.run"),
    ("repro.network.fabric:Fabric", "stats", "metrics.collect"),
    ("repro.metrics.collector:Collector", "throughput_series", "metrics.collect"),
    ("repro.metrics.collector:Collector", "flow_series", "metrics.collect"),
    ("repro.metrics.collector:Collector", "flow_bandwidth", "metrics.collect"),
    ("repro.experiments.sweep:SimJob", "key", "experiments.sweep.key"),
    ("repro.experiments.sweep:ResultCache", "get", "experiments.cache.get"),
    ("repro.experiments.sweep:ResultCache", "put", "experiments.cache.put"),
    ("repro.service.api:ServiceClient", "submit", "service.http.post"),
    ("repro.service.api:ServiceClient", "run", "service.http.get"),
    ("repro.service.api:ServiceClient", "result", "service.http.get"),
    ("repro.service.api:ServiceClient", "manifest", "service.http.get"),
    ("repro.service.api:ServiceClient", "wait", "service.client.wait"),
)
#: the one span cProfile runs inside: the event loop, nothing else.
PROFILED_SPAN = "sim.run"
#: stage metric -> span name; reported as seconds per cell.
STAGES = {
    "network.topology.build_s": "network.topology.build",
    "network.fabric.build_s": "network.fabric.build",
    "traffic.attach_s": "traffic.attach",
    "sim.run_s": "sim.run",
    "metrics.collect_s": "metrics.collect",
    "experiments.encode_s": "experiments.encode",
}
#: profile buckets: ``src/repro`` modules whose self time and calls are
#: reported; C functions go to ``builtins``, every other file to ``other``.
PROFILE_LAYERS = (
    "sim.engine", "sim.faults", "network.link", "network.switch", "network.arbiter",
    "network.buffers", "network.queueing", "network.routing", "network.endnode",
    "network.packet", "core.isolation", "core.cam", "core.throttling", "core.scheme",
    "schemes.pfc", "schemes.rcm", "traffic.flows", "metrics.collector",
)
#: event histogram: callbacks of these classes, by qualified-name prefix.
EVENT_CLASSES = (
    ("repro.network.link:Link", "link"),
    ("repro.network.switch:Switch", "switch"),
    ("repro.network.switch:InputPort", "switch"),
    ("repro.network.switch:OutputPort", "switch"),
    ("repro.network.endnode:EndNode", "endnode"),
    ("repro.network.endnode:IaStage", "endnode"),
    ("repro.traffic.flows:FlowGenerator", "traffic"),
    ("repro.traffic.flows:UniformGenerator", "traffic"),
    ("repro.core.throttling:ThrottleState", "throttling"),
    ("repro.core.isolation:NfqCfqScheme", "isolation"),
)
EVENT_LAYERS = ("link", "switch", "endnode", "traffic", "throttling", "isolation", "other")
#: further names used below, resolved with the rest before anything runs.
OTHER_NAMES = (
    "repro.sim.engine:Simulator",
    "repro.service.api:job_to_spec",
    "repro.service.api:job_from_spec",
    "repro.service.broker:FsBroker",
)


class MissingLayer(Exception):
    """A name in the tables above is gone from the program."""


def resolve(owner: str):
    module, _, attrs = owner.partition(":")
    try:
        obj = importlib.import_module(module)
        for attr in filter(None, attrs.split(".")):
            obj = getattr(obj, attr)
    except (ImportError, AttributeError):
        raise MissingLayer(owner) from None
    return obj


def site_name(owner: str, attr: str) -> str:
    return f"{owner}{'.' if ':' in owner else ':'}{attr}"


def layer_of(span_name: str) -> str:
    return span_name.rpartition(".")[0]


class Tracer:
    """Spans held in memory; ``run.py`` writes them out when the run ends."""

    def __init__(self) -> None:
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name: str, op_id=None, layer=None):
        parent = self._open[-1] if self._open else None
        if op_id is None and parent is not None:
            op_id = self.spans[parent]["op_id"]
        rec = {"name": name, "layer": layer or layer_of(name), "start": time.perf_counter(),
               "end": None, "parent": parent, "op_id": op_id}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def op(self, name: str, op_id: str):
        """A root span of the benchmark's own: one closed-loop operation."""
        return self.span(name, op_id=op_id, layer="bench")


def spanned(tracer, fn, name, profiler=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            if profiler is None:
                return fn(*args, **kwargs)
            profiler.enable()
            try:
                return fn(*args, **kwargs)
            finally:
                profiler.disable()

    return wrapper


@contextlib.contextmanager
def tracing(tracer, profiler=None):
    """Wrap every span site for the duration of the block."""
    saved = []
    try:
        for owner, attr, name in SPAN_SITES:
            obj = resolve(owner)
            original = resolve(site_name(owner, attr))
            saved.append((obj, attr, original))
            setattr(obj, attr, spanned(tracer, original, name,
                                       profiler if name == PROFILED_SPAN else None))
        yield tracer
    finally:
        for obj, attr, original in saved:
            setattr(obj, attr, original)


def self_seconds(spans) -> dict:
    """Span name -> summed self time."""
    out = {}
    for span in spans:
        out[span["name"]] = out.get(span["name"], 0.0) + span["end"] - span["start"]
    for span in spans:
        if span["parent"] is not None:
            parent = spans[span["parent"]]["name"]
            out[parent] -= span["end"] - span["start"]
    return out


def coverage(spans, root: str) -> float:
    """Share of the ``root`` operations' wall that their direct child
    spans account for (the rest is time no layer has claimed)."""
    wall = covered = 0.0
    for span in spans:
        if span["name"] == root:
            wall += span["end"] - span["start"]
        elif span["parent"] is not None and spans[span["parent"]]["name"] == root:
            covered += span["end"] - span["start"]
    return covered / wall if wall else 0.0


def profile_layers(profiler) -> dict:
    """Layer -> [self seconds, calls], bucketed by source file."""
    profiler.create_stats()
    files = {f"repro/{layer.replace('.', '/')}.py": layer for layer in PROFILE_LAYERS}
    out = {layer: [0.0, 0] for layer in (*PROFILE_LAYERS, "builtins", "other")}
    for (filename, _line, _func), (_cc, calls, tottime, _ct, _callers) in profiler.stats.items():
        if filename == "~":
            layer = "builtins"
        else:
            tail = "/".join(Path(filename).parts[-3:])
            layer = files.get(tail, "other")
        out[layer][0] += tottime
        out[layer][1] += calls
    return out


def event_layers(counts: dict) -> dict:
    prefixes = [(resolve(owner).__qualname__ + ".", layer) for owner, layer in EVENT_CLASSES]
    out = dict.fromkeys(EVENT_LAYERS, 0)
    for qualname, n in counts.items():
        layer = next((name for prefix, name in prefixes if qualname.startswith(prefix)), "other")
        out[layer] += n
    return out


def median(values) -> float:
    return float(statistics.median(values))


def timed(fn, *args, **kwargs):
    t = time.perf_counter()
    value = fn(*args, **kwargs)
    return time.perf_counter() - t, value


# ----------------------------------------------------------------------
# passes over the workload's representative cells
# ----------------------------------------------------------------------
def representative_cells(workload, sizes):
    """``run_case`` keyword sets the layer breakdown is taken on: the
    cell itself, or one seed of the small-cell grid for the ladders."""
    if workload in CELLS:
        return [cell_kwargs(workload, sizes)]
    schemes = resolve("repro.experiments.registry").get(GRID_EXPERIMENT).schemes
    return [dict(case=GRID_EXPERIMENT, scheme=s, time_scale=GRID_SCALE * sizes["scale"])
            for s in schemes]


def cell_pass(cells, seed, tally, tracer=None, **extra):
    """One pass of direct ``run_case`` + encode over ``cells``; returns
    each cell's wall and result."""
    walls, results = [], []
    for kw in cells:
        label = job_label(job_for(kw, seed))
        op = tracer.op("cell", label) if tracer else contextlib.nullcontext()
        encode = tracer.span("experiments.encode") if tracer else contextlib.nullcontext()
        t = time.perf_counter()
        with op:
            result = run_direct(kw, seed, **extra)
            with encode:
                dig = digest(result)
        walls.append(time.perf_counter() - t)
        tally.cell(label, dig)
        results.append(result)
    return walls, results


def cell_layers(cells, seed, sizes, tally, tracer, metrics):
    """Untraced, span, profile (twice) and event-count passes; returns
    the cells' results."""
    n = len(cells)
    for kw in cells:  # warm-up, as in the untraced run
        run_direct({**kw, "time_scale": kw["time_scale"] / 10}, seed)
    walls, results = cell_pass(cells, seed, tally)
    with tracing(tracer):
        span_walls, _ = cell_pass(cells, seed, tally, tracer)
    own = self_seconds(tracer.spans)
    for metric, name in STAGES.items():
        metrics[metric] = own.get(name, 0.0) / n
    metrics["trace.overhead_x"] = sum(span_walls) / sum(walls)
    metrics["trace.coverage"] = coverage(tracer.spans, "cell")

    profiles = []
    for _ in range(sizes["profile_passes"]):
        profiler, scratch = cProfile.Profile(), Tracer()
        with tracing(scratch, profiler):
            cell_pass(cells, seed, tally, scratch)
        profiles.append(profile_layers(profiler))
    calls = [{layer: n for layer, (_t, n) in profile.items()} for profile in profiles]
    if any(c != calls[0] for c in calls):
        tally.fail("profiled call counts differ between the traced repeats")
    total = sum(t for t, _calls in profiles[0].values())
    for layer, (tottime, calls) in profiles[0].items():
        metrics[f"{layer}.self_share"] = tottime / total
        metrics[f"{layer}.calls"] = calls

    simulator = resolve("repro.sim.engine:Simulator")
    sims = []

    def counting():
        sims.append(simulator(profile=True))
        return sims[-1]

    cell_pass(cells, seed, tally, sim_factory=counting)
    counts = {}
    for sim in sims:
        for qualname, k in sim.event_counts.items():
            counts[qualname] = counts.get(qualname, 0) + k
    events = sum(counts.values())
    delivered = sum(r.stats["delivered_packets"] for r in results)
    metrics["sim.events"] = events
    metrics["sim.delivered_pkts"] = delivered
    metrics["sim.events_per_pkt"] = events / delivered
    metrics["sim.host_us_per_event"] = own[PROFILED_SPAN] / events * 1e6
    for layer, k in event_layers(counts).items():
        metrics[f"sim.events.{layer}"] = k
    return results


# ----------------------------------------------------------------------
# the cell -> sweep -> pool -> cache rungs
# ----------------------------------------------------------------------
def cache_layers(jobs, results, root, metrics):
    """``SimJob.key`` and ``ResultCache`` timed on the real results."""
    from repro.experiments import ResultCache

    cache = ResultCache(fresh_dir(root, "cache"))
    keys, puts, gets, sizes = [], [], [], []
    for job, result in zip(jobs, results):
        keys.append(timed(lambda: [job.key() for _ in range(50)])[0] / 50)
        key = job.key()
        puts.append(timed(cache.put, key, result, job=job)[0])
        gets.append(timed(cache.get, key)[0])
        sizes.append(cache.path(key).stat().st_size)
    metrics["experiments.sweep.key_us"] = median(keys) * 1e6
    metrics["experiments.cache.put_ms"] = median(puts) * 1e3
    metrics["experiments.cache.get_ms"] = median(gets) * 1e3
    metrics["experiments.cache.entry_kib"] = median(sizes) / 1024


def sweep_layers(workload, cells, jobs, seed, sizes, root, tally, tracer, metrics):
    """Serial cold and warm passes under spans over the representative
    cells, then the pool, untraced, over the workload's own grid."""
    from repro.experiments import SweepOptions, run_sweep

    opts = SweepOptions(cache_dir=fresh_dir(root, "cache"))
    with tracing(tracer):
        for op_id, cached in (("serial-cold", False), ("serial-warm", True)):
            with tracer.op("sweep", op_id), tracer.span("experiments.sweep.run"):
                wall, rep = timed(run_sweep, jobs, options=opts)
            tally.report(rep, served_from_cache=cached)
            if not cached:
                serial = len(jobs) / wall
                stages = sum(s["end"] - s["start"] for s in tracer.spans
                             if s["op_id"] == op_id and s["name"] in STAGES.values())
    metrics["experiments.cache.hit_ratio"] = rep.hits / len(jobs)
    metrics["experiments.sweep.serial_cells_per_s"] = serial
    # what the engine adds around the simulation: keys, the cache miss
    # and put, the result's encoding, its own bookkeeping
    metrics["experiments.sweep.overhead_ms_per_cell"] = (1.0 / serial - stages / len(jobs)) * 1e3

    if workload in CELLS:  # a pool needs two cells: the next seed's beside this one
        pool_jobs = jobs + [job_for(cells[0], seed + 1)]
    else:
        pool_jobs = grid_jobs(range(seed, seed + sizes["sweep_seeds"]), sizes)
    opts = SweepOptions(jobs=nproc(), cache_dir=fresh_dir(root, "cache"))
    wall, rep = timed(run_sweep, pool_jobs, options=opts)
    tally.report(rep, served_from_cache=False)
    metrics["experiments.sweep.pool_speedup_x"] = len(pool_jobs) / wall / serial


# ----------------------------------------------------------------------
# the broker -> HTTP rungs
# ----------------------------------------------------------------------
def broker_layers(jobs, results, root, metrics):
    """Spec codec and an in-process ``FsBroker`` submit / claim /
    complete loop carrying the real result payloads."""
    to_spec = resolve("repro.service.api:job_to_spec")
    from_spec = resolve("repro.service.api:job_from_spec")
    broker = resolve("repro.service.broker:FsBroker")(fresh_dir(root, "broker"))
    payloads = {job.key(): result.to_dict() for job, result in zip(jobs, results)}
    metrics["service.api.codec_us"] = median(
        timed(lambda: [from_spec(to_spec(job)) for _ in range(50)])[0] / 50 for job in jobs
    ) * 1e6
    metrics["service.broker.submit_ms"] = timed(broker.submit, jobs)[0] / len(jobs) * 1e3
    claims, completes = [], []
    while True:
        wall, lease = timed(broker.claim, "bench")
        if lease is None:
            break
        claims.append(wall)
        completes.append(timed(broker.complete, lease.key, "bench", payloads[lease.key])[0])
    metrics["service.broker.claim_ms"] = median(claims) * 1e3
    metrics["service.broker.complete_ms"] = median(completes) * 1e3


def worker_intervals(events):
    """claim->complete and complete->next-claim intervals of the public
    event log (``t`` of ``GET /runs/<id>/events``), oldest first."""
    marks = sorted((e["t"], e["kind"]) for e in events if e["kind"] in ("claim", "complete"))
    busy, gaps = [], []
    for (t0, k0), (t1, k1) in zip(marks, marks[1:]):
        if (k0, k1) == ("claim", "complete"):
            busy.append(t1 - t0)
        elif (k0, k1) == ("complete", "claim"):
            gaps.append(t1 - t0)
    return busy, gaps


def service_layers(seed, sizes, root, tally, tracer, once, direct_s, metrics):
    """One round of the service workload under client-side spans, then
    the run's own event log for the worker's side of the story."""
    import_cli = [sys.executable, "-c", "import repro.cli"]
    metrics["cli.import_s"] = median(timed(subprocess.run, import_cli, check=True)[0]
                                     for _ in range(3))
    with tracing(tracer):
        svc = Service(root)
        try:
            metrics["service.spawn_s"] = svc.spawn_s
            svc.warm_up(seed, sizes)
            samples = svc_rounds(svc, seed, sizes, once, tally, op=tracer.op)
            run_id = samples["grid_runs"][0]["run"]
            metrics["service.http.get_ms"] = median(
                timed(svc.client.run, run_id)[0] for _ in range(20)) * 1e3
            events, requeues = [], 0
            for rec in samples["grid_runs"]:
                events += list(svc.client.events(rec["run"]))
                requeues += svc.client.manifest(rec["run"])["requeued"]
        finally:
            svc.close()
    busy, gaps = worker_intervals(events)
    trips = sorted(samples["trips"])
    metrics["service.http.post_ms"] = median(samples["posts"]) * 1e3
    metrics["service.worker.cell_ms_p50"] = median(busy) * 1e3
    metrics["service.worker.gap_ms_p50"] = median(gaps) * 1e3 if gaps else 0.0
    metrics["service.worker.busy_share"] = sum(busy) / (sum(busy) + sum(gaps))
    metrics["service.roundtrip_ms_p90"] = trips[int(0.9 * (len(trips) - 1))] * 1e3
    metrics["service.roundtrip_overhead_ms"] = (median(trips) - direct_s) * 1e3
    metrics["service.requeues"] = requeues
    metrics["experiments.cache.hit_ratio"] = sum(samples["warm_hits"]) / len(samples["warm_hits"])


#: metrics of rungs a workload never reaches read 0 on it.
UNREACHED = (
    "experiments.sweep.serial_cells_per_s", "experiments.sweep.pool_speedup_x",
    "experiments.sweep.overhead_ms_per_cell", "experiments.cache.hit_ratio",
    "service.api.codec_us", "service.broker.submit_ms", "service.broker.claim_ms",
    "service.broker.complete_ms", "service.http.get_ms", "service.http.post_ms",
    "service.worker.cell_ms_p50", "service.worker.gap_ms_p50", "service.worker.busy_share",
    "service.roundtrip_ms_p90", "service.roundtrip_overhead_ms", "service.spawn_s",
    "service.requeues", "cli.import_s",
)


def traced(workload, seed, sizes, root, tally) -> dict:
    for owner in (*(site_name(owner, attr) for owner, attr, _ in SPAN_SITES),
                  *(owner for owner, _ in EVENT_CLASSES), *OTHER_NAMES,
                  *(f"repro.{layer}" for layer in PROFILE_LAYERS)):
        resolve(owner)

    metrics = dict.fromkeys(UNREACHED, 0.0)
    tracer = Tracer()
    once = Clock(time.monotonic(), 0.0)  # one round of everything
    once.setup_done()
    cells = representative_cells(workload, sizes)
    jobs = [job_for(kw, seed) for kw in cells]
    results = cell_layers(cells, seed, sizes, tally, tracer, metrics)
    cache_layers(jobs, results, root, metrics)
    if workload == "svc_http":
        broker_layers(jobs, results, root, metrics)
        ccfit = [kw for kw in cells if kw["scheme"] == "CCFIT"]
        direct_s = median(cell_pass(ccfit, seed, tally)[0][0] for _ in range(5))
        service_layers(seed, sizes, root, tally, tracer, once, direct_s, metrics)
    else:
        sweep_layers(workload, cells, jobs, seed, sizes, root, tally, tracer, metrics)
    # the traced run's times are wall times: this says how slow the host was
    once.yard.tick()
    metrics["host.yardstick_ms"] = median(once.yard.samples) * 1e3
    return {"metrics": metrics, "spans": tracer.spans}
