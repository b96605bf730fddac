"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``table1``
    Print Table I and the per-scheme hardware-cost comparison.
``fig 7a|7b|7c|8a|8b|8c|9|10``
    Regenerate one figure of §IV (series/flow tables to stdout).
``case 1|2|3 --scheme CCFIT``
    Run a single traffic case under one scheme and print per-flow
    bandwidths plus the CC counters.
``trees N --scheme CCFIT``
    Run the Case #4 scalability probe with N congestion trees.
``sweep NAME``
    Run any registered experiment (``fig7a`` ... ``fig10``,
    ``case1`` ... ``case4``) through the sweep engine and report the
    cache hit count.  ``repro sweep --list`` enumerates the names.
``telemetry NAME --scheme CCFIT --out DIR``
    Run one experiment cell with the telemetry sampler attached and
    render the bundle (JSONL / Prometheus text / SVG dashboard — pick
    with ``--format``).  See docs/telemetry.md.
``serve --broker DIR --port 8642``
    Long-running service front-end: submit experiments over HTTP
    (``POST /experiments``), stream cell-level progress as NDJSON/SSE,
    fetch cached ``CaseResult``\\ s, scrape live Prometheus
    ``/metrics``, and lease cells to pull workers.  See
    docs/service.md.
``worker --broker URL``
    Pull-based sweep worker: lease cells from a broker (a shared
    directory or an ``http://`` ``repro serve`` endpoint), execute
    them with the standard retry/timeout machinery, publish results
    into the shared content-addressed cache.  See docs/service.md.
``cache [--dir PATH] [--prune ...]``
    Shared-cache hygiene: occupancy stats, ``--prune`` by
    ``--older-than AGE`` and/or ``--max-size SIZE``, ``--quarantined``
    to list quarantined entries, ``--clear`` to drop everything.

Common options: ``--scale`` (time compression, default 0.3),
``--seed``, ``--csv PATH`` (dump the throughput series),
``--jobs N`` (worker processes for the simulation grid),
``--cache-dir PATH`` / ``--no-cache`` (on-disk result cache; ``sweep``
caches by default, the other commands opt in via ``--cache-dir``), and
one option per axis of a cell -- ``--routing``, ``--faults``,
``--buffer-model``, ``--telemetry`` -- generated from the table in
:mod:`repro.experiments.sweep` (``--help`` lists them).  See
docs/sweep.md for the job/cache model.

Resilience options (docs/robustness.md): ``--timeout SECONDS``
(per-cell wall-clock budget), ``--retries N`` (bounded retries with
exponential backoff), ``--manifest PATH`` (structured
ok/retried/failed report), and ``--validate`` (run every simulation
under the invariant guard, :mod:`repro.sim.guard`).  A sweep with
failed cells still renders the surviving results and exits 1; run
again with the same cache, it simulates only what is not cached.

Every simulation command dispatches through
:mod:`repro.experiments.registry`, so registering a new experiment
makes it runnable here with no CLI changes.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Any, Dict, Optional

from repro.experiments import registry
from repro.experiments.configs import CONFIG3, table1
from repro.experiments.costs import cost_table
from repro.experiments.registry import Experiment
from repro.experiments.report import (
    render_fault_matrix,
    render_fig8_summary,
    render_flow_table,
    render_pfc_matrix,
    render_routing_grid,
    render_series,
    render_table,
)
from repro.experiments.runner import CaseResult
from repro.experiments.sweep import (
    AXES,
    CellError,
    SweepOptions,
    SweepReport,
    default_cache_dir,
    parse_names,
    read_axes,
    unknown_name,
)
from repro.sim.guard import ENV_VALIDATE

__all__ = ["main", "build_parser"]


def _add_engine_options(p: argparse.ArgumentParser, suppress: bool = False) -> None:
    """The sweep-engine knobs and the cell axes (one flag per row of
    ``AXES``, plus what refines it), shared by every simulation command.

    They live on the main parser (before the subcommand) *and*, with
    ``default=SUPPRESS``, on each subparser — so both
    ``repro --jobs 4 sweep fig9`` and ``repro sweep fig9 --jobs 4``
    work, and a subparser never clobbers a value given up front.
    """
    sup = argparse.SUPPRESS

    def d(value):
        return sup if suppress else value

    p.add_argument("--jobs", type=int, default=d(1), metavar="N",
                   help="worker processes for the simulation grid (1 = serial)")
    p.add_argument("--cache-dir", type=str, default=d(None), metavar="PATH",
                   help="on-disk result cache directory "
                        "(default: ~/.cache/repro-sweep for `sweep`, off otherwise)")
    p.add_argument("--no-cache", action="store_true", default=d(False),
                   help="disable the on-disk result cache")
    p.add_argument("--timeout", type=float, default=d(None), metavar="SECONDS",
                   help="wall-clock budget per cell attempt, each run in a process "
                        "of its own; a cell that exceeds it is retried, then "
                        "recorded as failed")
    p.add_argument("--retries", type=int, default=d(2), metavar="N",
                   help="retries per failed cell, with exponential backoff (default 2)")
    p.add_argument("--manifest", type=str, default=d(None), metavar="PATH",
                   help="write a structured ok/retried/failed manifest as JSON")
    p.add_argument("--validate", action="store_true", default=d(False),
                   help="run simulations under the runtime invariant guard "
                        "(sets REPRO_SIM_VALIDATE=1 so workers inherit it)")
    for axis in AXES:
        p.add_argument(_flag(axis.name), dest=axis.field, default=d(None),
                       help=axis.help, **axis.cli)
        if axis.refine is not None:
            name, text, kwargs = axis.refine
            p.add_argument(_flag(name), default=d(None), help=text, **kwargs)


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


class _Parser(argparse.ArgumentParser):
    """Argparse with the repo's did-you-mean treatment for a typo'd
    subcommand: same hint + exit-2 contract as unknown experiment and
    scheme names (``unknown_name``), instead of the stock
    usage-dump error."""

    def error(self, message: str) -> "NoReturn":  # noqa: F821 - argparse idiom
        m = re.search(r"argument command: invalid choice: '([^']+)'", message)
        if m:
            print(f"repro: {unknown_name('command', m.group(1), _COMMANDS)}", file=sys.stderr)
            raise SystemExit(2)
        super().error(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="repro",
        description="CCFIT (ICPP 2011) reproduction — regenerate the paper's evaluation",
    )
    p.add_argument("--scale", type=float, default=0.3, help="time compression (1.0 = paper scale)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--csv", type=str, default=None, help="write the throughput series as CSV")
    p.add_argument("--svg", type=str, default=None, help="render the figure as an SVG chart")
    _add_engine_options(p)
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print Table I + scheme hardware costs")

    fig = sub.add_parser("fig", help="regenerate a figure (7a..7c, 8a..8c, 9, 10)")
    fig.add_argument("panel", choices=["7a", "7b", "7c", "8a", "8b", "8c", "9", "10"])

    case = sub.add_parser("case", help="run one traffic case under one scheme")
    case.add_argument("number", type=int, choices=[1, 2, 3])
    case.add_argument("--scheme", default="CCFIT", metavar="NAME",
                      help="congestion-management scheme (validated with a "
                           "did-you-mean hint, exit code 2 on a typo)")

    trees = sub.add_parser("trees", help="Case #4 scalability probe")
    trees.add_argument("count", type=int)
    trees.add_argument("--scheme", default="CCFIT", metavar="NAME",
                      help="congestion-management scheme")

    sweep = sub.add_parser(
        "sweep",
        help="run a registered experiment through the parallel sweep engine",
        description="Decompose an experiment into independent (scheme) cells, "
                    "run them across --jobs worker processes, and memoize the "
                    "cells in the on-disk cache so repeated invocations are "
                    "served without re-simulating.",
    )
    sweep.add_argument("name", nargs="?", metavar="NAME",
                       help="experiment to run (see --list)")
    sweep.add_argument("--list", action="store_true", dest="list_experiments",
                       help="list registered experiments and exit")
    sweep.add_argument("--schemes", "--scheme", type=str, default=None, metavar="A,B,..",
                       help="comma-separated scheme subset (default: the experiment's "
                            "list); names match case-insensitively")

    tele = sub.add_parser(
        "telemetry",
        help="run one experiment cell with the sampler attached and render the bundle",
        description="Run a single (experiment, scheme) cell with telemetry "
                    "enabled and export the bundle: fsync'd JSONL samples, "
                    "Prometheus text exposition and/or a self-contained SVG "
                    "dashboard (see docs/telemetry.md).",
    )
    tele.add_argument("name", metavar="NAME",
                      help="experiment to instrument (see `repro sweep --list`)")
    tele.add_argument("--scheme", default="CCFIT", metavar="NAME",
                      help="congestion-management scheme (default CCFIT)")
    tele.add_argument("--out", default="telemetry-out", metavar="DIR",
                      help="output directory for the rendered bundle (default ./telemetry-out)")
    tele.add_argument("--format", default="all", dest="tele_format", metavar="FMT",
                      help="export format: jsonl | prom | html | all (default all)")
    tele.add_argument("--interval", type=float, default=100_000.0, metavar="NS",
                      help="sampling period in ns (default 100000)")

    serve = sub.add_parser(
        "serve",
        help="run the HTTP service front-end (submit / stream / fetch / metrics)",
        description="Long-running service mode: an HTTP front-end over a shared "
                    "filesystem broker.  Submit experiments (POST /experiments), "
                    "stream cell-level progress (GET /runs/<id>/events, NDJSON or "
                    "SSE), fetch cached CaseResults and telemetry bundles, scrape "
                    "live Prometheus /metrics, and lease cells to `repro worker` "
                    "processes over the /broker/* endpoints (see docs/service.md).",
    )
    serve.add_argument("--broker", default=None, metavar="DIR",
                       help="broker state directory (default: $REPRO_BROKER_DIR "
                            "or ~/.cache/repro-broker)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8642,
                       help="TCP port (default 8642; 0 picks a free port)")
    serve.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="shared result cache (default: the standard sweep "
                            "cache, so service results and in-process sweeps "
                            "memoize into one namespace)")
    serve.add_argument("--lease-ttl", type=float, default=60.0, metavar="S",
                       help="seconds without a heartbeat before a leased cell "
                            "is requeued (default 60)")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request to stderr")

    worker = sub.add_parser(
        "worker",
        help="pull-based sweep worker: lease cells from a broker and run them",
        description="Lease cells from a broker — a shared directory or an "
                    "http:// `repro serve` endpoint — execute them with the "
                    "standard retry/timeout machinery, and publish results into "
                    "the shared content-addressed cache.  Workers are "
                    "crash-safe: a worker that dies mid-cell stops "
                    "heartbeating, its lease expires, and the cell is requeued "
                    "for another worker (see docs/service.md).",
    )
    worker.add_argument("--broker", required=True, metavar="URL",
                        help="broker to lease from: a directory path (or "
                             "dir://PATH) for direct filesystem access, or the "
                             "http://HOST:PORT of a `repro serve` instance")
    worker.add_argument("--id", default=None, dest="worker_id", metavar="NAME",
                        help="worker identity recorded in manifests "
                             "(default: <hostname>-<pid>)")
    worker.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="per-cell wall-clock timeout; runs each cell in a "
                             "quarantined child process")
    worker.add_argument("--retries", type=int, default=2, metavar="N",
                        help="in-worker retries per cell before giving the "
                             "lease back as failed (default 2)")
    worker.add_argument("--heartbeat", type=float, default=None, metavar="S",
                        help="heartbeat period while running a cell "
                             "(default: lease ttl / 4)")
    worker.add_argument("--poll-interval", type=float, default=0.5, metavar="S",
                        help="idle sleep between claim attempts on a broker "
                             "directory (default 0.5); over HTTP the claim "
                             "waits in the server instead")
    worker.add_argument("--max-cells", type=int, default=None, metavar="N",
                        help="exit after completing N cells")
    worker.add_argument("--idle-exit", type=float, default=None, metavar="S",
                        help="exit after S seconds with nothing to claim "
                             "(default: run until interrupted)")

    cache = sub.add_parser(
        "cache",
        help="result-cache hygiene: stats, prune by age/size, quarantine list",
        description="Inspect and maintain the shared content-addressed result "
                    "cache.  With no flags prints occupancy stats; --prune "
                    "removes entries by --older-than age and/or evicts oldest "
                    "entries until the cache fits --max-size.",
    )
    cache.add_argument("--dir", default=None, dest="cache_dir", metavar="PATH",
                       help="cache directory (default: $REPRO_CACHE_DIR or "
                            "~/.cache/repro-sweep)")
    cache.add_argument("--prune", action="store_true",
                       help="remove entries per --older-than / --max-size "
                            "(with neither, prunes only quarantined entries)")
    cache.add_argument("--older-than", default=None, metavar="AGE",
                       help="age threshold for --prune, e.g. 45s, 30m, 12h, 7d")
    cache.add_argument("--max-size", default=None, metavar="SIZE",
                       help="size budget for --prune, e.g. 64K, 500M, 2G "
                            "(oldest entries evicted first)")
    cache.add_argument("--keep-quarantine", action="store_true",
                       help="leave quarantined entries alone while pruning")
    cache.add_argument("--quarantined", action="store_true",
                       help="list quarantined (corrupt) entries and exit")
    cache.add_argument("--clear", action="store_true",
                       help="remove every entry (including quarantine)")
    cache.add_argument("--json", action="store_true", dest="as_json",
                       help="emit machine-readable JSON instead of a table")

    for sp in (fig, case, trees, sweep, tele):
        _add_engine_options(sp, suppress=True)
    return p


def _cell(args: argparse.Namespace, command: Optional[str] = None) -> Dict[str, Any]:
    """The cell fields of a command line, as keywords of
    ``Experiment.run``; a typo raises :class:`CellError` (``main``
    prints it and exits 2).  A ``command`` that runs one cell takes one
    value where `sweep` takes a list, and none means the default."""
    cell = read_axes(vars(args).get)
    if command is not None:
        for axis in AXES:
            if axis.listable:
                values = cell.setdefault(axis.grid, (axis.default,))
                if len(values) > 1:
                    raise CellError(f"`{command}` accepts a single {_flag(axis.name)} value "
                                    f"(got {','.join(values)})")
    return dict(cell, time_scale=args.scale, seed=args.seed)


def _options(args: argparse.Namespace, *, cache_by_default: bool) -> SweepOptions:
    """Build SweepOptions from parsed args.  The cache engages when a
    directory was given explicitly, or by default for ``sweep``;
    ``--no-cache`` always wins."""
    cache_dir = args.cache_dir
    if cache_dir is None and cache_by_default:
        cache_dir = default_cache_dir()
    return SweepOptions(
        jobs=args.jobs,
        cache_dir=None if args.no_cache else cache_dir,
        timeout=args.timeout,
        max_retries=max(0, args.retries),
    )


def _write_csv(path: str, results: Dict[str, CaseResult]) -> None:
    with open(path, "w") as fh:
        fh.write("scheme,time_ns,throughput_gbs\n")
        for scheme, res in results.items():
            times, rates = res.throughput
            for t, r in zip(times, rates):
                fh.write(f"{scheme},{t:.1f},{r:.6f}\n")
    print(f"wrote {path}")


def _print_case(res: CaseResult) -> None:
    print(f"scheme {res.scheme}: {res.duration / 1e6:.2f} ms simulated")
    if res.flow_bandwidth:
        rows = [
            {"flow": f, "GB/s (tail window)": f"{bw:.3f}"}
            for f, bw in sorted(res.flow_bandwidth.items())
        ]
        print(render_table(rows))
    interesting = (
        "delivered_packets",
        "fecn_marked",
        "becns_received",
        "cfq_alloc_failures",
        "events",
    )
    print(render_table([{k: int(res.stats[k]) for k in interesting}]))


def _render_results(exp: Experiment, results: Dict[str, CaseResult], args) -> None:
    """The figure-style rendering, shared by ``fig`` and ``sweep``."""
    if not results:  # every cell failed — the engine report says why
        return
    if exp.kind == "series":
        stride_div = 15 if exp.case == "case4" else 18
        n = len(next(iter(results.values())).throughput[0])
        print(render_series(results, stride=max(1, n // stride_div)))
        if exp.case == "case4":
            print(render_fig8_summary(results))
    elif exp.kind == "grid":
        print(render_routing_grid(results))
    elif exp.kind == "faults":
        print(render_fault_matrix(results))
    elif exp.kind == "buffers":
        print(render_pfc_matrix(results))
    else:
        print(render_flow_table(results, exp.flows))
    if args.csv:
        _write_csv(args.csv, results)
    if args.svg:
        from repro.metrics.svgplot import chart_results

        if exp.kind == "flows" and exp.name in ("fig9", "fig10"):
            # one panel per scheme, suffixed like the paper's (a)-(d)
            base = args.svg[:-4] if args.svg.endswith(".svg") else args.svg
            panel = exp.name[3:]
            for tag, (scheme, res) in zip("abcd", results.items()):
                path = f"{base}{tag}.svg"
                chart_results({scheme: res}, f"Fig. {panel}{tag}", per_flow=True).write(path)
                print(f"wrote {path}")
        else:
            chart_results(results, exp.title.split(" — ")[0]).write(args.svg)
            print(f"wrote {args.svg}")


def _report_engine(
    report: SweepReport,
    opts: SweepOptions,
    args: Optional[argparse.Namespace] = None,
    always: bool = False,
) -> int:
    """Print the engine summary and failure details, write the manifest
    when requested, and turn failures into exit code 1."""
    if always or opts.jobs > 1 or opts.cache_enabled or report.failures:
        print(f"sweep: {report.summary()}")
    for failure in report.failures:
        print(f"sweep: FAILED {failure.summary()}", file=sys.stderr)
    manifest = getattr(args, "manifest", None) if args is not None else None
    if manifest:
        report.write_manifest(manifest)
        print(f"wrote {manifest}")
    return 1 if report.failures else 0


def _cmd_table1(args) -> int:
    print("TABLE I — evaluated network configurations")
    print(render_table(table1()))
    print()
    print("Scheme hardware costs on Config #3 (64 nodes):")
    print(render_table(cost_table(CONFIG3.topo())))
    return 0


def _cmd_fig(args) -> int:
    exp = registry.get(f"fig{args.panel}")
    opts = _options(args, cache_by_default=False)
    results, report = exp.run(options=opts, **_cell(args))
    _render_results(exp, results, args)
    return _report_engine(report, opts, args)


def _cmd_case(args, exp_name: Optional[str] = None, **knobs) -> int:
    exp = registry.get(exp_name or f"case{args.number}")
    opts = _options(args, cache_by_default=False)
    results, report = exp.run(
        schemes=(args.scheme,), options=opts, **_cell(args, args.command), **knobs)
    for res in results.values():  # the one cell, whatever its axes add to its key
        _print_case(res)
        if exp.case == "case4":
            print(f"burst-window throughput: {res.mean_throughput():.1f} GB/s")
    if args.csv:
        _write_csv(args.csv, results)
    return _report_engine(report, opts, args)


def _cmd_trees(args) -> int:
    return _cmd_case(args, "case4", num_trees=args.count)


def _cmd_sweep(args) -> int:
    if args.list_experiments:
        rows = [
            {"name": e["name"], "case": e["case"], "schemes": ",".join(e["schemes"]),
             "routings": ",".join(e["routings"]), "title": e["title"]}
            for e in registry.describe()
        ]
        print(render_table(rows))
        return 0
    if args.name is None:
        print("sweep: experiment name required (try `repro sweep --list`)", file=sys.stderr)
        return 2
    if args.name not in registry.names():
        raise CellError(unknown_name("experiment", args.name, registry.names()))
    exp = registry.get(args.name)
    cell = _cell(args)
    if args.schemes:
        cell["schemes"] = parse_names(str, args.schemes)
    opts = _options(args, cache_by_default=True)
    results, report = exp.run(options=opts, **cell)
    print(exp.title)
    _render_results(exp, results, args)
    return _report_engine(report, opts, args, always=True)


def _cmd_telemetry(args) -> int:
    from repro.telemetry import TELEMETRY_FORMATS, TelemetryConfig, write_bundle

    if args.name not in registry.names():
        raise CellError(unknown_name("experiment", args.name, registry.names()))
    if args.tele_format not in TELEMETRY_FORMATS:
        raise CellError(unknown_name("telemetry format", args.tele_format, TELEMETRY_FORMATS))
    exp = registry.get(args.name)
    opts = _options(args, cache_by_default=False)
    cell = dict(_cell(args, "telemetry"), telemetry=TelemetryConfig(interval=args.interval))
    results, report = exp.run(schemes=(args.scheme,), options=opts, **cell)
    rc = _report_engine(report, opts, args)
    job, res = report.jobs[0], report.results[0]
    if res is None or res.telemetry is None:
        print("telemetry: no bundle produced (cell failed?)", file=sys.stderr)
        return rc or 1
    bundle = res.telemetry
    written = write_bundle(
        bundle, args.out, fmt=args.tele_format,
        title=f"{exp.title} — {job.scheme} {job.suffix()}".rstrip(),
    )
    stats = bundle.get("tree_stats") or {}
    print(
        f"telemetry: {bundle['ticks']} samples at {args.interval:.0f} ns "
        f"({bundle['dropped']} dropped), "
        f"{stats.get('trees', 0)} congestion trees "
        f"(max {stats.get('max_concurrent_trees', 0)} concurrent)"
    )
    for path in written:
        print(f"wrote {path}")
    return rc


_AGE_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}
_SIZE_UNITS = {"b": 1, "k": 1024, "m": 1024**2, "g": 1024**3}


def _parse_age(text: str) -> float:
    """``"45s" | "30m" | "12h" | "7d"`` (or bare seconds) -> seconds."""
    m = re.fullmatch(r"\s*([0-9]*\.?[0-9]+)\s*([smhd]?)\s*", text, re.IGNORECASE)
    if not m:
        raise ValueError(f"bad age {text!r} (expected e.g. 45s, 30m, 12h, 7d)")
    return float(m.group(1)) * _AGE_UNITS.get(m.group(2).lower(), 1.0)


def _parse_size(text: str) -> int:
    """``"64K" | "500M" | "2G"`` (or bare bytes) -> bytes."""
    m = re.fullmatch(r"\s*([0-9]*\.?[0-9]+)\s*([bkmg]?)b?\s*", text, re.IGNORECASE)
    if not m:
        raise ValueError(f"bad size {text!r} (expected e.g. 64K, 500M, 2G)")
    return int(float(m.group(1)) * _SIZE_UNITS.get(m.group(2).lower(), 1))


def default_broker_dir() -> str:
    """``$REPRO_BROKER_DIR`` or ``~/.cache/repro-broker``."""
    env = os.environ.get("REPRO_BROKER_DIR")
    return env if env else os.path.join(os.path.expanduser("~"), ".cache", "repro-broker")


def _cmd_serve(args) -> int:
    from repro.service import serve

    try:
        serve(
            args.broker or default_broker_dir(),
            host=args.host,
            port=args.port,
            cache_dir=args.cache_dir or default_cache_dir(),
            lease_ttl=args.lease_ttl,
            verbose=args.verbose,
        )
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_worker(args) -> int:
    from repro.experiments.resilience import RetryPolicy
    from repro.service import Worker
    from repro.service.api import ServiceError

    policy = RetryPolicy(max_retries=max(0, args.retries))
    worker = Worker(
        args.broker,
        worker_id=args.worker_id,
        policy=policy,
        timeout=args.timeout,
        heartbeat_interval=args.heartbeat,
        poll_interval=args.poll_interval,
        max_cells=args.max_cells,
        idle_exit=args.idle_exit,
    )
    try:
        summary = worker.run()
    except KeyboardInterrupt:
        summary = {"worker": worker.id, "completed": worker.completed,
                   "failed": worker.failed, "elapsed": None}
    except ServiceError as exc:
        # a worker over HTTP is always inside a request, so it is the
        # first to know when its server goes away
        print(f"worker {worker.id}: lost the broker: {exc}", file=sys.stderr)
        return 1
    print(
        f"worker {summary['worker']}: {summary['completed']} completed, "
        f"{summary['failed']} failed"
    )
    return 0 if summary["failed"] == 0 else 1


def _cmd_cache(args) -> int:
    import json as _json

    from repro.experiments.sweep import ResultCache

    cache = ResultCache(args.cache_dir or default_cache_dir())
    if args.quarantined:
        import time as _time

        now = _time.time()
        rows = [
            {"name": name, "bytes": size, "age_s": round(now - mtime, 1)}
            for name, size, mtime in cache.quarantined()
        ]
        if args.as_json:
            print(_json.dumps(rows, indent=2))
        elif rows:
            print(render_table(rows))
        else:
            print("cache: no quarantined entries")
        return 0
    if args.clear:
        summary = cache.prune(max_age_s=0.0, include_quarantine=True)
        gone = summary["removed"] + summary["quarantine_removed"] + summary["temp_removed"]
        print(f"cache: removed {gone} entries, freed {summary['freed_bytes']} bytes")
        return 0
    if args.prune:
        try:
            max_age = _parse_age(args.older_than) if args.older_than else None
            max_bytes = _parse_size(args.max_size) if args.max_size else None
        except ValueError as exc:
            print(f"cache: {exc}", file=sys.stderr)
            return 2
        summary = cache.prune(
            max_age_s=max_age,
            max_bytes=max_bytes,
            include_quarantine=not args.keep_quarantine,
        )
        if args.as_json:
            print(_json.dumps(summary, indent=2))
        else:
            print(
                f"cache: pruned {summary['removed']} entries "
                f"(+{summary['quarantine_removed']} quarantined, "
                f"+{summary['temp_removed']} orphaned temp), "
                f"freed {summary['freed_bytes']} bytes"
            )
        return 0
    stats = cache.stats()
    if args.as_json:
        print(_json.dumps(stats, indent=2))
    else:
        print(render_table([{
            "entries": stats["entries"],
            "bytes": stats["bytes"],
            "oldest": f"{stats['oldest_age_s']:.0f}s" if stats["oldest_age_s"] is not None else "-",
            "newest": f"{stats['newest_age_s']:.0f}s" if stats["newest_age_s"] is not None else "-",
            "quarantined": stats["quarantined"],
            "temp": stats["temp_files"],
        }]))
        print(f"cache dir: {stats['root']}")
    return 0


_COMMANDS = {
    "table1": _cmd_table1,
    "fig": _cmd_fig,
    "case": _cmd_case,
    "trees": _cmd_trees,
    "sweep": _cmd_sweep,
    "telemetry": _cmd_telemetry,
    "serve": _cmd_serve,
    "worker": _cmd_worker,
    "cache": _cmd_cache,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "validate", False):
        # environment (not a plumbed flag) so forked sweep workers and
        # every build_fabric call inherit guard mode (repro.sim.guard).
        os.environ[ENV_VALIDATE] = "1"
    try:
        return _COMMANDS[args.command](args)
    except CellError as exc:  # a typo'd name, a cell that cannot be: a hint, not a traceback
        print(f"repro: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
