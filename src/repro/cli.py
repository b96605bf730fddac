"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``table1``
    Print Table I and the per-scheme hardware-cost comparison.
``sweep NAME``
    Run any registered experiment (``fig7a`` ... ``fig10``,
    ``case1`` ... ``case4``) through the sweep engine: the figure's
    series/flow tables, a one-cell grid's CC counters too
    (``sweep case1 --schemes CCFIT``), and the cache hit count.
    ``repro sweep --list`` enumerates the names.  With ``--telemetry
    true|NS --out DIR`` it also writes each cell's telemetry bundle (JSONL,
    Prometheus text, SVG dashboard) into ``DIR/<result key>/``, a
    cached cell's straight from the cache.  See docs/telemetry.md.
``serve --broker DIR --port 8642``
    Long-running service front-end: submit experiments over HTTP
    (``POST /experiments``), stream cell-level progress as NDJSON,
    fetch cached ``CaseResult``\\ s, scrape live Prometheus
    ``/metrics``, and lease cells to pull workers.  See
    docs/service.md.
``worker --broker URL``
    Pull-based sweep worker: lease cells from a broker (a shared
    directory or an ``http://`` ``repro serve`` endpoint) on every core
    of the host (``--jobs`` processes), execute them with the standard
    retry/timeout machinery, publish results into the shared
    content-addressed cache.  See docs/service.md.
``cache [--dir PATH] [--prune ...]``
    Shared-cache hygiene: occupancy stats, ``--prune`` by
    ``--older-than AGE`` and/or ``--max-size SIZE``, ``--quarantined``
    to list quarantined entries, ``--clear`` to drop everything.

Common options: ``--scale`` (time compression, default 0.3),
``--seed``, ``--csv PATH`` (dump the throughput series),
``--jobs N`` (worker processes for the simulation grid),
``--cache-dir PATH`` / ``--no-cache`` (on-disk result cache, on by
default), one option per axis of a cell -- ``--routing``, ``--faults``,
``--buffer-model``, ``--telemetry`` -- and one per case knob --
``--num-trees``, ``--duration-ms`` -- generated from the ``AXES`` and
``KNOBS`` tables of :mod:`repro.experiments.sweep` (``--help`` lists
them).  See docs/sweep.md for the job/cache model.

Resilience options (docs/robustness.md): ``--timeout SECONDS``
(per-cell wall-clock budget), ``--retries N`` (bounded retries with
exponential backoff), ``--manifest PATH`` (structured
ok/retried/failed report).  Every simulation runs under the invariant
guard (:mod:`repro.sim.guard`); a cell that breaks an invariant fails
with ``InvariantViolation``.  A sweep with failed cells still renders
the surviving results and exits 1; run again with the same cache, it
simulates only what is not cached.

Every simulation command dispatches through
:mod:`repro.experiments.registry`, so registering a new experiment
makes it runnable here with no CLI changes.
"""

from __future__ import annotations

import argparse
import os
import re
import signal
import sys
from typing import Any, Dict

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
    KNOBS,
    SweepOptions,
    SweepReport,
    default_cache_dir,
    json_word,
    parse_names,
    read_axes,
)
from repro.registry import CellError, unknown_name

__all__ = ["main", "build_parser"]

#: every case knob, each once, whichever cases take it.
_KNOBS = tuple(dict.fromkeys(name for knobs in KNOBS.values() for name in knobs))


def _add_engine_options(p: argparse.ArgumentParser, suppress: bool = False) -> None:
    """The sweep-engine options, the cell axes (one flag per row of
    ``AXES``) and the case knobs (one flag per name in ``KNOBS``).

    They live on the main parser (before the subcommand) *and*, with
    ``default=SUPPRESS``, on the ``sweep`` subparser — so both
    ``repro --jobs 4 sweep fig9`` and ``repro sweep fig9 --jobs 4``
    work, and a subparser never clobbers a value given up front.
    """
    sup = argparse.SUPPRESS

    def d(value):
        return sup if suppress else value

    # None: the command's own default (1; every core for `worker`)
    p.add_argument("--jobs", type=int, default=d(None), metavar="N",
                   help="worker processes for the simulation grid (default 1 = serial)")
    p.add_argument("--cache-dir", type=str, default=d(None), metavar="PATH",
                   help="on-disk result cache directory (default: ~/.cache/repro-sweep)")
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
    for axis in AXES:
        p.add_argument(_flag(axis.name), dest=axis.field, default=d(None),
                       help=axis.help, **axis.cli)
    for name in _KNOBS:  # absent unless given: JSON null is a value too
        cases = ",".join(case for case, knobs in KNOBS.items() if name in knobs)
        p.add_argument(_flag(name), type=json_word, default=sup, metavar="VALUE",
                       help=f"case knob {name} ({cases}), read as in the 'extra' "
                            "object of POST /experiments")


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

    sweep = sub.add_parser(
        "sweep",
        help="run a registered experiment through the parallel sweep engine",
        description="Decompose an experiment into independent (scheme) cells, "
                    "run them across --jobs worker processes, and memoize the "
                    "cells in the on-disk cache so repeated invocations are "
                    "served without re-simulating.  A grid of one cell also "
                    "prints that cell's CC counters.",
    )
    sweep.add_argument("name", nargs="?", metavar="NAME",
                       help="experiment to run (see --list)")
    sweep.add_argument("--list", action="store_true", dest="list_experiments",
                       help="list registered experiments and exit")
    sweep.add_argument("--schemes", "--scheme", type=str, default=None, metavar="A,B,..",
                       help="comma-separated scheme subset (default: the experiment's "
                            "list); names match case-insensitively")

    sweep.add_argument("--out", default=None, metavar="DIR",
                       help="with --telemetry on: write each cell's bundle (telemetry.jsonl, "
                            "metrics.prom, dashboard.html) into DIR/<result key>/")
    _add_engine_options(sweep, suppress=True)

    serve = sub.add_parser(
        "serve",
        help="run the HTTP service front-end (submit / stream / fetch / metrics)",
        description="Long-running service mode: an HTTP front-end over a shared "
                    "filesystem broker.  Submit experiments (POST /experiments), "
                    "stream cell-level progress (GET /runs/<id>/events, NDJSON), "
                    "fetch cached CaseResults and telemetry bundles, scrape "
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
                    "http:// `repro serve` endpoint — on every core of this "
                    "host, execute them with the standard retry/timeout "
                    "machinery, and publish results into the shared "
                    "content-addressed cache.  Workers are crash-safe: a "
                    "worker process that dies mid-cell has its lease released "
                    "at once and is replaced; a whole worker that dies stops "
                    "heartbeating, its lease expires, and the cell is requeued "
                    "for another worker (see docs/service.md).",
    )
    worker.add_argument("--broker", required=True, metavar="URL",
                        help="broker to lease from: a directory path (or "
                             "dir://PATH) for direct filesystem access, or the "
                             "http://HOST:PORT of a `repro serve` instance")
    worker.add_argument("--jobs", type=int, default=argparse.SUPPRESS, metavar="N",
                        help="worker processes (default: one per core this "
                             "process may run on); 1 runs the worker in this process")
    worker.add_argument("--id", default=None, dest="worker_id", metavar="NAME",
                        help="worker identity recorded in manifests "
                             "(default: <hostname>-<pid>); with --jobs > 1, "
                             "process n is NAME.n")
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
                        help="exit after N cells, counted over all its processes")
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

    return p


def _cell(args: argparse.Namespace) -> Dict[str, Any]:
    """The cell fields and case knobs of a command line, as keywords of
    ``Experiment.run``; a typo raises :class:`CellError` (``main``
    prints it and exits 2), and so does a knob that the case does not
    take or a value its parser refuses, when the cells are built."""
    given = vars(args)
    cell = read_axes(given.get)
    cell.update((name, given[name]) for name in _KNOBS if name in given)
    return dict(cell, time_scale=args.scale, seed=args.seed)


def _options(args: argparse.Namespace) -> SweepOptions:
    """Build SweepOptions from parsed args.  The cache is
    ``--cache-dir``, else the default one; ``--no-cache`` always wins."""
    return SweepOptions(
        jobs=args.jobs if args.jobs is not None else 1,
        cache_dir=None if args.no_cache else args.cache_dir or default_cache_dir(),
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
    """The figure-style rendering of a sweep's results."""
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


def _report_engine(report: SweepReport, args: argparse.Namespace) -> int:
    """Print the engine summary and failure details, write the manifest
    when requested, and turn failures into exit code 1."""
    print(f"sweep: {report.summary()}")
    for failure in report.failures:
        print(f"sweep: FAILED {failure.summary()}", file=sys.stderr)
    if args.manifest:
        report.write_manifest(args.manifest)
        print(f"wrote {args.manifest}")
    return 1 if report.failures else 0


def _cmd_table1(args) -> int:
    print("TABLE I — evaluated network configurations")
    print(render_table(table1()))
    print()
    print("Scheme hardware costs on Config #3 (64 nodes):")
    print(render_table(cost_table(CONFIG3.topo())))
    return 0


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
    exp = registry.get(registry.REGISTRY.parse(args.name))
    cell = _cell(args)
    if args.out is not None and cell.get("telemetry") is None:
        raise CellError("--out is given but telemetry is not on")
    if args.schemes:
        cell["schemes"] = parse_names(str, args.schemes)
    results, report = exp.run(options=_options(args), **cell)
    print(exp.title)
    _render_results(exp, results, args)
    if len(report.jobs) == 1:
        for res in results.values():  # the one cell, whatever its axes add to its key
            _print_case(res)
    if args.out is not None:
        _write_bundles(exp, report, args.out)
    return _report_engine(report, args)


def _write_bundles(exp: Experiment, report: SweepReport, out: str) -> None:
    """Each finished cell's telemetry bundle, into ``out/<result key>/``
    (the key ``Experiment.run`` gives it)."""
    from repro.telemetry import write_bundle

    crossed = [axis.name for axis in AXES if exp.grid(axis)]
    for job, res in zip(report.jobs, report.results):
        if res is not None:
            where = os.path.join(out, job.scheme + job.suffix(crossed))
            title = f"{exp.title} — {job.scheme} {job.suffix()}".rstrip()
            for path in write_bundle(res.telemetry, where, title=title):
                print(f"wrote {path}")


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


def _cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _cmd_worker(args) -> int:
    from repro.experiments.resilience import RetryPolicy
    from repro.service.api import ServiceError
    from repro.service.broker import default_worker_id
    from repro.service.worker import Interrupted, drain

    name = args.worker_id or default_worker_id()
    processes = args.jobs if args.jobs is not None else _cores()
    # terminated, the worker stops its processes as Ctrl-C does
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        summary = drain(
            args.broker,
            processes,
            worker_id=name,
            policy=RetryPolicy(max_retries=max(0, args.retries)),
            timeout=args.timeout,
            heartbeat_interval=args.heartbeat,
            poll_interval=args.poll_interval,
            max_cells=args.max_cells,
            idle_exit=args.idle_exit,
        )
    except Interrupted as exc:
        summary = exc.summary
    except ServiceError as exc:
        # a worker over HTTP is always inside a request, so it is the
        # first to know when its server goes away
        print(f"worker {name}: lost the broker: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:  # a worker process died holding no cell
        print(f"worker {name}: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.signal(signal.SIGTERM, previous)
    on = f" on {processes} processes" if processes > 1 else ""
    print(f"worker {name}: {summary['completed']} completed, {summary['failed']} failed{on}")
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
    "sweep": _cmd_sweep,
    "serve": _cmd_serve,
    "worker": _cmd_worker,
    "cache": _cmd_cache,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except CellError as exc:  # a typo'd name, a cell that cannot be: a hint, not a traceback
        print(f"repro: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
