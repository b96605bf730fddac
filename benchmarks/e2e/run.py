"""The repo's end-to-end benchmark: one command, every metric by name.

One run (what ``BENCHMARK.json`` declares and the driver calls)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

prints each metric with its unit and, as the last line of standard
output, one JSON object ``{correct, attempted, failed, metrics}``:
the end-to-end metrics under ``--trace 0``, the per-layer metrics under
``--trace 1``.  Without ``--workload`` a whole set is run -- every
workload, ``--runs`` seeds each, plus one traced run each with
``--trace`` -- and written to ``--out`` for ``compare.py``.

Each run is a fresh child process (``workloads.py``) with the ambient
``REPRO_*`` variables scrubbed, working under one scratch directory
that is removed when the run ends.  A run's value for a metric is the
median of its samples, and host time is scaled to a host of reference
speed by the yardstick the child timed beside them.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

#: set-up is repeated in this many fresh children.
SETUP_REPEATS = 5
#: the median of ``workloads.yardstick`` on a quiet sandbox host: host
#: time is reported as it would read on a host of exactly this speed.
YARD_REFERENCE_S = 0.028
#: metrics of host time, and the power of the host's speed they carry.
HOST_TIME = {"setup_s": 1, "cell_s": 1, "pkts_per_s": -1, "cells_per_s": -1,
             "warm_cells_per_s": -1}


def yard_share(workload: str, metric: str) -> float:
    """How much of what stretches the yardstick stretches the operation
    behind ``metric``.  A busy sibling hyperthread slows the yardstick's
    tight loop 1.8x; fitted on a fast and a slow set of ten runs, checked
    on a second pair (README.md)."""
    if workload == "svc_http":
        return 0.5  # three processes, and much of the wall is polls asleep
    if metric == "warm_cells_per_s":
        return 1.0  # cache reads: C code as tight as the yardstick's loop
    if workload == "sweep_local" and metric in ("cells_per_s", "pkts_per_s"):
        return 0.6  # the pool: two processes on two cores in states of their own
    return 0.7  # one interpreter over a large object graph: some of its time is
    # stalls on memory, which a busy sibling does not stretch


def slowdown(workload: str, metric: str, yard_s) -> float:
    """What the host's state stretched the operation's time by, going by
    the yardstick times taken beside it."""
    stretch = statistics.median(yard_s) / YARD_REFERENCE_S
    return 1.0 + yard_share(workload, metric) * (stretch - 1.0)


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env(root: Path) -> dict:
    """The child's environment: no ambient ``REPRO_*`` override may
    change what is measured, the program's bytecode is cached beside its
    sources as a user's is (or every set-up would be a compilation), and
    nothing is written outside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")
           and k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", TMPDIR=str(root))
    return env


def child(root: Path, workload, seed, seconds, trace, smoke, setup_only=False) -> dict:
    scratch = Path(tempfile.mkdtemp(dir=root))
    result = scratch / "result.json"
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--root", str(scratch), "--result", str(result), "--t0", repr(time.monotonic())]
    cmd += ["--setup-only"] * setup_only + ["--smoke"] * smoke
    proc = subprocess.run(cmd, env=child_env(root), stdout=sys.stderr)
    if proc.returncode != 0 or not result.exists():
        raise RuntimeError(f"{workload} (trace={trace}) child exited with {proc.returncode}")
    return json.loads(result.read_text())


def one_run(workload, seed, seconds, trace, smoke) -> dict:
    """One run of one workload: its metrics by declared name and unit."""
    metrics = declared()["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}
    WORK.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(dir=WORK, prefix=f"{workload}-"))
    try:
        setups = []
        if not trace:
            for _ in range(0 if smoke else SETUP_REPEATS - 1):
                setups.append(child(root, workload, seed, seconds, 0, smoke, True))
        res = child(root, workload, seed, seconds, trace, smoke)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    if trace:
        values, samples = res["metrics"], {}
    else:
        # host time as it would read on the reference host: the median of
        # the run's samples (of its set-ups) over the slowdown the
        # yardstick saw while they were taken (README.md)
        samples = dict(res["samples"], yardstick_s=res["yard_s"],
                       setup_s=[r["setup_s"] for r in setups + [res]])
        values = {k: statistics.median(v)
                  / slowdown(workload, k, res["yard_s"]) ** HOST_TIME.get(k, 0)
                  for k, v in res["samples"].items()}
        values["setup_s"] = statistics.median(
            r["setup_s"] / slowdown(workload, "setup_s", r["yard_s"]) for r in setups + [res])
    errors = list(res["errors"])
    if set(values) != set(units):
        errors.append(f"metric names differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    errors += [f"{k} is not finite" for k, v in values.items() if not math.isfinite(v)]
    labels = sorted(res["digests"].items())
    return {
        "workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
        "correct": not errors, "attempted": res["attempted"], "failed": res["failed"],
        "errors": errors, "notes": res["notes"], "golden_checked": res["golden_checked"],
        "cells": len(labels),
        "cells_sha256": hashlib.sha256(json.dumps(labels).encode()).hexdigest(),
        "samples": {k: [float(f"{x:.6g}") for x in v] for k, v in samples.items()},
        "metrics": {k: {"value": values[k], "unit": units.get(k, "?")} for k in sorted(values)},
        **({"spans": res["spans"]} if trace else {}),
    }


def show(run: dict) -> None:
    print(f"== {run['workload']}  seed={run['seed']}  trace={run['trace']} ==")
    for name, m in run["metrics"].items():
        n = len(run["samples"].get(name, ()))
        print(f"  {name:<42} {m['value']:>14.6g} {m['unit']:<8}" + (f" n={n}" if n else ""),
              flush=True)
    if not run["trace"]:
        yard = statistics.median(run["samples"]["yardstick_s"])
        print(f"  host time above is wall time / (1 + share x {yard / YARD_REFERENCE_S - 1:+.4f}): the "
              f"yardstick took {yard * 1e3:.1f} ms against {YARD_REFERENCE_S * 1e3:g} ms")
    print(f"  failed_share {run['failed']}/{run['attempted']}; {run['cells']} distinct cell(s), "
          f"{run['golden_checked']} checked against golden.json; sha256 {run['cells_sha256'][:16]}")
    for note in run["notes"]:
        print(f"  NOTE {note}")
    for error in run["errors"]:
        print(f"  ERROR {error}")


def machine() -> dict:
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                                capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    nproc = len(os.sched_getaffinity(0))
    load = os.getloadavg()[0]
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"), "commit": commit,
            "loadavg_1m": load, "noisy": load > nproc}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="run this workload once (the driver's form)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="measured seconds per run "
                    "(default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    help="per-layer metrics from a traced run")
    ap.add_argument("--runs", type=int, default=1, help="set mode: seeds per workload")
    ap.add_argument("--out", help="write the runs (and <out>.trace.json) here")
    ap.add_argument("--smoke", action="store_true",
                    help="time scales / 10, one repeat: checks the harness, measures nothing")
    args = ap.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"run.py: no program to measure at {SRC}", file=sys.stderr)
        return 2
    spec = declared()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.smoke:
        seconds = 0.0
    meta = machine()

    if args.workload:
        plan = [(args.workload, args.seed, args.trace)]
    else:
        names = [w["name"] for w in spec["workloads"]]
        plan = [(w, args.seed + i, 0) for i in range(args.runs) for w in names]
        plan += [(w, args.seed, 1) for w in names if args.trace]
    runs, broken = [], False
    for workload, seed, trace in plan:
        try:
            runs.append(one_run(workload, seed, seconds, trace, args.smoke))
        except RuntimeError as exc:  # the other runs of a set still count
            print(f"run.py: {exc}", file=sys.stderr)
            broken = True
            continue
        show(runs[-1])

    if args.out:
        out = Path(args.out)
        spans = [{"workload": r["workload"], "seed": r["seed"], "spans": r.pop("spans")}
                 for r in runs if r["trace"]]
        if spans:
            out.with_suffix(".trace.json").write_text(json.dumps({"runs": spans}))
        lines = ",\n".join(json.dumps(run) for run in runs)  # one run a line
        out.write_text('{"meta": %s,\n"runs": [\n%s\n]}\n'
                       % (json.dumps({**meta, "smoke": args.smoke}), lines))
    if meta["noisy"]:
        print(f"NOISY: load average {meta['loadavg_1m']:.2f} exceeds {meta['nproc']} core(s)")
    if args.workload and runs:
        run = runs[0]
        print(json.dumps({"correct": run["correct"], "attempted": run["attempted"],
                          "failed": run["failed"], "metrics": run["metrics"]}))
    return 0 if not broken and all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
