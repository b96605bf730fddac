"""The five workloads, run one per child process (see README.md).

``run.py`` starts this file as a fresh child for every run.  The
untraced path below drives the program only through its public surface
-- ``run_case``, ``registry.get(..).jobs(..)``, ``run_sweep`` /
``SweepOptions`` / ``ResultCache``, ``python -m repro serve|worker``
and ``ServiceClient`` -- and never names a kernel, so what is measured
is the default path a user gets.  Everything a traced run touches in
addition lives in ``layers.py`` and is imported only under
``--trace 1``.

Every workload is a closed loop with one client: the next operation is
issued only after the previous one has completed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import heapq
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent

FLAP = "down:s0p4->s16p0@1.2ms;up:s0p4->s16p0@1.5ms"

#: the three single-cell workloads: ``run_case`` keyword arguments.  A
#: quarter of the paper's time scales, about 0.55 s a cell: the best of a
#: run's samples is steady only when a run holds dozens of them, each
#: short enough to fall between two bursts of host noise (README.md).
CELLS = {
    "case1_ccfit": dict(case="case1", scheme="CCFIT", time_scale=0.25),
    "incast_pfc_shared": dict(
        case="case4", scheme="PFC+RCM", num_trees=4, buffer_model="shared", time_scale=0.025
    ),
    "incast_ccfit_faulted": dict(
        case="case4", scheme="CCFIT", num_trees=1, routing="adaptive", faults=FLAP, time_scale=0.025
    ),
}
WORKLOADS = (*CELLS, "sweep_local", "svc_http")

#: the small cell of the sweep and service ladders: the ``case1``
#: experiment (all registered schemes) at this time scale, ~45 ms each.
GRID_EXPERIMENT = "case1"
GRID_SCALE = 0.02

#: how much work one round does.  Rounds are kept short and every kind
#: of operation recurs in each, so that a burst of host noise cannot
#: cover all the samples of one metric.  ``smoke`` divides every time
#: scale by ten and keeps one repeat of everything (test_bench_e2e.py).
SIZES = {
    "full": dict(scale=1.0, sweep_seeds=3, warm_passes=3, sweep_singles=5,
                 svc_seeds=2, svc_roundtrips=10, svc_warm=3, cell_warm=10,
                 profile_passes=2),
    "smoke": dict(scale=0.1, sweep_seeds=2, warm_passes=1, sweep_singles=1,
                  svc_seeds=1, svc_roundtrips=3, svc_warm=1, cell_warm=5,
                  profile_passes=1),
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def digest_dict(result_dict) -> str:
    """SHA-256 of the canonical ``CaseResult`` JSON."""
    blob = json.dumps(result_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def digest(result) -> str:
    return digest_dict(result.to_dict())


def cell_label(label: str, time_scale: float, seed: int) -> str:
    """One name per distinct cell, whichever path produced it, so the
    direct, cached and HTTP results of a cell meet in one table."""
    return f"{label} ts={time_scale:g} seed={seed}"


def job_label(job) -> str:
    return cell_label(job.label(), job.time_scale, job.seed)


def cell_kwargs(name: str, sizes) -> dict:
    kw = dict(CELLS[name])
    kw["time_scale"] = kw["time_scale"] * sizes["scale"]
    return kw


def run_direct(kw: dict, seed: int, **extra):
    from repro.experiments import run_case

    kw = dict(kw)
    return run_case(kw.pop("case"), seed=seed, **kw, **extra)


def job_for(kw: dict, seed: int):
    """The ``SimJob`` of the same cell, as the sweep engine and the
    service see it."""
    from repro.experiments import registry
    from repro.sim import FaultPlan

    kw = dict(kw)
    faults = kw.pop("faults", None)
    (job,) = registry.get(kw.pop("case")).jobs(
        schemes=(kw.pop("scheme"),),
        seed=seed,
        faults=FaultPlan.parse(faults) if faults else None,
        **kw,
    )
    return job


def grid_jobs(seeds, sizes):
    from repro.experiments import registry

    exp = registry.get(GRID_EXPERIMENT)
    scale = GRID_SCALE * sizes["scale"]
    return [job for s in seeds for job in exp.jobs(time_scale=scale, seed=s)]


class Tally:
    """Operations attempted and failed, and one digest per cell.  A cell
    that raises, fails in a manifest or comes back with a digest other
    than the one first seen for it counts as failed and never aborts
    the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.notes = []
        self.digests = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def cell(self, label: str, dig: str) -> None:
        self.attempted += 1
        if self.digests.setdefault(label, dig) != dig:
            self.fail(f"{label}: digest differs between repeats or paths")

    def raised(self, what: str) -> None:
        self.attempted += 1
        self.fail(f"{what}: {traceback.format_exc(limit=3)}")

    def report(self, rep, served_from_cache: bool) -> None:
        """Account one ``SweepReport``: every cell, its digest, the
        failure manifest and whether the cache did what was asked."""
        for failure in rep.failures:
            self.attempted += 1
            self.fail(f"{failure.label}: {failure.exception}: {failure.message}")
        for job, res in zip(rep.jobs, rep.results):
            if res is not None:
                self.cell(job_label(job), digest(res))
        hits_wanted = len(rep.jobs) if served_from_cache else 0
        if rep.hits != hits_wanted:
            self.fail(f"sweep served {rep.hits} cell(s) from cache, expected {hits_wanted}")

    def check_golden(self) -> int:
        golden = json.loads((HERE / "golden.json").read_text())
        checked = 0
        for label, dig in self.digests.items():
            if label in golden:
                checked += 1
                if golden[label] != dig:
                    self.fail(f"{label}: digest differs from golden.json")
        return checked


# ----------------------------------------------------------------------
# the yardstick: how fast is the host right now
# ----------------------------------------------------------------------
class _Node:
    __slots__ = ("credit", "queue", "sent")

    def __init__(self) -> None:
        self.credit = 8
        self.queue = []
        self.sent = 0


def yardstick(events: int = 40000) -> int:
    """A fixed piece of work of the simulator's kind -- a heap of timed
    events over small objects, a table lookup and a queue per event --
    that touches nothing of the program.  Never change it: ``run.py``
    scales every time a run reports by what this took."""
    nodes = [_Node() for _ in range(64)]
    table = {i: (i * 37 + 11) % 64 for i in range(64)}
    heap = [(float(i), i, i) for i in range(64)]
    heapq.heapify(heap)
    seq = 64
    for _ in range(events):
        t, _seq, i = heapq.heappop(heap)
        node, dst = nodes[i], table[i]
        if node.credit > 0:
            node.credit -= 1
            node.sent += 1
            nodes[dst].queue.append((t, i))
        else:
            node.credit = 8
        queue = nodes[dst].queue
        if len(queue) > 4:
            del queue[:4]
        seq += 1
        heapq.heappush(heap, (t + 1.0 + (seq % 7) * 0.125, seq, (i + seq) % 64))
    return sum(node.sent for node in nodes)


class Yard:
    """Yardstick times taken between the operations of a run, spread
    over it as its samples are.  The host runs everything up to 1.8x
    slower for seconds or minutes at a stretch (README.md); the median
    yardstick time of a run says how fast the host was while the run's
    median sample was taken."""

    def __init__(self) -> None:
        self.samples = []
        yardstick()  # the first call also pays for the interpreter's specialising
        self.tick(3)

    def tick(self, n: int = 2) -> None:
        for _ in range(n):
            t = time.perf_counter()
            yardstick()
            self.samples.append(time.perf_counter() - t)


class SetupOnly(Exception):
    """Raised out of a workload after set-up in a ``--setup-only`` child."""


class Clock:
    """Marks the end of set-up and bounds the measured loop."""

    #: failed operations after which a loop stops asking for more.
    MAX_FAILED = 10

    def __init__(self, t0: float, seconds: float, setup_only: bool = False) -> None:
        self.t0 = t0
        self.seconds = seconds
        self.setup_only = setup_only
        self.setup_s = None
        self.yard = None
        self._start = None

    def setup_done(self) -> None:
        self._start = time.monotonic()
        self.setup_s = self._start - self.t0
        self.yard = Yard()
        if self.setup_only:
            raise SetupOnly

    def more(self, samples, tally) -> bool:
        """Whether to start another round: until the time is up, but at
        least once, and not for ever when every operation fails.  The
        yardstick is timed between any two rounds."""
        self.yard.tick()
        if tally.failed >= self.MAX_FAILED:
            return False
        return not samples or time.monotonic() - self._start < self.seconds


def fresh_dir(root: Path, stem: str) -> str:
    return tempfile.mkdtemp(dir=root, prefix=stem)


# ----------------------------------------------------------------------
# the three cell workloads
# ----------------------------------------------------------------------
def cell_workload(name, seed, clock, sizes, root, tally):
    from repro.experiments import ResultCache, SweepOptions, run_sweep

    kw = cell_kwargs(name, sizes)
    job = job_for(kw, seed)
    label = job_label(job)
    run_direct({**kw, "time_scale": kw["time_scale"] / 10}, seed)  # warm-up
    clock.setup_done()

    opts = SweepOptions(cache_dir=fresh_dir(root, "cache"))
    cache = ResultCache(opts.cache_dir)
    walls, rates, periods, warm = [], [], [], []
    while clock.more(walls, tally):
        start = time.perf_counter()
        gc.collect()
        t = time.perf_counter()
        try:
            result = run_direct(kw, seed)
        except Exception:
            tally.raised(label)
            continue
        wall = time.perf_counter() - t
        tally.cell(label, digest(result))
        walls.append(wall)
        rates.append(result.stats["delivered_packets"] / wall)
        periods.append(1.0 / (time.perf_counter() - start))  # with the client's own work

        # the same cell asked for again through the sweep engine, cache filled
        cache.put(job.key(), result, job=job)
        t = time.perf_counter()
        for _ in range(sizes["cell_warm"]):
            rep = run_sweep([job], options=opts)
        warm.append(sizes["cell_warm"] / (time.perf_counter() - t))
        tally.report(rep, served_from_cache=True)
    return {
        "cell_s": walls,
        "pkts_per_s": rates,
        "cells_per_s": periods,
        "warm_cells_per_s": warm,
    }


# ----------------------------------------------------------------------
# sweep_local: cell -> serial sweep -> pool -> cache
# ----------------------------------------------------------------------
def sweep_workload(seed, clock, sizes, root, tally):
    from repro.experiments import SweepOptions, run_sweep

    jobs = grid_jobs(range(seed, seed + sizes["sweep_seeds"]), sizes)
    single = [j for j in jobs if j.scheme == "CCFIT"][:1]
    single[0].run()  # warm-up: forked pool workers inherit a warm interpreter
    clock.setup_done()

    cold, pkts, warm, singles = [], [], [], []
    while clock.more(cold, tally):
        opts = SweepOptions(jobs=nproc(), cache_dir=fresh_dir(root, "cache"))
        gc.collect()
        t = time.perf_counter()
        rep = run_sweep(jobs, options=opts)  # pool, cold
        wall = time.perf_counter() - t
        tally.report(rep, served_from_cache=False)
        cold.append(len(jobs) / wall)
        pkts.append(sum(r.stats["delivered_packets"] for r in rep.results if r is not None) / wall)
        clock.yard.tick()
        for _ in range(sizes["warm_passes"]):  # every cell served from the cache
            gc.collect()
            t = time.perf_counter()
            rep = run_sweep(jobs, options=opts)
            warm.append(len(jobs) / (time.perf_counter() - t))
            tally.report(rep, served_from_cache=True)
        for _ in range(sizes["sweep_singles"]):  # one cold cell, serial, in-process
            one = SweepOptions(cache_dir=fresh_dir(root, "cache"))
            t = time.perf_counter()
            rep = run_sweep(single, options=one)
            singles.append(time.perf_counter() - t)
            shutil.rmtree(one.cache_dir)
        tally.report(rep, served_from_cache=False)
        shutil.rmtree(opts.cache_dir)

    # direct results of one seed's cells must be the bytes the cache served
    direct_check(jobs[: len(jobs) // sizes["sweep_seeds"]], tally)
    return {
        "cell_s": singles,
        "pkts_per_s": pkts,
        "cells_per_s": cold,
        "warm_cells_per_s": warm,
    }


def direct_check(jobs, tally) -> None:
    for job in jobs:
        try:
            tally.cell(job_label(job), digest(job.run()))
        except Exception:
            tally.raised(job_label(job))


# ----------------------------------------------------------------------
# svc_http: broker -> HTTP
# ----------------------------------------------------------------------
class Service:
    """``repro serve`` plus one ``repro worker`` as subprocesses on a
    broker and cache directory under ``root``."""

    def __init__(self, root: Path) -> None:
        from repro.service import ServiceClient

        self.procs = []
        #: times a run was reported done before it was (see ``wait``).
        self.premature = 0
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        log = root / "serve.log"
        t = time.perf_counter()
        try:
            with open(log, "w") as out:
                self._spawn(["serve", "--broker", str(root / "broker"), "--port", "0",
                             "--cache-dir", str(root / "svc-cache")], env, out)
            self.client = ServiceClient(self._listening(log))
            self.client.runs()  # answered only once the server is serving
            self.spawn_s = time.perf_counter() - t
            self._spawn(["worker", "--broker", self.client.base, "--poll-interval", "0.02"],
                        env, subprocess.DEVNULL)
        except BaseException:
            self.close()
            raise

    def _spawn(self, args, env, out) -> None:
        self.procs.append(subprocess.Popen(
            [sys.executable, "-m", "repro", *args], env=env, stdout=out, stderr=subprocess.STDOUT
        ))

    def _listening(self, log: Path) -> str:
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and self.procs[0].poll() is None:
            for word in log.read_text().split():
                if word.startswith("http://"):
                    return word
            time.sleep(0.01)
        raise RuntimeError(f"repro serve did not come up: {log.read_text()!r}")

    def warm_up(self, seed, sizes) -> None:
        """One cell at a tenth of the grid's time scale, end to end."""
        scale = GRID_SCALE * sizes["scale"] / 10
        self.wait(self.client.submit("fig7a", schemes=["CCFIT"], time_scale=scale, seed=seed),
                  poll=0.005)

    def wait(self, rec, poll: float):
        """Await a run.  ``GET /runs/<id>`` can say ``done`` while a
        worker's claim is moving a cell from ``queue/`` to ``active/``
        (the cell reads ``unknown`` for that instant, and ``unknown``
        counts as finished); only a status without such cells is final."""
        while True:
            status = self.client.wait(rec["run"], timeout=120.0, poll=poll)
            if not status["counts"].get("unknown"):
                return status
            self.premature += 1

    def fetch(self, rec, time_scale, seed, tally) -> float:
        """Fetch every result of a finished run over HTTP, account its
        digest and manifest; returns the packets the cells delivered."""
        for _ in range(self.client.manifest(rec["run"])["failed"]):
            tally.attempted += 1
            tally.fail(f"run {rec['run']}: cell failed in the manifest")
        delivered = 0.0
        for key in rec["keys"]:
            label = cell_label(rec["labels"][key], time_scale, seed)
            try:
                result = self.client.result(key)["result"]
            except Exception:
                tally.raised(label)
                continue
            tally.cell(label, digest_dict(result))
            delivered += result["stats"]["delivered_packets"]
        return delivered

    def close(self) -> None:
        for proc in reversed(self.procs):
            proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def no_op(_name, _op_id):
    return contextlib.nullcontext()


def svc_rounds(svc, seed, sizes, clock, tally, op=no_op) -> dict:
    """Rounds of grid, single-cell and warm operations against a live
    service; ``op`` brackets each operation (spans, in a traced run)."""
    scale = GRID_SCALE * sizes["scale"]
    out = dict(grid_rates=[], pkts=[], trips=[], posts=[], warm=[], warm_hits=[], grid_runs=[])
    rounds = 0
    while clock.more(out["grid_rates"], tally):
        # phase A: the scheme grid at a few fresh seeds, submitted, then awaited
        seeds = [seed + rounds * sizes["svc_seeds"] + i for i in range(sizes["svc_seeds"])]
        first_trip = seed + 1000 + rounds * sizes["svc_roundtrips"]
        rounds += 1
        t = time.perf_counter()
        try:
            with op("grid", f"seeds {seeds[0]}..{seeds[-1]}"):
                recs = [svc.client.submit(GRID_EXPERIMENT, time_scale=scale, seed=s) for s in seeds]
                for rec in recs:
                    svc.wait(rec, poll=0.02)
        except Exception:
            tally.raised(f"grid seeds {seeds}")
            continue
        wall = time.perf_counter() - t
        out["grid_rates"].append(sum(rec["cells"] for rec in recs) / wall)
        out["pkts"].append(sum(svc.fetch(r, scale, s, tally) for r, s in zip(recs, seeds)) / wall)
        out["grid_runs"] += recs
        clock.yard.tick()

        # phase B: one cell at a time, POST -> run reported done
        for s in range(first_trip, first_trip + sizes["svc_roundtrips"]):
            t = time.perf_counter()
            try:
                with op("roundtrip", f"seed {s}"):
                    rec = svc.client.submit("fig7a", schemes=["CCFIT"], time_scale=scale, seed=s)
                    posted = time.perf_counter()
                    svc.wait(rec, poll=0.005)
            except Exception:
                tally.raised(f"roundtrip seed {s}")
                continue
            out["trips"].append(time.perf_counter() - t)
            out["posts"].append(posted - t)
            svc.fetch(rec, scale, s, tally)
        clock.yard.tick()

        # warm: the finished grid asked for again and every result fetched
        for _ in range(sizes["svc_warm"]):
            t = time.perf_counter()
            with op("warm", f"seed {seeds[0]}"):
                rec = svc.client.submit(GRID_EXPERIMENT, time_scale=scale, seed=seeds[0])
                svc.fetch(rec, scale, seeds[0], tally)
            out["warm"].append(rec["cells"] / (time.perf_counter() - t))
            out["warm_hits"].append(rec["cached"] / rec["cells"])
    return out


def svc_workload(seed, clock, sizes, root, tally):
    svc = Service(root)
    try:
        svc.warm_up(seed, sizes)
        clock.setup_done()
        out = svc_rounds(svc, seed, sizes, clock, tally)
    finally:
        svc.close()
    if svc.premature:
        tally.notes.append(f"{svc.premature} run(s) reported done while a cell was still unknown")
    if min(out["warm_hits"]) < 1.0:
        tally.fail("a warm submit was not served wholly from the cache")
    # direct results of the first grid must be the bytes HTTP served
    direct_check(grid_jobs([seed], sizes), tally)
    return {
        "cell_s": out["trips"],
        "pkts_per_s": out["pkts"],
        "cells_per_s": out["grid_rates"],
        "warm_cells_per_s": out["warm"],
    }


def untraced(name, seed, clock, sizes, root, tally):
    if name in CELLS:
        return cell_workload(name, seed, clock, sizes, root, tally)
    if name == "sweep_local":
        return sweep_workload(seed, clock, sizes, root, tally)
    return svc_workload(seed, clock, sizes, root, tally)


def peak_rss_mib() -> float:
    """Largest resident set of this process or any child it has waited
    for (pool workers, the server, the worker)."""
    kib = max(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--root", required=True, help="scratch directory of this run")
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--result", required=True, help="where to write the JSON result")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    sizes = SIZES["smoke" if args.smoke else "full"]
    root = Path(args.root)
    tally = Tally()
    clock = Clock(args.t0, args.seconds, args.setup_only)
    out = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    try:
        if args.trace:
            import layers

            out.update(layers.traced(args.workload, args.seed, sizes, root, tally))
        else:
            out["samples"] = untraced(args.workload, args.seed, clock, sizes, root, tally)
            out["samples"]["peak_rss_mib"] = [peak_rss_mib()]
    except SetupOnly:
        pass
    out["setup_s"] = clock.setup_s
    if clock.yard is not None:
        out["yard_s"] = clock.yard.samples
    if not args.setup_only:
        out["golden_checked"] = tally.check_golden()
    out.update(attempted=tally.attempted, failed=tally.failed, errors=tally.errors,
               notes=tally.notes, digests=tally.digests)
    Path(args.result).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    # through the module, so that layers.py importing it gets this one
    from workloads import main as _main

    sys.exit(_main())
