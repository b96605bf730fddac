"""Pull-based cell executor: ``repro worker --broker URL``, and every
worker of a local sweep.

The worker is a loop around the broker protocol: claim a lease,
execute the cell, publish the result, repeat.  It is the one executor
of a cell, and :func:`drain` is the one way a host runs it: one
:class:`Worker` in this process, or worker processes supervised here.
``repro worker`` drains a shared broker on every core of its host;
:func:`~repro.experiments.sweep.run_sweep` drains a private one with
``--jobs`` processes.  Per lease a worker brings

* bounded retries with the deterministic
  :class:`~repro.experiments.resilience.RetryPolicy` backoff, each one
  logged as a ``retry`` event;
* an optional per-cell wall-clock ``timeout``, enforced by running
  each attempt in its own process
  (:func:`~repro.experiments.resilience.run_isolated`);
* a heartbeat thread that keeps the lease alive while the cell runs —
  a worker that dies simply stops heartbeating, the lease expires, and
  the broker requeues the cell for someone else.

Because a cell is executed by the very same
:meth:`SimJob.run() <repro.experiments.sweep.SimJob.run>` wherever it
runs, and completed into the same content-addressed cache key, results
are byte-identical no matter which worker (or how many, racing) ran
the cell.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import signal
import threading
import time
from multiprocessing.connection import wait
from typing import Any, Dict, Mapping, Optional

from repro.experiments.resilience import WORKER_CRASH, RetryPolicy, execute_job, run_isolated
from repro.service.broker import FsBroker, Lease, default_worker_id

__all__ = ["Interrupted", "Worker", "drain"]


class _Heartbeat:
    """Background lease refresher; stops when asked or when the broker
    reports the lease lost (expired under us and requeued)."""

    def __init__(self, broker, key: str, worker: str, interval: float) -> None:
        self._broker = broker
        self._key = key
        self._worker = worker
        self._interval = interval
        self._stop = threading.Event()
        self.lost = False
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                alive = self._broker.heartbeat(self._key, self._worker)
            except Exception:
                alive = True  # transient broker hiccup: keep computing
            if not alive:
                self.lost = True
                return

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)


class Worker:
    """One pull-based executor (see module docstring).

    ``broker`` is a broker client (:class:`~repro.service.broker.FsBroker`
    or :class:`~repro.service.api.HttpBroker`) or a ``--broker`` URL
    string for :func:`~repro.service.api.connect_broker`; a broker
    opened from a URL is closed when :meth:`run` returns.  (The HTTP
    stack of :mod:`repro.service.api` is loaded only for a URL or a
    spec to decode: a local sweep's workers never need it.)

    ``poll_interval`` is the idle sleep between claims on a broker
    *directory*, where nothing can wake the worker.  Over HTTP the
    claim itself blocks in the server until a cell arrives, so there
    is nothing to sleep for.

    ``jobs`` maps lease keys to the cells to execute.  A local sweep's
    workers hold the very ``SimJob`` objects the sweep was handed;
    without it (``repro worker``), each lease's wire spec is decoded.
    ``results``, when given, receives the :func:`execute_job` record of
    each cell completed, by key: how a local sweep's worker in its own
    process hands results back as it made them.  ``max_cells`` limits
    this worker's cells; ``budget``, a semaphore holding one permit per
    cell, limits those of every worker sharing it.
    """

    def __init__(
        self,
        broker,
        worker_id: Optional[str] = None,
        *,
        policy: Optional[RetryPolicy] = None,
        timeout: Optional[float] = None,
        heartbeat_interval: Optional[float] = None,
        poll_interval: float = 0.5,
        max_cells: Optional[int] = None,
        budget=None,
        idle_exit: Optional[float] = None,
        jobs: Optional[Mapping[str, Any]] = None,
        results: Optional[Dict[str, Dict[str, Any]]] = None,
    ) -> None:
        self._owns_broker = isinstance(broker, str)
        if self._owns_broker:
            from repro.service.api import connect_broker

            broker = connect_broker(broker)
        self.broker = broker
        self.id = worker_id if worker_id is not None else default_worker_id()
        self.policy = policy if policy is not None else RetryPolicy()
        self.timeout = timeout
        self.heartbeat_interval = heartbeat_interval
        self.poll_interval = poll_interval
        #: one permit per cell this worker may still claim, or None for
        #: no limit: its own ``max_cells``, or a semaphore ``budget``
        #: shared with other workers (the processes of one :func:`drain`).
        self.budget = threading.Semaphore(max(0, max_cells)) if max_cells is not None else budget
        self.idle_exit = idle_exit
        self.jobs = jobs
        self.results = results
        #: cells completed / failed by *this* worker (for reporting).
        self.completed = 0
        self.failed = 0
        self._stop = threading.Event()

    def stop(self) -> None:
        """Ask the loop to exit after the current cell."""
        self._stop.set()

    # -- execution -----------------------------------------------------
    def _attempt(self, job, key: str) -> Dict[str, Any]:
        """One execution attempt: in a process of its own with an
        enforced timeout when configured, in-process otherwise.  Always
        returns a structured record."""
        if self.timeout is not None:
            return run_isolated(job, key, timeout=self.timeout)
        return execute_job(job, key)

    def _job(self, lease: Lease):
        """The cell a lease names, or None once it has been failed
        because its spec does not decode to a cell with the lease's
        key.  The only place a lease's key is derived from its cell:
        every attempt is handed ``lease.key``."""
        if self.jobs is not None:
            return self.jobs[lease.key]
        from repro.service.api import job_from_spec

        try:
            job = job_from_spec(lease.spec)
        except Exception as exc:
            message, exception = f"undecodable job spec: {exc}", type(exc).__name__
        else:
            key = job.key()
            if key == lease.key:
                return job
            exception = "KeyMismatch"
            message = (
                f"spec hashes to {key[:12]}..., lease says {lease.key[:12]}... "
                "(version skew between submitter and worker?)"
            )
        self._give_up(lease, {"exception": exception, "message": message,
                              "kind": "error", "attempts": 0})
        return None

    def run_lease(self, lease: Lease) -> Optional[Dict[str, Any]]:
        """Execute one leased cell end to end: the :func:`execute_job`
        record of the attempt that completed it, or None when the cell
        failed.

        The lease's heartbeat stays alive for the whole retry budget.
        A lease the broker reports lost mid-run is still completed —
        completion is idempotent, so the worst case of a slow worker is
        a duplicate no-op, never a divergent result.
        """
        job = self._job(lease)
        if job is None:
            return None
        interval = (
            self.heartbeat_interval
            if self.heartbeat_interval is not None
            else max(0.5, lease.ttl / 4.0)
        )
        with _Heartbeat(self.broker, lease.key, self.id, interval):
            attempt = 0
            t0 = time.perf_counter()
            while True:
                attempt += 1
                record = self._attempt(job, lease.key)
                if record.get("ok"):
                    elapsed = time.perf_counter() - t0
                    self.broker.complete(
                        lease.key, self.id, record["result"], elapsed=elapsed
                    )
                    self.completed += 1
                    if self.results is not None:
                        self.results[lease.key] = record
                    return record
                err = record.get("error", {})
                if attempt <= self.policy.max_retries and not self._stop.is_set():
                    self.broker.retry(lease.key, self.id, attempt + 1, err.get("exception"))
                    time.sleep(self.policy.delay(attempt, lease.key))
                    continue
                self._give_up(lease, {
                    "exception": err.get("exception", "UnknownError"),
                    "message": err.get("message", ""),
                    "traceback": err.get("traceback", ""),
                    "kind": record.get("kind", "error"),
                    "attempts": attempt,
                })
                return None

    def _give_up(self, lease: Lease, failure: Dict[str, Any]) -> None:
        self.failed += 1
        self.broker.fail(lease.key, self.id, failure)

    # -- the pull loop -------------------------------------------------
    def run(self) -> Dict[str, Any]:
        """Pull and execute cells until stopped, ``max_cells`` is
        reached, or the queue stays empty past ``idle_exit`` seconds.
        Returns a summary dict (cells completed/failed, elapsed)."""
        t0 = time.perf_counter()
        try:
            self._pull()
        finally:
            if self._owns_broker:
                self.broker.close()
        return _summary(self.id, self.completed, self.failed, t0)

    def _pull(self) -> None:
        idle_since: Optional[float] = None
        while not self._stop.is_set():
            if self.budget is not None and not self.budget.acquire(False):
                break
            try:
                self.broker.reap()
            except Exception:
                pass  # reaping is advisory; the server reaps too
            asked = time.monotonic()
            lease = self.broker.claim(self.id)
            if lease is None:
                if self.budget is not None:
                    self.budget.release()  # nothing was claimed with it
                if idle_since is None:
                    idle_since = asked  # a blocking claim was idle time already
                if self.idle_exit is not None and time.monotonic() - idle_since >= self.idle_exit:
                    break
                if isinstance(self.broker, FsBroker):
                    self._stop.wait(self.poll_interval)
                continue
            idle_since = None
            self.run_lease(lease)


def drain(
    broker,
    processes: int = 1,
    *,
    worker_id: Optional[str] = None,
    max_cells: Optional[int] = None,
    results: Optional[Dict[str, Dict[str, Any]]] = None,
    **options: Any,
) -> Dict[str, Any]:
    """Run workers on ``broker`` until they stop: the one way a host
    executes cells, behind ``repro worker`` and every local sweep.
    ``broker`` is a client or a ``--broker`` URL, and ``options`` are
    the other :class:`Worker` keywords, given to every worker as they
    are.

    With ``processes <= 1``, one :class:`Worker` named ``worker_id``
    runs in this process and fills ``results``.  Otherwise
    ``processes`` worker processes run, started as the platform starts
    them by default (one that cannot start raises).  Each opens a
    client of its own, is named ``<worker_id>.<n>``, and exits if this
    process dies; ``max_cells`` is one budget for all of them, and
    ``results`` stays empty.  One that exits non-zero has its lease
    released at once -- the cell requeued while it has attempts left,
    else failed as a crash -- and is replaced; one that dies holding no
    cell raises ``RuntimeError``.

    Returns the :meth:`Worker.run` summary summed over the processes.
    A ``KeyboardInterrupt`` (in a worker process, a SIGTERM too) stops
    the processes and is raised again as :class:`Interrupted`, which
    carries that summary.
    """
    t0 = time.perf_counter()
    if processes <= 1:
        worker = Worker(broker, worker_id, max_cells=max_cells, results=results, **options)
        try:
            return worker.run()
        except KeyboardInterrupt:
            raise Interrupted(_summary(worker.id, worker.completed, worker.failed, t0)) from None

    name = worker_id or default_worker_id()
    budget = multiprocessing.Semaphore(max(0, max_cells)) if max_cells is not None else None
    totals = multiprocessing.Array("q", 2)  # cells completed, failed
    # a child opens a client of its own: a directory holds nothing
    # open, and this process's HTTP connections are not the child's
    address = broker if isinstance(broker, (str, FsBroker)) else broker.base
    opened = isinstance(broker, str)  # then this process's client is drain's to close
    if opened:
        from repro.service.api import connect_broker

        broker = connect_broker(broker)
    policy = options.get("policy") or RetryPolicy()
    crash = dict(WORKER_CRASH, kind="crash")
    numbers = itertools.count(1)
    running: Dict[int, Any] = {}

    def start() -> None:
        child = f"{name}.{next(numbers)}"
        proc = multiprocessing.Process(target=_work, args=(address, child, budget, totals, options))
        proc.start()
        running[proc.sentinel] = (proc, child)

    interrupted = False
    try:
        for _ in range(processes):
            start()
        while running:
            for sentinel in wait(list(running)):
                proc, child = running.pop(sentinel)
                proc.join()
                if not proc.exitcode:
                    continue
                if not broker.release(child, crash, attempts=policy.max_retries + 1):
                    raise RuntimeError(f"worker process {child} exited with code "
                                       f"{proc.exitcode} holding no cell")
                start()
    except KeyboardInterrupt:
        interrupted = True
    finally:
        for proc, _child in running.values():
            proc.terminate()
        for proc, _child in running.values():
            proc.join()
        if opened:
            broker.close()
    summary = _summary(name, totals[0], totals[1], t0)
    if interrupted:
        raise Interrupted(summary)
    return summary


class Interrupted(KeyboardInterrupt):
    """A :func:`drain` stopped by ``KeyboardInterrupt``; ``summary`` is
    what its workers did until then."""

    def __init__(self, summary: Dict[str, Any]) -> None:
        super().__init__()
        self.summary = summary


def _summary(worker: str, completed: int, failed: int, t0: float) -> Dict[str, Any]:
    return {"worker": worker, "completed": completed, "failed": failed,
            "elapsed": time.perf_counter() - t0}


def _work(broker, worker_id: str, budget, totals, options: Dict[str, Any]) -> None:
    """One worker process of :func:`drain`: run a :class:`Worker` until
    it stops, then add what it did to ``totals``.  Its lease can be
    released only by the process that started it, so without that
    process it does not go on; terminated, it stops as on Ctrl-C."""
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    parent = multiprocessing.parent_process()
    threading.Thread(target=_exit_with, args=(parent.sentinel,), daemon=True).start()
    worker = Worker(broker, worker_id, budget=budget, **options)
    try:
        worker.run()
    except KeyboardInterrupt:
        pass  # drain is stopping its processes
    finally:
        with totals.get_lock():
            totals[0] += worker.completed
            totals[1] += worker.failed


def _exit_with(sentinel: int) -> None:
    """Exit this process once ``sentinel`` (its parent's) is ready:
    under any start method, that is when the parent has exited."""
    wait([sentinel])
    os._exit(1)
