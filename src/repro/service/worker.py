"""Pull-based cell executor: ``repro worker --broker URL``, and every
worker of a local sweep.

The worker is a loop around the broker protocol: claim a lease,
execute the cell, publish the result, repeat.  It is the one executor
of a cell: ``repro worker`` runs it against a shared broker, and
:func:`~repro.experiments.sweep.run_sweep` runs it against a private
one, in process or in ``--jobs`` worker processes.  Per lease it brings

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

import multiprocessing
import multiprocessing.connection
import os
import threading
import time
from typing import Any, Dict, Mapping, Optional

from repro.experiments.resilience import WORKER_CRASH, RetryPolicy, execute_job, run_isolated
from repro.service.broker import FsBroker, Lease, default_worker_id

__all__ = ["Worker", "drain"]


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
        idle_exit: Optional[float] = None,
        jobs: Optional[Mapping[str, Any]] = None,
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
        self.max_cells = max_cells
        self.idle_exit = idle_exit
        self.jobs = jobs
        #: cells completed / failed by *this* worker (for reporting).
        self.completed = 0
        self.failed = 0
        self._stop = threading.Event()

    def stop(self) -> None:
        """Ask the loop to exit after the current cell."""
        self._stop.set()

    # -- execution -----------------------------------------------------
    def _attempt(self, job) -> Dict[str, Any]:
        """One execution attempt: in a process of its own with an
        enforced timeout when configured, in-process otherwise.  Always
        returns a structured record."""
        if self.timeout is not None:
            return run_isolated(job, timeout=self.timeout)
        return execute_job(job)

    def _job(self, lease: Lease):
        """The cell a lease names, or None once it has been failed
        because its spec does not decode to a cell with the lease's
        key."""
        if self.jobs is not None:
            return self.jobs[lease.key]
        from repro.service.api import job_from_spec

        try:
            job = job_from_spec(lease.spec)
        except Exception as exc:
            message, exception = f"undecodable job spec: {exc}", type(exc).__name__
        else:
            if job.key() == lease.key:
                return job
            exception = "KeyMismatch"
            message = (
                f"spec hashes to {job.key()[:12]}..., lease says {lease.key[:12]}... "
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
                record = self._attempt(job)
                if record.get("ok"):
                    elapsed = time.perf_counter() - t0
                    self.broker.complete(
                        lease.key, self.id, record["result"], elapsed=elapsed
                    )
                    self.completed += 1
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
        return {
            "worker": self.id,
            "completed": self.completed,
            "failed": self.failed,
            "elapsed": time.perf_counter() - t0,
        }

    def _pull(self) -> None:
        idle_since: Optional[float] = None
        while not self._stop.is_set():
            if self.max_cells is not None and self.completed + self.failed >= self.max_cells:
                break
            try:
                self.broker.reap()
            except Exception:
                pass  # reaping is advisory; the server reaps too
            asked = time.monotonic()
            lease = self.broker.claim(self.id)
            if lease is None:
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
    broker: FsBroker,
    jobs: Mapping[str, Any],
    processes: int = 1,
    *,
    policy: Optional[RetryPolicy] = None,
    timeout: Optional[float] = None,
) -> Dict[str, Dict[str, Any]]:
    """Execute every cell queued on ``broker`` -- a local sweep's private
    one -- with local workers over ``jobs``: one :class:`Worker` in this
    process, or ``processes`` worker processes.  Returns, by key, the
    completion records of the cells this process ran (none, when
    worker processes ran them).

    The processes are forked or spawned as the platform does by
    default, and one that cannot start raises.  One that exits non-zero
    has its lease released at once -- the cell requeued while it has
    attempts left, else failed as a crash -- and is replaced while cells
    remain queued; one that dies holding no cell raises.
    """
    policy = policy if policy is not None else RetryPolicy()
    if processes <= 1:
        worker = Worker(broker, f"pid{os.getpid()}", policy=policy, timeout=timeout, jobs=jobs)
        done = {}
        while (lease := broker.claim(worker.id)) is not None:
            record = worker.run_lease(lease)
            if record is not None:
                done[lease.key] = record
        return done

    args = (str(broker.root), str(broker.cache.root), jobs, policy, timeout)
    running: Dict[int, Any] = {}

    def start() -> None:
        proc = multiprocessing.Process(target=_work, args=args)
        proc.start()
        running[proc.sentinel] = proc

    try:
        for _ in range(processes):
            start()
        while running:
            for sentinel in multiprocessing.connection.wait(list(running)):
                proc = running.pop(sentinel)
                proc.join()
                if not proc.exitcode:
                    continue
                crash = dict(WORKER_CRASH, kind="crash")
                if not broker.release(f"pid{proc.pid}", crash, attempts=policy.max_retries + 1):
                    raise RuntimeError(f"sweep worker pid{proc.pid} exited with code "
                                       f"{proc.exitcode} holding no cell")
                if broker.counts()["queue"]:
                    start()
    finally:
        for proc in running.values():
            proc.terminate()
            proc.join()
    return {}


def _work(root: str, cache_dir: str, jobs: Mapping[str, Any], policy: RetryPolicy,
          timeout: Optional[float]) -> None:
    """One local worker process: drain the broker at ``root``, then exit."""
    Worker(FsBroker(root, cache_dir=cache_dir), f"pid{os.getpid()}", policy=policy,
           timeout=timeout, idle_exit=0, jobs=jobs).run()
