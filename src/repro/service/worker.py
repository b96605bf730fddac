"""Pull-based sweep worker: ``repro worker --broker URL``.

The worker is a loop around the broker protocol: claim a lease,
execute the cell, publish the result, repeat.  Execution reuses the
PR 3 resilience machinery *per lease*:

* bounded retries with the same deterministic
  :class:`~repro.experiments.resilience.RetryPolicy` backoff the
  in-process engine uses;
* an optional per-cell wall-clock ``timeout``, enforced by running the
  cell in a quarantine process
  (:func:`~repro.experiments.resilience.run_isolated`) exactly like
  the sweep engine's timeout path;
* an optional :class:`~repro.experiments.resilience.SweepJournal`, so
  a worker doubles as a durable executor;
* a heartbeat thread that keeps the lease alive while the cell runs —
  a worker that dies simply stops heartbeating, the lease expires, and
  the broker requeues the cell for someone else.

Because a cell is executed by the very same
:meth:`SimJob.run() <repro.experiments.sweep.SimJob.run>` the
in-process engine calls, and completed into the same content-addressed
cache key, results are byte-identical to an in-process sweep no matter
which worker (or how many, racing) ran the cell.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Optional

from repro.experiments.resilience import RetryPolicy, SweepJournal, execute_job, run_isolated
from repro.experiments.runner import CaseResult
from repro.service.api import connect_broker, job_from_spec
from repro.service.broker import FsBroker, Lease, default_worker_id

__all__ = ["Worker"]


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
    opened from a URL is closed when :meth:`run` returns.

    ``poll_interval`` is the idle sleep between claims on a broker
    *directory*, where nothing can wake the worker.  Over HTTP the
    claim itself blocks in the server until a cell arrives, so there
    is nothing to sleep for.
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
        journal: Optional[str] = None,
        max_cells: Optional[int] = None,
        idle_exit: Optional[float] = None,
    ) -> None:
        self._owns_broker = isinstance(broker, str)
        self.broker = connect_broker(broker) if self._owns_broker else broker
        self.id = worker_id if worker_id is not None else default_worker_id()
        self.policy = policy if policy is not None else RetryPolicy()
        self.timeout = timeout
        self.heartbeat_interval = heartbeat_interval
        self.poll_interval = poll_interval
        self.journal = SweepJournal(journal) if journal else None
        self.max_cells = max_cells
        self.idle_exit = idle_exit
        #: cells completed / failed by *this* worker (for reporting).
        self.completed = 0
        self.failed = 0
        self._stop = threading.Event()

    def stop(self) -> None:
        """Ask the loop to exit after the current cell."""
        self._stop.set()

    # -- execution -----------------------------------------------------
    def _attempt(self, job) -> Dict[str, Any]:
        """One execution attempt, through the engine's own entry points:
        quarantined with an enforced timeout when configured, in-process
        otherwise.  Always returns a structured record."""
        if self.timeout is not None:
            return run_isolated(job, timeout=self.timeout)
        return execute_job(job)

    def run_lease(self, lease: Lease) -> bool:
        """Execute one leased cell end to end; True when it completed.

        The lease's heartbeat stays alive for the whole retry budget.
        A lease the broker reports lost mid-run is still completed —
        completion is idempotent, so the worst case of a slow worker is
        a duplicate no-op, never a divergent result.
        """
        try:
            job = job_from_spec(lease.spec)
        except Exception as exc:
            self._give_up(lease, None, {
                "exception": type(exc).__name__,
                "message": f"undecodable job spec: {exc}",
                "kind": "error",
                "attempts": 0,
            })
            return False
        if job.key() != lease.key:
            self._give_up(lease, None, {
                "exception": "KeyMismatch",
                "message": (
                    f"spec hashes to {job.key()[:12]}..., lease says "
                    f"{lease.key[:12]}... (version skew between submitter "
                    "and worker?)"
                ),
                "kind": "error",
                "attempts": 0,
            })
            return False
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
                    if self.journal is not None:
                        self.journal.record_result(lease.key, record["result"])
                    self.completed += 1
                    return True
                if attempt <= self.policy.max_retries and not self._stop.is_set():
                    time.sleep(self.policy.delay(attempt, lease.key))
                    continue
                err = record.get("error", {})
                self._give_up(lease, job.label(), {
                    "exception": err.get("exception", "UnknownError"),
                    "message": err.get("message", ""),
                    "traceback": err.get("traceback", ""),
                    "kind": record.get("kind", "error"),
                    "attempts": attempt,
                })
                return False

    def _give_up(self, lease: Lease, label: Optional[str], failure: Dict[str, Any]) -> None:
        """Fail the lease and journal it -- under ``label``, the decoded
        job's (what `repro sweep --journal` writes for the cell); with
        none, under what the raw spec still tells."""
        self.failed += 1
        self.broker.fail(lease.key, self.id, failure)
        if self.journal is not None:
            from repro.experiments.resilience import JobFailure

            if label is None:
                label = str(lease.spec.get("case", "?")) if lease.spec else lease.key[:12]
            self.journal.record_failure(JobFailure(
                key=lease.key,
                label=label,
                kind=failure.get("kind", "error"),
                exception=failure.get("exception", "UnknownError"),
                message=failure.get("message", ""),
                traceback=failure.get("traceback", ""),
                attempts=int(failure.get("attempts", 1) or 1),
            ))

    # -- the pull loop -------------------------------------------------
    def run(self) -> Dict[str, Any]:
        """Pull and execute cells until stopped, ``max_cells`` is
        reached, or the queue stays empty past ``idle_exit`` seconds.
        Returns a summary dict (cells completed/failed, elapsed)."""
        t0 = time.perf_counter()
        try:
            self._pull()
        finally:
            if self.journal is not None:
                self.journal.close()
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

    # -- convenience ---------------------------------------------------
    def fetch_result(self, key: str) -> Optional[CaseResult]:
        """The shared-cache view of one cell (FsBroker only)."""
        cache = getattr(self.broker, "cache", None)
        return cache.get(key) if cache is not None else None
