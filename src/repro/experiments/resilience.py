"""What a cell's execution can do wrong, and the records it leaves.

The one executor of a cell -- a :class:`~repro.service.worker.Worker`
leasing it from a broker, whether a local sweep's private one
(:func:`repro.experiments.sweep.run_sweep`) or a shared one behind
``repro serve`` -- keeps one bad cell from taking the grid down with
it through the pieces here:

* :class:`RetryPolicy` — bounded retries with exponential backoff and
  *deterministic* jitter (derived from the job key, so two runs of the
  same sweep back off identically and results stay reproducible);
* :class:`JobFailure` — the structured record a failed cell leaves
  behind (exception type, message, traceback text, attempt count and a
  failure *kind*: ``"error"`` for an exception inside the simulation,
  ``"timeout"`` for a wedged worker, ``"crash"`` for a worker process
  that died);
* :func:`execute_job` — one attempt at a cell.  It never lets an
  exception escape: errors come back as structured records the worker
  can retry or report (``KeyboardInterrupt`` still propagates promptly
  so Ctrl-C works);
* :func:`run_isolated` — one attempt in its own single-worker process,
  which is how a wall-clock timeout is enforced and how a cell that
  kills its process is told apart from the worker running it.

See ``docs/robustness.md`` for the failure-manifest format and the
overall execution model.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Dict, Optional

__all__ = [
    "JobFailure",
    "RetryPolicy",
    "WORKER_CRASH",
    "execute_job",
    "run_isolated",
]

#: the error of a cell whose process died under it, whichever process
#: that was: an isolation process, or a local sweep's worker.
WORKER_CRASH = {
    "exception": "WorkerCrash",
    "message": "worker process died while running the job",
    "traceback": "",
}


@dataclass
class JobFailure:
    """Structured record of one cell that could not be completed."""

    #: the job's cache key (SHA-256 of its payload).
    key: str
    #: human-readable cell label, e.g. ``case1/CCFIT``.
    label: str
    #: ``"error"`` | ``"timeout"`` | ``"crash"``.
    kind: str
    #: exception class name (``"RuntimeError"``), or a synthetic name
    #: for process-level failures (``"WorkerCrash"``, ``"JobTimeout"``).
    exception: str
    message: str
    #: formatted traceback from inside the worker ("" when the process
    #: died before it could report one).
    traceback: str = ""
    #: total attempts made (first try + retries).
    attempts: int = 1

    def to_dict(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "label": self.label,
            "kind": self.kind,
            "exception": self.exception,
            "message": self.message,
            "traceback": self.traceback,
            "attempts": self.attempts,
        }

    def summary(self) -> str:
        return f"{self.label}: {self.kind} after {self.attempts} attempt(s) ({self.exception}: {self.message})"


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter."""

    #: retries *after* the first attempt (0 disables retrying).
    max_retries: int = 2
    #: first backoff delay (seconds).
    backoff_base: float = 0.25
    backoff_factor: float = 2.0
    #: extra fraction of the delay added from the job key (spreads
    #: concurrent retries without a random source, so sweeps replay
    #: identically).
    jitter: float = 0.25
    #: hard cap on one backoff sleep (seconds).
    backoff_max: float = 10.0

    def delay(self, attempt: int, key: str = "") -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        base = self.backoff_base * self.backoff_factor ** max(0, attempt - 1)
        frac = int(key[:8], 16) / float(0xFFFFFFFF) if key[:8] else 0.0
        return min(self.backoff_max, base * (1.0 + self.jitter * frac))


def execute_job(job) -> Dict[str, Any]:
    """One attempt at a cell, as a structured record.

    Successful cells return ``{"ok": True, "result": <CaseResult dict>,
    "elapsed": <wall-clock s>, "worker": "pid<n>"}`` (the result in the
    same serialized form the cache stores).  Exceptions inside the
    simulation return ``{"ok": False, "error": {...}}`` instead of
    escaping -- the caller decides whether to retry.
    ``KeyboardInterrupt`` (and other ``BaseException``\\ s such as
    ``SystemExit``) are re-raised so interruption propagates promptly.
    """
    t0 = time.perf_counter()
    try:
        return {
            "ok": True,
            "key": job.key(),
            "result": job.run().to_dict(),
            "elapsed": time.perf_counter() - t0,
            "worker": f"pid{os.getpid()}",
        }
    except Exception as exc:
        return {
            "ok": False,
            "key": job.key(),
            "error": {
                "exception": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exc(),
            },
        }


def run_isolated(job, timeout: Optional[float] = None) -> Dict[str, Any]:
    """One attempt at a cell in its own single-worker process.

    A wedged cell is killed after ``timeout`` seconds (``kind`` =
    ``"timeout"``), and a cell that kills its process takes only that
    process with it (``kind`` = ``"crash"``); both come back as the
    error records of :func:`execute_job`, with the ``kind`` added.
    """
    pool = ProcessPoolExecutor(max_workers=1)
    try:
        future = pool.submit(execute_job, job)
        try:
            return future.result(timeout=timeout)
        except FutureTimeoutError:
            kind, error = "timeout", {
                "exception": "JobTimeout",
                "message": f"no result within {timeout:.1f} s (worker terminated)",
                "traceback": "",
            }
        except BrokenProcessPool:
            kind, error = "crash", dict(WORKER_CRASH)
        return {"ok": False, "key": job.key(), "kind": kind, "error": error}
    finally:
        # a wedged worker would block a waiting shutdown forever: kill
        # it first (terminating a process that has exited is a no-op)
        for proc in list((getattr(pool, "_processes", None) or {}).values()):
            proc.terminate()
        pool.shutdown(wait=False, cancel_futures=True)
