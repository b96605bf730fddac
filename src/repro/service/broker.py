"""Filesystem-backed shared job queue with leases.

The broker is a directory; every mutation is an atomic filesystem
operation, so any number of worker processes (and the ``repro serve``
front-end) can share it without a coordinator:

* **enqueue** — a pending cell is one ``queue/<key>.json`` file
  (atomic tmp+rename write), keyed by the cell's content-addressed
  cache key, so enqueueing the same cell twice is naturally collapsed;
* **claim** — a worker takes a cell by ``os.rename``-ing it from
  ``queue/`` to ``active/``: rename is atomic, exactly one claimant
  wins, losers see ``FileNotFoundError`` and move on;
* **heartbeat** — the lease is alive while the worker keeps touching
  the ``active/`` file's mtime; a worker that dies simply stops;
* **reap** — anyone may sweep ``active/`` for leases whose mtime has
  fallen ``lease_ttl`` behind and requeue them: renamed to a name only
  the requeue uses (atomic — the expired cell is requeued *exactly
  once* however many reapers race), rewritten there, and published
  into ``queue/`` with one more rename.  A cell that keeps losing its
  lease moves to ``failed/`` after ``max_requeues`` with a synthetic
  ``LeaseExpired`` failure instead of looping forever.  **release**
  requeues (or fails) the leases of a worker known to be dead the same
  way, without waiting for them to expire;
* **complete** — the worker publishes the ``CaseResult`` into the
  shared content-addressed :class:`~repro.experiments.sweep.ResultCache`
  namespace and stamps a ``done/<key>.json`` marker created with
  ``O_EXCL`` — a duplicate completion (a slow worker finishing a cell
  that was requeued and re-finished) is a structural no-op: the cache
  write is byte-identical by construction and the marker creation
  simply loses the race;
* **events** — every transition, and every retry a worker makes
  inside its lease, appends one NDJSON line to ``events.jsonl``
  (single ``O_APPEND`` writes), the progress stream ``repro serve``
  tails.

Nothing here interprets a result: the broker enqueues each cell as a
job spec (:func:`job_to_spec`), moves it opaquely from state to state
and accounts for it.
See ``docs/service.md`` for the on-disk layout and protocol.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import socket
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.experiments.sweep import ResultCache, SimJob, write_atomic

__all__ = ["FsBroker", "Lease", "SPEC_SCHEMA", "default_worker_id", "job_to_spec"]

#: lease requeues tolerated before a cell is declared lost.
DEFAULT_MAX_REQUEUES = 3

#: how a record's kind reads in the event log, whose lines are compact
#: JSON: a line can be told by it without being decoded.  (A quote
#: inside a string value is escaped, so only the record's own key can
#: read like this.)
_EVENT_KIND = b'"kind":"%s"'


def default_worker_id() -> str:
    """``<host>-<pid>``: stable for a worker process's lifetime, unique
    enough across a small fleet, and meaningful in manifests."""
    return f"{socket.gethostname()}-{os.getpid()}"


@dataclass
class Lease:
    """One claimed cell: the spec to run plus lease bookkeeping."""

    key: str
    spec: Dict[str, Any]
    worker: str
    #: 1-based delivery attempt (grows on every lease-expiry requeue).
    attempt: int = 1
    #: seconds of heartbeat silence before the lease expires.
    ttl: float = 60.0


@dataclass
class RunRecord:
    """One submitted experiment: the cells it expands to."""

    id: str
    experiment: str
    created: float
    keys: List[str] = field(default_factory=list)
    labels: Dict[str, str] = field(default_factory=dict)
    #: cells satisfied straight from the cache at submit time.
    cached: List[str] = field(default_factory=list)
    #: size of the event log at submit: what the run did to its cells
    #: is after it (a record written before this field reads from 0).
    log_offset: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "experiment": self.experiment,
            "created": self.created,
            "keys": self.keys,
            "labels": self.labels,
            "cached": self.cached,
            "log_offset": self.log_offset,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunRecord":
        return cls(
            id=data["id"],
            experiment=data.get("experiment", "?"),
            created=float(data.get("created", 0.0)),
            keys=list(data.get("keys", ())),
            labels=dict(data.get("labels", {})),
            cached=list(data.get("cached", ())),
            log_offset=int(data.get("log_offset", 0)),
        )


#: bumped when the spec shape changes incompatibly; decoders
#: (:func:`repro.service.api.job_from_spec`) reject schemas they do not
#: understand instead of guessing.
SPEC_SCHEMA = 1


def job_to_spec(job: SimJob) -> Dict[str, Any]:
    """Flatten one cell into the JSON-safe dict a queue entry carries
    (lossless; see :func:`repro.service.api.job_from_spec`).  What the
    cell leaves at its default is left out (``SimJob.axes``), so specs
    stay small and stable."""
    spec: Dict[str, Any] = {
        "schema": SPEC_SCHEMA,
        "case": job.case,
        "scheme": job.scheme,
        "time_scale": job.time_scale,
        "seed": job.seed,
    }
    if job.params is not None:
        spec["params"] = dataclasses.asdict(job.params)
    if job.extra:
        spec["extra"] = dict(job.extra)
    for axis, value in job.axes():
        spec[axis.name] = axis.wire(value)
    return spec


def _write_atomic(path: Path, payload: Dict[str, Any]) -> None:
    write_atomic(path, json.dumps(payload, separators=(",", ":")).encode("utf-8"))


def _read_json(path: Path) -> Optional[Dict[str, Any]]:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


class FsBroker:
    """A shared-directory broker (see module docstring).

    ``cache_dir`` is the shared :class:`ResultCache` namespace every
    worker publishes into; it defaults to ``<root>/cache`` so a broker
    directory is self-contained, but pointing it at an existing sweep
    cache makes in-process and distributed runs share cells.
    """

    def __init__(
        self,
        root,
        cache_dir: Optional[str] = None,
        lease_ttl: float = 60.0,
        max_requeues: int = DEFAULT_MAX_REQUEUES,
    ) -> None:
        self.root = Path(root)
        self.lease_ttl = float(lease_ttl)
        self.max_requeues = int(max_requeues)
        for sub in ("queue", "active", "done", "failed", "runs"):
            (self.root / sub).mkdir(parents=True, exist_ok=True)
        self.cache = ResultCache(cache_dir if cache_dir is not None else self.root / "cache")
        self.events_path = self.root / "events.jsonl"

    def close(self) -> None:
        """Nothing stays open between calls; a broker can be closed
        without asking which kind it is (``HttpBroker.close``)."""

    # -- paths ---------------------------------------------------------
    def _queued(self, key: str) -> Path:
        return self.root / "queue" / f"{key}.json"

    def _active(self, key: str) -> Path:
        return self.root / "active" / f"{key}.json"

    def _done(self, key: str) -> Path:
        return self.root / "done" / f"{key}.json"

    def _failed(self, key: str) -> Path:
        return self.root / "failed" / f"{key}.json"

    def _run_path(self, run_id: str) -> Path:
        return self.root / "runs" / f"{run_id}.json"

    # -- event log -----------------------------------------------------
    @staticmethod
    def _event_line(kind: str, key: str = "", **detail: Any) -> bytes:
        rec = {"t": time.time(), "kind": kind}
        if key:
            rec["key"] = key
        rec.update({k: v for k, v in detail.items() if v is not None})
        return json.dumps(rec, separators=(",", ":")).encode("utf-8") + b"\n"

    def _append(self, lines: bytes) -> None:
        # O_APPEND: every write lands at the end as one piece, so the
        # lines of concurrent writers never interleave.  A write the
        # filesystem takes only part of (a very large batch, a signal)
        # goes on where it stopped; a foreign line may then fall inside
        # ours, which readers skip as torn.
        fd = os.open(self.events_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            view = memoryview(lines)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)

    def _event(self, kind: str, key: str = "", **detail: Any) -> None:
        self._append(self._event_line(kind, key, **detail))

    def _read_log(self, offset: int = 0) -> Tuple[bytes, int]:
        """The whole lines of the event log from byte ``offset`` on, and
        the offset of what follows them (a torn trailing line is left
        for the next read)."""
        try:
            with open(self.events_path, "rb") as fh:
                fh.seek(offset)
                data = fh.read()
        except FileNotFoundError:
            return b"", offset
        end = data.rfind(b"\n") + 1
        return data[:end], offset + end

    def read_events(
        self, offset: int = 0, kind: Union[str, Tuple[str, ...], None] = None
    ) -> Tuple[List[Dict[str, Any]], int]:
        """The event log from byte ``offset`` on, decoded, and the
        offset to resume from -- a tail reads only what is new.  With
        ``kind`` (one, or a tuple), lines of any other kind are skipped
        undecoded."""
        data, offset = self._read_log(offset)
        lines = data.splitlines()
        if kind is not None:
            markers = [_EVENT_KIND % k.encode("utf-8")
                       for k in ((kind,) if isinstance(kind, str) else kind)]
            lines = [line for line in lines if any(m in line for m in markers)]
        records = []
        for line in lines:
            try:
                records.append(json.loads(line))
            except ValueError:
                continue  # blank, or two lines run together by a crash
        return records, offset

    def events(self) -> Iterator[Dict[str, Any]]:
        """Decode the whole event log, skipping any torn line."""
        return iter(self.read_events()[0])

    def event_counts(self) -> Dict[str, int]:
        """Events logged so far, by kind; no line is decoded."""
        counts: Dict[str, int] = {}
        for raw in re.findall(_EVENT_KIND % rb'([^"\\]*)', self._read_log()[0]):
            kind = raw.decode("utf-8")
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    # -- submission ----------------------------------------------------
    def submit(
        self,
        jobs: List[SimJob],
        experiment: str = "adhoc",
        labels: Optional[Dict[str, str]] = None,
    ) -> RunRecord:
        """Register a run and enqueue every cell not already satisfied.

        Cells whose result is in the shared cache are recorded as
        cache hits and never enqueued — the content-addressed namespace
        is the dedup, and the probe is a hash of the entry's bytes, so
        only a result that would be served counts.  A ``done`` marker
        whose result has since been pruned is dropped (an ``evicted``
        event) and the cell runs again.  Cells already queued/active
        (e.g. a concurrent run submitted the same grid) are joined, not
        duplicated.

        Every event of one submit reaches the log in one append, in
        cell order with the ``submit`` event last, before the run
        record is written: whoever can see the run can see its events.
        The log is therefore in append order, not in ``t`` order -- a
        worker that claims a cell while the rest of its grid is still
        being probed logs its ``claim`` ahead of that cell's
        ``enqueue``.
        """
        try:
            log_offset = self.events_path.stat().st_size
        except FileNotFoundError:
            log_offset = 0
        run = RunRecord(
            id=uuid.uuid4().hex[:12],
            experiment=experiment,
            created=time.time(),
            log_offset=log_offset,
        )
        log: List[bytes] = []
        for job in jobs:
            key = job.key()
            label = run.labels[key] = job.label()
            run.keys.append(key)
            if self.cache.get_bytes(key) is not None:
                run.cached.append(key)
                log.append(self._event_line("cached", key, run=run.id, label=label))
                continue
            if self._active(key).exists() or self._queued(key).exists():
                log.append(self._event_line("joined", key, run=run.id, label=label))
                continue
            try:
                self._done(key).unlink()
            except FileNotFoundError:
                pass
            else:
                log.append(self._event_line("evicted", key, run=run.id, label=label))
            record = {
                "key": key,
                "spec": job_to_spec(job),
                "label": label,
                "attempt": 1,
                "submitted": time.time(),
            }
            _write_atomic(self._queued(key), record)
            log.append(self._event_line("enqueue", key, run=run.id, label=label))
        log.append(self._event_line("submit", run=run.id, experiment=experiment,
                                    cells=len(run.keys), cached=len(run.cached)))
        self._append(b"".join(log))
        _write_atomic(self._run_path(run.id), run.to_dict())
        return run

    # -- worker protocol ----------------------------------------------
    def claim(self, worker: str) -> Optional[Lease]:
        """Lease the oldest pending cell, or None when the queue is
        empty.  Claiming is an atomic rename: exactly one of any number
        of racing workers wins each cell."""
        queue_dir = self.root / "queue"
        pending = []
        try:
            for path in queue_dir.iterdir():
                if path.suffix == ".json":
                    try:
                        pending.append((path.stat().st_mtime, path.name, path))
                    except OSError:
                        continue  # claimed while the queue was being listed
        except OSError:
            pass
        for _mtime, _name, path in sorted(pending):
            key = path.stem
            target = self._active(key)
            try:
                os.rename(path, target)
            except OSError:
                continue  # someone else won this cell; try the next
            # rename preserves the queue file's mtime; refresh it so the
            # lease clock starts *now*, then stamp the claimant.
            os.utime(target)
            record = _read_json(target) or {"key": key, "spec": None, "attempt": 1}
            record["worker"] = worker
            record["leased_at"] = time.time()
            _write_atomic(target, record)
            if record.get("spec") is None:
                # an unreadable queue entry cannot be executed; fail it
                # loudly rather than bouncing it between states.
                self._fail_record(key, record, {
                    "exception": "BadJobSpec",
                    "message": "queue entry had no decodable job spec",
                    "kind": "error",
                })
                continue
            self._event("claim", key, worker=worker, attempt=record.get("attempt", 1))
            return Lease(
                key=key,
                spec=record["spec"],
                worker=worker,
                attempt=int(record.get("attempt", 1)),
                ttl=self.lease_ttl,
            )
        return None

    def heartbeat(self, key: str, worker: str) -> bool:
        """Refresh a lease; False when the lease is no longer held by
        ``worker`` (expired and requeued, completed elsewhere, ...)."""
        path = self._active(key)
        record = _read_json(path)
        if record is None or record.get("worker") != worker:
            return False
        try:
            os.utime(path)
        except OSError:
            return False
        return True

    def complete(
        self,
        key: str,
        worker: str,
        result: Dict[str, Any],
        elapsed: Optional[float] = None,
    ) -> bool:
        """Publish a finished cell: result into the shared cache, a
        ``done`` marker for accounting.  Idempotent — the first
        completion wins the ``O_EXCL`` marker; duplicates (a requeued
        cell finished twice) return False and change nothing, which is
        exactly right because the cache entry is content-addressed and
        byte-identical either way."""
        self.cache.put_dict(key, result)
        marker = {
            "key": key,
            "worker": worker,
            "elapsed": elapsed,
            "finished": time.time(),
        }
        try:
            fd = os.open(self._done(key), os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        except FileExistsError:
            self._event("duplicate", key, worker=worker)
            self._cleanup(key)
            return False
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(marker, separators=(",", ":")))
        self._cleanup(key)
        self._event("complete", key, worker=worker, elapsed=elapsed)
        return True

    def retry(self, key: str, worker: str, attempt: int, exception: Optional[str] = None) -> None:
        """Log that ``worker`` backs off to ``attempt`` of a cell it
        still holds: a retry is an event, as a requeue is."""
        self._event("retry", key, worker=worker, attempt=attempt, exception=exception)

    def fail(self, key: str, worker: str, failure: Dict[str, Any]) -> None:
        """Record a cell whose worker gave up (retries exhausted)."""
        record = _read_json(self._active(key)) or {"key": key}
        failure = dict(failure)
        failure.setdefault("worker", worker)
        self._fail_record(key, record, failure)

    def _fail_record(self, key: str, record: Dict[str, Any], failure: Dict[str, Any]) -> None:
        payload = {
            "key": key,
            "label": record.get("label", key[:12]),
            "attempt": record.get("attempt", 1),
            "failed": time.time(),
            **failure,
        }
        _write_atomic(self._failed(key), payload)
        self._cleanup(key)
        self._event("fail", key, worker=failure.get("worker"),
                    exception=failure.get("exception"))

    def _cleanup(self, key: str) -> None:
        for path in (self._active(key), self._queued(key)):
            try:
                path.unlink()
            except OSError:
                pass

    # -- lease reaping -------------------------------------------------
    def reap(self, now: Optional[float] = None) -> Tuple[int, int]:
        """Requeue every expired lease; returns ``(requeued, lost)``.

        Expiry is judged by the ``active/`` file's mtime (the heartbeat
        target).  A requeue starts with an atomic rename (``_requeue``),
        so however many processes reap concurrently, an expired cell is
        requeued exactly once.  A cell requeued more than
        ``max_requeues`` times is declared lost with a synthetic
        ``LeaseExpired`` failure.
        """
        now = time.time() if now is None else now
        requeued = lost = 0
        for path in self._leases():
            try:
                age = now - path.stat().st_mtime
            except OSError:
                continue  # completed/reaped under us
            if age <= self.lease_ttl:
                continue
            key = path.stem
            record = _read_json(path) or {"key": key, "attempt": 1}
            holder = record.get("worker")
            attempt = int(record.get("attempt", 1))
            if attempt > self.max_requeues:
                self._fail_record(key, record, {
                    "exception": "LeaseExpired",
                    "message": (
                        f"lease expired {attempt} time(s); last worker "
                        f"{holder or 'unknown'} never completed the cell"
                    ),
                    "kind": "lost",
                    "worker": holder,
                })
                lost += 1
            elif self._requeue(path):
                requeued += 1
        return (requeued, lost)

    def release(self, worker: str, failure: Dict[str, Any], attempts: int) -> int:
        """Give back at once every lease ``worker`` holds -- a worker
        known to be dead need not wait out its lease.  A cell delivered
        fewer than ``attempts`` times is requeued as the reaper requeues
        it; the others fail with ``failure``.  Returns the leases
        released."""
        released = 0
        for path in self._leases():
            record = _read_json(path)
            if record is None or record.get("worker") != worker:
                continue
            attempt = int(record.get("attempt", 1))
            if attempt >= attempts:
                self._fail_record(path.stem, record,
                                  {**failure, "worker": worker, "attempts": attempt})
            elif not self._requeue(path):
                continue
            released += 1
        return released

    def _leases(self) -> List[Path]:
        try:
            return [p for p in (self.root / "active").iterdir() if p.suffix == ".json"]
        except OSError:
            return []

    def _requeue(self, path: Path) -> bool:
        """Put the leased cell at ``path`` back in the queue: stage, then
        publish.  The rename into a name only this step uses is the
        exclusive one (of racing reapers, one wins); the record is
        rewritten there, out of every claimant's sight, and one rename
        publishes it.  So a claim finds the cell leased or requeued --
        never a queue entry for a cell that is still leased -- and the
        event is logged whenever the cell moved."""
        key = path.stem
        staged = path.with_suffix(".requeue")
        try:
            os.rename(path, staged)
        except OSError:
            return False  # a racing reaper (or a completion) got there first
        record = _read_json(staged) or {"key": key, "attempt": 1}
        holder = record.pop("worker", None)
        record.pop("leased_at", None)
        record["attempt"] = attempt = int(record.get("attempt", 1)) + 1
        _write_atomic(staged, record)  # a new file: its mtime, the queue's order, is now
        os.rename(staged, self._queued(key))
        self._event("requeue", key, worker=holder, attempt=attempt)
        return True

    # -- accounting ----------------------------------------------------
    def counts(self) -> Dict[str, int]:
        out = {}
        for state in ("queue", "active", "done", "failed"):
            try:
                out[state] = sum(
                    1 for p in (self.root / state).iterdir() if p.suffix == ".json"
                )
            except OSError:
                out[state] = 0
        out["runs"] = sum(
            1 for p in (self.root / "runs").iterdir() if p.suffix == ".json"
        )
        return out

    def runs(self) -> List[RunRecord]:
        out = []
        for path in sorted((self.root / "runs").iterdir()):
            data = _read_json(path)
            if data is not None:
                out.append(RunRecord.from_dict(data))
        return out

    def run(self, run_id: str) -> Optional[RunRecord]:
        data = _read_json(self._run_path(run_id))
        return RunRecord.from_dict(data) if data is not None else None

    def cell_state(self, key: str) -> str:
        """``done`` | ``failed`` | ``active`` | ``queued`` | ``cached``
        | ``unknown`` — in precedence order (a completed cell may still
        have a stale queue copy for a moment).  The probes are separate
        system calls: a claim or a requeue that renames the cell between
        two of them hides it from both, so a cell found nowhere is
        looked for once more before it is called ``unknown``."""
        for _ in range(2):
            if self._done(key).exists():
                return "done"
            if self._failed(key).exists():
                return "failed"
            if self._active(key).exists():
                return "active"
            if self._queued(key).exists():
                return "queued"
            if self.cache.get_bytes(key) is not None:
                return "cached"
        return "unknown"

    def run_status(self, run_id: str) -> Optional[Dict[str, Any]]:
        """Per-run progress: cell states, terminal flag, counts.  A run
        is ``done`` when every cell is ``done``, ``failed`` or
        ``cached``; an ``unknown`` cell is not finished, it is not
        accounted for."""
        run = self.run(run_id)
        if run is None:
            return None
        states = {key: self.cell_state(key) for key in run.keys}
        counts: Dict[str, int] = {}
        for state in states.values():
            counts[state] = counts.get(state, 0) + 1
        finished = sum(counts.get(s, 0) for s in ("done", "failed", "cached"))
        return {
            "run": run.id,
            "experiment": run.experiment,
            "created": run.created,
            "cells": len(run.keys),
            "counts": counts,
            "done": finished >= len(run.keys),
            "states": states,
        }

    def run_manifest(self, run_id: str) -> Optional[Dict[str, Any]]:
        """A sweep-manifest-shaped account of one run: per-cell status,
        worker attribution and wall-clock (from the ``done`` markers),
        failures, and every lease requeue and in-worker retry since the
        run was submitted (the log is read from ``run.log_offset``, not
        from its start) — so the progress stream and the manifest tell
        one timing story (docs/robustness.md)."""
        run = self.run(run_id)
        if run is None:
            return None
        cells = []
        failures = []
        for key in run.keys:
            state = self.cell_state(key)
            cell: Dict[str, Any] = {
                "label": run.labels.get(key, key[:12]),
                "key": key,
                "status": "failed" if state == "failed" else "ok"
                if state in ("done", "cached") else state,
            }
            marker = _read_json(self._done(key))
            if marker is not None:
                cell["worker"] = marker.get("worker")
                if marker.get("elapsed") is not None:
                    cell["elapsed_s"] = marker["elapsed"]
            elif state == "cached" or key in run.cached:
                cell["worker"] = "cache"
            failure = _read_json(self._failed(key))
            if failure is not None:
                failures.append(failure)
            cells.append(cell)
        events = [
            ev for ev in self.read_events(run.log_offset, kind=("requeue", "retry"))[0]
            if ev.get("key") in run.labels
        ]
        requeues = [ev for ev in events if ev["kind"] == "requeue"]
        ok = sum(1 for c in cells if c["status"] == "ok")
        return {
            "schema": 1,
            "run": run.id,
            "experiment": run.experiment,
            "cells": len(cells),
            "ok": ok,
            "failed": len(failures),
            "cache_hits": len(run.cached),
            "requeued": len(requeues),
            "retried": len(events) - len(requeues),
            "jobs": cells,
            "failures": failures,
            "requeues": requeues,
        }
