"""Service wire protocol: job specs, event records, HTTP clients.

Everything that crosses a machine boundary is JSON.  The centrepiece
is the lossless ``SimJob`` codec: :func:`job_to_spec` flattens a cell
into a JSON-safe dict and :func:`job_from_spec` rebuilds it so that
``job_from_spec(job_to_spec(job)).key() == job.key()`` — the
content-addressed cache key survives the wire, which is what makes
remote completion idempotent (two workers racing the same cell write
the same entry under the same key).

Two thin stdlib-``urllib`` clients talk to ``repro serve``:

* :class:`ServiceClient` — the submitter's view: submit experiments,
  poll run status, stream events, fetch cached results/telemetry;
* :class:`HttpBroker` — the worker's view of a remote broker, shaped
  exactly like :class:`repro.service.broker.FsBroker` (``claim`` /
  ``heartbeat`` / ``complete`` / ``fail``), so
  :class:`repro.service.worker.Worker` runs unchanged against a local
  directory or a TCP endpoint.

See ``docs/service.md`` for the endpoint inventory.
"""

from __future__ import annotations

import dataclasses
import json
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.params import CCParams
from repro.experiments.sweep import SimJob

__all__ = [
    "SPEC_SCHEMA",
    "job_to_spec",
    "job_from_spec",
    "ServiceClient",
    "HttpBroker",
    "ServiceError",
    "connect_broker",
]

#: bumped when the spec shape changes incompatibly; decoders reject
#: schemas they do not understand instead of guessing.
SPEC_SCHEMA = 1


class ServiceError(RuntimeError):
    """A service/broker request failed (transport or protocol level)."""


# ----------------------------------------------------------------------
# SimJob <-> JSON spec
# ----------------------------------------------------------------------
def job_to_spec(job: SimJob) -> Dict[str, Any]:
    """Flatten one cell into a JSON-safe dict (lossless; see
    :func:`job_from_spec`).  Optional axes serialize only when set so
    specs stay small and stable."""
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
        spec["extra"] = {k: v for k, v in job.extra}
    if job.telemetry is not None:
        spec["telemetry"] = job.telemetry.to_dict()
    if job.routing != "det":
        spec["routing"] = job.routing
    if job.faults is not None:
        spec["faults"] = {"name": job.faults.name, "plan": job.faults.to_dict()}
    if job.buffer_model is not None:
        spec["buffer_model"] = job.buffer_model
    return spec


def job_from_spec(spec: Dict[str, Any]) -> SimJob:
    """Rebuild a :class:`SimJob` from :func:`job_to_spec` output.

    The round-trip preserves the cache key: tuples and lists serialize
    identically in the canonical JSON the key hashes, and every
    optional field defaults exactly as an absent field does on
    ``SimJob`` itself.  Unknown schemas raise :class:`ServiceError`
    (a newer submitter against an older worker fails loudly, never
    silently miscomputes)."""
    schema = spec.get("schema", SPEC_SCHEMA)
    if schema != SPEC_SCHEMA:
        raise ServiceError(
            f"unsupported job spec schema {schema!r} (this worker speaks {SPEC_SCHEMA})"
        )
    params = None
    if spec.get("params") is not None:
        params = CCParams(**spec["params"])
        params.validate()
    telemetry = None
    if spec.get("telemetry") is not None:
        from repro.telemetry import TelemetryConfig

        telemetry = TelemetryConfig(**spec["telemetry"])
    faults = None
    if spec.get("faults") is not None:
        from repro.sim.faults import FaultPlan

        faults = FaultPlan.from_dict(
            spec["faults"].get("plan", {}), name=spec["faults"].get("name", "")
        )
    return SimJob(
        case=spec["case"],
        scheme=spec["scheme"],
        time_scale=float(spec.get("time_scale", 1.0)),
        seed=int(spec.get("seed", 1)),
        params=params,
        extra=tuple((k, v) for k, v in spec.get("extra", {}).items()),
        telemetry=telemetry,
        routing=spec.get("routing", "det"),
        faults=faults,
        buffer_model=spec.get("buffer_model"),
    )


# ----------------------------------------------------------------------
# HTTP plumbing
# ----------------------------------------------------------------------
def _request(
    url: str,
    payload: Optional[Dict[str, Any]] = None,
    timeout: float = 30.0,
) -> Dict[str, Any]:
    """One JSON request/response round-trip (POST when ``payload`` is
    given, GET otherwise).  HTTP and transport errors surface as
    :class:`ServiceError` with the server's message when it sent one."""
    data = None
    headers = {"Accept": "application/json"}
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    req = urllib.request.Request(url, data=data, headers=headers)
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            body = resp.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        detail = ""
        try:
            detail = json.loads(exc.read().decode("utf-8")).get("error", "")
        except Exception:
            pass
        raise ServiceError(
            f"{url}: HTTP {exc.code}" + (f" ({detail})" if detail else "")
        ) from None
    except (urllib.error.URLError, OSError) as exc:
        raise ServiceError(f"{url}: {exc}") from None
    try:
        return json.loads(body) if body else {}
    except ValueError:
        raise ServiceError(f"{url}: undecodable response body") from None


class ServiceClient:
    """Submitter-side client for a ``repro serve`` endpoint."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base = base_url.rstrip("/")
        self.timeout = timeout

    def _url(self, path: str) -> str:
        return f"{self.base}{path}"

    # -- submission ----------------------------------------------------
    def submit(self, experiment: str, **request: Any) -> Dict[str, Any]:
        """``POST /experiments``: expand ``experiment`` into cells and
        enqueue the ones not already cached.  ``request`` carries the
        grid knobs (``schemes``, ``routings``, ``time_scale``, ``seed``,
        ``telemetry_interval``, per-case ``extra`` overrides, ...).
        Returns the run record (``run`` id, cell count, cache hits)."""
        return _request(
            self._url("/experiments"),
            {"experiment": experiment, **request},
            timeout=self.timeout,
        )

    # -- introspection -------------------------------------------------
    def experiments(self) -> List[Dict[str, Any]]:
        return _request(self._url("/experiments"), timeout=self.timeout)["experiments"]

    def runs(self) -> List[Dict[str, Any]]:
        return _request(self._url("/runs"), timeout=self.timeout)["runs"]

    def run(self, run_id: str) -> Dict[str, Any]:
        return _request(self._url(f"/runs/{run_id}"), timeout=self.timeout)

    def manifest(self, run_id: str) -> Dict[str, Any]:
        return _request(self._url(f"/runs/{run_id}/manifest"), timeout=self.timeout)

    def result(self, key: str) -> Dict[str, Any]:
        """The serialized ``CaseResult`` for one completed cell key."""
        return _request(self._url(f"/results/{key}"), timeout=self.timeout)

    def telemetry(self, key: str) -> Dict[str, Any]:
        return _request(self._url(f"/results/{key}/telemetry"), timeout=self.timeout)

    def metrics(self) -> str:
        req = urllib.request.Request(self._url("/metrics"))
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return resp.read().decode("utf-8")
        except (urllib.error.URLError, OSError) as exc:
            raise ServiceError(f"{self.base}/metrics: {exc}") from None

    # -- progress ------------------------------------------------------
    def events(self, run_id: str, follow: bool = False) -> Iterator[Dict[str, Any]]:
        """Stream the run's cell-level events as decoded NDJSON records.
        With ``follow=True`` the connection stays open until the run
        finishes (the server closes it after the terminal record)."""
        url = self._url(f"/runs/{run_id}/events") + ("?follow=1" if follow else "")
        req = urllib.request.Request(url, headers={"Accept": "application/x-ndjson"})
        try:
            with urllib.request.urlopen(req, timeout=None if follow else self.timeout) as resp:
                for raw in resp:
                    line = raw.decode("utf-8").strip()
                    if line:
                        yield json.loads(line)
        except (urllib.error.URLError, OSError) as exc:
            raise ServiceError(f"{url}: {exc}") from None

    def wait(
        self, run_id: str, timeout: float = 300.0, poll: float = 0.2
    ) -> Dict[str, Any]:
        """Poll ``GET /runs/<id>`` until the run reaches a terminal
        state; returns the final status record.  Raises
        :class:`ServiceError` on deadline."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.run(run_id)
            if status.get("done"):
                return status
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"run {run_id} not finished within {timeout:.0f} s "
                    f"({status.get('counts')})"
                )
            time.sleep(poll)


class HttpBroker:
    """The worker's view of a remote broker, over the ``/broker/*``
    endpoints of ``repro serve``.  Interface-compatible with
    :class:`repro.service.broker.FsBroker` so the worker loop does not
    care where its cells come from.  Lease reaping happens server-side
    (:meth:`reap` is a no-op here)."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base = base_url.rstrip("/")
        self.timeout = timeout

    def claim(self, worker: str):
        from repro.service.broker import Lease

        rec = _request(
            f"{self.base}/broker/claim", {"worker": worker}, timeout=self.timeout
        )
        if not rec.get("lease"):
            return None
        lease = rec["lease"]
        return Lease(
            key=lease["key"],
            spec=lease["spec"],
            worker=worker,
            attempt=int(lease.get("attempt", 1)),
            ttl=float(lease.get("ttl", 60.0)),
        )

    def heartbeat(self, key: str, worker: str) -> bool:
        rec = _request(
            f"{self.base}/broker/heartbeat",
            {"key": key, "worker": worker},
            timeout=self.timeout,
        )
        return bool(rec.get("ok"))

    def complete(
        self, key: str, worker: str, result: Dict[str, Any], elapsed: Optional[float] = None
    ) -> bool:
        rec = _request(
            f"{self.base}/broker/complete",
            {"key": key, "worker": worker, "result": result, "elapsed": elapsed},
            timeout=self.timeout,
        )
        return bool(rec.get("stored"))

    def fail(self, key: str, worker: str, failure: Dict[str, Any]) -> None:
        _request(
            f"{self.base}/broker/fail",
            {"key": key, "worker": worker, "failure": failure},
            timeout=self.timeout,
        )

    def reap(self) -> Tuple[int, int]:  # server-side concern
        return (0, 0)


def connect_broker(url: str, timeout: float = 30.0):
    """Resolve a ``--broker`` URL to a broker client: ``http(s)://...``
    speaks to a ``repro serve`` endpoint via :class:`HttpBroker`;
    anything else (a plain path or ``dir://path``) opens the shared
    directory directly via :class:`repro.service.broker.FsBroker`."""
    if url.startswith(("http://", "https://")):
        return HttpBroker(url, timeout=timeout)
    from repro.service.broker import FsBroker

    path = url[len("dir://"):] if url.startswith("dir://") else url
    return FsBroker(path)
