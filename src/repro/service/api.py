"""Service wire protocol: job specs, event records, the broker client.

Everything that crosses a machine boundary is JSON.  The centrepiece
is the lossless ``SimJob`` codec: :func:`job_to_spec` flattens a cell
into a JSON-safe dict and :func:`job_from_spec` rebuilds it so that
``job_from_spec(job_to_spec(job)).key() == job.key()`` — the
content-addressed cache key survives the wire, which is what makes
remote completion idempotent (two workers racing the same cell write
the same entry under the same key).

Two thin standard-library clients talk to ``repro serve`` over
sockets that stay open; neither polls -- where there is something
to wait for, the server holds the request (``wait``):

* :class:`~repro.service.client.ServiceClient` — the submitter's view:
  submit experiments, await run status, stream events, fetch cached
  results/telemetry.  It lives in :mod:`repro.service.client`, which
  imports no simulator, and is re-exported here;
* :class:`HttpBroker` — the worker's view of a remote broker, shaped
  exactly like :class:`repro.service.broker.FsBroker` (``claim`` /
  ``heartbeat`` / ``complete`` / ``fail`` / ``release``), so
  :class:`repro.service.worker.Worker` runs unchanged against a local
  directory or a TCP endpoint.

See ``docs/service.md`` for the endpoint inventory.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional, Tuple

from repro.core.params import CCParams
from repro.experiments.sweep import AXES, SimJob
from repro.service.broker import SPEC_SCHEMA, FsBroker, Lease, job_to_spec
from repro.service.client import LONG_POLL_S, ServiceClient, ServiceError, _HttpClient

__all__ = [
    "SPEC_SCHEMA",
    "job_to_spec",
    "job_from_spec",
    "ServiceClient",
    "HttpBroker",
    "ServiceError",
    "connect_broker",
]


# ----------------------------------------------------------------------
# SimJob <-> JSON spec (the encoder is the broker's: it enqueues specs)
# ----------------------------------------------------------------------
def job_from_spec(spec: Dict[str, Any]) -> SimJob:
    """Rebuild a :class:`SimJob` from :func:`job_to_spec` output:
    ``job_from_spec(job_to_spec(job)) == job``, key and label with it.
    The job validates itself as any other does (``CellError``, a
    ``ValueError``: a spec that cannot be a cell fails the lease, it is
    not run).  Unknown schemas raise :class:`ServiceError` (a newer
    submitter against an older worker fails loudly, never silently
    miscomputes)."""
    schema = spec.get("schema", SPEC_SCHEMA)
    if schema != SPEC_SCHEMA:
        raise ServiceError(
            f"unsupported job spec schema {schema!r} (this worker speaks {SPEC_SCHEMA})"
        )
    params = None
    if spec.get("params") is not None:
        params = CCParams(**spec["params"])
        params.validate()
    return SimJob(
        case=spec["case"],
        scheme=spec["scheme"],
        time_scale=spec.get("time_scale", 1.0),
        seed=spec.get("seed", 1),
        params=params,
        extra=spec.get("extra", ()),
        **{axis.name: spec[axis.name] for axis in AXES if axis.name in spec},
    )


# ----------------------------------------------------------------------
# the worker's client
# ----------------------------------------------------------------------
class HttpBroker(_HttpClient):
    """The worker's view of a remote broker, over the ``/broker/*``
    endpoints of ``repro serve``.  Interface-compatible with
    :class:`repro.service.broker.FsBroker` so the worker loop does not
    care where its cells come from -- except that :meth:`claim` blocks:
    the server holds the request until a cell is there, so a worker has
    no reason to sleep between claims.  Lease reaping happens
    server-side (:meth:`reap` is a no-op here)."""

    def claim(self, worker: str):
        """Lease the oldest pending cell; None when ``LONG_POLL_S`` went
        by without one."""
        asked = time.monotonic()
        rec = self._request(
            "/broker/claim", {"worker": worker, "wait": LONG_POLL_S}, wait=LONG_POLL_S
        )
        if not rec.get("lease"):
            # a server that says "nothing" early (it predates ``wait``)
            # is not to be asked again at once
            time.sleep(max(0.0, asked + LONG_POLL_S - time.monotonic()))
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
        rec = self._request("/broker/heartbeat", {"key": key, "worker": worker})
        return bool(rec.get("ok"))

    def complete(
        self, key: str, worker: str, result: Dict[str, Any], elapsed: Optional[float] = None
    ) -> bool:
        rec = self._request(
            "/broker/complete",
            {"key": key, "worker": worker, "result": result, "elapsed": elapsed},
        )
        return bool(rec.get("stored"))

    def retry(self, key: str, worker: str, attempt: int, exception: Optional[str] = None) -> None:
        self._request("/broker/retry", {"key": key, "worker": worker, "attempt": attempt,
                                        "exception": exception})

    def fail(self, key: str, worker: str, failure: Dict[str, Any]) -> None:
        self._request("/broker/fail", {"key": key, "worker": worker, "failure": failure})

    def release(self, worker: str, failure: Dict[str, Any], attempts: int) -> int:
        rec = self._request("/broker/release",
                            {"worker": worker, "failure": failure, "attempts": attempts})
        return int(rec.get("released", 0))

    def reap(self) -> Tuple[int, int]:  # server-side concern
        return (0, 0)


def connect_broker(url: str, timeout: float = 30.0):
    """Resolve a ``--broker`` URL to a broker client: ``http(s)://...``
    speaks to a ``repro serve`` endpoint via :class:`HttpBroker`;
    anything else (a plain path or ``dir://path``) opens the shared
    directory directly via :class:`repro.service.broker.FsBroker`."""
    if url.startswith(("http://", "https://")):
        return HttpBroker(url, timeout=timeout)
    path = url[len("dir://"):] if url.startswith("dir://") else url
    return FsBroker(path)
