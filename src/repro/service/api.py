"""Service wire protocol: job specs, event records, HTTP clients.

Everything that crosses a machine boundary is JSON.  The centrepiece
is the lossless ``SimJob`` codec: :func:`job_to_spec` flattens a cell
into a JSON-safe dict and :func:`job_from_spec` rebuilds it so that
``job_from_spec(job_to_spec(job)).key() == job.key()`` — the
content-addressed cache key survives the wire, which is what makes
remote completion idempotent (two workers racing the same cell write
the same entry under the same key).

Two thin stdlib-``http.client`` clients talk to ``repro serve`` over
connections that stay open; neither polls -- where there is something
to wait for, the server holds the request (``wait``):

* :class:`ServiceClient` — the submitter's view: submit experiments,
  await run status, stream events, fetch cached results/telemetry;
* :class:`HttpBroker` — the worker's view of a remote broker, shaped
  exactly like :class:`repro.service.broker.FsBroker` (``claim`` /
  ``heartbeat`` / ``complete`` / ``fail``), so
  :class:`repro.service.worker.Worker` runs unchanged against a local
  directory or a TCP endpoint.

See ``docs/service.md`` for the endpoint inventory.
"""

from __future__ import annotations

import functools
import http.client
import json
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple
from urllib.parse import urlsplit

from repro.core.params import CCParams
from repro.experiments.sweep import AXES, SimJob
from repro.service.broker import SPEC_SCHEMA, FsBroker, Lease, job_to_spec

__all__ = [
    "SPEC_SCHEMA",
    "job_to_spec",
    "job_from_spec",
    "ServiceClient",
    "HttpBroker",
    "ServiceError",
    "connect_broker",
]

class ServiceError(RuntimeError):
    """A service/broker request failed (transport or protocol level)."""


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
# HTTP plumbing
# ----------------------------------------------------------------------
#: seconds one claim or run-status request asks the server to wait
#: before answering "nothing yet".  Short, so that a worker told to
#: stop or past its ``idle_exit`` notices within about a second; the
#: caller asks again.
LONG_POLL_S = 1.0


class _HttpClient:
    """JSON requests to one ``repro serve`` endpoint over connections
    that stay open: one per calling thread, because a worker's
    heartbeat thread talks while its main thread sits in a blocking
    claim.  (``http.client`` sets ``TCP_NODELAY`` on what it dials; a
    kept-alive connection without it stalls on Nagle + delayed ACK.)"""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base = base_url.rstrip("/")
        self.timeout = timeout
        url = urlsplit(self.base)
        if url.scheme not in ("http", "https") or not url.netloc:
            raise ServiceError(f"not an http(s) URL: {base_url!r}")
        self._dial = functools.partial(
            http.client.HTTPSConnection if url.scheme == "https"
            else http.client.HTTPConnection,
            url.netloc,
        )
        self._prefix = url.path
        self._lock = threading.Lock()
        #: thread ident -> that thread's connection.
        self._connections: Dict[int, http.client.HTTPConnection] = {}

    def _connection(self) -> http.client.HTTPConnection:
        ident = threading.get_ident()
        conn = self._connections.get(ident)
        if conn is None:
            with self._lock:
                live = {thread.ident for thread in threading.enumerate()}
                for gone in [i for i in self._connections if i not in live]:
                    self._connections.pop(gone).close()
                conn = self._connections[ident] = self._dial(timeout=self.timeout)
        return conn

    def close(self) -> None:
        """Close every connection held open; a later request dials again."""
        with self._lock:
            connections, self._connections = list(self._connections.values()), {}
        for conn in connections:
            conn.close()

    def _exchange(
        self, path: str, payload: Optional[Dict[str, Any]] = None, wait: float = 0.0
    ) -> bytes:
        """One request/response round-trip (POST when ``payload`` is
        given, GET otherwise) on this thread's connection; ``wait`` is
        how long the server was asked to hold the request, on top of
        which the usual timeout applies.  HTTP and transport errors
        surface as :class:`ServiceError` with the server's message when
        it sent one."""
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        method = "GET" if body is None else "POST"
        conn = self._connection()
        conn.timeout = self.timeout + wait
        reused = conn.sock is not None
        if reused:
            conn.sock.settimeout(conn.timeout)
        try:
            try:
                conn.request(method, self._prefix + path, body, headers)
                resp = conn.getresponse()
            except ConnectionError:
                # Not one byte of a reply.  On a connection that sat
                # idle, that is the server having closed it meanwhile:
                # dial again, once.  A reply that breaks off part-way is
                # never asked for twice -- the server has acted on the
                # request (a second claim would orphan the first lease).
                conn.close()
                if not reused:
                    raise
                conn.request(method, self._prefix + path, body, headers)
                resp = conn.getresponse()
            data = resp.read()
        except (http.client.HTTPException, OSError) as exc:
            conn.close()
            raise ServiceError(f"{self.base}{path}: {exc}") from None
        if resp.status >= 400:
            raise _http_error(f"{self.base}{path}", resp.status, data)
        return data

    def _request(
        self, path: str, payload: Optional[Dict[str, Any]] = None, wait: float = 0.0
    ) -> Dict[str, Any]:
        """:meth:`_exchange`, with the reply decoded as JSON."""
        data = self._exchange(path, payload, wait)
        try:
            return json.loads(data) if data else {}
        except ValueError:
            raise ServiceError(f"{self.base}{path}: undecodable response body") from None


def _http_error(url: str, status: int, body: bytes) -> ServiceError:
    detail = ""
    try:
        detail = json.loads(body).get("error", "")
    except (ValueError, AttributeError):
        pass
    return ServiceError(f"{url}: HTTP {status}" + (f" ({detail})" if detail else ""))


class ServiceClient(_HttpClient):
    """Submitter-side client for a ``repro serve`` endpoint."""

    # -- submission ----------------------------------------------------
    def submit(self, experiment: str, **request: Any) -> Dict[str, Any]:
        """``POST /experiments``: expand ``experiment`` into cells and
        enqueue the ones not already cached.  ``request`` carries the
        grid knobs (``schemes``, ``routings``, ``time_scale``, ``seed``,
        ``telemetry_interval``, per-case ``extra`` overrides, ...).
        Returns the run record (``run`` id, cell count, cache hits)."""
        return self._request("/experiments", {"experiment": experiment, **request})

    # -- introspection -------------------------------------------------
    def experiments(self) -> List[Dict[str, Any]]:
        return self._request("/experiments")["experiments"]

    def runs(self) -> List[Dict[str, Any]]:
        return self._request("/runs")["runs"]

    def run(self, run_id: str, wait: float = 0.0) -> Dict[str, Any]:
        """The run's status now -- or, with ``wait``, as soon as it is
        done or ``wait`` seconds have passed, whichever is first."""
        query = f"?wait={wait:.3f}" if wait > 0 else ""
        return self._request(f"/runs/{run_id}{query}", wait=wait)

    def manifest(self, run_id: str) -> Dict[str, Any]:
        return self._request(f"/runs/{run_id}/manifest")

    def result(self, key: str) -> Dict[str, Any]:
        """The serialized ``CaseResult`` for one completed cell key."""
        return self._request(f"/results/{key}")

    def telemetry(self, key: str) -> Dict[str, Any]:
        return self._request(f"/results/{key}/telemetry")

    def metrics(self) -> str:
        return self._exchange("/metrics").decode("utf-8")

    # -- progress ------------------------------------------------------
    def events(self, run_id: str, follow: bool = False) -> Iterator[Dict[str, Any]]:
        """Stream the run's cell-level events as decoded NDJSON records,
        on a connection of their own that the server closes after the
        last one.  With ``follow=True`` that is when the run finishes."""
        path = f"/runs/{run_id}/events" + ("?follow=1" if follow else "")
        conn = self._dial(timeout=None if follow else self.timeout)
        try:
            conn.request("GET", self._prefix + path, headers={"Accept": "application/x-ndjson"})
            resp = conn.getresponse()
            if resp.status >= 400:
                raise _http_error(f"{self.base}{path}", resp.status, resp.read())
            for raw in resp:
                line = raw.decode("utf-8").strip()
                if line:
                    yield json.loads(line)
        except (http.client.HTTPException, OSError) as exc:
            raise ServiceError(f"{self.base}{path}: {exc}") from None
        finally:
            conn.close()

    def wait(
        self, run_id: str, timeout: float = 300.0, poll: float = 0.2
    ) -> Dict[str, Any]:
        """Block until the run reaches a terminal state; returns the
        final status record.  The waiting is done by the server
        (``GET /runs/<id>?wait=``, asked again every ``LONG_POLL_S``);
        ``poll`` is only the pause before asking again when a reply
        comes back early and not done (a server that predates ``wait``,
        or one shutting down).  Raises :class:`ServiceError` on
        deadline."""
        deadline = time.monotonic() + timeout
        while True:
            asked = time.monotonic()
            hold = round(min(LONG_POLL_S, max(0.0, deadline - asked)), 3)
            status = self.run(run_id, wait=hold)
            if status.get("done"):
                return status
            now = time.monotonic()
            if now >= deadline:
                raise ServiceError(
                    f"run {run_id} not finished within {timeout:.0f} s "
                    f"({status.get('counts')})"
                )
            if now - asked < hold:
                time.sleep(min(poll, deadline - now))


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
