"""The submitter's client of ``repro serve``, in the standard library only.

:class:`ServiceClient` submits experiments, awaits run status, streams
events and fetches cached results over ``http.client`` connections
that stay open; :class:`_HttpClient` is that plumbing, which the
worker's :class:`~repro.service.api.HttpBroker` shares.  Nothing here
imports the simulator, so ``from repro.service import ServiceClient``
costs a process the HTTP stack and no more; the ``SimJob`` codec and
the broker client live in :mod:`repro.service.api`.
"""

from __future__ import annotations

import functools
import http.client
import json
import threading
import time
from typing import Any, Dict, Iterator, List, Optional
from urllib.parse import urlsplit

__all__ = ["LONG_POLL_S", "ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """A service/broker request failed (transport or protocol level)."""


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
