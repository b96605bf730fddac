"""The submitter's client of ``repro serve``, in the standard library only.

:class:`ServiceClient` submits experiments, awaits run status, streams
events and fetches cached results over sockets that stay open and
speak the HTTP/1.1 the server does; :class:`_HttpClient` is that
plumbing, which the worker's :class:`~repro.service.api.HttpBroker`
shares.  Nothing here imports the simulator or an HTTP library, so
``from repro.service import ServiceClient`` costs a process a socket
and no more; the ``SimJob`` codec and the broker client live in
:mod:`repro.service.api`.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple
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

#: the most an HTTP head may hold: bytes a line, header lines.
_MAX_LINE = 65536
_MAX_HEADERS = 100


class _Connection:
    """One socket to the server and the buffered reader over it."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.rfile = sock.makefile("rb")

    def ask(self, request: bytes) -> bytes:
        """Send ``request``; the reply's status line, or a
        ``ConnectionError`` when not one byte of it came."""
        self.sock.sendall(request)
        line = self.rfile.readline(_MAX_LINE + 1)
        if not line:
            raise ConnectionResetError("Remote end closed connection without response")
        return line

    def head(self, status: bytes) -> Tuple[int, Optional[int], bool]:
        """Read the head after the ``status`` line: the status, the body's
        length (None: up to EOF) and whether the connection stays open
        after it.  A reply this client cannot frame is a ``ValueError``."""
        if not (status[:7] == b"HTTP/1." and status[8:9] == b" " and status[9:12].isdigit()):
            raise ValueError(f"bad status line {status[:80]!r}")
        length, keep = None, status[:8] == b"HTTP/1.1"
        for _ in range(_MAX_HEADERS + 1):
            line = self.rfile.readline(_MAX_LINE + 1)
            if line in (b"\r\n", b"\n"):
                return int(status[9:12]), length, keep and length is not None
            if not line.endswith(b"\n"):
                raise ValueError("reply head cut short or a line over 64 KiB")
            name, _, value = line.partition(b":")
            name, value = name.strip().lower(), value.strip()
            if name == b"content-length":
                if not value.isdigit() or length not in (None, int(value)):
                    raise ValueError(f"bad Content-Length {value[:80]!r}")
                length = int(value)
            elif name == b"transfer-encoding":
                raise ValueError(f"unsupported Transfer-Encoding: {value[:80].decode('latin-1')}")
            elif name == b"connection":
                keep = {b"close": False, b"keep-alive": True}.get(value.lower(), keep)
        raise ValueError(f"got more than {_MAX_HEADERS} headers")

    def body(self, length: Optional[int]) -> bytes:
        data = self.rfile.read(length)
        if length is not None and len(data) < length:
            raise ValueError(f"IncompleteRead({len(data)} bytes read, "
                             f"{length - len(data)} more expected)")
        return data

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


class _HttpClient:
    """JSON requests to one ``repro serve`` endpoint over connections
    that stay open: one per calling thread, because a worker's
    heartbeat thread talks while its main thread sits in a blocking
    claim.  Each sets ``TCP_NODELAY``: a kept-alive connection without
    it stalls on Nagle + delayed ACK."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base = base_url.rstrip("/")
        self.timeout = timeout
        url = urlsplit(self.base)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ServiceError(f"not an http(s) URL: {base_url!r}")
        self._address = (url.hostname, url.port or (443 if url.scheme == "https" else 80))
        self._tls = None
        if url.scheme == "https":
            import ssl  # only a client of an https:// endpoint loads it

            self._tls = ssl.create_default_context()
        self._host = b"Host: %s\r\n" % url.netloc.encode("ascii")
        self._prefix = url.path
        self._lock = threading.Lock()
        #: thread ident -> that thread's connection.
        self._connections: Dict[int, _Connection] = {}

    def _dial(self, timeout: Optional[float]) -> _Connection:
        sock = socket.create_connection(self._address, timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if self._tls is not None:  # a failed handshake closes the socket
            sock = self._tls.wrap_socket(sock, server_hostname=self._address[0])
        return _Connection(sock)

    def _connect(self, ident: int, timeout: float) -> _Connection:
        """Dial thread ``ident``'s connection; close those of ended threads."""
        conn = self._dial(timeout)
        with self._lock:
            live = {thread.ident for thread in threading.enumerate()}
            for gone in [i for i in self._connections if i not in live]:
                self._connections.pop(gone).close()
            self._connections[ident] = conn
        return conn

    def _drop(self, ident: int, conn: _Connection) -> None:
        with self._lock:
            self._connections.pop(ident, None)
        conn.close()

    def close(self) -> None:
        """Close every connection held open; a later request dials again."""
        with self._lock:
            connections, self._connections = list(self._connections.values()), {}
        for conn in connections:
            conn.close()

    def _message(self, path: str, body: Optional[bytes] = None) -> bytes:
        """The request for ``path``: a GET, or a POST of the JSON ``body``.
        Its target is printable ASCII: no caller can start a header."""
        target = self._prefix + path
        if " " in target or not (target.isascii() and target.isprintable()):
            raise ServiceError(f"{self.base}{path}: not a request target")
        if body is None:
            return b"GET %s HTTP/1.1\r\n%s\r\n" % (target.encode("ascii"), self._host)
        return (b"POST %s HTTP/1.1\r\n%sContent-Type: application/json\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (target.encode("ascii"), self._host, len(body), body))

    def _exchange(
        self, path: str, payload: Optional[Dict[str, Any]] = None, wait: float = 0.0
    ) -> bytes:
        """One request/response round-trip (POST when ``payload`` is
        given, GET otherwise) on this thread's connection; ``wait`` is
        how long the server was asked to hold the request, on top of
        which the usual timeout applies.  HTTP and transport errors
        surface as :class:`ServiceError` with the server's message when
        it sent one."""
        request = self._message(path, None if payload is None else json.dumps(payload).encode("utf-8"))
        timeout = self.timeout + wait
        ident = threading.get_ident()
        conn = self._connections.get(ident)
        reused = conn is not None
        try:
            if conn is None:
                conn = self._connect(ident, timeout)
            conn.sock.settimeout(timeout)
            try:
                line = conn.ask(request)
            except ConnectionError:
                # Not one byte of a reply.  On a connection that sat
                # idle, that is the server having closed it meanwhile:
                # dial again, once.  A reply that breaks off part-way is
                # never asked for twice -- the server has acted on the
                # request (a second claim would orphan the first lease).
                self._drop(ident, conn)
                if not reused:
                    raise
                conn = self._connect(ident, timeout)
                line = conn.ask(request)
            status, length, keep = conn.head(line)
            data = conn.body(length)
        except (OSError, ValueError) as exc:
            if conn is not None:
                self._drop(ident, conn)
            raise ServiceError(f"{self.base}{path}: {exc}") from None
        if not keep:
            self._drop(ident, conn)
        if status >= 400:
            raise _http_error(f"{self.base}{path}", status, data)
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
        request = self._message(path)
        conn = None
        try:
            conn = self._dial(None if follow else self.timeout)
            status, length, _keep = conn.head(conn.ask(request))
            if status >= 400:
                raise _http_error(f"{self.base}{path}", status, conn.body(length))
            for raw in conn.rfile if length is None else conn.body(length).splitlines():
                line = raw.decode("utf-8").strip()
                if line:
                    yield json.loads(line)
        except (OSError, ValueError) as exc:
            raise ServiceError(f"{self.base}{path}: {exc}") from None
        finally:
            if conn is not None:
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
