"""``repro serve``: the long-running HTTP front-end over a broker.

Pure stdlib (:class:`http.server.ThreadingHTTPServer`) — no new
dependencies.  The server owns a
:class:`~repro.service.broker.FsBroker` (shared queue + shared
content-addressed cache namespace) plus a background reaper thread
that requeues expired leases, and exposes:

============================  =========================================
``POST /experiments``         submit a registered experiment as a run
``GET  /experiments``         the experiment registry (the API surface)
``GET  /runs``                all runs with live progress counts
``GET  /runs/<id>``           one run's status (terminal flag, states);
                              ``?wait=S`` answers when the run ends or
                              after ``S`` seconds, whichever is first
``GET  /runs/<id>/events``    cell-level progress as NDJSON;
                              ``?follow=1`` streams until the run ends
``GET  /runs/<id>/manifest``  sweep-manifest-shaped account (workers,
                              per-cell wall-clock, failures, requeues,
                              retries)
``GET  /results/<key>``       a cached ``CaseResult`` (the cache = CDN):
                              the stored bytes, verified, not re-encoded
``GET  /results/<key>/telemetry``  the cell's telemetry bundle
``GET  /metrics``             live Prometheus exposition: service
                              gauges + the freshest telemetry bundle
``POST /broker/claim|heartbeat|retry|complete|fail|release``
                              the worker protocol; ``claim`` with
                              ``"wait": S`` blocks until a cell is there
                              or ``S`` seconds pass
``GET  /healthz``             liveness probe
============================  =========================================

Workers may attach either directly to the broker directory
(``repro worker --broker /path``) or over TCP through this server
(``repro worker --broker http://host:8642``) — the protocol is the
same six verbs either way.

Nothing on the HTTP path polls: connections are kept alive, and a
request that waits sleeps on one condition the server notifies after
every mutation it performs (:meth:`ServiceServer.wait_for`).  Mutations
by workers attached to the directory are invisible to the server, so a
sleeping request also looks again every ``_DIRECTORY_PROBE`` seconds.
See ``docs/service.md``.
"""

from __future__ import annotations

import json
import math
import re
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional, Tuple, TypeVar
from urllib.parse import parse_qs, urlparse

from repro.experiments import registry
from repro.experiments.sweep import AXES, parse_names, read_axes
from repro.registry import CellError, unknown_name
from repro.service.broker import FsBroker, is_key
from repro.service.client import _MAX_HEADERS, _MAX_LINE

__all__ = ["ServiceServer", "serve", "DEFAULT_PORT"]

DEFAULT_PORT = 8642

#: how often a waiting request looks at the directory again without
#: having been notified: workers attached to the directory change it
#: behind the server's back.
_DIRECTORY_PROBE = 0.2
#: the longest one request may wait; clients re-ask.
_MAX_WAIT = 30.0
#: the longest an ``events?follow=1`` stream stays open.
_FOLLOW_TIMEOUT = 3600.0
#: one header line: a token, a colon, the value.  An obs-fold (a line
#: that starts with a space) or a line without a colon is not one.
_FIELD = re.compile(rb"([!#$%&'*+.^_`|~0-9A-Za-z-]+):[ \t]*(.*?)[ \t]*\r?\n")

T = TypeVar("T")


class _BadRequest(ValueError):
    """Maps to a 400 with the message in the JSON error body."""


#: every top-level field ``POST /experiments`` reads: the grid's own,
#: and per axis of the table its request field.  Anything else is a
#: typo or a removed knob and is rejected, never silently ignored.
_SUBMISSION_FIELDS = frozenset(
    {"experiment", "schemes", "time_scale", "seed", "extra"} | {axis.field for axis in AXES}
)


def _wait_seconds(raw: Any) -> float:
    """The ``wait`` a request carries, in seconds: absent means answer
    now, anything over ``_MAX_WAIT`` means ``_MAX_WAIT``."""
    if raw is None:
        return 0.0
    try:
        wait = float(raw)
    except (TypeError, ValueError):
        wait = math.nan
    if not 0.0 <= wait < math.inf:
        raise _BadRequest(f"'wait' must be a number of seconds >= 0, not {raw!r}")
    return min(wait, _MAX_WAIT)


def _key(body: Dict[str, Any], verb: str) -> str:
    """The cell key a worker-protocol body names; anything but a key
    is refused before it can name a file."""
    key = body.get("key")
    if not is_key(key):
        raise _BadRequest(f"{verb} needs 'key', a cell key (64 lowercase hex digits), "
                          f"not {key!r}")
    return key


def _resolve_submission(request: Dict[str, Any]) -> Tuple[Any, List[Any]]:
    """Expand a ``POST /experiments`` body into (experiment, jobs).

    The cells validate themselves exactly as the CLI's do
    (``SimJob``, ``read_axes``); what cannot be a cell raises
    :class:`_BadRequest` (the HTTP analogue of exit code 2) before
    anything is enqueued."""
    unknown = sorted(set(request) - _SUBMISSION_FIELDS)
    if unknown:
        raise _BadRequest("; ".join(unknown_name("field", f, _SUBMISSION_FIELDS) for f in unknown))
    name = request.get("experiment")
    if not name:
        raise _BadRequest("missing 'experiment'")
    extra = request.get("extra") or {}
    if not isinstance(extra, dict):
        raise _BadRequest("'extra' must be an object of per-case knobs")
    try:
        exp = registry.get(registry.REGISTRY.parse(name))
        cell = read_axes(request.get)
        if request.get("schemes"):
            cell["schemes"] = parse_names(str, request["schemes"])
        jobs = exp.jobs(
            time_scale=request.get("time_scale", 1.0), seed=request.get("seed", 1),
            **cell, **extra,
        )
    except (CellError, TypeError) as exc:
        raise _BadRequest(f"cannot expand experiment: {exc}")
    return exp, jobs


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    # One segment per reply, sent at once: on a kept-alive connection a
    # reply split into header and body writes waits ~40 ms for the
    # client's delayed ACK (Nagle), every request.
    disable_nagle_algorithm = True
    wbufsize = -1

    # -- response helpers ----------------------------------------------
    def _json(self, payload: Dict[str, Any], status: int = 200) -> None:
        self._send(json.dumps(payload).encode("utf-8"), "application/json", status)

    def _error(self, status: int, message: str) -> None:
        self._json({"error": message}, status=status)

    def _send(self, body: bytes, content_type: str, status: int = 200) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:  # the client asked, or the request went wrong
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _refuse(self, status: int, message: str) -> bool:
        self.close_connection = True
        self._error(status, message)
        return False

    def parse_request(self) -> bool:
        """Read the request line and head: ``headers`` by lowercase name,
        and the body's length.  What cannot be framed for certain is
        answered and hung up on: no byte of it is read as a request."""
        self.command, self.request_version = None, "HTTP/1.1"  # what errors answer in
        self.requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if len(words) != 3 or words[2] not in ("HTTP/1.0", "HTTP/1.1"):
            return self._refuse(400, f"bad request line {self.requestline[:80]!r}")
        self.command, self.path, self.request_version = words
        self.headers: Dict[str, str] = {}
        for _ in range(_MAX_HEADERS + 1):
            line = self.rfile.readline(_MAX_LINE + 1)
            if line in (b"\r\n", b"\n"):
                break
            if len(line) > _MAX_LINE:
                return self._refuse(431, f"a header line is over {_MAX_LINE} bytes")
            field = _FIELD.fullmatch(line)
            if field is None:  # or the head was cut short
                return self._refuse(400, f"malformed header line {line[:80]!r}")
            name, value = field.group(1).decode("ascii").lower(), field.group(2).decode("latin-1")
            self.headers[name] = f"{self.headers[name]}, {value}" if name in self.headers else value
        else:
            return self._refuse(431, f"more than {_MAX_HEADERS} header lines")
        if "transfer-encoding" in self.headers:
            return self._refuse(501, "Transfer-Encoding is not supported: send Content-Length")
        length = self.headers.get("content-length", "0")  # two of them read "5, 6"
        if not (length.isdigit() and length.isascii()):
            return self._refuse(400, "Content-Length must be one integer >= 0")
        self._length = int(length)
        connection = self.headers.get("connection", "").lower()
        self.close_connection = connection == "close" or (
            self.request_version == "HTTP/1.0" and connection != "keep-alive")
        if self.headers.get("expect", "").lower() == "100-continue" and words[2] == "HTTP/1.1":
            return self.handle_expect_100()
        return True

    def _body(self) -> Dict[str, Any]:
        raw = self.rfile.read(self._length) if self._length else b""
        if not raw:
            return {}
        try:
            data = json.loads(raw.decode("utf-8"))
        except ValueError:
            raise _BadRequest("request body is not valid JSON")
        if not isinstance(data, dict):
            raise _BadRequest("request body must be a JSON object")
        return data

    @property
    def svc(self) -> "ServiceServer":
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, fmt: str, *args: Any) -> None:
        if self.svc.verbose:
            super().log_message(fmt, *args)

    # -- routing -------------------------------------------------------
    def _dispatch(self, route: Callable[[], None]) -> None:
        if self.svc.stopping:
            # it raced the hang-up in: neither acted on nor answered, so
            # the client may safely ask whoever listens next
            self.close_connection = True
            return
        self.server.count_request()  # type: ignore[attr-defined]
        try:
            route()
        except _BadRequest as exc:
            self._error(400, str(exc))
        except ConnectionError:
            raise  # the client hung up: nobody to answer (_Httpd.handle_error)
        except Exception as exc:  # never kill the handler thread
            # the request may not have been read to its end: what follows
            # on this connection cannot be trusted to be a request
            self.close_connection = True
            try:
                self._error(500, f"{type(exc).__name__}: {exc}")
            except Exception:
                pass

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self.close_connection |= self._length > 0  # a body no route reads
        self._dispatch(self._route_get)

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch(self._route_post)

    def _route_get(self) -> None:
        parsed = urlparse(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        query = parse_qs(parsed.query)
        svc = self.svc
        broker = svc.broker
        if parts == ["healthz"]:
            self._json({"ok": True, "uptime_s": time.time() - svc.started})
        elif parts == ["experiments"]:
            self._json({"experiments": registry.describe()})
        elif parts == ["runs"]:
            self._json({
                "runs": [
                    broker.run_status(run.id) for run in broker.runs()
                ]
            })
        elif len(parts) == 2 and parts[0] == "runs":
            status = svc.wait_for(
                lambda: broker.run_status(parts[1]),
                lambda status: status is None or status["done"],
                _wait_seconds(query.get("wait", [None])[0]),
            )
            if status is None:
                return self._error(404, f"unknown run {parts[1]!r}")
            self._json(status)
        elif len(parts) == 3 and parts[0] == "runs" and parts[2] == "manifest":
            manifest = broker.run_manifest(parts[1])
            if manifest is None:
                return self._error(404, f"unknown run {parts[1]!r}")
            self._json(manifest)
        elif len(parts) == 3 and parts[0] == "runs" and parts[2] == "events":
            follow = query.get("follow", ["0"])[0] not in ("0", "", "false")
            self._stream_events(parts[1], follow)
        elif len(parts) == 2 and parts[0] == "results":
            blob = broker.cache.get_bytes(parts[1])
            if blob is None:
                return self._error(404, f"no cached result for key {parts[1][:16]!r}")
            # the stored bytes, verified, as they are: no loads -> dumps
            self._send(b'{"key": %s, "result": %s}' % (json.dumps(parts[1]).encode("utf-8"), blob),
                       "application/json")
        elif len(parts) == 3 and parts[0] == "results" and parts[2] == "telemetry":
            result = broker.cache.get_dict(parts[1])
            if result is None:
                return self._error(404, f"no cached result for key {parts[1][:16]!r}")
            if result.get("telemetry") is None:
                return self._error(404, "cell ran without telemetry")
            self._json({"key": parts[1], "telemetry": result["telemetry"]})
        elif parts == ["metrics"]:
            self._send(svc.render_metrics().encode("utf-8"),
                       "text/plain; version=0.0.4; charset=utf-8")
        else:
            self._error(404, f"no such endpoint: GET {parsed.path}")

    def _route_post(self) -> None:
        parsed = urlparse(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        svc = self.svc
        broker = svc.broker
        if parts == ["experiments"]:
            request = self._body()
            exp, jobs = _resolve_submission(request)
            run = broker.submit(jobs, experiment=exp.name)
            if len(run.cached) < len(run.keys):  # a cell was enqueued (or joined)
                svc.notify()
            self._json({
                "run": run.id,
                "experiment": exp.name,
                "cells": len(run.keys),
                "cached": len(run.cached),
                "keys": run.keys,
                "labels": run.labels,
            }, status=201)
        elif parts == ["broker", "claim"]:
            body = self._body()
            worker = body.get("worker") or "anonymous"
            lease = svc.wait_for(
                lambda: broker.claim(worker),
                lambda lease: lease is not None,
                _wait_seconds(body.get("wait")),
            )
            if lease is None:
                self._json({"lease": None})
            else:
                svc.notify()
                self._json({
                    "lease": {
                        "key": lease.key,
                        "spec": lease.spec,
                        "attempt": lease.attempt,
                        "ttl": lease.ttl,
                    }
                })
        elif parts == ["broker", "heartbeat"]:
            body = self._body()
            ok = broker.heartbeat(_key(body, "heartbeat"), body.get("worker", ""))
            self._json({"ok": ok})
        elif parts == ["broker", "complete"]:
            body = self._body()
            key = _key(body, "complete")
            if not isinstance(body.get("result"), dict):
                raise _BadRequest("complete needs a 'result' object")
            stored = broker.complete(
                key,
                body.get("worker", "anonymous"),
                body["result"],
                elapsed=body.get("elapsed"),
            )
            svc.notify()
            self._json({"ok": True, "stored": stored})
        elif parts == ["broker", "retry"]:
            body = self._body()
            broker.retry(_key(body, "retry"), body.get("worker", "anonymous"),
                         int(body.get("attempt") or 0), body.get("exception"))
            svc.notify()
            self._json({"ok": True})
        elif parts == ["broker", "fail"]:
            body = self._body()
            broker.fail(
                _key(body, "fail"), body.get("worker", "anonymous"),
                body.get("failure") or {},
            )
            svc.notify()
            self._json({"ok": True})
        elif parts == ["broker", "release"]:
            body = self._body()
            worker, attempts, failure = body.get("worker"), body.get("attempts"), body.get("failure")
            if (not worker or not isinstance(worker, str)
                    or isinstance(attempts, bool) or not isinstance(attempts, int) or attempts < 1
                    or not isinstance(failure, (dict, type(None)))):
                raise _BadRequest("release needs 'worker', an integer 'attempts' >= 1 "
                                  "and, if any, a 'failure' object")
            released = broker.release(worker, failure or {}, attempts)
            svc.notify()
            self._json({"ok": True, "released": released})
        else:
            self.close_connection = True  # its body, if any, is still unread
            self._error(404, f"no such endpoint: POST {parsed.path}")

    # -- event streaming -----------------------------------------------
    def _stream_events(self, run_id: str, follow: bool) -> None:
        svc = self.svc
        broker = svc.broker
        run = broker.run(run_id)
        if run is None:
            return self._error(404, f"unknown run {run_id!r}")
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Cache-Control", "no-cache")
        # a stream has no length to announce: it ends where the connection does
        self.send_header("Connection", "close")
        self.end_headers()

        keys = set(run.keys)
        offset = 0

        def emit(rec: Dict[str, Any]) -> None:
            self.wfile.write((json.dumps(rec, separators=(",", ":")) + "\n").encode("utf-8"))

        def pump() -> None:
            """Send what the log has gained since the last call."""
            nonlocal offset
            records, offset = broker.read_events(offset)
            for rec in records:
                if rec.get("run") == run_id or rec.get("key") in keys:
                    emit(rec)
            self.wfile.flush()

        if not follow:
            pump()
            return

        def ended() -> bool:
            # status first, log second: the events that ended the run
            # are then in what was sent
            status = broker.run_status(run_id)
            pump()
            return bool(status and status["done"])

        svc.wait_for(ended, bool, _FOLLOW_TIMEOUT)
        status = broker.run_status(run_id) or {}
        emit({
            "kind": "end-of-run",
            "run": run_id,
            "done": bool(status.get("done")),
            "counts": status.get("counts", {}),
        })


class _Httpd(ThreadingHTTPServer):
    """The listening socket: counts what it accepts and remembers the
    connections that are open, so that :meth:`hang_up` can end the
    kept-alive ones (each holds a handler thread until its client
    leaves)."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], service: "ServiceServer") -> None:
        super().__init__(address, _Handler)
        self.service = service
        self._lock = threading.Lock()
        self._open: set = set()
        #: connections accepted / requests answered since start.
        self.connections = 0
        self.requests = 0

    def get_request(self):
        request, address = super().get_request()
        with self._lock:
            self._open.add(request)
            self.connections += 1
        return request, address

    def shutdown_request(self, request) -> None:
        with self._lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def count_request(self) -> None:
        with self._lock:
            self.requests += 1

    def hang_up(self) -> None:
        """Stop reading from every open connection: an idle one ends
        now, one in the middle of a request once that is answered."""
        with self._lock:
            connections = list(self._open)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # already gone

    def handle_error(self, request, client_address) -> None:
        if not isinstance(sys.exc_info()[1], ConnectionError):  # a client that left
            super().handle_error(request, client_address)


class ServiceServer:
    """The ``repro serve`` process object: HTTP front-end + broker +
    background lease reaper.  Usable programmatically (tests, the CI
    smoke) via :meth:`start`/:meth:`stop`, or blocking via
    :meth:`serve_forever`."""

    def __init__(
        self,
        broker_dir,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        cache_dir: Optional[str] = None,
        lease_ttl: float = 60.0,
        verbose: bool = False,
    ) -> None:
        self.broker = FsBroker(broker_dir, cache_dir=cache_dir, lease_ttl=lease_ttl)
        self.verbose = verbose
        self.started = time.time()
        self.reap_interval = max(0.5, lease_ttl / 4.0)
        self._httpd = _Httpd((host, port), self)
        # what waiting requests sleep on: notified, with the generation
        # bumped, after every broker mutation this process performs
        self._changed = threading.Condition()
        self._generation = 0
        self._stopping = threading.Event()
        self._reaper = threading.Thread(target=self._reap_loop, daemon=True)
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    @property
    def stopping(self) -> bool:
        return self._stopping.is_set()

    @property
    def connections(self) -> int:
        """TCP connections accepted since start."""
        return self._httpd.connections

    @property
    def requests(self) -> int:
        """HTTP requests received since start."""
        return self._httpd.requests

    def _reap_loop(self) -> None:
        while not self._stopping.wait(self.reap_interval):
            try:
                if any(self.broker.reap()):
                    self.notify()
            except Exception as exc:  # the next pass tries again; say why this one did not
                print(f"repro serve: reaper: {type(exc).__name__}: {exc}", file=sys.stderr)

    # -- waiting -------------------------------------------------------
    def notify(self) -> None:
        """Wake every waiting request: the broker has just changed."""
        with self._changed:
            self._generation += 1
            self._changed.notify_all()

    def wait_for(self, probe: Callable[[], T], ready: Callable[[T], bool], wait: float) -> T:
        """``probe()`` the broker until ``ready(value)``, ``wait``
        seconds have passed or the server stops; returns the last value
        probed.  ``wait`` 0 is one probe.  Between probes the caller
        sleeps until :meth:`notify` -- or, for what directory-attached
        workers did, ``_DIRECTORY_PROBE`` seconds.  The broker directory
        stays the only state: a wake-up says *look again*, not what
        changed."""
        deadline = time.monotonic() + wait
        while True:
            seen = self._generation
            value = probe()
            remaining = deadline - time.monotonic()
            if ready(value) or remaining <= 0 or self.stopping:
                return value
            with self._changed:
                if self._generation == seen:  # else: changed while probing, look again
                    self._changed.wait(min(remaining, _DIRECTORY_PROBE))

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "ServiceServer":
        self._reaper.start()
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._thread.start()
        return self

    def _accept_loop(self) -> None:
        # the interval is how long stop() waits to be noticed, no more
        self._httpd.serve_forever(poll_interval=0.05)

    def serve_forever(self) -> None:
        self._reaper.start()
        try:
            self._accept_loop()
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def stop(self) -> None:
        self._stopping.set()
        self.notify()  # waiting requests answer with what they have
        self._httpd.shutdown()
        self._httpd.server_close()
        self._httpd.hang_up()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- metrics -------------------------------------------------------
    def render_metrics(self) -> str:
        """Live Prometheus exposition: service gauges plus — when a
        completed cell carries one — the freshest telemetry bundle via
        the PR 5 exporter, so a scrape sees simulation internals, not
        just queue depths."""
        from repro.telemetry.export import format_exposition, render_prometheus

        counts = self.broker.counts()
        kinds = self.broker.event_counts()
        specs = [
            ("service_uptime_seconds", "Seconds since repro serve started", "gauge",
             [({}, round(time.time() - self.started, 3))]),
            ("service_cells", "Broker cells by state", "gauge",
             [({"state": s}, counts.get(s, 0)) for s in ("queue", "active", "done", "failed")]),
            ("service_runs_total", "Experiments submitted", "counter",
             [({}, counts.get("runs", 0))]),
            ("service_events_total", "Broker events by kind", "counter",
             [({"kind": k}, n) for k, n in sorted(kinds.items())]),
            ("service_http_connections_total", "TCP connections accepted", "counter",
             [({}, self.connections)]),
            ("service_http_requests_total", "HTTP requests received", "counter",
             [({}, self.requests)]),
        ]
        text = format_exposition(specs)
        bundle = self._freshest_bundle()
        if bundle is not None:
            text += render_prometheus(bundle)
        return text

    def _freshest_bundle(self) -> Optional[Dict[str, Any]]:
        for key in self.broker.freshest_done(8):  # bounded: scrapes must stay cheap
            result = self.broker.cache.get_dict(key)
            if result is not None and result.get("telemetry") is not None:
                return result["telemetry"]
        return None


def serve(
    broker_dir,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    **kw: Any,
) -> None:
    """Blocking entry point behind ``repro serve``."""
    server = ServiceServer(broker_dir, host=host, port=port, **kw)
    print(f"repro serve: listening on {server.url} (broker {server.broker.root})")
    server.serve_forever()
