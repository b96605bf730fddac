"""Distributed sweep fabric + long-running service front-end.

The sweep engine (:mod:`repro.experiments.sweep`) treats an experiment
as a grid of independent :class:`~repro.experiments.sweep.SimJob`
cells and runs the ones it has not cached through a private broker;
this package is that broker, its worker, and what lets cells leave
the machine:

* :mod:`repro.service.api` — the wire protocol: a lossless JSON codec
  for ``SimJob`` (:func:`~repro.service.api.job_to_spec` /
  :func:`~repro.service.api.job_from_spec`), the event-record shapes,
  and the thin HTTP clients (:class:`~repro.service.api.ServiceClient`
  for submitters, :class:`~repro.service.api.HttpBroker` for workers);
* :mod:`repro.service.broker` — :class:`~repro.service.broker.FsBroker`,
  a filesystem-backed shared queue with atomic-rename claims, lease
  expiry + exactly-once requeue, heartbeats and idempotent completion
  keyed by the content-addressed cache key;
* :mod:`repro.service.worker` — :class:`~repro.service.worker.Worker`,
  the pull-based executor of a cell: behind ``repro worker --broker
  URL``, and every worker of a local sweep (retries with deterministic
  backoff and per-attempt timeouts, per lease);
* :mod:`repro.service.server` — ``repro serve``: a stdlib
  ``ThreadingHTTPServer`` front-end to submit experiments
  (``POST /experiments``), stream cell-level progress as NDJSON/SSE
  (``GET /runs/<id>/events``), fetch cached ``CaseResult``\\ s and
  telemetry bundles, and scrape live Prometheus metrics
  (``GET /metrics``).

The names below are imported on first use, so that a local sweep,
which needs only the broker and the worker, does not load the HTTP
stack.

Determinism contract: a cell executed by a remote worker is the same
``SimJob.run()`` a local sweep's worker calls, completed into the same
content-addressed cache — results are byte-identical, however many
workers raced for the lease.  See ``docs/service.md``.
"""

import importlib

#: name -> the module of this package that defines it.
_EXPORTS = {
    "FsBroker": "broker",
    "Lease": "broker",
    "HttpBroker": "api",
    "ServiceClient": "api",
    "connect_broker": "api",
    "job_from_spec": "api",
    "job_to_spec": "api",
    "ServiceServer": "server",
    "serve": "server",
    "Worker": "worker",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
