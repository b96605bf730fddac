"""The bodies of ``GET /runs/<id>`` and ``GET /runs/<id>/manifest``,
pinned byte for byte over a hand-made broker directory.

The directory holds a cell in every state the broker can report --
queued, active, done (with and without a wall-clock), failed, cached
at submit, cached since, cached at submit but queued again, unknown, a
stale failure beside a ``done`` marker and a staged marker whose
completer never published it -- and an event log with requeues and
retries on both sides of the run's log offset.  Nothing in it depends
on the clock, so the bodies are the same bytes on every run; a change
to how the broker reads its directory must leave them so.

The pinned bodies are in ``tests/golden/broker_bodies/``; to write
them again (only for a deliberate change of the HTTP bodies)::

    PYTHONPATH=src python -m tests.test_broker_bodies
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.sweep import ResultCache
from repro.service import ServiceClient, ServiceServer

GOLDEN = Path(__file__).parent / "golden" / "broker_bodies"
RUN = "0123456789ab"
ROUTES = {
    "runs.json": "/runs",
    "status.json": f"/runs/{RUN}",
    "manifest.json": f"/runs/{RUN}/manifest",
}


def key(name: str) -> str:
    return hashlib.sha256(name.encode()).hexdigest()


#: the run's cells, in submit order.
CELLS = ["queued", "active", "done", "done-untimed", "failed", "cached", "cached-since",
         "cached-then-queued", "unknown", "stale-failure", "orphaned-stage", "unlabelled"]


def write(path: Path, record) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, separators=(",", ":")))


def event(kind: str, name: str, t: float, **detail) -> str:
    return json.dumps({"t": t, "kind": kind, "key": key(name), **detail},
                      separators=(",", ":")) + "\n"


def build(root: Path) -> None:
    """A broker directory as the broker would have left it."""
    cache = ResultCache(root / "cache")
    for name in ("done", "done-untimed", "cached", "cached-since", "stale-failure",
                 "orphaned-stage", "unlabelled"):
        cache.put_dict(key(name), {"cell": name})

    def queued(name: str, **extra) -> dict:
        return {"key": key(name), "spec": {"schema": 1, "case": "case1"},
                "label": name, "attempt": 1, "submitted": 100.0, **extra}

    write(root / "queue" / f"{key('queued')}.json", queued("queued"))
    write(root / "queue" / f"{key('cached-then-queued')}.json", queued("cached-then-queued"))
    write(root / "active" / f"{key('active')}.json",
          queued("active", attempt=2, worker="w-active", leased_at=101.0))
    write(root / "done" / f"{key('done')}.json",
          {"key": key("done"), "worker": "w-done", "elapsed": 1.25, "finished": 102.0})
    write(root / "done" / f"{key('done-untimed')}.json",
          {"key": key("done-untimed"), "worker": "w-done", "elapsed": None, "finished": 102.5})
    write(root / "done" / f"{key('stale-failure')}.json",
          {"key": key("stale-failure"), "worker": "w-late", "elapsed": 3.5, "finished": 104.0})
    write(root / "done" / f"{key('unlabelled')}.json",
          {"key": key("unlabelled"), "worker": "w-done", "elapsed": 0.5, "finished": 104.5})
    (root / "done" / f"{key('orphaned-stage')}.complete").write_text("")
    for name, exception in (("failed", "ValueError"), ("stale-failure", "LeaseExpired")):
        write(root / "failed" / f"{key(name)}.json", {
            "key": key(name), "label": name, "attempt": 4, "failed": 103.0,
            "exception": exception, "message": f"{name} gave up", "kind": "error",
            "worker": "w-failed",
        })
    before = (event("requeue", "active", 50.0, worker="w-old", attempt=2)
              + event("retry", "failed", 51.0, worker="w-old", attempt=2))
    after = (event("enqueue", "queued", 99.0, run=RUN, label="queued")
             + event("requeue", "active", 105.0, worker="w-gone", attempt=2)
             + event("retry", "failed", 106.0, worker="w-failed", attempt=2,
                     exception="ValueError")
             + event("requeue", "not-in-the-run", 107.0, attempt=2)
             + event("retry", "failed", 108.0, worker="w-failed", attempt=3))
    (root / "events.jsonl").write_text(before + after)
    write(root / "runs" / f"{RUN}.json", {
        "id": RUN,
        "experiment": "fig7a",
        "created": 99.0,
        "keys": [key(name) for name in CELLS],
        "labels": {key(name): name for name in CELLS if name != "unlabelled"},
        "cached": [key("cached"), key("cached-then-queued")],
        "log_offset": len(before),
    })


def bodies(root: Path) -> dict:
    with ServiceServer(root, port=0) as srv:
        client = ServiceClient(srv.url)
        try:
            return {name: client._exchange(route) for name, route in ROUTES.items()}
        finally:
            client.close()


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    root = tmp_path_factory.mktemp("broker")
    build(root)
    return bodies(root)


@pytest.mark.parametrize("name", sorted(ROUTES))
def test_body_is_the_pinned_bytes(served, name):
    assert served[name] == (GOLDEN / name).read_bytes()


def test_every_state_is_in_the_pin(served):
    status = json.loads(served["status.json"])
    assert status["counts"] == {"queued": 2, "active": 1, "done": 4, "failed": 1,
                                "cached": 3, "unknown": 1}
    manifest = json.loads(served["manifest.json"])
    assert (manifest["requeued"], manifest["retried"], manifest["failed"]) == (1, 2, 2)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        build(Path(d))
        GOLDEN.mkdir(parents=True, exist_ok=True)
        for name, body in bodies(Path(d)).items():
            (GOLDEN / name).write_bytes(body)
            print(f"wrote {GOLDEN / name} ({len(body)} bytes)")
