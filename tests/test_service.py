"""Distributed sweep fabric: spec codec, broker leases, workers, HTTP.

The determinism contract under test everywhere: a cell executed by a
remote pull worker yields a ``CaseResult`` byte-identical to the same
cell run in-process, however many workers raced for it and however
many times its lease bounced.  Everything tier-1 here runs 0.02x
cells; the multi-process kill-a-worker end-to-end test is ``tier2``.
"""

import contextlib
import dataclasses
import json
import multiprocessing
import os
import re
import shutil
import signal
import socket
import ssl
import statistics
import subprocess
import sys
import threading
import time

import pytest

from repro.cli import build_parser
from repro.core.params import CCParams
from repro.experiments import registry
from repro.experiments.resilience import RetryPolicy
from repro.experiments.sweep import (
    ResultCache,
    SimJob,
    SweepOptions,
    run_sweep,
)
from repro.service import (
    FsBroker,
    HttpBroker,
    ServiceClient,
    ServiceServer,
    Worker,
    connect_broker,
    job_from_spec,
    job_to_spec,
)
from repro.service.api import LONG_POLL_S, ServiceError
from repro.service.worker import Interrupted, drain

from tests.test_resilience import CrashJob

SCALE = 0.02


class InterruptJob(SimJob):
    """Ctrl-C, arriving while its cell runs."""

    def run(self):
        raise KeyboardInterrupt


def tiny_jobs(schemes=("CCFIT",), time_scale=SCALE, **kw):
    return registry.get("fig7a").jobs(schemes=schemes, time_scale=time_scale, seed=1, **kw)


@pytest.fixture(scope="module")
def tiny_job():
    return tiny_jobs()[0]


@pytest.fixture(scope="module")
def tiny_result(tiny_job):
    return tiny_job.run()


def result_bytes(result_dict) -> str:
    return json.dumps(result_dict, sort_keys=True)


# ----------------------------------------------------------------------
# job spec codec
# ----------------------------------------------------------------------
class TestJobSpec:
    def test_roundtrip_preserves_cache_key(self, tiny_job):
        revived = job_from_spec(job_to_spec(tiny_job))
        assert revived.key() == tiny_job.key()
        assert revived.label() == tiny_job.label()

    def test_roundtrip_over_json_wire(self, tiny_job):
        """The spec travels as HTTP JSON; a key must survive the trip."""
        wire = json.loads(json.dumps(job_to_spec(tiny_job)))
        assert job_from_spec(wire).key() == tiny_job.key()

    def test_roundtrip_with_optional_fields(self):
        jobs = registry.get("fig7a").jobs(
            schemes=("CCFIT",), time_scale=SCALE, seed=3,
            routings=("adaptive",), buffer_model="shared",
        )
        for job in jobs:
            assert job_from_spec(job_to_spec(job)).key() == job.key()

    def test_roundtrip_result_matches(self, tiny_job, tiny_result):
        revived = job_from_spec(job_to_spec(tiny_job))
        assert result_bytes(revived.run().to_dict()) == result_bytes(tiny_result.to_dict())

    def test_unknown_schema_rejected(self, tiny_job):
        spec = job_to_spec(tiny_job)
        spec["schema"] = 999
        with pytest.raises(ServiceError):
            job_from_spec(spec)


# ----------------------------------------------------------------------
# broker lease semantics
# ----------------------------------------------------------------------
class TestFsBroker:
    def test_submit_claim_complete(self, tmp_path, tiny_job, tiny_result):
        b = FsBroker(tmp_path)
        run = b.submit([tiny_job], experiment="fig7a")
        assert run.keys == [tiny_job.key()]
        assert b.counts()["queue"] == 1
        lease = b.claim("w1")
        assert lease.key == tiny_job.key()
        assert lease.attempt == 1
        assert b.claim("w2") is None  # queue drained
        assert b.complete(lease.key, "w1", tiny_result.to_dict(), elapsed=0.5)
        status = b.run_status(run.id)
        assert status["done"]
        assert status["states"][lease.key] == "done"

    def test_claim_is_exclusive_under_contention(self, tmp_path, tiny_job):
        jobs = tiny_jobs(schemes=("CCFIT", "1Q", "ITh"))
        b = FsBroker(tmp_path)
        b.submit(jobs, experiment="fig7a")
        won = []
        lock = threading.Lock()

        def grab(worker):
            while True:
                lease = b.claim(worker)
                if lease is None:
                    return
                with lock:
                    won.append((lease.key, worker))

        threads = [threading.Thread(target=grab, args=(f"w{i}",)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # every cell leased exactly once across all racing workers
        assert sorted(k for k, _w in won) == sorted(j.key() for j in jobs)

    def test_a_cell_claimed_while_the_queue_is_listed_leaves_the_rest(self, tmp_path, monkeypatch):
        """A cell renamed away between the listing of the queue and the
        read of its mtime made the whole listing fail: the claimant saw
        an empty queue, and a local sweep's worker exited with cells
        still queued.  (The listing names each file it reads the mtime
        of: another claimant runs there.)"""
        b = FsBroker(tmp_path)
        b.submit(tiny_jobs(schemes=("CCFIT", "1Q")), experiment="fig7a")
        other = FsBroker(tmp_path)
        path, taken = b._path, []

        def claim_then_name(state, name):
            if state == "queue" and not taken:
                taken.append(other.claim("other"))
            return path(state, name)

        monkeypatch.setattr(b, "_path", claim_then_name)
        lease = b.claim("me")
        monkeypatch.undo()
        assert taken[0] is not None and lease is not None
        assert lease.key != taken[0].key and b.counts()["queue"] == 0

    def test_cache_hit_never_enqueued(self, tmp_path, tiny_job, tiny_result):
        b = FsBroker(tmp_path)
        b.cache.put(tiny_job.key(), tiny_result, job=tiny_job)
        run = b.submit([tiny_job], experiment="fig7a")
        assert run.cached == [tiny_job.key()]
        assert b.counts()["queue"] == 0
        assert b.run_status(run.id)["done"]

    def test_pruned_result_is_recomputed(self, tmp_path, tiny_job):
        """A ``done`` marker is not a result: after ``repro cache
        --prune/--clear`` a re-submitted cell used to be reported
        ``cached`` on the marker alone -- the run read done,
        ``/results/<key>`` said 404 and no worker ever saw the cell."""
        b = FsBroker(tmp_path)
        first = b.submit([tiny_job], experiment="fig7a")
        assert Worker(b, worker_id="w1", max_cells=1).run()["completed"] == 1
        assert b.run_status(first.id)["done"]
        assert b.cache.clear() == 1
        run = b.submit([tiny_job], experiment="fig7a")
        assert run.cached == [] and b.counts()["queue"] == 1
        status = b.run_status(run.id)
        assert status["states"] == {tiny_job.key(): "queued"} and not status["done"]
        (evicted,), _ = b.read_events(kind="evicted")
        assert evicted["key"] == tiny_job.key() and evicted["run"] == run.id
        assert Worker(b, worker_id="w2", max_cells=1).run()["completed"] == 1
        assert b.run_status(run.id)["done"] and b.cache.get_dict(tiny_job.key()) is not None
        assert b.run_manifest(run.id)["jobs"][0]["worker"] == "w2"
        # a corrupt entry is as good as none: quarantined, and the cell runs again
        path = b.cache.path(tiny_job.key())
        path.write_bytes(path.read_bytes().replace(b'"scheme":"CCFIT"', b'"scheme":"CCFIX"', 1))
        with pytest.warns(RuntimeWarning, match="digest mismatch"):
            assert b.submit([tiny_job], experiment="fig7a").cached == []
        assert b.counts()["queue"] == 1 and len(b.cache.quarantined()) == 1

    def test_warm_submit_probes_bytes_and_logs_in_one_append(
        self, tmp_path, tiny_result, monkeypatch
    ):
        """Every cell cached: no result is parsed to learn that it is
        there, and the ``cached`` events go to the log together."""
        jobs = tiny_jobs(schemes=("CCFIT", "1Q", "ITh"))
        b = FsBroker(tmp_path)
        for job in jobs:
            b.cache.put(job.key(), tiny_result, job=job)
        appends, parsed = [], []
        append, loads = b._append, json.loads
        monkeypatch.setattr(b, "_append", lambda data: appends.append(data) or append(data))
        monkeypatch.setattr(json, "loads", lambda data, **kw: parsed.append(len(data)) or loads(data, **kw))
        run = b.submit(jobs, experiment="fig7a")
        status = b.run_status(run.id)
        monkeypatch.undo()
        assert run.cached == [job.key() for job in jobs]
        assert status["done"] and status["counts"] == {"cached": 3}
        assert len(appends) == 1 and appends[0].count(b"\n") == 4
        assert [e["kind"] for e in b.events()] == ["cached"] * 3 + ["submit"]
        assert max(parsed) < 1000  # envelopes and the run record, never a result

    def test_submit_logs_every_event_at_once_before_the_run_shows(
        self, tmp_path, tiny_result, monkeypatch
    ):
        """Cached, joined or enqueued, the events of one submit are one
        append, in cell order, made before the run record exists -- and
        an append the filesystem takes in pieces still lands whole."""
        hit, queued, new = tiny_jobs(schemes=("CCFIT", "1Q", "ITh"))
        b = FsBroker(tmp_path)
        b.cache.put(hit.key(), tiny_result, job=hit)
        b.submit([queued], experiment="fig7a")
        appends, append, write = [], b._append, os.write
        monkeypatch.setattr(b, "_append", lambda data: appends.append(len(b.runs())) or append(data))
        monkeypatch.setattr(os, "write", lambda fd, data: write(fd, bytes(data[:100])))
        run = b.submit([queued, hit, new], experiment="fig7a")
        monkeypatch.undo()
        assert appends == [1]  # one append, and only the first run was on record then
        mine = [e for e in b.events() if e.get("run") == run.id]
        assert [e["kind"] for e in mine] == ["joined", "cached", "enqueue", "submit"]
        assert [e.get("key") for e in mine] == [queued.key(), hit.key(), new.key(), None]

    def test_lease_expires_and_requeues_exactly_once(self, tmp_path, tiny_job):
        b = FsBroker(tmp_path, lease_ttl=0.2)
        b.submit([tiny_job], experiment="fig7a")
        assert b.claim("dead") is not None
        time.sleep(0.3)
        assert b.reap() == (1, 0)
        assert b.reap() == (0, 0)  # exactly once
        lease = b.claim("alive")
        assert lease.attempt == 2

    def test_a_claim_between_the_reapers_steps_finds_one_cell(self, tmp_path, tiny_job, monkeypatch):
        """The reaper requeues in steps, and a claim may come between any
        two of them: it must find the cell still leased or requeued --
        never a queue entry for a cell that is leased -- and the requeue
        is logged.  (Renaming into ``queue/`` first and rewriting after
        let such a claim make the rewrite's ``utime`` raise, and the
        event was lost.)"""
        import repro.service.broker as broker_mod

        b = FsBroker(tmp_path, lease_ttl=0.0)
        thief = FsBroker(tmp_path)
        b.submit([tiny_job], experiment="fig7a")
        assert b.claim("dead") is not None
        claims, busy = [], []

        def claim_now():
            if not busy:  # the thief's own steps come through here too
                busy.append(True)
                claims.append(thief.claim("thief"))
                busy.clear()

        class SeamOs:
            """The ``os`` the broker sees: a claim follows every step."""

            def __getattr__(self, name):
                return getattr(os, name)

            def rename(self, *args):
                os.rename(*args)
                claim_now()

            def utime(self, *args):
                os.utime(*args)
                claim_now()

        write = broker_mod._write_atomic

        def write_then_claim(path, payload):
            write(path, payload)
            claim_now()

        monkeypatch.setattr(broker_mod, "os", SeamOs())
        monkeypatch.setattr(broker_mod, "_write_atomic", write_then_claim)
        assert b.reap(now=time.time() + 1) == (1, 0)
        monkeypatch.undo()
        leases = [lease for lease in claims if lease is not None]
        assert len(leases) == 1 and leases[0].attempt == 2  # once, after the requeue
        assert (b.counts()["queue"], b.counts()["active"]) == (0, 1)
        assert [e["attempt"] for e in b.read_events(kind="requeue")[0]] == [2]

    def test_release_requeues_or_fails_a_dead_workers_leases(self, tmp_path, tiny_job):
        b = FsBroker(tmp_path)
        run = b.submit([tiny_job], experiment="fig7a")
        b.claim("dead")
        crash = {"exception": "WorkerCrash", "message": "died", "kind": "crash"}
        assert b.release("someone-else", crash, attempts=2) == 0
        assert b.release("dead", crash, attempts=2) == 1
        assert b.claim("next").attempt == 2
        assert b.release("next", crash, attempts=2) == 1
        (failure,) = b.run_manifest(run.id)["failures"]
        assert (failure["exception"], failure["attempts"], failure["worker"]) == ("WorkerCrash", 2, "next")
        assert b.run_manifest(run.id)["requeued"] == 1

    def test_fresh_claim_not_instantly_reaped(self, tmp_path, tiny_job):
        """Queue files keep their enqueue mtime across the claim rename;
        the lease clock must restart at claim time, not enqueue time."""
        b = FsBroker(tmp_path, lease_ttl=0.3)
        b.submit([tiny_job], experiment="fig7a")
        time.sleep(0.4)  # older than a whole ttl while still queued
        assert b.claim("w1") is not None
        assert b.reap() == (0, 0)

    def test_heartbeat_keeps_lease_alive(self, tmp_path, tiny_job):
        b = FsBroker(tmp_path, lease_ttl=0.3)
        b.submit([tiny_job], experiment="fig7a")
        lease = b.claim("w1")
        for _ in range(3):
            time.sleep(0.15)
            assert b.heartbeat(lease.key, "w1")
            assert b.reap() == (0, 0)
        assert not b.heartbeat(lease.key, "stranger")

    def test_requeue_budget_exhaustion_fails_cell(self, tmp_path, tiny_job):
        b = FsBroker(tmp_path, lease_ttl=0.05, max_requeues=1)
        run = b.submit([tiny_job], experiment="fig7a")
        for _ in range(3):
            if b.claim("flaky") is None:
                break
            time.sleep(0.1)
            b.reap()
        status = b.run_status(run.id)
        assert status["done"]
        assert status["states"][tiny_job.key()] == "failed"
        manifest = b.run_manifest(run.id)
        assert manifest["failed"] == 1
        assert manifest["failures"][0]["exception"] == "LeaseExpired"

    def test_duplicate_completion_is_noop(self, tmp_path, tiny_job, tiny_result):
        b = FsBroker(tmp_path, lease_ttl=0.1)
        run = b.submit([tiny_job], experiment="fig7a")
        b.claim("slow")
        time.sleep(0.2)
        b.reap()
        lease2 = b.claim("fast")
        payload = tiny_result.to_dict()
        assert b.complete(lease2.key, "fast", payload, elapsed=0.1) is True
        # the presumed-dead worker finishes late: structurally a no-op
        assert b.complete(lease2.key, "slow", payload, elapsed=9.9) is False
        manifest = b.run_manifest(run.id)
        (job_row,) = manifest["jobs"]
        assert job_row["worker"] == "fast"
        assert manifest["requeued"] == 1
        # content-addressed cache still byte-identical
        assert result_bytes(b.cache.get(tiny_job.key()).to_dict()) == result_bytes(payload)

    def test_a_staged_marker_its_completer_left_is_taken_over(self, tmp_path, tiny_job, tiny_result):
        """A completer that died after creating its staged marker left
        it for good: the cell's next completion read as a duplicate, the
        log never said ``complete`` and the manifest credited ``cache``.
        A staged marker older than a lease is an orphan, and taken over."""
        b = FsBroker(tmp_path, lease_ttl=60.0)
        run = b.submit([tiny_job], experiment="fig7a")
        key = b.claim("dead").key
        b.cache.put_dict(key, tiny_result.to_dict())
        staged = tmp_path / "done" / f"{key}.complete"
        os.close(os.open(staged, os.O_WRONLY | os.O_CREAT | os.O_EXCL))  # and died
        assert b.reap(now=time.time() + 61) == (1, 0)
        lease = b.claim("B")
        # younger than a lease, it is a completion in flight: left alone
        assert b.complete(lease.key, "B", tiny_result.to_dict(), elapsed=0.5) is False
        assert staged.exists() and b.cell_state(key) == "cached"
        past = time.time() - 61
        os.utime(staged, (past, past))
        assert b.complete(lease.key, "B", tiny_result.to_dict(), elapsed=0.5) is True
        assert [e["kind"] for e in b.events()][-1] == "complete"
        assert sorted(os.listdir(tmp_path / "done")) == [f"{key}.json"]
        (row,) = b.run_manifest(run.id)["jobs"]
        assert (row["worker"], row["elapsed_s"]) == ("B", 0.5)
        assert b.complete(lease.key, "late", tiny_result.to_dict()) is False

    def test_racing_takers_of_one_orphan_publish_once(self, tmp_path, tiny_result):
        """More completers than cores race for one orphaned staged
        marker: one publishes, the rest are duplicates, nothing is left
        staged."""
        b = FsBroker(tmp_path, lease_ttl=60.0)
        key, payload = "0" * 64, tiny_result.to_dict()
        staged = tmp_path / "done" / f"{key}.complete"
        switch = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            for _ in range(10):
                for leftover in (tmp_path / "done").iterdir():
                    leftover.unlink()
                os.close(os.open(staged, os.O_WRONLY | os.O_CREAT | os.O_EXCL))
                past = time.time() - 61
                os.utime(staged, (past, past))
                offset = b.events_path.stat().st_size if b.events_path.exists() else 0
                won = []
                threads = [threading.Thread(target=lambda i=i: won.append(
                    b.complete(key, f"w{i}", payload))) for i in range(2 * (os.cpu_count() or 1) + 2)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
                assert sorted(won) == [False] * (len(threads) - 1) + [True]
                kinds = [e["kind"] for e in b.read_events(offset)[0]]
                assert kinds.count("complete") == 1 and kinds.count("duplicate") == len(threads) - 1
                assert os.listdir(tmp_path / "done") == [f"{key}.json"]
        finally:
            sys.setswitchinterval(switch)

    @pytest.mark.parametrize("key", ["../../victim", "A" * 64, "0" * 63, "0" * 65, 7, None])
    def test_a_name_that_is_not_a_key_names_no_file(self, tmp_path, tiny_result, key):
        root = tmp_path / "service"  # so ../../victim would still land in tmp_path
        b = FsBroker(root / "broker", cache_dir=str(root / "cache"))
        before = sorted(tmp_path.rglob("*"))
        for verb, args in (("complete", ("w", tiny_result.to_dict())), ("fail", ("w", {})),
                           ("heartbeat", ("w",)), ("retry", ("w", 2))):
            with pytest.raises(ValueError, match="not a cell key"):
                getattr(b, verb)(key, *args)
        assert sorted(tmp_path.rglob("*")) == before
        assert b.cell_state("0" * 64) == "unknown" and b.run("../runs/x") is None

    def test_a_cell_found_cached_is_the_caches_in_the_manifest(self, tmp_path, tiny_job):
        """As in a sweep's manifest: the run that found the cell cached
        credits the cache, not the worker that ran it for another run."""
        b = FsBroker(tmp_path)
        first = b.submit([tiny_job], experiment="fig7a")
        Worker(b, worker_id="w1", max_cells=1).run()
        again = b.submit([tiny_job], experiment="fig7a")
        assert b.run_status(again.id)["states"] == {tiny_job.key(): "done"}
        assert b.run_manifest(first.id)["jobs"][0]["worker"] == "w1"
        manifest = b.run_manifest(again.id)
        assert manifest["cache_hits"] == manifest["ok"] == 1
        assert manifest["jobs"] == [{"label": tiny_job.label(), "key": tiny_job.key(),
                                     "status": "ok", "worker": "cache"}]

    def test_events_tell_the_cell_story(self, tmp_path, tiny_job, tiny_result):
        b = FsBroker(tmp_path)
        b.submit([tiny_job], experiment="fig7a")
        lease = b.claim("w1")
        b.complete(lease.key, "w1", tiny_result.to_dict())
        kinds = [e["kind"] for e in b.events()]
        assert kinds == ["enqueue", "submit", "claim", "complete"]
        assert b.event_counts() == dict.fromkeys(kinds, 1)

    def test_event_log_is_read_from_an_offset_and_by_kind(self, tmp_path, tiny_job, tiny_result):
        b = FsBroker(tmp_path)
        assert b.read_events() == ([], 0)
        b.submit([tiny_job], experiment="fig7a")
        first, offset = b.read_events()
        assert [e["kind"] for e in first] == ["enqueue", "submit"]
        assert offset == b.events_path.stat().st_size
        assert b.read_events(offset) == ([], offset)
        lease = b.claim("w1")
        with open(b.events_path, "ab") as fh:
            fh.write(b'{"t":0,"kind":"complete","key":"torn')  # a writer mid-line
        new, resume = b.read_events(offset)
        assert [e["kind"] for e in new] == ["claim"]
        assert resume < b.events_path.stat().st_size  # the torn tail waits
        (claim,), _ = b.read_events(kind="claim")
        assert claim["key"] == lease.key and claim["worker"] == "w1"
        assert b.read_events(kind="requeue")[0] == []

    def test_manifest_reads_the_log_from_the_submit_on(self, tmp_path, tiny_job, monkeypatch):
        """The manifest's requeues are after the run's submit in the
        log, so that is where the log is read from: the cost of a
        manifest does not grow with the service's history."""
        b = FsBroker(tmp_path, lease_ttl=0.0)
        for i in range(2000):  # the history: other runs' cells, some with this cell's key
            b._event("requeue", tiny_job.key() if i % 100 == 0 else f"{i:064x}", attempt=2)
        grown = b.events_path.stat().st_size
        run = b.submit([tiny_job], experiment="fig7a")
        assert run.log_offset == grown and b.run(run.id).log_offset == grown
        b.claim("w1")
        assert b.reap(now=time.time() + 1) == (1, 0)
        reads = []
        read_log = b._read_log
        monkeypatch.setattr(b, "_read_log", lambda offset=0: reads.append(offset) or read_log(offset))
        manifest = b.run_manifest(run.id)
        assert reads == [grown]  # one read, of what was appended after the submit
        assert manifest["requeued"] == 1
        assert [ev["attempt"] for ev in manifest["requeues"]] == [2]
        # a run record written before the offset was kept reads from the start
        record = json.loads(b._path("runs", run.id).read_text())
        del record["log_offset"]
        b._path("runs", run.id).write_text(json.dumps(record))
        assert b.run_manifest(run.id)["requeued"] == 21 and reads == [grown, 0]

    def test_cell_claimed_between_two_probes_is_not_unknown(self, tmp_path, tiny_job, monkeypatch):
        """``cell_state`` looks in ``active/`` and then in ``queue/``; a
        claim that renames the cell in between hides it from both."""
        b = FsBroker(tmp_path)
        racer = FsBroker(tmp_path)
        run = b.submit([tiny_job], experiment="fig7a")
        path = b._path
        leases = []

        def claim_then_look(state, name):
            if state == "queue" and not leases:  # active/ has been probed already: claim now
                leases.append(racer.claim("racer"))
            return path(state, name)

        monkeypatch.setattr(b, "_path", claim_then_look)
        assert b.cell_state(tiny_job.key()) == "active"
        assert leases[0] is not None
        status = b.run_status(run.id)
        assert status["counts"] == {"active": 1} and not status["done"]

    def test_unknown_cell_is_not_a_finished_cell(self, tmp_path, tiny_job):
        b = FsBroker(tmp_path)
        run = b.submit([tiny_job], experiment="fig7a")
        (tmp_path / "queue" / f"{tiny_job.key()}.json").unlink()  # lost
        status = b.run_status(run.id)
        assert status["counts"] == {"unknown": 1}
        assert not status["done"]


# ----------------------------------------------------------------------
# worker
# ----------------------------------------------------------------------
class TestWorker:
    def test_worker_result_byte_identical_to_inprocess(self, tmp_path, tiny_job, tiny_result):
        b = FsBroker(tmp_path)
        run = b.submit([tiny_job], experiment="fig7a")
        summary = Worker(b, worker_id="w1", max_cells=1).run()
        assert summary["completed"] == 1 and summary["failed"] == 0
        assert b.run_status(run.id)["done"]
        cached = b.cache.get(tiny_job.key())
        assert result_bytes(cached.to_dict()) == result_bytes(tiny_result.to_dict())

    def test_worker_records_attribution_in_manifest(self, tmp_path, tiny_job):
        b = FsBroker(tmp_path)
        run = b.submit([tiny_job], experiment="fig7a")
        Worker(b, worker_id="unit-worker", max_cells=1).run()
        (job_row,) = b.run_manifest(run.id)["jobs"]
        assert job_row["worker"] == "unit-worker"
        assert job_row["elapsed_s"] > 0

    def test_worker_fails_undecodable_spec(self, tmp_path, tiny_job):
        # specs an older submitter queued: params with ``match_quantum``
        # or ``buffer_model`` (both left CCParams), a telemetry config
        # object where the axis is a period.  Each must fail, not run
        # with the remaining fields at their defaults.
        params = dataclasses.asdict(CCParams())
        config = {"interval": 50_000.0, "series_capacity": 1024, "events_limit": 200_000,
                  "track_trees": True}
        specs = {"schema": {"schema": 999},
                 "stale-params": {**job_to_spec(tiny_job), "params": {**params, "match_quantum": -1.0}},
                 "params-buffer-model": {**job_to_spec(tiny_job),
                                         "params": {**params, "buffer_model": "shared"}},
                 "telemetry-config": {**job_to_spec(tiny_job), "telemetry": config}}
        for name, spec in specs.items():
            b = FsBroker(tmp_path / name)
            run = b.submit([tiny_job], experiment="fig7a")
            # corrupt the queued spec in place (atomic, like a version skew)
            path = tmp_path / name / "queue" / f"{tiny_job.key()}.json"
            rec = json.loads(path.read_text())
            rec["spec"] = spec
            path.write_text(json.dumps(rec))
            summary = Worker(b, worker_id="w1", max_cells=1).run()
            assert (summary["failed"], summary["completed"]) == (1, 0), name
            manifest = b.run_manifest(run.id)
            assert "undecodable job spec" in manifest["failures"][0]["message"], name
            assert b.cache.get(tiny_job.key()) is None, name

    def test_a_lease_derives_its_key_once(self, tmp_path, monkeypatch):
        """The spec check derives the key; every attempt, retries
        included, and its record go by the lease's."""
        def boom(self):
            raise RuntimeError("injected failure")

        (job,) = tiny_jobs()
        b = FsBroker(tmp_path)
        b.submit([job], experiment="fig7a")
        derived, key = [], SimJob.key
        monkeypatch.setattr(SimJob, "key", lambda self: derived.append(self) or key(self))
        monkeypatch.setattr(SimJob, "run", boom)
        policy = RetryPolicy(max_retries=2, backoff_base=0.001)
        assert Worker(b, worker_id="w1", max_cells=1, policy=policy).run()["failed"] == 1
        assert derived == [job]
        assert b.read_events(kind="retry")[0][0]["key"] == key(job)

    def test_a_spec_that_hashes_elsewhere_fails_as_a_key_mismatch(self, tmp_path, tiny_job):
        b = FsBroker(tmp_path)
        run = b.submit([tiny_job], experiment="fig7a")
        path = tmp_path / "queue" / f"{tiny_job.key()}.json"
        rec = json.loads(path.read_text())
        other = dataclasses.replace(tiny_job, seed=tiny_job.seed + 1)
        rec["spec"] = job_to_spec(other)
        path.write_text(json.dumps(rec))
        assert Worker(b, worker_id="w1", max_cells=1).run()["failed"] == 1
        (failure,) = b.run_manifest(run.id)["failures"]
        assert failure["exception"] == "KeyMismatch" and failure["attempts"] == 0
        assert failure["message"].startswith(
            f"spec hashes to {other.key()[:12]}..., lease says {tiny_job.key()[:12]}... ")
        assert b.cache.get(tiny_job.key()) is None

    def test_a_retry_is_an_event_the_manifest_counts(self, tmp_path, monkeypatch):
        def boom(self):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(SimJob, "run", boom)
        (job,) = tiny_jobs()
        b = FsBroker(tmp_path)
        run = b.submit([job], experiment="fig7a")
        policy = RetryPolicy(max_retries=2, backoff_base=0.001)
        assert Worker(b, worker_id="w1", max_cells=1, policy=policy).run()["failed"] == 1
        retries = [(e["key"], e["worker"], e["attempt"], e["exception"])
                   for e in b.read_events(kind="retry")[0]]
        assert retries == [(job.key(), "w1", 2, "RuntimeError"), (job.key(), "w1", 3, "RuntimeError")]
        manifest = b.run_manifest(run.id)
        assert manifest["retried"] == 2 and manifest["failures"][0]["attempts"] == 3

    def test_connect_broker_dispatch(self, tmp_path):
        assert isinstance(connect_broker(str(tmp_path)), FsBroker)
        assert isinstance(connect_broker(f"dir://{tmp_path}"), FsBroker)
        assert isinstance(connect_broker("http://127.0.0.1:1"), HttpBroker)


# ----------------------------------------------------------------------
# sweep manifest timing (satellite)
# ----------------------------------------------------------------------
class TestSweepTiming:
    def test_serial_sweep_records_elapsed_and_worker(self, tmp_path):
        jobs = tiny_jobs()
        opts = SweepOptions(jobs=1, cache_dir=str(tmp_path / "c"))
        report = run_sweep(jobs, options=opts)
        assert len(report.cell_elapsed) == len(jobs)
        assert all(e is not None and e > 0 for e in report.cell_elapsed)
        assert all(w and w.startswith("pid") for w in report.cell_workers)
        (row,) = report.manifest()["jobs"]
        assert row["elapsed_s"] == pytest.approx(report.cell_elapsed[0])
        assert row["worker"] == report.cell_workers[0]

    def test_cache_hit_attributed_to_cache(self, tmp_path):
        jobs = tiny_jobs()
        opts = SweepOptions(jobs=1, cache_dir=str(tmp_path / "c"))
        run_sweep(jobs, options=opts)
        report = run_sweep(jobs, options=opts)
        assert report.hits == len(jobs)
        assert report.cell_workers == ["cache"] * len(jobs)
        (row,) = report.manifest()["jobs"]
        assert row["worker"] == "cache"
        assert "elapsed_s" not in row


# ----------------------------------------------------------------------
# cache hygiene (satellite)
# ----------------------------------------------------------------------
class TestCacheHygiene:
    def _fill(self, tmp_path, n=3):
        cache = ResultCache(tmp_path / "cache")
        for i in range(n):
            cache.put_dict(f"{i:064x}", {"scheme": "X", "i": i})
        return cache

    def test_stats(self, tmp_path):
        cache = self._fill(tmp_path)
        stats = cache.stats()
        assert stats["entries"] == 3
        assert stats["bytes"] > 0
        assert stats["quarantined"] == 0

    def test_prune_by_age(self, tmp_path):
        cache = self._fill(tmp_path)
        old = cache.path(f"{0:064x}")
        past = time.time() - 3600
        os.utime(old, (past, past))
        summary = cache.prune(max_age_s=60)
        assert summary["removed"] == 1
        assert cache.stats()["entries"] == 2

    def test_prune_to_size_evicts_oldest_first(self, tmp_path):
        cache = self._fill(tmp_path)
        entries = cache.entries()
        # stamp distinct mtimes so the eviction order is deterministic
        for i, (key, _size, _mtime) in enumerate(entries):
            t = time.time() - 100 + i
            os.utime(cache.path(key), (t, t))
        total = sum(size for _k, size, _m in cache.entries())
        one = total // 3
        cache.prune(max_bytes=total - one)
        left = [k for k, _s, _m in cache.entries()]
        assert entries[0][0] not in left  # oldest evicted
        assert entries[-1][0] in left

    def test_get_dict_is_the_stored_dict_get_hydrates(self, tmp_path, tiny_job, tiny_result):
        cache = ResultCache(tmp_path / "cache")
        cache.put(tiny_job.key(), tiny_result, job=tiny_job)
        stored = cache.get_dict(tiny_job.key())
        blob = cache.get_bytes(tiny_job.key())
        compact = dict(separators=(",", ":"))
        # byte for byte: what is stored, and sent by a server as it is,
        # is the canonical JSON of the fresh result; the stored dict
        # written again (no sorting asked for: its keys already are)
        # and the hydrated result serialized again give the same bytes
        assert blob == json.dumps(tiny_result.to_dict(), sort_keys=True, **compact).encode()
        assert blob == json.dumps(stored, **compact).encode()
        assert blob == json.dumps(
            cache.get(tiny_job.key()).to_dict(), sort_keys=True, **compact).encode()
        assert cache.get_dict("0" * 64) is None
        raw = cache.path(tiny_job.key()).read_bytes()
        tampered = raw.replace(b'"duration":200000.0', b'"duration":200001.0')
        assert tampered != raw
        cache.path(tiny_job.key()).write_bytes(tampered)
        with pytest.warns(RuntimeWarning, match="digest mismatch"):
            assert cache.get_dict(tiny_job.key()) is None
        assert len(cache.quarantined()) == 1

    def test_quarantine_listed_and_pruned(self, tmp_path):
        cache = self._fill(tmp_path)
        path = cache.path(f"{1:064x}")
        path.write_text("{corrupt json")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert cache.get(f"{1:064x}") is None  # quarantines the entry
        assert len(cache.quarantined()) == 1
        summary = cache.prune(max_age_s=0.0, include_quarantine=True)
        assert summary["quarantine_removed"] == 1
        assert cache.quarantined() == []


# ----------------------------------------------------------------------
# HTTP service end-to-end
# ----------------------------------------------------------------------
@pytest.fixture
def srv(tmp_path):
    with ServiceServer(tmp_path / "broker", port=0,
                       cache_dir=str(tmp_path / "cache")) as server:
        yield server


@pytest.fixture
def client(srv):
    client = ServiceClient(srv.url)
    yield client
    client.close()


class TestService:
    def test_http_submit_workers_byte_identical(self, srv, client, tiny_job, tiny_result):
        """The acceptance path: submit over HTTP, two pull workers race,
        the fetched CaseResult is byte-identical to in-process."""
        names = [e["name"] for e in client.experiments()]
        assert "fig7a" in names
        sub = client.submit("fig7a", schemes=["CCFIT"],
                            time_scale=SCALE, seed=1)
        assert sub["cells"] == 1
        workers = [Worker(srv.url, worker_id=f"w{i}", max_cells=1,
                          idle_exit=10.0) for i in range(2)]
        threads = [threading.Thread(target=w.run) for w in workers]
        for t in threads:
            t.start()
        status = client.wait(sub["run"], timeout=60)
        # the loser idles until its idle_exit, waiting in the server:
        # about one claim a second (100 at the old 20 ms poll)
        before = srv.requests
        time.sleep(2.0)
        assert srv.requests - before <= 3
        for t in threads:
            t.join()
        assert status["done"]
        fetched = client.result(sub["keys"][0])["result"]
        assert result_bytes(fetched) == result_bytes(tiny_result.to_dict())
        # the reply carries the stored bytes as they are, not a re-encoding
        body = client._exchange(f"/results/{sub['keys'][0]}")
        assert srv.broker.cache.get_bytes(sub["keys"][0]) in body
        assert json.loads(body) == {"key": sub["keys"][0], "result": fetched}
        manifest = client.manifest(sub["run"])
        assert manifest["ok"] == 1
        assert manifest["jobs"][0]["worker"] in ("w0", "w1")
        kinds = [e["kind"] for e in client.events(sub["run"])]
        assert "complete" in kinds

    def test_http_lease_requeue_after_silent_worker(self, tmp_path, tiny_job, tiny_result):
        """A worker that claims over HTTP and then goes silent loses its
        lease to the server's reaper; a live worker finishes the cell."""
        with ServiceServer(tmp_path / "broker", port=0,
                           cache_dir=str(tmp_path / "cache"),
                           lease_ttl=0.5) as srv:
            client = ServiceClient(srv.url)
            sub = client.submit("fig7a", schemes=["CCFIT"],
                                time_scale=SCALE, seed=1)
            victim = HttpBroker(srv.url)
            lease = victim.claim("victim")
            victim.close()
            assert lease is not None  # ...and never heartbeats again
            worker = Worker(srv.url, worker_id="survivor", max_cells=1,
                            idle_exit=30.0)
            t = threading.Thread(target=worker.run)
            t.start()
            status = client.wait(sub["run"], timeout=60)
            t.join()
            assert status["done"]
            manifest = client.manifest(sub["run"])
            assert manifest["jobs"][0]["status"] == "ok"
            assert manifest["jobs"][0]["worker"] == "survivor"
            assert manifest["requeued"] >= 1
            fetched = client.result(sub["keys"][0])["result"]
            client.close()
            assert result_bytes(fetched) == result_bytes(tiny_result.to_dict())

    def test_http_manifest_counts_retries(self, srv, client, monkeypatch):
        def boom(self):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(SimJob, "run", boom)
        sub = submit_tiny(client)
        Worker(srv.url, worker_id="w", max_cells=1, idle_exit=5.0,
               policy=RetryPolicy(max_retries=1, backoff_base=0.001)).run()
        manifest = client.manifest(sub["run"])
        assert (manifest["retried"], manifest["failed"]) == (1, 1)
        assert [e["kind"] for e in client.events(sub["run"])].count("retry") == 1

    def test_metrics_endpoint(self, client):
        text = client.metrics()
        assert "repro_service_uptime_seconds" in text
        assert 'repro_service_cells{state="queue"}' in text
        assert "repro_service_http_requests_total 1" in text

    def test_unknown_experiment_is_400(self, client):
        with pytest.raises(ServiceError):
            client.submit("not-an-experiment")

    @pytest.mark.parametrize("field", ["routing", "kernel"])
    def test_unknown_field_is_400_naming_it(self, client, field):
        """A typo (``routing`` for ``routings``) or a removed knob
        (``kernel``) is rejected, never silently dropped to run the
        default grid."""
        with pytest.raises(ServiceError) as exc:
            client.submit("fig7a", schemes=["CCFIT"], **{field: "adaptive"})
        message = str(exc.value)
        assert "400" in message
        assert repr(field) in message and "routings" in message
        assert client.runs() == []  # nothing was enqueued


    @pytest.mark.parametrize("body, said", [
        ({"extra": {"num_tree": 4}}, "did you mean num_trees"),
        ({"extra": {"num_trees": 4}, "experiment": "fig7a"},
         "unknown knob 'num_trees' (case1 takes no knobs)"),
        ({"time_scale": 0}, "time_scale"),
        ({"time_scale": float("nan")}, "time_scale"),
        ({"seed": -1}, "seed"),
        ({"schemes": ["CCFTI"]}, "did you mean CCFIT"),
        ({"routings": ["adaptve"]}, "did you mean adaptive"),
        ({"buffer_model": "sharde"}, "did you mean shared"),
        ({"faults": "kil:x@1ms"}, "bad faults spec"),
        ({"telemetry_interval": 50_000}, "did you mean telemetry"),
        ({"time_scale": True}, "time_scale"),
        ({"extra": {"duration_ms": True}}, "duration_ms"),
        ({"telemetry": -1}, "sampling period in ns"),
        ({"telemetry": {"series_capacity": 0}}, "series_capacity"),
        ({"telemetry": {"events_limit": -1}}, "events_limit"),
        ({"telemetry": {"track_trees": "yes"}}, "track_trees"),
        ({"time_scale": "0.5"}, "time_scale must be a finite number > 0, not '0.5'"),
        ({"telemetry": "5e4"}, "not '5e4'"),
        ({"time_scale": 10**400}, "time_scale"),
    ])
    def test_a_cell_that_cannot_be_is_400_and_enqueues_nothing(self, srv, client, body, said):
        """Validated where the cell is constructed, as the CLI's are:
        not accepted now to fail in a worker after three attempts."""
        request = {"experiment": "fig8a", **body}
        with pytest.raises(ServiceError, match=f"400.*{re.escape(said)}"):
            client.submit(request.pop("experiment"), **request)
        assert client.runs() == []
        assert list((srv.broker.root / "queue").iterdir()) == []

    @pytest.mark.parametrize("verb", ["complete", "fail", "heartbeat", "retry"])
    def test_a_worker_body_whose_key_is_not_a_key_is_400(self, tmp_path, verb):
        """A worker-protocol key is joined into a path: ``../../victim``
        sent to ``/broker/complete`` overwrote, then deleted, a file two
        levels above the broker directory."""
        root = tmp_path / "service"
        victim = tmp_path / "victim.json"
        victim.write_text("precious")
        with ServiceServer(root / "broker", port=0, cache_dir=str(root / "cache")) as srv:
            client = ServiceClient(srv.url)
            before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
            body = {"worker": "w", "result": {}, "failure": {}, "attempt": 2}
            for key in ("../../victim", "../victim", "A" * 64, 7):
                with pytest.raises(ServiceError, match="HTTP 400.*cell key"):
                    client._request(f"/broker/{verb}", {**body, "key": key})
            client.close()
            assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    def test_a_submit_that_enqueues_nothing_wakes_nobody(self, srv, client, tiny_job, tiny_result):
        """Every held claim lists ``queue/`` again when woken: a submit
        whose every cell was cached has nothing for it."""
        srv.broker.cache.put(tiny_job.key(), tiny_result, job=tiny_job)
        generation = srv._generation
        assert submit_tiny(client)["cached"] == 1
        assert srv._generation == generation
        sub = client.submit("fig7a", schemes=["CCFIT", "1Q"], time_scale=SCALE, seed=1)
        assert (sub["cells"], sub["cached"]) == (2, 1)
        assert srv._generation == generation + 1


# ----------------------------------------------------------------------
# drain: one host, every core
# ----------------------------------------------------------------------
def submit_tiny(client, seed=1):
    return client.submit("fig7a", schemes=["CCFIT"], time_scale=SCALE, seed=seed)


def descendants(pid):
    """The pids of a process's children and theirs, from Linux's
    ``/proc``."""
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as fh:
            kids = [int(word) for word in fh.read().split()]
    except FileNotFoundError:
        return []
    return kids + [pid for kid in kids for pid in descendants(kid)]


def running(pid) -> bool:
    """Whether ``pid`` is a process that has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False


def until(predicate, timeout=60.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.02)


class TestDrain:
    def test_processes_drain_an_http_broker_byte_identically(self, srv, client, tiny_result):
        sub = client.submit("fig7a", schemes=["CCFIT", "1Q", "ITh"], time_scale=SCALE, seed=1)
        summary = drain(srv.url, 2, worker_id="host", idle_exit=0.5)
        assert (summary["completed"], summary["failed"]) == (3, 0)
        manifest = client.manifest(sub["run"])
        assert manifest["ok"] == 3
        assert {row["worker"] for row in manifest["jobs"]} <= {"host.1", "host.2"}
        fetched = client.result(tiny_jobs()[0].key())["result"]
        assert result_bytes(fetched) == result_bytes(tiny_result.to_dict())

    def test_a_dead_process_has_its_lease_released_over_http_at_once(self, srv, client):
        """Not after the lease: the cell is requeued as soon as the
        process that held it is found dead, then failed as a crash once
        out of attempts, and the processes are replaced."""
        (job,) = tiny_jobs()
        crash = CrashJob(**{f.name: getattr(job, f.name) for f in dataclasses.fields(job)})
        assert crash.key() == job.key()
        sub = submit_tiny(client)
        t0 = time.monotonic()
        drain(srv.url, 2, worker_id="host", jobs={job.key(): crash}, idle_exit=0.5,
              policy=RetryPolicy(max_retries=1))
        assert time.monotonic() - t0 < srv.broker.lease_ttl / 4
        manifest = client.manifest(sub["run"])
        assert manifest["requeued"] == 1
        (failure,) = manifest["failures"]
        assert (failure["exception"], failure["kind"], failure["attempts"]) == ("WorkerCrash", "crash", 2)
        assert failure["worker"].startswith("host.")

    @pytest.mark.parametrize("body", [
        {"worker": "w", "failure": {}},
        {"worker": "w", "failure": {}, "attempts": 0},
        {"worker": "w", "failure": {}, "attempts": True},
        {"worker": "w", "failure": "crash", "attempts": 1},
        {"worker": ["w"], "attempts": 1},
    ], ids=["no-attempts", "zero-attempts", "bool-attempts", "failure-not-object",
            "worker-not-string"])
    def test_release_with_a_bad_body_is_400(self, srv, client, body):
        (job,) = tiny_jobs()
        srv.broker.submit([job], experiment="fig7a")
        srv.broker.claim("w")
        with pytest.raises(ServiceError, match="400"):
            client._request("/broker/release", body)
        assert srv.broker.counts()["active"] == 1  # the lease is still held

    def test_interrupted_in_process_it_raises_what_it_did(self, tmp_path):
        """Ctrl-C reaches a sweep as a ``KeyboardInterrupt`` still, and
        ``repro worker`` reads its summary off the exception."""
        b = FsBroker(tmp_path)
        first, second = tiny_jobs(schemes=("CCFIT", "1Q"))
        b.submit([first], experiment="fig7a")
        time.sleep(0.05)  # a queue is claimed oldest first, by mtime
        b.submit([second], experiment="fig7a")
        cut = InterruptJob(**{f.name: getattr(second, f.name) for f in dataclasses.fields(second)})
        with pytest.raises(KeyboardInterrupt) as caught:
            drain(b, 1, worker_id="host", jobs={first.key(): first, second.key(): cut},
                  idle_exit=0)
        assert isinstance(caught.value, Interrupted)
        assert (caught.value.summary["worker"], caught.value.summary["completed"]) == ("host", 1)

    def test_max_cells_is_one_budget_for_every_process(self, tmp_path):
        b = FsBroker(tmp_path)
        b.submit(tiny_jobs(schemes=("CCFIT", "1Q", "ITh")), experiment="fig7a")
        summary = drain(str(tmp_path), 2, max_cells=2, poll_interval=0.01, idle_exit=5.0)
        assert (summary["completed"], b.counts()["done"], b.counts()["queue"]) == (2, 2, 1)

    def test_repro_worker_defaults_to_every_core(self):
        parse = build_parser().parse_args
        assert parse(["worker", "--broker", "d"]).jobs is None  # every core
        assert parse(["worker", "--broker", "d", "--jobs", "3"]).jobs == 3
        assert parse(["--jobs", "3", "worker", "--broker", "d"]).jobs == 3
        assert parse(["sweep", "fig7a"]).jobs is None  # one worker, in process


#: ``python -c`` program: ``repro`` with its processes started by the
#: start method ``argv[1]``, the rest of ``argv`` its arguments
WITH_START_METHOD = (
    "import multiprocessing, sys; multiprocessing.set_start_method(sys.argv.pop(1)); "
    "from repro.cli import main; sys.exit(main(sys.argv[1:]))"
)


@pytest.mark.skipif(not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
                    reason="reads child processes from Linux's /proc")
@pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
class TestWorkerCommand:
    """``repro worker --jobs N`` as a process, and the processes it runs,
    however the platform starts them."""

    def spawn(self, broker_dir, method, out=subprocess.PIPE):
        """Run the worker until it has completed the cell queued in
        ``broker_dir``: it and every process it started, by then."""
        b = FsBroker(broker_dir)
        b.submit(tiny_jobs(), experiment="fig7a")
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.Popen(
            [sys.executable, "-c", WITH_START_METHOD, method, "worker", "--broker",
             str(broker_dir), "--jobs", "2", "--id", "host", "--poll-interval", "0.05"],
            env=env, stdout=out, stderr=out, text=True)
        until(lambda: b.counts()["done"] == 1)
        time.sleep(0.2)  # the done marker is written just before the count
        kids = descendants(proc.pid)
        assert len(kids) >= 2
        return proc, kids

    def test_terminated_it_stops_its_processes_and_reports(self, tmp_path, method):
        proc, kids = self.spawn(tmp_path, method)
        proc.terminate()
        out, err = proc.communicate(timeout=30)
        assert proc.returncode == 0, err
        assert out.strip() == "worker host: 1 completed, 0 failed on 2 processes"
        until(lambda: not any(running(kid) for kid in kids), timeout=5.0)

    def test_killed_its_processes_do_not_outlive_it(self, tmp_path, method):
        proc, kids = self.spawn(tmp_path, method, out=subprocess.DEVNULL)
        proc.kill()
        proc.wait()
        try:
            until(lambda: not any(running(kid) for kid in kids), timeout=5.0)
        finally:
            for kid in filter(running, kids):
                os.kill(kid, signal.SIGKILL)


# ----------------------------------------------------------------------
# waiting, not polling; connections that stay open
# ----------------------------------------------------------------------


class TestWaiting:
    def test_idle_http_worker_takes_a_cell_at_once(self, srv, client):
        """Over HTTP the claim blocks in the server, so the idle sleep
        (5 s here) never comes between a cell and its worker -- not
        even after a claim has come back empty."""
        worker = Worker(srv.url, worker_id="w", poll_interval=5.0, max_cells=1,
                        idle_exit=30.0)
        t = threading.Thread(target=worker.run)
        t.start()
        time.sleep(LONG_POLL_S + 0.2)
        assert srv.requests == 2  # one empty claim, one being held
        sub = submit_tiny(client)
        status = client.wait(sub["run"], timeout=30)
        t.join(timeout=30)
        assert status["done"] and not t.is_alive()
        at = {e["kind"]: e["t"] for e in client.events(sub["run"])}
        assert at["claim"] - at["enqueue"] < 0.5
        # the worker opened its broker from a URL, so it closed it
        assert worker.broker._connections == {}

    def test_blocking_claim_returns_a_cell_submitted_later(self, srv, client):
        leases = []
        broker = HttpBroker(srv.url)
        t = threading.Thread(target=lambda: leases.append(broker.claim("w")))
        t.start()
        time.sleep(0.05)
        sub = submit_tiny(client)
        t.join(timeout=10)
        broker.close()
        assert not t.is_alive()
        assert leases[0] is not None and leases[0].key == sub["keys"][0]

    def test_status_wait_returns_at_completion(self, srv, client, tiny_result):
        sub = submit_tiny(client)
        broker = HttpBroker(srv.url)

        def finish():
            time.sleep(0.1)
            lease = broker.claim("w")
            broker.complete(lease.key, "w", tiny_result.to_dict())

        t = threading.Thread(target=finish)
        t.start()
        t0 = time.monotonic()
        status = client.run(sub["run"], wait=10.0)
        waited = time.monotonic() - t0
        t.join(timeout=10)
        broker.close()
        assert status["done"]
        assert 0.1 <= waited < 5.0

    def test_status_wait_expires_not_done(self, srv, client):
        sub = submit_tiny(client)  # and nobody to run it
        t0 = time.monotonic()
        status = client.run(sub["run"], wait=0.1)
        assert time.monotonic() - t0 >= 0.1
        assert not status["done"] and status["counts"] == {"queued": 1}
        with pytest.raises(ServiceError, match="not finished within"):
            client.wait(sub["run"], timeout=0.1)

    def test_without_wait_the_answer_is_immediate(self, srv, client):
        """curl, and ``FsBroker.claim`` as a benchmark calls it, do not
        ask to wait and are not made to."""
        t0 = time.monotonic()
        assert client._request("/broker/claim", {"worker": "w"}) == {"lease": None}
        assert srv.broker.claim("bench") is None
        sub = submit_tiny(client)
        assert client.run(sub["run"])["counts"] == {"queued": 1}
        assert time.monotonic() - t0 < 0.5

    @pytest.mark.parametrize("wait", ["soon", "-1", "nan", "inf"])
    def test_bad_wait_is_400(self, srv, client, wait):
        sub = submit_tiny(client)
        with pytest.raises(ServiceError, match="400.*'wait'"):
            client._request(f"/runs/{sub['run']}?wait={wait}")
        with pytest.raises(ServiceError, match="400.*'wait'"):
            client._request("/broker/claim", {"worker": "w", "wait": wait})

    def test_follow_stream_ends_with_the_run(self, srv, client, tiny_result):
        sub = submit_tiny(client)
        seen = []
        t = threading.Thread(
            target=lambda: seen.extend(
                (time.time(), e) for e in client.events(sub["run"], follow=True)
            )
        )
        t.start()
        time.sleep(0.1)
        broker = HttpBroker(srv.url)
        lease = broker.claim("w")
        broker.complete(lease.key, "w", tiny_result.to_dict())
        broker.close()
        t.join(timeout=10)
        assert not t.is_alive()
        kinds = [e["kind"] for _t, e in seen]
        assert kinds == ["enqueue", "submit", "claim", "complete", "end-of-run"]
        assert seen[-1][1]["done"]
        arrived, complete = seen[-2]
        assert arrived - complete["t"] < 0.15  # woken, not polled at 0.2 s

    @pytest.mark.parametrize("kind", ["complete", "fail"])
    def test_follow_stream_ends_after_an_event_appended_late(self, srv, client, tiny_result,
                                                             kind, monkeypatch):
        """The stream is woken, and then probes for half a second, while
        the event that finishes the cell is still on its way to the log:
        the cell is not finished until its event is there."""
        event = FsBroker._event

        def late(self, what, key="", **detail):
            if what == kind:
                srv.notify()
                time.sleep(0.5)
            event(self, what, key, **detail)

        monkeypatch.setattr(FsBroker, "_event", late)
        sub = submit_tiny(client)
        seen = []
        t = threading.Thread(
            target=lambda: seen.extend(e["kind"] for e in client.events(sub["run"], follow=True))
        )
        t.start()
        time.sleep(0.1)
        broker = HttpBroker(srv.url)
        lease = broker.claim("w")
        if kind == "complete":
            broker.complete(lease.key, "w", tiny_result.to_dict())
        else:
            broker.fail(lease.key, "w", {"exception": "Boom", "kind": "error"})
        broker.close()
        t.join(timeout=10)
        assert not t.is_alive()
        assert seen == ["enqueue", "submit", "claim", kind, "end-of-run"]

    def test_stop_releases_waiting_requests(self, tmp_path):
        server = ServiceServer(tmp_path / "broker", port=0,
                               cache_dir=str(tmp_path / "cache")).start()
        client = ServiceClient(server.url)
        sub = submit_tiny(client)
        answers = []
        t = threading.Thread(target=lambda: answers.append(client.run(sub["run"], wait=20.0)))
        t.start()
        time.sleep(0.1)
        server.stop()
        t.join(timeout=5)
        client.close()
        assert not t.is_alive()
        assert answers and not answers[0]["done"]


class TestConnections:
    def test_sequential_calls_share_one_connection(self, srv, client):
        for _ in range(5):
            client.runs()
        client.metrics()
        assert (srv.connections, srv.requests) == (1, 6)
        client.close()
        client.runs()  # dials again
        assert (srv.connections, srv.requests) == (2, 7)

    def test_each_thread_has_its_own_connection(self, srv, client):
        """A worker heartbeats from a second thread while its first sits
        in a blocking claim: they cannot share a connection."""
        client.runs()
        t = threading.Thread(target=client.runs)
        t.start()
        t.join(timeout=10)
        assert (srv.connections, srv.requests) == (2, 2)

    def test_round_trips_do_not_stall_on_nagle(self, srv, client):
        """A reply written as two segments on a kept-alive connection
        waits ~40 ms for the client's delayed ACK, every request."""
        walls = []
        for _ in range(20):
            t0 = time.perf_counter()
            client._request("/broker/heartbeat", {"key": "0" * 64, "worker": "w"})
            walls.append(time.perf_counter() - t0)
        assert srv.connections == 1
        assert statistics.median(walls) < 0.02

    def test_client_survives_a_server_restart(self, tmp_path):
        kw = dict(cache_dir=str(tmp_path / "cache"))
        first = ServiceServer(tmp_path / "broker", port=0, **kw).start()
        client = ServiceClient(first.url)
        port = int(first.url.rsplit(":", 1)[1])
        sub = submit_tiny(client)
        first.stop()  # hangs up on the kept-alive connection
        with ServiceServer(tmp_path / "broker", port=port, **kw) as second:
            assert client.run(sub["run"])["counts"] == {"queued": 1}
            assert (second.connections, second.requests) == (1, 1)
        client.close()

    def test_nobody_listening_is_a_service_error(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            port = listener.getsockname()[1]
        with pytest.raises(ServiceError, match="refused"):
            ServiceClient(f"http://127.0.0.1:{port}").runs()

    def test_request_is_not_sent_again_after_a_partial_reply(self):
        """Re-dialling is for a connection found dead before any byte of
        a reply; a reply that breaks off means the server acted on the
        request (a second claim would orphan the first lease)."""
        ok = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}"
        torn = b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"lease\":"
        # connection 1: a whole reply, then dropped while idle;
        # connection 2: a whole reply, then one that breaks off
        script = [[ok, None], [ok, torn]]
        requests = []
        listener = socket.create_server(("127.0.0.1", 0))

        def serve():
            for replies in script:
                conn, _addr = listener.accept()
                with conn, conn.makefile("rb") as rfile:
                    for reply in replies:
                        line = rfile.readline()
                        if reply is None or not line:
                            break
                        length = 0
                        while (header := rfile.readline()) not in (b"\r\n", b""):
                            if header.lower().startswith(b"content-length:"):
                                length = int(header.split(b":")[1])
                        rfile.read(length)
                        requests.append(line.split()[1].decode())
                        conn.sendall(reply)

        t = threading.Thread(target=serve)
        t.start()
        client = ServiceClient("http://127.0.0.1:%d" % listener.getsockname()[1], timeout=5)
        try:
            assert client._request("/a") == {}
            time.sleep(0.1)  # let the server drop connection 1
            assert client._request("/b") == {}  # found dead, dialled again, once
            with pytest.raises(ServiceError):
                client._request("/broker/claim", {"worker": "w"})
            assert requests == ["/a", "/b", "/broker/claim"]
        finally:
            client.close()
            listener.close()
            t.join(timeout=5)


def raw_exchange(srv, request: bytes, timeout: float = 3.0):
    """Send ``request`` bytes on a connection of their own; the reply's
    status, its head as text, and whether the server then hung up (the
    reply is read to EOF: a server that keeps the connection fails the
    read, by timeout)."""
    host, port = srv.url.rsplit("/", 1)[1].rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=timeout) as sock:
        sock.sendall(request)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    return int(head.split()[1]), head.decode("latin-1"), json.loads(body)


class TestRequestFraming:
    """A request head the server cannot frame for certain is answered
    and the connection closed: no byte of it is read as the next
    request, and no handler thread waits on a body that never ends."""

    SUBMIT = b'{"experiment": "fig7a"}'

    @pytest.mark.parametrize("head, status", [
        (b"Content-Length: -1\r\n", 400),
        (b"Content-Length: 2x\r\n", 400),
        (b"Content-Length: 23\r\nContent-Length: 5\r\n", 400),
        (b"Transfer-Encoding: chunked\r\n", 501),
        (b"Content-Length: 23\r\nX-Folded: a\r\n b\r\n", 400),
        (b"Content-Length: 23\r\nNo colon here\r\n", 400),
        (b"Content-Length: 23\r\n" + b"X-Many: 1\r\n" * 100, 431),
        (b"Content-Length: 23\r\nX-Long: " + b"a" * 65536 + b"\r\n", 431),
    ], ids=["negative-length", "non-numeric-length", "conflicting-lengths", "chunked",
            "obs-fold", "colon-less", "too-many-headers", "line-too-long"])
    def test_an_unframeable_request_is_refused_and_hung_up_on(self, srv, client, head, status):
        body = b"17\r\n" + self.SUBMIT + b"\r\n0\r\n\r\n" if b"chunked" in head else self.SUBMIT
        got, reply_head, error = raw_exchange(
            srv, b"POST /experiments HTTP/1.1\r\nHost: x\r\n" + head + b"\r\n" + body)
        assert got == status, error
        assert "Connection: close" in reply_head
        assert srv.broker.runs() == []  # nothing was submitted
        assert client.runs() == []  # and a new connection is answered

    def test_a_get_with_a_body_is_answered_then_hung_up_on(self, srv):
        status, reply_head, body = raw_exchange(
            srv, b"GET /runs HTTP/1.1\r\nContent-Length: 18\r\n\r\nGET /runs HTTP/1.1")
        assert (status, body) == (200, {"runs": []})
        assert "Connection: close" in reply_head


@contextlib.contextmanager
def scripted(script, hold=False, tls=None):
    """A server that answers each connection it accepts with the next
    list of ``script`` replies, one a GET; after them it closes the
    connection, or with ``hold`` waits for the client to.  Yields its
    ``http://`` URL and the request paths and accepts it saw."""
    seen = {"requests": [], "accepts": 0}
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        for replies in script:
            conn, _addr = listener.accept()
            seen["accepts"] += 1
            if tls is not None:
                conn = tls.wrap_socket(conn, server_side=True)
            with conn, conn.makefile("rb") as rfile:
                for reply in replies:
                    line = rfile.readline()
                    while rfile.readline() not in (b"\r\n", b""):
                        pass
                    seen["requests"].append(line.split()[1].decode())
                    conn.sendall(reply)
                if hold:
                    rfile.read()

    t = threading.Thread(target=serve)
    t.start()
    try:
        yield "http://127.0.0.1:%d" % listener.getsockname()[1], seen
    finally:
        listener.close()
        t.join(timeout=10)
        assert not t.is_alive()


class TestReplyFraming:
    OK = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}"

    def test_a_chunked_reply_is_refused_by_name_not_awaited(self):
        chunked = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n"
        with scripted([[chunked]], hold=True) as (url, seen):
            client = ServiceClient(url, timeout=30)
            t = time.monotonic()
            with pytest.raises(ServiceError, match="Transfer-Encoding"):
                client._request("/a")
            assert time.monotonic() - t < 5
            client.close()

    def test_a_close_delimited_reply_is_read_to_its_end(self):
        until_eof = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n" + b'{"n": 1}'
        with scripted([[until_eof], [self.OK]]) as (url, seen):
            client = ServiceClient(url, timeout=5)
            assert client._request("/a") == {"n": 1}
            assert client._request("/b") == {}
            client.close()
        assert (seen["accepts"], seen["requests"]) == (2, ["/a", "/b"])

    def test_after_connection_close_the_next_request_dials_again(self):
        closing = self.OK.replace(b"Content-Length", b"Connection: close\r\nContent-Length")
        with scripted([[self.OK, closing], [self.OK]], hold=True) as (url, seen):
            client = ServiceClient(url, timeout=5)
            for path in ("/a", "/b", "/c"):
                assert client._request(path) == {}
            client.close()
        assert (seen["accepts"], seen["requests"]) == (2, ["/a", "/b", "/c"])

    def test_https_goes_through_tls(self, tmp_path, monkeypatch):
        openssl = shutil.which("openssl")
        if openssl is None:
            pytest.skip("no openssl command to write a certificate with")
        cert, key = tmp_path / "cert.pem", tmp_path / "key.pem"
        subprocess.run([openssl, "req", "-x509", "-newkey", "ec", "-pkeyopt",
                        "ec_paramgen_curve:prime256v1", "-nodes", "-days", "1",
                        "-subj", "/CN=127.0.0.1", "-addext", "subjectAltName=IP:127.0.0.1",
                        "-keyout", str(key), "-out", str(cert)],
                       check=True, capture_output=True, timeout=60)
        monkeypatch.setenv("SSL_CERT_FILE", str(cert))  # the one CA the client trusts
        tls = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        tls.load_cert_chain(cert, key)
        with scripted([[self.OK, self.OK]], hold=True, tls=tls) as (url, seen):
            client = ServiceClient(url.replace("http://", "https://"), timeout=5)
            assert client._request("/a") == {}
            assert client._request("/b") == {}
            client.close()
        assert (seen["accepts"], seen["requests"]) == (1, ["/a", "/b"])


# ----------------------------------------------------------------------
# multi-process end-to-end (tier2)
# ----------------------------------------------------------------------
@pytest.mark.tier2
class TestServiceProcesses:
    #: paper scale: the fig7a cell runs for over a second here (45 ms at
    #: SCALE), so a worker killed within one poll of its claim dies
    #: mid-cell by construction, not by winning a race
    KILL_SCALE = 1.0

    def test_kill_worker_midrun_sweep_still_completes(self, tmp_path):
        """ISSUE acceptance: kill a real worker process mid-cell; the
        lease expires, the cell requeues, a second worker completes the
        sweep, and the result is still byte-identical."""
        (job,) = tiny_jobs(time_scale=self.KILL_SCALE)
        reference = job.run()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(p) for p in (os.path.join(os.path.dirname(__file__), "..", "src"),)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        with ServiceServer(tmp_path / "broker", port=0,
                           cache_dir=str(tmp_path / "cache"),
                           lease_ttl=1.0) as srv:
            client = ServiceClient(srv.url)
            sub = client.submit("fig7a", schemes=["CCFIT"],
                                time_scale=self.KILL_SCALE, seed=1)
            victim = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "worker",
                 "--broker", srv.url, "--id", "victim", "--heartbeat", "0.2"],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            # let it claim the cell, then kill it mid-simulation
            deadline = time.time() + 30
            while time.time() < deadline:
                if any(e["kind"] == "claim" for e in client.events(sub["run"])):
                    break
                time.sleep(0.1)
            victim.send_signal(signal.SIGKILL)
            victim.wait()
            survivor = Worker(srv.url, worker_id="survivor", max_cells=1,
                              idle_exit=60.0)
            t = threading.Thread(target=survivor.run)
            t.start()
            status = client.wait(sub["run"], timeout=120)
            t.join()
            assert status["done"]
            manifest = client.manifest(sub["run"])
            assert manifest["ok"] == 1
            assert manifest["requeued"] >= 1
            assert manifest["jobs"][0]["worker"] == "survivor"
            fetched = client.result(sub["keys"][0])["result"]
            assert result_bytes(fetched) == result_bytes(reference.to_dict())
