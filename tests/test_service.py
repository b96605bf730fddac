"""Distributed sweep fabric: spec codec, broker leases, workers, HTTP.

The determinism contract under test everywhere: a cell executed by a
remote pull worker yields a ``CaseResult`` byte-identical to the same
cell run in-process, however many workers raced for it and however
many times its lease bounced.  Everything tier-1 here runs 0.02x
cells; the multi-process kill-a-worker end-to-end test is ``tier2``.
"""

import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

import pytest

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

SCALE = 0.02


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
        still queued."""
        from pathlib import Path

        b = FsBroker(tmp_path)
        b.submit(tiny_jobs(schemes=("CCFIT", "1Q")), experiment="fig7a")
        other = FsBroker(tmp_path)
        stat, taken, busy = Path.stat, [], []

        def stat_after_a_claim(self, *args, **kwargs):
            if self.parent.name == "queue" and not busy:
                busy.append(True)
                taken.append(other.claim("other"))
            return stat(self, *args, **kwargs)

        monkeypatch.setattr(Path, "stat", stat_after_a_claim)
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
        record = json.loads(b._run_path(run.id).read_text())
        del record["log_offset"]
        b._run_path(run.id).write_text(json.dumps(record))
        assert b.run_manifest(run.id)["requeued"] == 21 and reads == [grown, 0]

    def test_cell_claimed_between_two_probes_is_not_unknown(self, tmp_path, tiny_job, monkeypatch):
        """``cell_state`` looks in ``active/`` and then in ``queue/``; a
        claim that renames the cell in between hides it from both."""
        b = FsBroker(tmp_path)
        run = b.submit([tiny_job], experiment="fig7a")
        queued = b._queued
        leases = []

        def claim_then_look(key):
            if not leases:  # active/ has been probed already: claim now
                leases.append(b.claim("racer"))
            return queued(key)

        monkeypatch.setattr(b, "_queued", claim_then_look)
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
        b = FsBroker(tmp_path)
        run = b.submit([tiny_job], experiment="fig7a")
        # corrupt the queued spec in place (atomic, like a version skew)
        path = tmp_path / "queue" / f"{tiny_job.key()}.json"
        rec = json.loads(path.read_text())
        rec["spec"] = {"schema": 999}
        path.write_text(json.dumps(rec))
        summary = Worker(b, worker_id="w1", max_cells=1).run()
        assert summary["failed"] == 1
        manifest = b.run_manifest(run.id)
        assert "undecodable job spec" in manifest["failures"][0]["message"]

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
        ({"extra": {"num_trees": 4}, "experiment": "fig7a"}, "unknown knob"),
        ({"time_scale": 0}, "time_scale"),
        ({"time_scale": float("nan")}, "time_scale"),
        ({"seed": -1}, "seed"),
        ({"schemes": ["CCFTI"]}, "did you mean CCFIT"),
        ({"routings": ["adaptve"]}, "did you mean adaptive"),
        ({"buffer_model": "sharde"}, "did you mean shared"),
        ({"faults": "kil:x@1ms"}, "bad faults spec"),
        ({"telemetry_interval": 50_000}, "telemetry is not on"),
    ])
    def test_a_cell_that_cannot_be_is_400_and_enqueues_nothing(self, srv, client, body, said):
        """Validated where the cell is constructed, as the CLI's are:
        not accepted now to fail in a worker after three attempts."""
        request = {"experiment": "fig8a", **body}
        with pytest.raises(ServiceError, match=f"400.*{said}"):
            client.submit(request.pop("experiment"), **request)
        assert client.runs() == []
        assert list((srv.broker.root / "queue").iterdir()) == []


# ----------------------------------------------------------------------
# waiting, not polling; connections that stay open
# ----------------------------------------------------------------------
def submit_tiny(client, seed=1):
    return client.submit("fig7a", schemes=["CCFIT"], time_scale=SCALE, seed=seed)


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
            client._request("/broker/heartbeat", {"key": "k", "worker": "w"})
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
