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
import subprocess
import sys
import threading
import time

import pytest

from repro.experiments import registry
from repro.experiments.sweep import (
    ResultCache,
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
from repro.service.api import ServiceError

SCALE = 0.02


def tiny_jobs(schemes=("CCFIT",), **kw):
    return registry.get("fig7a").jobs(schemes=schemes, time_scale=SCALE, seed=1, **kw)


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
        jobs = tiny_jobs(schemes=("CCFIT", "1Q", "4Q"))
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

    def test_cache_hit_never_enqueued(self, tmp_path, tiny_job, tiny_result):
        b = FsBroker(tmp_path)
        b.cache.put(tiny_job.key(), tiny_result, job=tiny_job)
        run = b.submit([tiny_job], experiment="fig7a")
        assert run.cached == [tiny_job.key()]
        assert b.counts()["queue"] == 0
        assert b.run_status(run.id)["done"]

    def test_lease_expires_and_requeues_exactly_once(self, tmp_path, tiny_job):
        b = FsBroker(tmp_path, lease_ttl=0.2)
        b.submit([tiny_job], experiment="fig7a")
        assert b.claim("dead") is not None
        time.sleep(0.3)
        assert b.reap() == (1, 0)
        assert b.reap() == (0, 0)  # exactly once
        lease = b.claim("alive")
        assert lease.attempt == 2

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
        opts = SweepOptions(time_scale=SCALE, jobs=1, cache_dir=str(tmp_path / "c"))
        report = run_sweep(jobs, options=opts)
        assert len(report.cell_elapsed) == len(jobs)
        assert all(e is not None and e > 0 for e in report.cell_elapsed)
        assert all(w and w.startswith("pid") for w in report.cell_workers)
        (row,) = report.manifest()["jobs"]
        assert row["elapsed_s"] == pytest.approx(report.cell_elapsed[0])
        assert row["worker"] == report.cell_workers[0]

    def test_cache_hit_attributed_to_cache(self, tmp_path):
        jobs = tiny_jobs()
        opts = SweepOptions(time_scale=SCALE, jobs=1, cache_dir=str(tmp_path / "c"))
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
class TestService:
    def test_http_submit_workers_byte_identical(self, tmp_path, tiny_job, tiny_result):
        """The acceptance path: submit over HTTP, two pull workers race,
        the fetched CaseResult is byte-identical to in-process."""
        with ServiceServer(tmp_path / "broker", port=0,
                           cache_dir=str(tmp_path / "cache")) as srv:
            client = ServiceClient(srv.url)
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
            for t in threads:
                t.join()
            assert status["done"]
            fetched = client.result(sub["keys"][0])["result"]
            assert result_bytes(fetched) == result_bytes(tiny_result.to_dict())
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
            assert result_bytes(fetched) == result_bytes(tiny_result.to_dict())

    def test_metrics_endpoint(self, tmp_path):
        with ServiceServer(tmp_path / "broker", port=0,
                           cache_dir=str(tmp_path / "cache")) as srv:
            text = ServiceClient(srv.url).metrics()
            assert "repro_service_uptime_seconds" in text
            assert 'repro_service_cells{state="queue"}' in text

    def test_unknown_experiment_is_400(self, tmp_path):
        with ServiceServer(tmp_path / "broker", port=0,
                           cache_dir=str(tmp_path / "cache")) as srv:
            with pytest.raises(ServiceError):
                ServiceClient(srv.url).submit("not-an-experiment")

    @pytest.mark.parametrize("field", ["routing", "kernel"])
    def test_unknown_field_is_400_naming_it(self, tmp_path, field):
        """A typo (``routing`` for ``routings``) or a removed knob
        (``kernel``) is rejected, never silently dropped to run the
        default grid."""
        with ServiceServer(tmp_path / "broker", port=0,
                           cache_dir=str(tmp_path / "cache")) as srv:
            client = ServiceClient(srv.url)
            with pytest.raises(ServiceError) as exc:
                client.submit("fig7a", schemes=["CCFIT"], **{field: "adaptive"})
            message = str(exc.value)
            assert "400" in message
            assert repr(field) in message and "routings" in message
            assert client.runs() == []  # nothing was enqueued


# ----------------------------------------------------------------------
# multi-process end-to-end (tier2)
# ----------------------------------------------------------------------
@pytest.mark.tier2
class TestServiceProcesses:
    def test_kill_worker_midrun_sweep_still_completes(self, tmp_path, tiny_result):
        """ISSUE acceptance: kill a real worker process mid-cell; the
        lease expires, the cell requeues, a second worker completes the
        sweep, and the result is still byte-identical."""
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
                                time_scale=SCALE, seed=1)
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
            assert result_bytes(fetched) == result_bytes(tiny_result.to_dict())
