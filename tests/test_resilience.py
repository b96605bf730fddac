"""Failure injection for the resilient sweep engine.

Crashing jobs, wedged jobs, corrupt cache entries and interrupted
sweeps must each degrade into a structured report — never an aborted
sweep or a silently wrong figure — and every surviving result must be
bit-identical to a clean serial run (docs/robustness.md).

Tests that bring up real worker processes are marked ``tier2``
(``pytest -m tier2``); everything else runs in-process.
"""

import dataclasses
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest

from repro.experiments.resilience import BACKOFF_MAX, RetryPolicy, execute_job
from repro.experiments.runner import CaseResult, run_case
from repro.experiments.sweep import ResultCache, SimJob, SweepOptions, run_sweep

from tests.test_sweep import assert_results_equal, canonical

SCALE = 0.02

# ---------------------------------------------------------------------------
# injected-failure jobs (module level so worker processes can unpickle them)
# ---------------------------------------------------------------------------
class FailJob(SimJob):
    """Raises inside the simulation — the `kind="error"` path."""

    def run(self) -> CaseResult:
        raise RuntimeError("injected failure")


class CrashJob(SimJob):
    """Kills its worker process outright — the `kind="crash"` path."""

    def run(self) -> CaseResult:
        os._exit(13)


class SlowJob(SimJob):
    """Wedges its worker — the `kind="timeout"` path."""

    def run(self) -> CaseResult:
        time.sleep(60)
        raise AssertionError("a SlowJob must be killed by the timeout")


@dataclasses.dataclass(frozen=True)
class FlakyJob(SimJob):
    """Fails the first ``fails`` attempts (counted in a marker file),
    then succeeds with the real simulation — the retry-recovery path."""

    marker: str = ""
    fails: int = 0

    def run(self) -> CaseResult:
        with open(self.marker, "a") as fh:
            fh.write("x")
        if os.path.getsize(self.marker) <= self.fails:
            raise RuntimeError("flaky attempt")
        return SimJob(
            case=self.case, scheme=self.scheme,
            time_scale=self.time_scale, seed=self.seed, params=self.params,
        ).run()


class ScratchProbeJob(SimJob):
    """Fails unless exactly one private broker directory carries the
    pid prefix of the process that runs it."""

    def run(self) -> CaseResult:
        from repro.experiments.sweep import _SCRATCH

        scratch = Path(_SCRATCH or tempfile.gettempdir())
        mine = list(scratch.glob(f"repro-sweep-{os.getpid()}-*"))
        if len(mine) != 1:
            raise AssertionError(f"private broker directories of pid {os.getpid()}: {mine}")
        return super().run()


def good_job(scheme="1Q"):
    return SimJob(case="case1", scheme=scheme, time_scale=SCALE)


@pytest.fixture(scope="module")
def small() -> CaseResult:
    return run_case("case1", scheme="1Q", time_scale=SCALE)


# ---------------------------------------------------------------------------
# retry policy
# ---------------------------------------------------------------------------
class TestRetryPolicy:
    def test_exponential_growth(self):
        p = RetryPolicy(backoff_base=0.25)
        assert p.delay(1) == pytest.approx(0.25)
        assert p.delay(2) == pytest.approx(0.5)
        assert p.delay(3) == pytest.approx(1.0)

    def test_cap(self):
        p = RetryPolicy(backoff_base=0.25)
        assert p.delay(50) == BACKOFF_MAX

    def test_jitter_is_deterministic_per_key(self):
        p = RetryPolicy(backoff_base=0.25)
        key = "f" * 64
        assert p.delay(1, key) == p.delay(1, key)
        assert p.delay(1, key) == pytest.approx(0.25 * 1.25)  # max jitter
        assert p.delay(1, "0" * 64) == pytest.approx(0.25)    # zero jitter
        assert p.delay(1) == pytest.approx(0.25)              # no key

    def test_options_build_policy(self):
        p = SweepOptions(max_retries=5).retry_policy()
        assert p == RetryPolicy(max_retries=5) and p.backoff_base == 0.25


# ---------------------------------------------------------------------------
# structured worker records
# ---------------------------------------------------------------------------
class TestExecuteJob:
    def test_ok_record(self, small):
        job = good_job()
        rec = execute_job(job, job.key())
        assert rec["ok"] is True and rec["key"] == job.key()
        assert_results_equal(CaseResult.from_dict(rec["result"]), small)

    def test_error_record(self):
        job = FailJob(case="case1", scheme="1Q")
        rec = execute_job(job, job.key())
        assert rec["ok"] is False
        err = rec["error"]
        assert err["exception"] == "RuntimeError"
        assert err["message"] == "injected failure"
        assert "RuntimeError: injected failure" in err["traceback"]


# ---------------------------------------------------------------------------
# serial failure handling
# ---------------------------------------------------------------------------
class TestSerialFailures:
    def test_failed_cell_does_not_abort_the_sweep(self, small):
        jobs = [FailJob(case="case1", scheme="CCFIT", time_scale=SCALE), good_job()]
        report = run_sweep(jobs, options=SweepOptions(max_retries=1))
        assert report.failed == 1 and report.ok == 1
        assert report.results[0] is None
        assert_results_equal(report.results[1], small)
        assert "1Q" in report.by_scheme() and "CCFIT" not in report.by_scheme()
        f = report.failures[0]
        assert f.kind == "error" and f.exception == "RuntimeError"
        assert f.attempts == 2 and f.label == "case1/CCFIT"
        assert report.retried == 1
        assert "1 FAILED" in report.summary() and "1 retried" in report.summary()

    def test_retry_recovers_a_flaky_cell(self, tmp_path, small):
        marker = str(tmp_path / "attempts")
        job = FlakyJob(case="case1", scheme="1Q", time_scale=SCALE,
                       marker=marker, fails=2)
        report = run_sweep([job], options=SweepOptions(max_retries=2))
        assert report.failed == 0 and report.retried == 2
        assert os.path.getsize(marker) == 3  # 2 failures + 1 success
        assert_results_equal(report.results[0], small)

    def test_zero_retries(self):
        report = run_sweep(
            [FailJob(case="case1", scheme="1Q")],
            options=SweepOptions(max_retries=0),
        )
        assert report.failed == 1 and report.retried == 0
        assert report.failures[0].attempts == 1

    def test_manifest_structure(self, tmp_path):
        jobs = [FailJob(case="case1", scheme="CCFIT", time_scale=SCALE), good_job()]
        report = run_sweep(jobs, options=SweepOptions(max_retries=0))
        m = report.manifest()
        assert m["schema"] == 1 and m["cells"] == 2
        assert m["ok"] == 1 and m["failed"] == 1
        statuses = {c["label"]: c["status"] for c in m["jobs"]}
        assert statuses == {"case1/CCFIT": "failed", "case1/1Q": "ok"}
        assert m["failures"][0]["exception"] == "RuntimeError"
        out = tmp_path / "deep" / "manifest.json"
        report.write_manifest(out)
        assert json.loads(out.read_text())["failed"] == 1

    def test_the_manifest_keys_are_the_sweeps(self, monkeypatch):
        """The manifest reads the keys the sweep derived, once per job,
        and they are each job's key."""
        jobs = [good_job("CCFIT"), good_job()]
        report = run_sweep(jobs, options=SweepOptions())
        monkeypatch.setattr(SimJob, "key", lambda self: pytest.fail("a key derived again"))
        keys = [cell["key"] for cell in report.manifest()["jobs"]]
        monkeypatch.undo()
        assert keys == report.keys == [job.key() for job in jobs]

    def test_the_private_broker_is_named_by_its_pid(self):
        """Whoever cleans up after a killed sweep removes only what
        that sweep's pid names, never a live sweep's broker."""
        job = ScratchProbeJob(case="case1", scheme="1Q", time_scale=SCALE)
        report = run_sweep([job], options=SweepOptions(max_retries=0))
        assert not report.failures, report.failures[0].message


# ---------------------------------------------------------------------------
# cache integrity
# ---------------------------------------------------------------------------
def write_schema2(cache, key, result, job) -> None:
    """An entry as the cache wrote it before schema 3: one JSON
    document, the digest over the canonical result.  Nothing in
    ``src/`` writes this any more; the reader must go on reading it
    (``tests/golden/cache_v2/`` holds two that the old writer made)."""
    result_dict = result.to_dict()
    cache.path(key).write_text(json.dumps({
        "schema": 2,
        "sha256": hashlib.sha256(canonical(result_dict)).hexdigest(),
        "result": result_dict,
        "job": job.payload(),
    }))


class TestCacheIntegrity:
    #: the layout of the entry each case corrupts: 3 is what the cache
    #: writes, 2 what it still reads (the subclass below).
    schema = 3

    def put_one(self, tmp_path, small):
        cache = ResultCache(tmp_path)
        key = good_job().key()
        if self.schema == 3:
            cache.put(key, small, job=good_job())
        else:
            write_schema2(cache, key, small, good_job())
        return cache, key

    def test_entry_has_the_layout_under_test(self, tmp_path, small):
        cache, key = self.put_one(tmp_path, small)
        lines = cache.path(key).read_bytes().splitlines()
        assert json.loads(lines[0])["schema"] == self.schema
        assert len(lines) == (3 if self.schema == 3 else 1)
        assert_results_equal(cache.get(key), small)
        assert cache.discarded == 0

    def test_digest_mismatch_is_quarantined(self, tmp_path, small):
        cache, key = self.put_one(tmp_path, small)
        raw = cache.path(key).read_bytes()
        flipped = raw.replace(b"1Q", b"2Q", 1)  # the first one is the result's scheme
        assert flipped != raw and flipped.count(b"1Q") == raw.count(b"1Q") - 1
        cache.path(key).write_bytes(flipped)
        with pytest.warns(RuntimeWarning, match="digest mismatch"):
            assert cache.get(key) is None
        assert cache.discarded == 1
        assert (cache.quarantine_dir / f"{key}.json").exists()
        assert not cache.path(key).exists()
        # intact bytes under another entry's digest
        mine = hashlib.sha256(canonical(small.to_dict())).hexdigest().encode()
        other = hashlib.sha256(canonical({**small.to_dict(), "scheme": "2Q"})).hexdigest().encode()
        assert raw.count(mine) == 1
        cache.path(key).write_bytes(raw.replace(mine, other))
        with pytest.warns(RuntimeWarning, match="digest mismatch"):
            assert cache.get(key) is None
        assert cache.discarded == 2

    def test_truncated_entry_is_quarantined(self, tmp_path, small):
        cache, key = self.put_one(tmp_path, small)
        raw = cache.path(key).read_bytes()
        # schema 3: cut after line 1; before it: cut inside the one line
        cut = raw.index(b"\n") + 1 if self.schema == 3 else len(raw) // 2
        cache.path(key).write_bytes(raw[:cut])
        with pytest.warns(RuntimeWarning, match="digest mismatch|invalid JSON"):
            assert cache.get(key) is None
        assert cache.discarded == 1
        assert [name for name, _size, _mtime in cache.quarantined()] == [f"{key}.json"]

    def test_wrong_schema_is_quarantined(self, tmp_path, small):
        cache, key = self.put_one(tmp_path, small)
        cache.path(key).write_text(json.dumps({"something": "else"}))
        with pytest.warns(RuntimeWarning, match="unrecognized entry schema"):
            assert cache.get(key) is None

    def test_entry_without_digest_is_discarded(self, tmp_path, small):
        """Schema 1 carried no digest: nothing says its result is the
        one that was written, so it is a loud miss like any other entry
        that does not verify."""
        cache = ResultCache(tmp_path)
        key = "ab" * 32
        cache.path(key).write_text(json.dumps({"result": small.to_dict()}))
        with pytest.warns(RuntimeWarning, match="content digest mismatch"):
            assert cache.get(key) is None
        assert cache.discarded == 1

    def test_writes_are_atomic(self, tmp_path, small):
        cache, key = self.put_one(tmp_path, small)
        # no temp droppings survive a successful put
        assert [p.name for p in tmp_path.iterdir()] == [f"{key}.json"]

    def test_sweep_recomputes_a_corrupted_cell(self, tmp_path, small):
        opts = SweepOptions(cache_dir=str(tmp_path))
        cache, key = self.put_one(tmp_path, small)
        report = run_sweep([good_job()], options=opts)
        assert (report.hits, report.misses, report.cache_discarded) == (1, 0, 0)
        raw = cache.path(key).read_bytes()
        cache.path(key).write_bytes(b"{torn write" + raw[11:])  # line 1 is not JSON
        with pytest.warns(RuntimeWarning, match="discarded"):
            report = run_sweep([good_job()], options=opts)
        assert (report.hits, report.misses) == (0, 1)
        assert report.cache_discarded == 1
        assert_results_equal(report.results[0], small)
        # the recomputed entry is valid again, in the layout the cache writes
        assert_results_equal(ResultCache(tmp_path).get(key), small)
        assert cache.path(key).read_bytes().startswith(b'{"schema":3,')


class TestCacheIntegritySchema2(TestCacheIntegrity):
    """The same corruption cases over entries of the layout before."""

    schema = 2


class TestCacheWrites:
    def test_concurrent_puts_of_one_key_leave_one_entry(self, tmp_path, small):
        """Eight threads completing one key (a late duplicate completion
        under the threading HTTP server): with the temp file named by
        pid alone they wrote through one file, and a rename could
        publish what another thread had just truncated."""
        cache = ResultCache(tmp_path)
        result = small.to_dict()
        errors = []
        gate = threading.Barrier(8)

        def put():
            gate.wait(timeout=10)
            try:
                for _ in range(25):
                    cache.put_dict("k", result)
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=put) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert [p.name for p in tmp_path.iterdir()] == ["k.json"]
        assert cache.get_dict("k") == result and cache.discarded == 0
        assert cache.temp_files() == []


# ---------------------------------------------------------------------------
# one cell, named twice
# ---------------------------------------------------------------------------
class TestDuplicateCells:
    def test_a_cell_named_twice_is_simulated_once(self, tmp_path, small):
        """Both slots were pending and both ran: every cache probe came
        before any put.  Each distinct cell is now submitted once."""
        marker = str(tmp_path / "runs")
        job = FlakyJob(case="case1", scheme="1Q", time_scale=SCALE, marker=marker)
        report = run_sweep([job, good_job("FBICM"), job])
        assert os.path.getsize(marker) == 1
        assert (report.misses, report.failed) == (2, 0)
        assert_results_equal(report.results[0], small)
        assert_results_equal(report.results[2], report.results[0])


# ---------------------------------------------------------------------------
# real worker pools (tier2)
# ---------------------------------------------------------------------------
@pytest.mark.tier2
class TestPoolFailures:
    def test_worker_crash_is_quarantined_not_fatal(self, small):
        """A job that kills its worker must not take down the sweep: the
        poisoned cell is retried in isolation and reported; innocent
        cells complete with bit-identical results."""
        jobs = [
            CrashJob(case="case1", scheme="CCFIT", time_scale=SCALE),
            good_job("1Q"),
            good_job("FBICM"),
        ]
        report = run_sweep(jobs, options=SweepOptions(jobs=2, max_retries=0))
        assert report.failed == 1
        f = report.failures[0]
        assert f.kind == "crash" and f.exception == "WorkerCrash"
        assert report.results[0] is None
        clean = run_sweep([jobs[1], jobs[2]])
        assert_results_equal(report.results[1], clean.results[0])
        assert_results_equal(report.results[2], clean.results[1])

    def test_timeout_kills_a_wedged_job(self):
        report = run_sweep(
            [SlowJob(case="case1", scheme="1Q")],
            options=SweepOptions(timeout=0.75, max_retries=0),
        )
        assert report.failed == 1
        f = report.failures[0]
        assert f.kind == "timeout" and f.exception == "JobTimeout"
        assert "0.8 s" in f.message or "0.7 s" in f.message

    def test_parallel_timeout_with_survivors(self, small):
        jobs = [
            SlowJob(case="case1", scheme="CCFIT", time_scale=SCALE),
            good_job("1Q"),
            good_job("FBICM"),
        ]
        report = run_sweep(
            jobs, options=SweepOptions(jobs=2, timeout=1.5, max_retries=0)
        )
        assert report.failed == 1 and report.failures[0].kind == "timeout"
        assert report.results[0] is None
        assert report.results[1] is not None and report.results[2] is not None
        assert_results_equal(report.results[1], small)

    def test_injected_failures_report_exactly(self, tmp_path):
        """The acceptance scenario: crash + timeout + corrupted cache
        entry in one sweep — exactly the injected failures appear, and
        the survivors are bit-identical to a clean serial run."""
        jobs = [
            CrashJob(case="case1", scheme="CCFIT", time_scale=SCALE),
            SlowJob(case="case1", scheme="ITh", time_scale=SCALE),
            good_job("1Q"),
            good_job("FBICM"),
        ]
        opts = SweepOptions(cache_dir=str(tmp_path), jobs=2,
                            timeout=1.5, max_retries=0)
        # pre-corrupt the cache entry for the first good job
        run_sweep([jobs[2]], options=SweepOptions(cache_dir=str(tmp_path)))
        ResultCache(tmp_path).path(jobs[2].key()).write_text("{torn")
        with pytest.warns(RuntimeWarning, match="discarded"):
            report = run_sweep(jobs, options=opts)
        assert report.cache_discarded == 1 and report.hits == 0
        assert {f.kind for f in report.failures} == {"crash", "timeout"}
        assert {f.label for f in report.failures} == {"case1/CCFIT", "case1/ITh"}
        clean = run_sweep([jobs[2], jobs[3]])
        assert_results_equal(report.results[2], clean.results[0])
        assert_results_equal(report.results[3], clean.results[1])
        m = report.manifest()
        assert m["failed"] == 2 and m["ok"] == 2


@pytest.mark.tier2
class TestKillAndRerun:
    #: paper scale: a fig7a cell runs for about half a second, so a kill
    #: right after the first cell lands well before the last one
    KILL_SCALE = 1.0

    def test_a_killed_sweep_run_again_simulates_only_the_rest(self, tmp_path):
        """The cache is the journal.  ``repro sweep fig7a --jobs 2`` is
        killed (its workers with it) once a first cell is complete; run
        again with its ``--cache-dir``, the finished cells are hits, the
        rest simulate, and every result is the bytes of a clean run."""
        from repro.experiments.sweep import _SCRATCH

        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
        argv = [sys.executable, "-m", "repro", "--scale", str(self.KILL_SCALE),
                "sweep", "fig7a", "--jobs", "2", "--cache-dir"]
        cache, clean = tmp_path / "cache", tmp_path / "clean"
        scratch = Path(_SCRATCH or tempfile.gettempdir())
        victim = subprocess.Popen(argv + [str(cache)], env=env, start_new_session=True,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        deadline = time.monotonic() + 120
        while not list(cache.glob("*.json")) and time.monotonic() < deadline:
            assert victim.poll() is None, "the sweep ended before it could be killed"
            time.sleep(0.01)
        os.killpg(victim.pid, signal.SIGKILL)
        victim.wait()
        # no one was left to clean up; other sweeps' directories are theirs
        for left in scratch.glob(f"repro-sweep-{victim.pid}-*"):
            shutil.rmtree(left, ignore_errors=True)
        finished = len(list(cache.glob("*.json")))
        assert 1 <= finished < 4

        rerun = subprocess.run(argv + [str(cache)], env=env, capture_output=True, text=True,
                               timeout=600)
        assert rerun.returncode == 0, rerun.stderr[-2000:]
        assert f"{finished} cache hit(s), {4 - finished} simulated" in rerun.stdout
        fresh = subprocess.run(argv + [str(clean)], env=env, capture_output=True, text=True,
                               timeout=600)
        assert fresh.returncode == 0, fresh.stderr[-2000:]
        figure = lambda out: [line for line in out.splitlines() if not line.startswith("sweep:")]
        assert len(figure(rerun.stdout)) > 2 and figure(rerun.stdout) == figure(fresh.stdout)
        entries = sorted(p.name for p in clean.glob("*.json"))
        assert len(entries) == 4 and sorted(p.name for p in cache.glob("*.json")) == entries
        for name in entries:
            assert (cache / name).read_bytes() == (clean / name).read_bytes()
