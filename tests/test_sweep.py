"""Sweep engine: serialization, cache hit/miss, determinism, compat.

Everything here runs tiny 0.02x cells so the tier-1 suite stays fast;
the tests that bring up real worker pools are marked ``tier2`` (run
them with ``pytest -m tier2``).
"""

import dataclasses
import hashlib
import json
import os
import pickle
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.params import CCParams
from repro.experiments.report import render_fault_matrix, render_pfc_matrix
from repro.experiments import registry
from repro.experiments.runner import CaseResult, run_case
from repro.experiments.sweep import (
    ResultCache,
    SimJob,
    SweepOptions,
    run_sweep,
)
from repro.sim.faults import FaultPlan
from repro.telemetry import TelemetryConfig, write_bundle

SCALE = 0.02

#: two entries as the cache wrote them before schema 3 (made by the
#: writer of commit 8b5b826, named by their keys), and the cells they
#: hold.  A deliberate move of the keys renames the files.
CACHE_V2 = Path(__file__).parent / "golden" / "cache_v2"
CACHE_V2_JOBS = [
    SimJob(case="case1", scheme="CCFIT", time_scale=SCALE),
    SimJob(case="case1", scheme="CCFIT", time_scale=SCALE,
           telemetry=TelemetryConfig(interval=50_000.0)),
]


@pytest.fixture(scope="module")
def small() -> CaseResult:
    return run_case("case1", scheme="1Q", time_scale=SCALE)


def canonical(obj) -> bytes:
    """Sorted keys, no whitespace: the bytes keys and digests hash."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def assert_results_equal(a: CaseResult, b: CaseResult) -> None:
    assert a.scheme == b.scheme
    assert a.duration == b.duration
    assert a.window == b.window
    assert np.array_equal(a.throughput[0], b.throughput[0])
    assert np.array_equal(a.throughput[1], b.throughput[1])
    assert set(a.flow_series) == set(b.flow_series)
    for name in a.flow_series:
        assert np.array_equal(a.flow_series[name][0], b.flow_series[name][0])
        assert np.array_equal(a.flow_series[name][1], b.flow_series[name][1])
    assert a.flow_bandwidth == b.flow_bandwidth
    assert a.stats == b.stats


class TestCaseResultSerialization:
    def test_dict_roundtrip_is_lossless(self, small):
        assert_results_equal(CaseResult.from_dict(small.to_dict()), small)

    def test_json_roundtrip_is_lossless(self, small):
        """The cache stores JSON text; repr-based float encoding must
        reproduce every array bit-for-bit."""
        revived = CaseResult.from_dict(json.loads(json.dumps(small.to_dict())))
        assert_results_equal(revived, small)

    def test_arrays_revive_as_ndarrays(self, small):
        revived = CaseResult.from_dict(small.to_dict())
        assert isinstance(revived.throughput[0], np.ndarray)
        assert revived.throughput[0].dtype == np.float64
        name = next(iter(revived.flow_series))
        assert isinstance(revived.flow_series[name][1], np.ndarray)

    def test_window_revives_as_tuple(self, small):
        revived = CaseResult.from_dict(small.to_dict())
        assert revived.window == small.window
        assert isinstance(revived.window, tuple)
        # tail-window aggregation works identically on the revived copy
        assert revived.mean_throughput() == small.mean_throughput()


class TestSimJob:
    def test_key_is_stable(self):
        a = SimJob(case="case1", scheme="1Q", time_scale=0.1, seed=3)
        b = SimJob(case="case1", scheme="1Q", time_scale=0.1, seed=3)
        assert a.key() == b.key()
        assert len(a.key()) == 64

    @pytest.mark.parametrize(
        "kw",
        [
            {"scheme": "CCFIT"},
            {"seed": 4},
            {"time_scale": 0.2},
            {"case": "case2"},
            {"params": CCParams(num_cfqs=4)},
            {"extra": (("num_trees", 6),)},
        ],
    )
    def test_key_covers_every_field(self, kw):
        # a knob is declared where its case takes it: Case #4 for num_trees
        case = "case4" if "extra" in kw else "case1"
        base = dict(case=case, scheme="1Q", time_scale=0.1, seed=3)
        varied = {**base, **kw}
        assert SimJob(**base).key() != SimJob(**varied).key()

    def test_default_params_key_explicit(self):
        """params=None hashes like explicit defaults — a cell's output
        is identical either way, so the cache must unify them."""
        assert (
            SimJob(case="case1", scheme="1Q").key()
            == SimJob(case="case1", scheme="1Q", params=CCParams()).key()
        )

    def test_unknown_case_rejected(self):
        with pytest.raises(KeyError):
            SimJob(case="case9", scheme="1Q")

    @pytest.mark.parametrize(
        "kw, key",
        [
            (
                dict(case="case1", scheme="CCFIT", time_scale=0.25),
                "11eb434a25c6d3c1f58df1b47681605bd8b563549b0489907846542105e2e378",
            ),
            (
                dict(case="case4", scheme="PFC+RCM", time_scale=0.025,
                     extra=(("num_trees", 4),), buffer_model="shared"),
                "0f9814208a3255233d38130f7f5decc0036b89e5f0b5869f13e45f9165af1264",
            ),
            (
                dict(case="case4", scheme="CCFIT", time_scale=0.025,
                     extra=(("num_trees", 1),), routing="adaptive",
                     faults=FaultPlan.parse("down:s0p4->s16p0@1.2ms;up:s0p4->s16p0@1.5ms")),
                "16d1ef1004c180bf984159f8cb203408f9c881309b05916a9f96646fa44b0607",
            ),
        ],
        ids=["static-ccfit", "shared-pfc-rcm", "faulted-adaptive"],
    )
    def test_key_is_pinned(self, kw, key):
        """Golden cache keys (the benchmark's three cell shapes, seed 1).
        A refactor of the job/spec layer must not move them: every
        populated cache and queued spec is addressed by these bytes.  A
        deliberate move (a ``repro.__version__`` bump, a new preimage
        field) updates the constants in the same change."""
        assert SimJob(seed=1, **kw).key() == key

    def test_benchmark_grid_keys_are_pinned(self):
        """The other 312 cells of ``benchmarks/e2e/golden.json`` -- the
        scheme grid at seeds 1-19 and the CCFIT round-trip cells -- in
        one digest, recorded at 8b5b826 (before the preimage stopped
        going through ``dataclasses.asdict``)."""
        case1 = registry.get("case1")
        jobs = [j for seed in range(1, 20) for j in case1.jobs(time_scale=0.02, seed=seed)]
        jobs += [j for seed in range(1001, 1123)
                 for j in case1.jobs(schemes=("CCFIT",), time_scale=0.02, seed=seed)]
        assert len(jobs) == 312
        digest = hashlib.sha256("\n".join(j.key() for j in jobs).encode()).hexdigest()
        assert digest == "61e04cf74f1fb2cf438acba35055fe1e8366ee395c585e5eb21b5e80edc04d2e"

    def test_params_preimage_equals_asdict(self):
        """The flat walk is ``asdict`` for as long as ``CCParams`` is
        scalars and flat lists; a nested field must fail here, not move
        keys silently."""
        from repro.experiments.sweep import _params_dict

        params = CCParams(num_cfqs=4)
        flat = _params_dict(params)
        assert flat == dataclasses.asdict(params)
        assert json.dumps(flat) == json.dumps(dataclasses.asdict(params))  # and in its order
        assert flat["cct"] is not params.cct
        for value in flat.values():
            assert isinstance(value, (bool, int, float, str)) or (
                isinstance(value, list) and all(isinstance(v, (int, float)) for v in value)
            )

    def test_key_follows_its_inputs(self):
        """``key()`` derives on every call.  ``CCParams`` is mutable: a
        key kept across a mutation would serve the old parameters'
        results.  Copies and pickles hash to the same key."""
        params = CCParams()
        job = SimJob(case="case1", scheme="CCFIT", params=params)
        before = job.key()
        assert before == SimJob(case="case1", scheme="CCFIT").key()
        assert before == hashlib.sha256(job.preimage()).hexdigest()
        assert job.preimage() == canonical(job.payload())
        assert pickle.loads(pickle.dumps(job)).key() == before
        assert dataclasses.replace(job, seed=4).key() != before
        params.num_cfqs = 4
        assert job.key() != before
        assert job.key() == SimJob(case="case1", scheme="CCFIT", params=CCParams(num_cfqs=4)).key()

    def test_run_matches_direct_call(self, small):
        res = SimJob(case="case1", scheme="1Q", time_scale=SCALE).run()
        assert_results_equal(res, small)


class TestResultCache:
    def test_miss_returns_none(self, tmp_path):
        assert ResultCache(tmp_path).get("0" * 64) is None

    def test_put_get_roundtrip(self, tmp_path, small):
        cache = ResultCache(tmp_path)
        job = SimJob(case="case1", scheme="1Q", time_scale=SCALE)
        cache.put(job.key(), small, job=job)
        assert len(cache) == 1
        assert_results_equal(cache.get(job.key()), small)

    def test_corrupt_entry_is_a_miss(self, tmp_path, small):
        cache = ResultCache(tmp_path)
        cache.put("deadbeef", small)
        cache.path("deadbeef").write_text("{not json")
        with pytest.warns(RuntimeWarning, match="discarded"):
            assert cache.get("deadbeef") is None

    def test_clear(self, tmp_path, small):
        cache = ResultCache(tmp_path)
        cache.put("aa", small)
        cache.put("bb", small)
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_entry_is_three_lines_hashed_as_bytes(self, tmp_path, small):
        cache = ResultCache(tmp_path)
        job = SimJob(case="case1", scheme="1Q", time_scale=SCALE)
        cache.put(job.key(), small, job=job)
        envelope, result, preimage = cache.path(job.key()).read_bytes().splitlines()
        assert result == canonical(small.to_dict())
        assert json.loads(envelope) == {"schema": 3, "sha256": hashlib.sha256(result).hexdigest()}
        assert preimage == job.preimage() and hashlib.sha256(preimage).hexdigest() == job.key()
        assert cache.get_bytes(job.key()) == result
        assert cache.get_dict(job.key()) == small.to_dict()
        # without a job there is no third line
        cache.put_dict("cc", small.to_dict())
        assert cache.path("cc").read_bytes().splitlines() == [envelope, result]

    def test_schema2_entries_read_back_identically(self, tmp_path):
        """An existing cache survives the upgrade: the committed
        schema-2 entries are found under today's keys, hydrate to what
        the cells compute today, and store again under the digest they
        already carried."""
        old = ResultCache(shutil.copytree(CACHE_V2, tmp_path / "v2"))
        new = ResultCache(tmp_path / "v3")
        assert sorted(k for k, _s, _m in old.entries()) == sorted(j.key() for j in CACHE_V2_JOBS)
        for job in CACHE_V2_JOBS:
            key = job.key()
            stored = json.loads(old.path(key).read_text())
            assert stored["schema"] == 2 and stored["job"] == job.payload()
            direct = job.run()
            assert (direct.telemetry is not None) == (job.telemetry is not None)
            assert old.get_dict(key) == stored["result"] == direct.to_dict()
            assert old.get_bytes(key) == canonical(direct.to_dict())
            assert_results_equal(old.get(key), direct)
            new.put(key, old.get(key), job=job)
            assert json.loads(new.path(key).read_bytes().splitlines()[0]) == {
                "schema": 3, "sha256": stored["sha256"]}
            assert new.get_bytes(key) == old.get_bytes(key)
            assert new.get(key).to_dict() == old.get(key).to_dict()
        report = run_sweep(CACHE_V2_JOBS, options=SweepOptions(cache_dir=str(old.root)))
        assert (report.hits, report.misses, report.cache_discarded) == (2, 0, 0)
        assert old.stats()["quarantined"] == 0 and old.stats()["temp_files"] == 0

    def test_orphaned_temp_files_are_seen_and_swept(self, tmp_path, small):
        """A writer that died between write and rename leaves
        ``<key>.tmp.<pid>...`` behind; ``*.json`` listings hid it and
        nothing ever removed it."""
        cache = ResultCache(tmp_path)
        cache.put("aa", small)
        orphan, in_flight = tmp_path / "bb.tmp.4242", tmp_path / "cc.tmp.4242.0a1b2c3d"
        orphan.write_bytes(b"x" * 10)
        in_flight.write_bytes(b"y" * 10)
        past = time.time() - 3600
        os.utime(orphan, (past, past))
        assert [name for name, _size, _mtime in cache.temp_files()] == [orphan.name, in_flight.name]
        assert cache.stats()["temp_files"] == 2 and cache.stats()["entries"] == 1
        summary = cache.prune()
        assert (summary["removed"], summary["temp_removed"], summary["freed_bytes"]) == (0, 1, 10)
        assert not orphan.exists() and in_flight.exists()  # a young one may be a write in flight
        os.utime(in_flight, (past, past))
        assert cache.clear() == 2
        assert list(tmp_path.iterdir()) == []


class TestRunSweep:
    def jobs(self, schemes=("1Q",)):
        return [SimJob(case="case1", scheme=s, time_scale=SCALE) for s in schemes]

    def test_serial_no_cache(self, small):
        report = run_sweep(self.jobs())
        assert report.hits == 0 and report.misses == 1
        assert_results_equal(report.results[0], small)
        assert report.by_scheme()["1Q"].scheme == "1Q"

    def test_cache_miss_then_hit(self, tmp_path, small):
        opts = SweepOptions(cache_dir=str(tmp_path))
        first = run_sweep(self.jobs(), options=opts)
        assert (first.hits, first.misses) == (0, 1)
        second = run_sweep(self.jobs(), options=opts)
        assert (second.hits, second.misses) == (1, 0)
        assert_results_equal(second.results[0], small)

    def test_warm_pass_serialises_no_result(self, tmp_path, monkeypatch):
        """A hit is one key, one file read and one hash of bytes: the
        payload is built once per job, and no result is serialised
        again to be verified."""
        jobs = self.jobs(("1Q", "FBICM", "CCFIT"))
        opts = SweepOptions(cache_dir=str(tmp_path))
        payloads, dumped = [], []
        payload, dumps = SimJob.payload, json.dumps
        monkeypatch.setattr(SimJob, "payload", lambda self: payloads.append(self) or payload(self))
        monkeypatch.setattr(json, "dumps", lambda obj, **kw: dumped.append(obj) or dumps(obj, **kw))
        cold = run_sweep(jobs, options=opts)
        assert (cold.hits, cold.misses) == (0, 3)
        # cold: each result is serialised once, by the entry writer
        assert sum("throughput" in obj for obj in dumped) == 3
        del payloads[:], dumped[:]
        warm = run_sweep(jobs, options=opts)
        assert (warm.hits, warm.misses, warm.cache_discarded) == (3, 0, 0)
        assert payloads == jobs and len(dumped) == 3  # the three preimages
        assert not any("throughput" in obj for obj in dumped)
        for a, b in zip(cold.results, warm.results):
            assert_results_equal(a, b)

    def test_warm_sweep_creates_no_directory(self, tmp_path, monkeypatch):
        """A hit never touches a broker: only misses make the private
        broker's directory, and the sweep removes it when it is done."""
        opts = SweepOptions(cache_dir=str(tmp_path / "cache"))
        made, mkdir = [], os.mkdir

        def recording_mkdir(path, *args, **kwargs):
            mkdir(path, *args, **kwargs)
            made.append(Path(path))

        monkeypatch.setattr(os, "mkdir", recording_mkdir)
        cold = run_sweep(self.jobs(("1Q", "FBICM")), options=opts)
        assert cold.misses == 2 and made
        assert [p for p in made if p.exists()] == [tmp_path / "cache"]
        del made[:]
        warm = run_sweep(self.jobs(("1Q", "FBICM")), options=opts)
        assert warm.hits == 2 and made == []

    def test_cache_hit_renders_like_a_fresh_cell(self, tmp_path):
        """A hit comes back with its dicts in the stored (sorted) order,
        a fresh cell in the order it filled them; what is exported or
        tabulated from either must be the same bytes."""
        job = CACHE_V2_JOBS[1]
        opts = SweepOptions(cache_dir=str(tmp_path / "cache"))
        (fresh,) = run_sweep([job], options=opts).results
        warm = run_sweep([job], options=opts)
        (hit,) = warm.results
        assert warm.hits == 1
        assert list(hit.telemetry["links"]) != list(fresh.telemetry["links"])  # the premise
        assert list(hit.stats) != list(fresh.stats)
        for name, res in (("fresh", fresh), ("hit", hit)):
            write_bundle(res.telemetry, tmp_path / name, fmt="all")
        for name in ("telemetry.jsonl", "metrics.prom", "dashboard.html"):
            assert (tmp_path / "hit" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
        # the tables average the flows, and float sums depend on order
        hit.flow_bandwidth = dict(reversed(list(fresh.flow_bandwidth.items())))
        for render in (render_fault_matrix, render_pfc_matrix):
            assert render({"CCFIT": hit}) == render({"CCFIT": fresh})

    def test_use_cache_false_bypasses_dir(self, tmp_path):
        opts = SweepOptions(cache_dir=str(tmp_path), use_cache=False)
        run_sweep(self.jobs(), options=opts)
        report = run_sweep(self.jobs(), options=opts)
        assert report.hits == 0 and len(ResultCache(tmp_path)) == 0

    def test_partial_hits(self, tmp_path):
        opts = SweepOptions(cache_dir=str(tmp_path))
        run_sweep(self.jobs(("1Q",)), options=opts)
        report = run_sweep(self.jobs(("1Q", "FBICM")), options=opts)
        assert (report.hits, report.misses) == (1, 1)
        assert {r.scheme for r in report.results} == {"1Q", "FBICM"}

    def test_seed_changes_miss(self, tmp_path):
        opts = SweepOptions(cache_dir=str(tmp_path))
        run_sweep(self.jobs(), options=opts)
        report = run_sweep(
            [SimJob(case="case1", scheme="1Q", time_scale=SCALE, seed=2)], options=opts
        )
        assert report.hits == 0


@pytest.mark.tier2
class TestParallelDeterminism:
    """`--jobs 2` must be bit-for-bit identical to the serial path."""

    def test_parallel_equals_serial(self):
        jobs = [SimJob(case="case1", scheme=s, time_scale=SCALE) for s in ("1Q", "FBICM")]
        serial = run_sweep(jobs, options=SweepOptions(jobs=1))
        parallel = run_sweep(jobs, options=SweepOptions(jobs=2))
        assert parallel.misses == 2
        for a, b in zip(serial.results, parallel.results):
            assert_results_equal(a, b)

    def test_parallel_fills_cache_identically(self, tmp_path):
        jobs = [SimJob(case="case1", scheme="1Q", time_scale=SCALE, seed=s) for s in (1, 2)]
        parallel = run_sweep(jobs, options=SweepOptions(jobs=2, cache_dir=str(tmp_path)))
        cached = run_sweep(jobs, options=SweepOptions(jobs=1, cache_dir=str(tmp_path)))
        assert cached.hits == 2
        for a, b in zip(parallel.results, cached.results):
            assert_results_equal(a, b)

    def test_cli_sweep_parallel_then_cached(self, tmp_path, capsys):
        """The acceptance path: `repro sweep fig9 --jobs 2` twice — the
        second run is served entirely from the cache."""
        from repro.cli import main

        argv = ["--scale", str(SCALE), "sweep", "fig9", "--jobs", "2",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "0 cache hit(s)" in first and "4 simulated" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "4 cache hit(s)" in second and "0 simulated" in second
        # identical per-flow bandwidth tables either way
        tbl = lambda out: [l for l in out.splitlines() if " | " in l]
        assert tbl(first) and tbl(first) == tbl(second)


class TestBackwardsCompatibleSignatures:
    """A cell is keywords: the positional shims (``run_case1("1Q",
    0.3, 7)``, ``run_fig9(("1Q",), 0.3)``) went with the compatibility
    layer."""

    def test_run_case1_keyword_only_canonical(self, small):
        assert_results_equal(run_case("case1", scheme="1Q", time_scale=SCALE), small)

    def test_run_case1_positional_seed(self):
        """The one positional order left is the declaration's own, which
        ``Experiment.jobs`` builds cells by."""
        assert SimJob("case1", "1Q", SCALE, 2) == SimJob(
            case="case1", scheme="1Q", time_scale=SCALE, seed=2)

    def test_run_fig7_panel_positional(self):
        """The panel that ``run_fig7("a", ...)`` took is part of the
        experiment's name, and picks the case."""
        cases = [registry.get(f"fig7{panel}").case for panel in "abc"]
        assert cases == ["case1", "case2", "case3"]

    def test_run_case_rejects_positional_scheme(self):
        with pytest.raises(TypeError):
            run_case("case1", "1Q")

    def test_run_case_rejects_removed_kernel_argument(self):
        with pytest.raises(TypeError, match="kernel"):
            run_case("case1", scheme="1Q", kernel="heap")

    def test_too_many_positionals_rejected(self):
        """The case is the one positional of a cell, and a grid has none."""
        with pytest.raises(TypeError):
            run_case("case1", "1Q", SCALE)
        with pytest.raises(TypeError):
            registry.get("fig9").run(("1Q",), SCALE)

    def test_duplicate_argument_rejected(self):
        """A field given twice is an error, never last-wins: a knob
        cannot bring a second ``time_scale`` in through ``extra``."""
        from repro.service.server import _BadRequest, _resolve_submission

        with pytest.raises(_BadRequest, match="time_scale"):
            _resolve_submission({"experiment": "fig8a", "time_scale": SCALE,
                                 "extra": {"time_scale": 1.0}})

    def test_run_fig_options_object(self, tmp_path, small):
        """The options object says how the grid runs (here: cached),
        the keywords say which cells."""
        res, _report = registry.get("fig9").run(
            schemes=("1Q",), time_scale=SCALE, options=SweepOptions(cache_dir=str(tmp_path)),
        )
        assert_results_equal(res["1Q"], small)
        assert len(ResultCache(tmp_path)) == 1
