"""Micro-benchmarks of the sweep engine's non-simulation overheads.

The engine's value is reusing/parallelising the *simulations*; these
benches pin down the bookkeeping it adds around them: cache-key
hashing, ``CaseResult`` serialization both ways, and cache hit/store
round-trips on a real (small) simulation result.  They bound the
per-cell overhead a cache hit must beat — microseconds against the
seconds a cell takes to simulate.
"""

import json

import pytest

from repro.experiments.runner import CaseResult, run_case
from repro.experiments.sweep import ResultCache, SimJob


@pytest.fixture(scope="module")
def small_result() -> CaseResult:
    """One real Case #1 cell at 0.02x — every array/field populated."""
    return run_case("case1", scheme="1Q", time_scale=0.02)


@pytest.fixture(scope="module")
def job() -> SimJob:
    return SimJob(case="case1", scheme="1Q", time_scale=0.02)


def test_job_key_rate(benchmark, job):
    """SHA-256 over the canonical job payload (per cache lookup)."""
    key = benchmark(job.key)
    assert len(key) == 64


def test_result_to_dict(benchmark, small_result):
    d = benchmark(small_result.to_dict)
    assert d["scheme"] == "1Q"


def test_result_roundtrip(benchmark, small_result):
    """to_dict -> json -> from_dict: the full cache-store/load path."""

    def roundtrip():
        return CaseResult.from_dict(json.loads(json.dumps(small_result.to_dict())))

    res = benchmark(roundtrip)
    assert res.flow_bandwidth == small_result.flow_bandwidth


def test_cache_hit(benchmark, tmp_path_factory, job, small_result):
    cache = ResultCache(tmp_path_factory.mktemp("sweep-cache"))
    cache.put(job.key(), small_result, job=job)

    res = benchmark(cache.get, job.key())
    assert res is not None and res.scheme == "1Q"


def test_cache_store(benchmark, tmp_path_factory, job, small_result):
    cache = ResultCache(tmp_path_factory.mktemp("sweep-cache"))
    key = job.key()

    benchmark(cache.put, key, small_result, job)
    assert len(cache) == 1
