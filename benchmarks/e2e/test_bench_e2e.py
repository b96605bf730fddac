"""Harness checks for the end-to-end benchmark (``python -m pytest
benchmarks/e2e``; not part of the tier-1 ``testpaths``).

One ``--smoke`` set (time scales / 10, one repeat of everything, traced
and untraced) must emit exactly what ``BENCHMARK.json`` declares, and
``compare.py`` must tell a file from a slowed copy of itself.
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
CELL_WORKLOADS = ("case1_ccfit", "incast_pfc_shared", "incast_ccfit_faulted")


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return out


def runs(path, trace):
    return [r for r in json.loads(path.read_text())["runs"] if r["trace"] == trace]


@pytest.mark.parametrize("trace, declared", [(0, "end_to_end"), (1, "per_layer")])
def test_emits_exactly_what_is_declared(smoke, trace, declared):
    names = {m["name"]: m["unit"] for m in SPEC[declared]}
    found = runs(smoke, trace)
    assert sorted(r["workload"] for r in found) == sorted(w["name"] for w in SPEC["workloads"])
    for run in found:
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1, run["errors"]
        assert set(run["metrics"]) == set(names)
        for name, m in run["metrics"].items():
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
            assert math.isfinite(m["value"]) and m["unit"] == names[name]
    if not trace:
        assert all(m["value"] > 0 for run in found for m in run["metrics"].values())


def test_trace_rows_add_up(smoke):
    for run in runs(smoke, 1):
        metrics = {k: m["value"] for k, m in run["metrics"].items()}
        shares = sum(v for k, v in metrics.items() if k.endswith(".self_share"))
        assert shares == pytest.approx(1.0, abs=0.01)
        service = [v for k, v in metrics.items() if k.startswith("service.")]
        if run["workload"] in CELL_WORKLOADS:
            assert metrics["trace.coverage"] >= 0.95
        if run["workload"] == "svc_http":
            assert all(v > 0 for k, v in metrics.items()
                       if k.startswith("service.") and k != "service.requeues")
        else:
            assert not any(service)
    traced = json.loads(smoke.with_suffix(".trace.json").read_text())["runs"]
    for run in traced:
        has_service = any(s["layer"].startswith("service") for s in run["spans"])
        assert has_service == (run["workload"] == "svc_http")
        assert all(set(s) == {"name", "layer", "start", "end", "parent", "op_id"}
                   for s in run["spans"])


def compare(*paths):
    return subprocess.run([sys.executable, str(HERE / "compare.py"), *map(str, paths)],
                          capture_output=True, text=True)


def test_compare_same_and_worse(smoke, tmp_path):
    same = compare(smoke, smoke)
    assert same.returncode == 0 and " same " in same.stdout
    assert not re.search(r" (worse|better|unresolved) ", same.stdout)

    # a synthetic slowdown beyond every declared bound
    better = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
    factor = 1 + 2 * max(m["bound"] for m in SPEC["end_to_end"])
    slowed = json.loads(smoke.read_text())
    for run in slowed["runs"]:
        for name, m in run["metrics"].items():
            if not run["trace"]:
                m["value"] *= factor if better[name] == "lower" else 1 / factor
    slow = tmp_path / "slow.json"
    slow.write_text(json.dumps(slowed))
    worse = compare(smoke, slow)
    assert worse.returncode == 1
    assert not re.search(r" (same|better|unresolved) ", worse.stdout)
