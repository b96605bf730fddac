"""Smoke tests: every example script runs to completion and tells its
story (checked by a distinctive line of expected output)."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

CASES = [
    ("quickstart.py", [], "what CCFIT did about it"),
    ("hotspot_fairness.py", ["0.2"], "contributor fairness"),
    ("custom_topology.py", [], "per-flow bandwidth in the last millisecond"),
    ("link_downscaling.py", [], "tracked the link's capacity"),
    ("protocol_trace.py", [], "detection -> first BECN"),
    ("congestion_trees.py", ["1", "0.1"], "during the burst"),
]


@pytest.mark.parametrize("script,args,marker", CASES, ids=[c[0] for c in CASES])
def test_example_runs(script, args, marker):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert marker in proc.stdout, proc.stdout[-2000:]


def test_bench_files_import():
    """The ``benchmarks/bench_*.py`` files run only on demand, so
    nothing else notices when a name they import goes: collecting them
    imports every one."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
         "benchmarks", "--ignore=benchmarks/e2e"],
        cwd=EXAMPLES.parent,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "bench_ablations.py" in proc.stdout and "bench_sweep.py" in proc.stdout
