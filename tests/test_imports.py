"""What a process loads, and that the order it loads it in does not matter.

The package imports on use: a submitter loads the HTTP client and no
simulator, and nothing that runs or moves a cell loads numpy -- not
``repro``, ``repro serve``, a ``repro worker`` or a sweep's processes;
only the code that reads results (the analysis helpers, the report
tables) does.  The registries fill the same way
whichever module a process imports first.  This interpreter has
imported everything already, so every check runs in a fresh one.
"""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
#: the digest of the cell these tests run, from the pin table
PINNED = json.loads((ROOT / "tests" / "golden" / "pins.json").read_text())[
    "case1/CCFIT ts=0.02 seed=1"]["sha256"]

#: ``python -c`` prelude: the digest a cell's result is pinned under
#: (tests/pins.py), and what a process has loaded.
PRELUDE = """
import hashlib, json, sys
def digest(result):
    blob = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
def loaded(*names):
    return {name: name in sys.modules for name in names}
"""

#: the registries as the package has always filled them.
REGISTRIES = {
    "schemes": ["1Q", "VOQsw", "DBBM", "VOQnet", "FBICM", "ITh", "CCFIT", "RCM", "PFC", "PFC+RCM"],
    "policies": ["det", "ecmp", "adaptive", "flowlet"],
    "buffer_models": ["static", "shared"],
}


def fresh(code: str, *args: str):
    """Run ``code`` (after :data:`PRELUDE`) in a new interpreter; what
    it prints last is JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", PRELUDE + code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


class TestImportWeight:
    def test_the_service_client_loads_no_simulator(self):
        """Nor an HTTP library: the client reads its replies itself."""
        loaded = fresh("from repro.service import ServiceClient\n"
                       "print(json.dumps(loaded('numpy', 'repro.network', 'repro.experiments',\n"
                       "                        'http.client', 'email.parser')))")
        assert loaded == {"numpy": False, "repro.network": False, "repro.experiments": False,
                          "http.client": False, "email.parser": False}

    def test_the_name_registry_loads_nothing(self):
        """``difflib`` comes in with the first unknown-name message."""
        loaded = fresh("import repro.registry\n"
                       "print(json.dumps(loaded('numpy', 'repro.network', 'difflib')))")
        assert loaded == {"numpy": False, "repro.network": False, "difflib": False}

    def test_the_cli_loads_no_numpy_and_a_cell_still_matches_its_golden_digest(self):
        out = fresh(
            "import repro.cli\n"
            "before = loaded('numpy')\n"
            "from repro.experiments import registry\n"
            "(job,) = registry.get('case1').jobs(schemes=('CCFIT',), time_scale=0.02, seed=1)\n"
            "ran = digest(job.run().to_dict())\n"
            "print(json.dumps([before, loaded('numpy'), ran]))"
        )
        assert out == [{"numpy": False}, {"numpy": False}, PINNED]

    def test_serving_a_run_loads_no_numpy(self, tmp_path):
        """A server and its client in one process, a ``repro worker``
        beside it: the submit, the wait, the result, the events, the
        manifest and the metrics move results without hydrating them."""
        out = fresh(
            "import subprocess\n"
            "import repro.cli\n"
            "from repro.service import ServiceClient, ServiceServer\n"
            "with ServiceServer(sys.argv[1] + '/broker', port=0,\n"
            "                   cache_dir=sys.argv[1] + '/cache') as srv:\n"
            "    client = ServiceClient(srv.url)\n"
            "    sub = client.submit('case1', schemes=['CCFIT'], time_scale=0.02, seed=1)\n"
            "    subprocess.run([sys.executable, '-m', 'repro', 'worker', '--broker', srv.url,\n"
            "                    '--jobs', '1', '--max-cells', '1'], check=True)\n"
            "    status = client.wait(sub['run'], timeout=60)\n"
            "    (key,) = sub['keys']\n"
            "    result = client.result(key)['result']\n"
            "    kinds = [e['kind'] for e in client.events(sub['run'])]\n"
            "    manifest, metrics = client.manifest(sub['run']), client.metrics()\n"
            "    client.close()\n"
            "print(json.dumps([loaded('numpy'), status['counts'], kinds[-1], manifest['ok'],\n"
            "                  'repro_' in metrics, digest(result)]))",
            str(tmp_path),
        )
        assert out == [{"numpy": False}, {"done": 1}, "complete", 1, True,
                       PINNED]

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="the platform cannot fork")
    def test_a_sweeps_worker_processes_run_cells_without_numpy(self):
        """numpy is made unimportable before the sweep forks its two
        worker processes, which inherit that: a cell that reached for
        it would fail."""
        out = fresh(
            "import multiprocessing, os\n"
            "sys.modules['numpy'] = None\n"
            "multiprocessing.set_start_method('fork')\n"
            "from repro.experiments import registry\n"
            "from repro.experiments.sweep import SweepOptions, run_sweep\n"
            "jobs = registry.get('case1').jobs(schemes=('CCFIT', '1Q'), time_scale=0.02, seed=1)\n"
            "report = run_sweep(jobs, options=SweepOptions(jobs=2, max_retries=0))\n"
            "children = [w.startswith(f'pid{os.getpid()}.') for w in report.cell_workers]\n"
            "print(json.dumps([report.workers, [f.message for f in report.failures], children,\n"
            "                  digest(report.results[0].to_dict())]))"
        )
        assert out == [2, [], [True, True], PINNED]

    def test_the_benchmark_cells_run_where_numpy_cannot_be_imported(self):
        """The benchmark's three cells (at pinned seeds and scales) and
        a telemetry-on cell, with ``import numpy`` failing: each result
        is byte for byte its pin."""
        names = ["case1/CCFIT", "case4-pfc-shared", "case4-ccfit-adaptive-flap",
                 "case1/CCFIT ts=0.02 seed=1 telemetry"]
        out = fresh(
            "sys.modules['numpy'] = None\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from tests import pins\n"
            "from repro.sim.engine import Simulator\n"
            "table = pins.load(pins.TABLE)\n"
            "print(json.dumps([pins.digest(pins.run_cell(table[name]['cell'], Simulator).to_dict())\n"
            "                  for name in sys.argv[2:]]))",
            str(ROOT), *names,
        )
        table = json.loads((ROOT / "tests" / "golden" / "pins.json").read_text())
        assert out == [table[name]["sha256"] for name in names]


class TestImportOrder:
    @pytest.mark.parametrize("first", [
        "repro", "repro.experiments.sweep", "repro.service.server",
        "repro.schemes.pfc", "repro.network.buffers", "repro.network.queueing",
        "repro.core.scheme",
    ])
    def test_the_registries_do_not_depend_on_what_is_imported_first(self, first):
        out = fresh(
            "import importlib\n"
            "importlib.import_module(sys.argv[1])\n"
            "from repro.core.ccfit import SCHEMES\n"
            "from repro.network.buffers import BUFFER_MODELS\n"
            "from repro.network.routing import ROUTING_POLICIES\n"
            "print(json.dumps({'schemes': list(SCHEMES), 'policies': list(ROUTING_POLICIES),\n"
            "                  'buffer_models': list(BUFFER_MODELS)}))",
            first,
        )
        assert out == REGISTRIES

    def test_every_public_name_resolves(self):
        out = fresh(
            "import repro\n"
            "names = list(repro.__all__)\n"
            "missing = [n for n in names if getattr(repro, n, None) is None]\n"
            "listed = sorted(set(names) - set(dir(repro)))\n"
            "star = {}\n"
            "exec('from repro import *', star)\n"
            "print(json.dumps([len(names), missing, listed, sorted(set(names) - set(star))]))"
        )
        assert out[0] >= 22 and out[1:] == [[], [], []]  # 22 names today

    def test_an_unknown_name_is_an_attribute_error(self):
        import repro

        with pytest.raises(AttributeError, match="no_such_name"):
            repro.no_such_name
