"""Shared knobs for the benchmark harness.

Every bench regenerates one table or figure of the paper (printing the
rows/series it reports) and times the simulation that produced it.

By default the figure benches run *shape-preserving scaled* versions of
the paper's workloads (the 10 ms windows shrink by ``REPRO_SCALE``) so
the whole harness finishes in minutes.  Set::

    REPRO_SCALE=1.0 pytest benchmarks/ --benchmark-only

for full paper-scale runs (as recorded in EXPERIMENTS.md).
"""

import os

import pytest

#: time-compression factor for figure workloads.
SCALE = float(os.environ.get("REPRO_SCALE", "0.3"))
#: Config #3 runs are the expensive ones; they get their own scale.
SCALE_CFG3 = float(os.environ.get("REPRO_SCALE_CFG3", str(min(SCALE, 0.4))))
SEED = int(os.environ.get("REPRO_SEED", "1"))


@pytest.fixture(scope="session")
def scale():
    return SCALE


@pytest.fixture(scope="session")
def scale_cfg3():
    return SCALE_CFG3


@pytest.fixture(scope="session")
def seed():
    return SEED


def run_figure(name, **cell):
    """The results of one registered experiment, scheme -> CaseResult."""
    # imported here: benchmarks/e2e runs under this conftest without
    # the package on its path (it finds src/ itself)
    from repro.experiments import registry

    results, _report = registry.get(name).run(**cell)
    return results


def run_once(benchmark, fn, *args, **kwargs):
    """Run an expensive simulation exactly once under the timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
