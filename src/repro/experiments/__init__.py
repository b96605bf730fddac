"""The paper's evaluation, reproducible end to end.

* :mod:`repro.experiments.configs` — Table I as code: the three network
  configurations with their topologies, bandwidths and memories.
* :mod:`repro.experiments.runner` — the simulation cell: one
  (case, scheme, seed, time_scale) run.
* :mod:`repro.experiments.sweep` — the declaration of a cell
  (:class:`~repro.experiments.sweep.SimJob` and the table of its axes)
  and the parallel sweep engine that fans cells out across worker
  processes and memoizes finished ones in a content-addressed on-disk
  cache (docs/sweep.md).
* :mod:`repro.experiments.registry` — experiment names (``"fig9"``,
  ``"case3"``, ...) -> runnable sweep definitions; the CLI and scripts
  dispatch through it.
* :mod:`repro.experiments.report` — ASCII rendering used by the
  benchmark harness and EXPERIMENTS.md regeneration.
"""

from repro.experiments import registry
from repro.experiments.configs import CONFIG1, CONFIG2, CONFIG3, NetworkConfig, table1
from repro.experiments.registry import Experiment
from repro.experiments.runner import CaseResult, run_case
from repro.experiments.sweep import (
    ResultCache,
    SimJob,
    SweepOptions,
    SweepReport,
    run_sweep,
)

__all__ = [
    "CONFIG1",
    "CONFIG2",
    "CONFIG3",
    "NetworkConfig",
    "table1",
    "CaseResult",
    "run_case",
    "registry",
    "Experiment",
    "ResultCache",
    "SimJob",
    "SweepOptions",
    "SweepReport",
    "run_sweep",
]
