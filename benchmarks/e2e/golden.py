"""Regenerate ``golden.json``: ``PYTHONPATH=src python benchmarks/e2e/golden.py``.

The file maps a cell's label to the SHA-256 of its canonical
``CaseResult`` JSON for every cell a ``--seed 1`` or ``--seed 2`` run
can reach: the three big cells, the small-cell grid and the first
round-trip cells.  A run compares each digest it produces -- direct,
from the sweep cache or over HTTP -- with the entry of the same label.
Only a change to the benchmark, or one meant to change results, may
regenerate it.
"""

from __future__ import annotations

import json
import sys

from workloads import CELLS, HERE, SIZES, cell_kwargs, digest, grid_jobs, job_for, job_label, nproc

#: seeds beyond the run's own that its later rounds and its traced run reach.
GRID_SEEDS = range(1, 20)
TRIP_SEEDS = range(1001, 1123)


def main() -> int:
    from repro.experiments import SweepOptions, run_sweep

    sizes = SIZES["full"]
    jobs = [job_for(cell_kwargs(name, sizes), seed) for name in CELLS for seed in (1, 2, 3)]
    jobs += grid_jobs(GRID_SEEDS, sizes)
    jobs += [j for j in grid_jobs(TRIP_SEEDS, sizes) if j.scheme == "CCFIT"]
    report = run_sweep(jobs, options=SweepOptions(jobs=nproc()))
    if report.failures:
        print(report.summary(), file=sys.stderr)
        return 1
    golden = {job_label(job): digest(res) for job, res in zip(report.jobs, report.results)}
    (HERE / "golden.json").write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    print(f"golden.json: {len(golden)} cells")
    return 0


if __name__ == "__main__":
    sys.exit(main())
