"""Multi-seed robustness checks.

The paper reports single runs; a credible reproduction should show its
qualitative claims are not seed artifacts.  :func:`seed_sweep` reruns a
case across seeds and aggregates the metrics the shape assertions rest
on (victim bandwidth, contributor fairness, mean throughput), and
:func:`claim_holds` evaluates an ordering claim with a tolerance for
how many seeds may violate it.

Not to be confused with the *execution* robustness layer
(fault-tolerant sweeps, cache integrity, invariant guard — see
docs/robustness.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Sequence

import numpy as np

from repro.experiments.runner import CaseResult

__all__ = ["SweepStats", "seed_sweep", "claim_holds"]


@dataclass(frozen=True)
class SweepStats:
    """Mean/std/min/max of one scalar metric across seeds."""

    name: str
    values: tuple

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def std(self) -> float:
        return float(np.std(self.values))

    @property
    def min(self) -> float:
        return float(np.min(self.values))

    @property
    def max(self) -> float:
        return float(np.max(self.values))

    def __str__(self) -> str:  # pragma: no cover - formatting
        return f"{self.name}: {self.mean:.3f} ± {self.std:.3f} [{self.min:.3f}, {self.max:.3f}]"


def seed_sweep(
    runner: Callable[..., CaseResult],
    scheme: str,
    seeds: Iterable[int],
    metrics: Dict[str, Callable[[CaseResult], float]],
    **runner_kwargs,
) -> Dict[str, SweepStats]:
    """Run ``runner(scheme=scheme, seed=s, **kwargs)`` per seed --
    ``runner`` is :func:`~repro.experiments.runner.run_case` with its
    case bound, ``partial(run_case, "case1")`` -- and aggregate each
    named metric across the runs."""
    collected: Dict[str, List[float]] = {name: [] for name in metrics}
    for seed in seeds:
        res = runner(scheme=scheme, seed=seed, **runner_kwargs)
        for name, fn in metrics.items():
            collected[name].append(float(fn(res)))
    return {name: SweepStats(name, tuple(vals)) for name, vals in collected.items()}


def claim_holds(
    lhs: Sequence[float],
    rhs: Sequence[float],
    margin: float = 1.0,
    allowed_violations: int = 0,
) -> bool:
    """Does ``lhs[i] > rhs[i] * margin`` hold seed-by-seed (with at
    most ``allowed_violations`` exceptions)?

    Paired per-seed comparison is much stronger than comparing means:
    both sides share the seed's workload randomness.
    """
    if len(lhs) != len(rhs):
        raise ValueError("paired comparison needs equal-length sequences")
    violations = sum(1 for a, b in zip(lhs, rhs) if not a > b * margin)
    return violations <= allowed_violations
