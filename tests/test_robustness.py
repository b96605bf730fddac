"""Multi-seed robustness: the headline claims are not seed artifacts.

Uses compressed-time runs over several seeds; the paired-seed
comparison utilities are unit-tested separately below.
"""

from functools import partial

import pytest

from repro.experiments.seedcheck import SweepStats, claim_holds, seed_sweep
from repro.experiments.runner import run_case
from repro.metrics.analysis import jain_index

SEEDS = (1, 2, 3)
CONTRIB = ("F1", "F2", "F5", "F6")

METRICS = {
    "victim": lambda r: r.flow_bandwidth["F0"],
    "jain": lambda r: jain_index([r.flow_bandwidth[f] for f in CONTRIB]),
    "throughput": lambda r: r.mean_throughput(),
}


@pytest.fixture(scope="module")
def sweeps():
    return {
        scheme: seed_sweep(partial(run_case, "case1"), scheme, SEEDS, METRICS, time_scale=0.4)
        for scheme in ("1Q", "FBICM", "CCFIT")
    }


def test_victim_claim_holds_across_seeds(sweeps):
    """CCFIT's victim protection beats 1Q on every seed, by >2.5x."""
    assert claim_holds(
        sweeps["CCFIT"]["victim"].values, sweeps["1Q"]["victim"].values, margin=2.5
    )


def test_fairness_claim_holds_across_seeds(sweeps):
    """CCFIT is fairer than FBICM on every seed."""
    assert claim_holds(
        sweeps["CCFIT"]["jain"].values, sweeps["FBICM"]["jain"].values
    )


def test_seed_variance_is_moderate(sweeps):
    """Deterministic workloads: seed only drives marking lotteries, so
    the victim metric must be stable (< 15 % rel. std)."""
    v = sweeps["CCFIT"]["victim"]
    assert v.std < 0.15 * v.mean


class TestUtilities:
    def test_sweepstats_aggregates(self):
        s = SweepStats("m", (1.0, 2.0, 3.0))
        assert s.mean == 2.0
        assert s.min == 1.0 and s.max == 3.0
        assert s.std > 0

    def test_claim_holds_paired(self):
        assert claim_holds([3, 3, 3], [1, 1, 1], margin=2.0)
        assert not claim_holds([3, 3, 1], [1, 1, 1], margin=2.0)
        assert claim_holds([3, 3, 1], [1, 1, 1], margin=2.0, allowed_violations=1)

    def test_claim_holds_length_mismatch(self):
        with pytest.raises(ValueError):
            claim_holds([1], [1, 2])
