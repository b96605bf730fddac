"""The paper's claims, checked through the one table of them.

Tier-1 evaluates the rows of the reduced-scale slice
(``claims.SLICE``: Figs. 7a and 9 at 0.3 over seeds 1-3, Fig. 10 at
0.5; one sweep of 16 cells) and asserts each gives the verdict its row
expects there.  Tier-2 regenerates EXPERIMENTS.md at paper scale --
the script exits 1 unless every row gives its expected verdict -- and
compares it byte for byte with the committed record.  The extension
studies that use no registered experiment (the §II HoL family, the
incast degree, the CFQ count) are plain tier-2 tests at the end.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.params import CCParams
from repro.experiments import claims, registry
from repro.experiments.claims import CLAIMS, SLICE, claim_holds
from repro.experiments.runner import run_case
from repro.metrics.analysis import jain_index
from repro.network.fabric import build_fabric
from repro.network.topology import k_ary_n_tree
from repro.traffic.flows import FlowSpec, attach_traffic

ROOT = Path(__file__).resolve().parent.parent
IN_SLICE = [c for c in CLAIMS if c.reduced is not None]


def test_claim_holds_paired():
    assert claim_holds([3, 3, 3], [1, 1, 1], margin=2.0)
    assert not claim_holds([3, 3, 1], [1, 1, 1], margin=2.0)


def test_claim_holds_length_mismatch():
    with pytest.raises(ValueError):
        claim_holds([1], [1, 2])


def test_every_row_names_what_exists():
    """Ids are unique, and each row reads schemes its experiment runs,
    with parameters ``CCParams`` takes; a slice row is one of the
    slice's experiments, at default parameters."""
    assert len({c.id for c in CLAIMS}) == len(CLAIMS)
    for claim in CLAIMS:
        exp = registry.get(claim.experiment)
        CCParams(**dict(claim.params))
        for side in (claim.a, claim.b):
            if isinstance(side, tuple):
                assert side[0] in exp.schemes, claim.id
        assert isinstance(claim.a, tuple) or isinstance(claim.b, tuple), claim.id
    assert all(c.experiment in SLICE and c.params == () for c in IN_SLICE)


@pytest.fixture(scope="module")
def reduced():
    """The slice's cells, in one sweep (~12 s)."""
    points = [(name, (), scale, seed) for name, (scale, seeds) in SLICE.items() for seed in seeds]
    measured, report = claims.measure(points)
    assert not report.failures
    return measured


@pytest.mark.parametrize("claim", IN_SLICE, ids=[c.id for c in IN_SLICE])
def test_the_slice_gives_each_claim_its_verdict(claim, reduced):
    scale, seeds = SLICE[claim.experiment]
    runs = [reduced[(claim.experiment, (), scale, seed)] for seed in seeds]
    sides = [claim.sides(results) for results in runs]
    assert claim.holds(runs) == claim.reduced, f"{claim.paper}: a, b per seed = {sides}"


@pytest.mark.tier2
def test_the_record_regenerates_byte_for_byte(tmp_path):
    """The paper-scale grid (about five minutes on two workers): every
    claim gives its expected verdict, and EXPERIMENTS.md is what the
    script writes."""
    out = tmp_path / "EXPERIMENTS.md"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "make_experiments.py"), str(out),
         "--jobs", "2", "--no-cache"],
        env=env, capture_output=True, text=True, timeout=3000,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert out.read_bytes() == (ROOT / "EXPERIMENTS.md").read_bytes()


# ------------------------------------------------------------- extensions
MS = 1_000_000.0


def _uniform_throughput(scheme: str) -> float:
    fab = build_fabric(k_ary_n_tree(2, 3), scheme=scheme, seed=1)
    attach_traffic(fab, uniform=[{"node": n, "rate": 2.5, "name": f"U{n}"} for n in range(8)])
    fab.run(until=2 * MS)
    return fab.collector.total_bandwidth(0.5 * MS, 2 * MS)


def _victim_bandwidth(scheme: str) -> float:
    fab = build_fabric(k_ary_n_tree(2, 3), scheme=scheme, seed=1)
    attach_traffic(
        fab,
        flows=[
            # victim 0->5 shares the d0=1 ascent plane with the hotspot
            FlowSpec("vic", src=0, dst=5, rate=2.5),
            *(FlowSpec(f"h{i}", src=i, dst=7, rate=2.5) for i in range(1, 5)),
        ],
    )
    fab.run(until=2 * MS)
    return fab.collector.flow_bandwidth("vic", 1 * MS, 2 * MS)


@pytest.mark.tier2
def test_hol_family_implicit_splitting_vs_explicit_isolation():
    """§II in numbers, on the 2-ary 3-tree: implicit queue splitting
    (DBBM, VOQsw) unlocks uniform throughput, but only explicit
    congested-flow isolation (FBICM) -- or per-destination queues --
    saves a bystander of an endpoint hotspot."""
    family = ("1Q", "DBBM", "VOQsw", "VOQnet", "FBICM")
    uni = {s: _uniform_throughput(s) for s in family}
    vic = {s: _victim_bandwidth(s) for s in family}
    assert uni["1Q"] < uni["DBBM"] < uni["VOQnet"]
    assert uni["DBBM"] <= uni["VOQsw"] * 1.02
    # FBICM's single NFQ gains little on uniform ...
    assert uni["FBICM"] < uni["DBBM"]
    # ... but explicit isolation wins where it matters: the victim
    assert vic["FBICM"] > 2 * vic["1Q"]
    assert vic["FBICM"] > vic["DBBM"]
    assert vic["VOQnet"] > 2 * vic["1Q"]  # per-destination also isolates


def _incast(scheme: str, degree: int):
    """N senders onto node 7 of the 2-ary 3-tree, and a bystander 0->5
    on the same DET ascent plane (it shares level-1 queues with the
    incast traffic)."""
    fab = build_fabric(k_ary_n_tree(2, 3), scheme=scheme, seed=1)
    senders = [s for s in range(1, 8) if s not in (7, 5, 0)]
    attach_traffic(fab, flows=[
        FlowSpec("by", src=0, dst=5, rate=2.5),
        *(FlowSpec(f"I{i}", src=src, dst=7, rate=2.5) for i, src in enumerate(senders[:degree])),
    ])
    fab.run(until=3 * MS)
    c = fab.collector
    rates = [c.flow_bandwidth(f"I{i}", 1.5 * MS, 3 * MS) for i in range(degree)]
    return {
        "jain": jain_index(rates),
        "p95_us": (c.latency_percentile("by", 95) or 0.0) / 1e3,
        "bystander": c.flow_bandwidth("by", 1.5 * MS, 3 * MS),
    }


@pytest.mark.tier2
@pytest.mark.parametrize("degree", [2, 4])
def test_incast_degree_ccfit_protects_the_bystander_and_stays_fair(degree):
    """Beyond the paper: at every incast degree, isolation keeps the
    bystander's tail latency flat (the margin grows with the degree:
    trees deepen) and throttling keeps the contributors fair."""
    ccfit, oneq = _incast("CCFIT", degree), _incast("1Q", degree)
    factor = 0.5 if degree <= 2 else 0.3
    assert ccfit["p95_us"] < factor * oneq["p95_us"]
    # at N=2 the bystander's structural share of the shared ascent
    # link is 1.25 GB/s; the throttle may shave it further
    assert ccfit["bystander"] > (0.8 if degree <= 2 else 1.5)
    assert ccfit["jain"] > 0.93


@pytest.mark.tier2
def test_more_cfqs_do_not_hurt_fbicm():
    """The Fig. 8 resource axis swept directly: Config #3 with 4 trees
    (Fig. 8b's cell at 0.3), FBICM with 4 CFQs per port against 1."""
    burst = {
        n: run_case("case4", scheme="FBICM", num_trees=4, time_scale=0.3, seed=1,
                    params=CCParams(num_cfqs=n)).mean_throughput()
        for n in (1, 4)
    }
    assert burst[4] >= burst[1]
