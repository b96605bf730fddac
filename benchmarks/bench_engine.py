"""Micro-benchmarks of the simulation substrate.

Two entry points over the same measurements:

* **standalone** — ``PYTHONPATH=src python benchmarks/bench_engine.py``
  prints one JSON row per benchmark (events/s, net allocations);
  ``--quick`` shrinks the runs.  The rows are informational: the
  evidence for a performance claim is ``benchmarks/e2e``.
* **pytest-benchmark** — ``pytest benchmarks/bench_engine.py`` runs the
  classic many-round statistical versions.

The dispatch workload itself lives in :mod:`repro.perf` (the
``python -m repro perf`` harness); this file only drives it, so the
benchmarked code path and the profiled code path cannot drift apart.
"""

import json
import sys

import numpy as np

from repro.core.isolation import NfqCfqScheme
from repro.network.arbiter import ISlip
from repro.network.buffers import PacketQueue
from repro.network.packet import Packet
from repro.perf import bench_case, dispatch_microbench


# ----------------------------------------------------------------------
# engine dispatch (delegates to repro.perf)
# ----------------------------------------------------------------------
def test_event_dispatch(benchmark):
    rate = benchmark(
        lambda: dispatch_microbench(n_events=30_000, repeats=1)["events_per_s"]
    )
    assert rate > 0


# ----------------------------------------------------------------------
# component hot paths
# ----------------------------------------------------------------------
def test_islip_matching_rate(benchmark):
    arb = ISlip(8, 8, iterations=2)
    rng = np.random.default_rng(0)
    requests = [
        {i: list(rng.choice(8, size=rng.integers(1, 4), replace=False)) for i in range(8)}
        for _ in range(256)
    ]

    def match_all():
        n = 0
        for req in requests:
            n += len(arb.match(req))
        return n

    assert benchmark(match_all) > 0


def test_queue_churn(benchmark):
    pkts = [Packet(0, i % 16, 2048, "f") for i in range(512)]

    def churn():
        q = PacketQueue("q", track_dests=True)
        for p in pkts:
            q.push(p)
        while not q.empty:
            q.pop()
        return q.bytes

    assert benchmark(churn) == 0


def test_isolation_update_rate(benchmark):
    """Arrival + post-process + detection on a CCFIT port."""
    from tests.test_isolation import FakeIsolationHost

    def arrivals():
        host = FakeIsolationHost()
        scheme = NfqCfqScheme(host, drive_congestion_state=True)
        for i in range(256):
            scheme.on_arrival(Packet(0, i % 3, 2048, "f"))
            if i % 4 == 3:
                for line in scheme.cam.lines():
                    cfq = scheme.cfqs[line.cfq_index]
                    if not cfq.empty:
                        cfq.pop()
                        scheme.after_dequeue(cfq)
        return scheme.moves

    assert benchmark(arrivals) > 0


# ----------------------------------------------------------------------
# standalone JSON-row mode
# ----------------------------------------------------------------------
def json_rows(quick: bool = False):
    """One dict per benchmark, JSON-safe."""
    m = dispatch_microbench(
        n_events=60_000 if quick else 300_000, repeats=1 if quick else 3
    )
    return [
        {
            "bench": "dispatch",
            "events": m["events"],
            "events_per_s": m["events_per_s"],
            "allocations": m["alloc_blocks"],
        },
        {
            "bench": "case1",
            **bench_case("case1", "CCFIT", time_scale=0.03 if quick else 0.1, seed=1),
        },
    ]


def main(argv=None) -> int:
    quick = "--quick" in (argv or sys.argv[1:])
    for row in json_rows(quick=quick):
        print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
