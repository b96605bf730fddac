"""The paper's four traffic cases (§IV-A), as workload builders.

All rates are 100 % of the 2.5 GB/s node links.  Times are in ns
(1 ms = 1e6 ns); every case takes a ``time_scale`` so tests can run
shortened-but-shape-preserving versions (the paper's 10 ms windows
shrink proportionally).

* **Case #1** (Config #1): staircase onto hot node 4.  F0 (0→3, the
  victim) runs the whole simulation; F1 (1→4) from 2 ms, F2 (2→4) from
  4 ms, F5 (5→4) from 6 ms, F6 (6→4) from 8 ms — all until 10 ms.  The
  congestion point is the link switch 1 → node 4; F1/F2 share switch
  1's inter-switch input port with F0 (victimisation) while F5/F6 own
  private ports (parking-lot winners).
* **Case #2** (Config #2): five flows onto *two* hot nodes of the
  2-ary 3-tree, activated stepwise, creating "several congestion
  points in the network which divide the link bandwidth among all the
  flows contributing to congestion".  F1 (1→7) runs the whole
  simulation; F0 (0→5) joins at 2 ms, F4 (4→7) at 4 ms, F2 (2→7) and
  F3 (3→5) at 6 ms.  Both destinations sit on the same DET ascent
  plane (d₀ = 1), so the two trees mix in the level-1 input queues
  (inter-tree HoL under 1Q; exactly two CFQs needed under FBICM),
  while node 7's apex receives F4 on a private input port and F1+F2
  through a shared one — the parking lot of §IV-C.
* **Case #3**: Case #2 plus three uniform sources (nodes 5, 6, 7) at
  full rate — short-lived congestion appearing and vanishing quickly.
* **Case #4** (Config #3): 75 % of the 64 nodes send uniform traffic
  at full rate; the remaining 25 % (one node per leaf switch, ids
  ≡ 3 mod 4) blast hotspot traffic during [1 ms, 2 ms] at 1, 4 or 6
  hot destinations — 1/4/6 simultaneous congestion trees whose
  branches span the fabric and collide on switch ports (see
  :func:`case4_hot_destinations`), the Fig. 8 scalability probe.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.traffic.flows import FlowSpec

__all__ = [
    "MS",
    "case1_flows",
    "case2_flows",
    "case3_traffic",
    "case4_traffic",
    "CASE2_HOT_NODE",
]

#: one millisecond in simulation time units (ns).
MS = 1_000_000.0

#: the primary hot destination of Case #2 (three contributors, with
#: the parking lot at its apex switch) and the secondary one (two).
CASE2_HOT_NODE = 7
CASE2_SECOND_HOT_NODE = 5


def case1_flows(rate: float = 2.5, time_scale: float = 1.0) -> List[FlowSpec]:
    """Traffic Case #1 on Config #1 (see module docstring)."""
    t = MS * time_scale
    return [
        FlowSpec("F0", src=0, dst=3, rate=rate, start=0.0, end=10 * t),
        FlowSpec("F1", src=1, dst=4, rate=rate, start=2 * t, end=10 * t),
        FlowSpec("F2", src=2, dst=4, rate=rate, start=4 * t, end=10 * t),
        FlowSpec("F5", src=5, dst=4, rate=rate, start=6 * t, end=10 * t),
        FlowSpec("F6", src=6, dst=4, rate=rate, start=8 * t, end=10 * t),
    ]


def case2_flows(rate: float = 2.5, time_scale: float = 1.0) -> List[FlowSpec]:
    """Traffic Case #2 on Config #2 (see the module docstring):
    staircase of five flows onto hot nodes 7 (F1, F4, F2) and 5
    (F0, F3), with F1 always on."""
    t = MS * time_scale
    hot, hot2 = CASE2_HOT_NODE, CASE2_SECOND_HOT_NODE
    return [
        FlowSpec("F1", src=1, dst=hot, rate=rate, start=0.0, end=10 * t),
        FlowSpec("F0", src=0, dst=hot2, rate=rate, start=2 * t, end=10 * t),
        FlowSpec("F4", src=4, dst=hot, rate=rate, start=4 * t, end=10 * t),
        FlowSpec("F2", src=2, dst=hot, rate=rate, start=6 * t, end=10 * t),
        FlowSpec("F3", src=3, dst=hot2, rate=rate, start=6 * t, end=10 * t),
    ]


def case3_traffic(
    rate: float = 2.5, time_scale: float = 1.0
) -> Tuple[List[FlowSpec], List[Dict]]:
    """Traffic Case #3: Case #2 plus uniform sources at nodes 5, 6, 7."""
    t = MS * time_scale
    flows = case2_flows(rate=rate, time_scale=time_scale)
    uniform = [
        {"node": n, "rate": rate, "name": f"U{n}", "start": 0.0, "end": 10 * t}
        for n in (5, 6)
    ]
    # Node 7 is also the hot destination; it still *sends* uniform
    # traffic (receiving and sending are independent directions).
    uniform.append({"node": 7, "rate": rate, "name": "U7", "start": 0.0, "end": 10 * t})
    return flows, uniform


def case4_hot_senders(num_nodes: int = 64) -> List[int]:
    """The 25 % of nodes that blast hotspot traffic during the burst:
    one node per leaf switch (ids ≡ 3 mod 4), so every congestion tree
    gathers contributors from all over the fabric."""
    return [n for n in range(num_nodes) if n % 4 == 3]


def case4_hot_destinations(num_trees: int, num_nodes: int = 64) -> List[int]:
    """Hot destinations for Case #4 on the 4-ary 3-tree, chosen so the
    congestion trees *collide on switch ports*.

    Fig. 8 probes what happens when "more congestion trees than the
    number of CFQs [2] are present" at a port.  Under DET routing,
    traffic to destination ``d`` ascends by digits ``d_0, d_1`` and all
    of it converges at one apex switch, so two trees share ports when
    their destinations share those digits.  Destinations are therefore
    grouped by identical ``(d_0, d_1)``: the whole group's trees merge
    through the same apex input ports and, as congestion spreads, the
    same level-1 switches — a port on that plane must isolate one CFQ
    *per tree*, exceeding the two available and reproducing the FBICM
    exhaustion of Fig. 8b/8c.  Six trees form *two* groups on disjoint
    ascent planes (``d_0`` = 1 and 2), matching the paper's remark that
    the congested traffic is then "better balanced in the network".

    None of the destinations is a hotspot sender (those have
    ``d_0 = 3``, see :func:`case4_hot_senders`).
    """
    if not 1 <= num_trees <= 8:
        raise ValueError(f"supported num_trees is 1..8, got {num_trees}")
    if num_nodes != 64:
        raise ValueError("Case #4 destinations are defined for the 64-node tree")
    num_groups = 1 if num_trees <= 4 else 2
    dests = []
    for t in range(num_trees):
        group, member = t % num_groups, t // num_groups
        d0 = 1 + group  # ascent plane (digit d_0)
        v0 = d0  # second ascent digit (= apex column)
        leaf = v0 + 4 * member  # distinct leaves: v1 = member
        dests.append(leaf * 4 + d0)
    return dests


def case4_traffic(
    num_trees: int,
    num_nodes: int = 64,
    rate: float = 2.5,
    time_scale: float = 1.0,
    burst_start: float = 1.0,
    burst_end: float = 2.0,
) -> Tuple[List[FlowSpec], List[Dict]]:
    """Traffic Case #4 on Config #3.

    75 % of the nodes send uniform traffic for the whole run; the
    remaining 25 % (one per leaf switch) each blast one hot destination
    at full rate during the burst window (ms, scaled), distributed
    round-robin over the ``num_trees`` destinations.
    """
    t = MS * time_scale
    senders = case4_hot_senders(num_nodes)
    hot = case4_hot_destinations(num_trees, num_nodes)
    uniform = [
        {"node": n, "rate": rate, "name": f"U{n}", "start": 0.0}
        for n in range(num_nodes)
        if n not in set(senders)
    ]
    flows = []
    for i, src in enumerate(senders):
        dst = hot[i % num_trees]
        flows.append(
            FlowSpec(
                f"H{src}",
                src=src,
                dst=dst,
                rate=rate,
                start=burst_start * t,
                end=burst_end * t,
            )
        )
    return flows, uniform
