"""Traffic generators.

Two source models, both *greedy up to a rate* with AdVOQ backpressure
(the application keeps offering; a full AdVOQ stalls it — so a
throttled or blocked flow resumes at full demand the moment the
network lets it, which is what lets the paper's staircase and recovery
shapes appear):

* :class:`FlowGenerator` — one point-to-point flow from a
  :class:`FlowSpec` (source, destination, rate, active interval).
  Cases #1 and #2 are lists of these.
* :class:`UniformGenerator` — a node sending every packet to an
  independently drawn uniform-random destination (Cases #3 and #4).

Generators tick at their packet emission interval; a rejected offer
(full AdVOQ) is retried next tick, modelling an application with
pending demand rather than an unbounded queue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence

from repro.network.endnode import EndNode
from repro.network.fabric import Fabric
from repro.network.packet import Packet
from repro.sim.engine import Simulator

if TYPE_CHECKING:
    from repro.sim.rng import Stream

__all__ = ["FlowSpec", "FlowGenerator", "UniformGenerator", "attach_traffic"]


@dataclass(frozen=True)
class FlowSpec:
    """A constant-rate point-to-point flow.

    rate is in bytes/ns (= GB/s); ``start``/``end`` in ns bound the
    active interval (``end`` = None → active forever).
    """

    name: str
    src: int
    dst: int
    rate: float
    start: float = 0.0
    end: Optional[float] = None
    packet_size: int = 2048

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"flow {self.name}: rate must be positive")
        if self.src == self.dst:
            raise ValueError(f"flow {self.name}: src == dst == {self.src}")
        if self.end is not None and self.end <= self.start:
            raise ValueError(f"flow {self.name}: empty active interval")
        if self.packet_size <= 0:
            raise ValueError(f"flow {self.name}: bad packet size")

    @property
    def interval(self) -> float:
        """Packet emission period at the nominal rate (ns)."""
        return self.packet_size / self.rate


class FlowGenerator:
    """Drives one :class:`FlowSpec` against an end node."""

    def __init__(self, sim: Simulator, node: EndNode, spec: FlowSpec) -> None:
        if node.id != spec.src:
            raise ValueError(f"flow {spec.name} sources at {spec.src}, not node {node.id}")
        self.sim = sim
        self.node = node
        self.spec = spec
        self.offered = 0
        self.rejected = 0
        sim.post(spec.start, self._tick)

    def _tick(self) -> None:
        spec = self.spec
        now = self.sim.now
        if spec.end is not None and now >= spec.end:
            return
        if self.node.offer(Packet(spec.src, spec.dst, spec.packet_size, spec.name)):
            self.offered += 1
        else:
            self.rejected += 1
        self.sim.post(now + spec.interval, self._tick)


class UniformGenerator:
    """A node emitting to uniform-random destinations at a fixed rate."""

    def __init__(
        self,
        sim: Simulator,
        node: EndNode,
        rate: float,
        rng: Stream,
        name: Optional[str] = None,
        start: float = 0.0,
        end: Optional[float] = None,
        packet_size: int = 2048,
        destinations: Optional[Sequence[int]] = None,
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.sim = sim
        self.node = node
        self.rate = rate
        self.rng = rng
        self.name = name or f"uni{node.id}"
        self.start = start
        self.end = end
        self.packet_size = packet_size
        self.dests = [
            d
            for d in (destinations if destinations is not None else range(node.num_nodes))
            if d != node.id
        ]
        if not self.dests:
            raise ValueError("no eligible destinations")
        self.offered = 0
        self.rejected = 0
        sim.post(start, self._tick)

    @property
    def interval(self) -> float:
        return self.packet_size / self.rate

    def _tick(self) -> None:
        now = self.sim.now
        if self.end is not None and now >= self.end:
            return
        dst = self.dests[int(self.rng.integers(len(self.dests)))]
        if self.node.offer(Packet(self.node.id, dst, self.packet_size, self.name)):
            self.offered += 1
        else:
            self.rejected += 1
        self.sim.post(now + self.interval, self._tick)


def attach_traffic(
    fabric: Fabric,
    flows: Iterable[FlowSpec] = (),
    uniform: Iterable[dict] = (),
) -> List[object]:
    """Install generators on a fabric.

    ``flows`` is a list of :class:`FlowSpec`; ``uniform`` a list of
    kwargs dicts for :class:`UniformGenerator` (each must include
    ``node`` — the source id — and ``rate``; an RNG stream is derived
    from the fabric seed automatically).  Returns the generators, which
    are also kept alive on ``fabric.generators``.
    """
    gens: List[object] = []
    for spec in flows:
        gens.append(FlowGenerator(fabric.sim, fabric.nodes[spec.src], spec))
    for kw in uniform:
        kw = dict(kw)
        nid = kw.pop("node")
        rng = fabric.rngs.stream(f"uniform.n{nid}")
        gens.append(UniformGenerator(fabric.sim, fabric.nodes[nid], rng=rng, **kw))
    fabric.generators.extend(gens)
    return gens
