"""Input-port RAM: buffer pools, packet queues and buffer models.

The evaluated switches are input-queued with one RAM per input port
("Memory Size 64 KBytes", Table I), *dynamically organised in queues*
(§III-A).  We model that RAM as a :class:`BufferPool` with byte-exact
accounting, and each logical queue (NFQ, CFQ, VOQ, …) as a
:class:`PacketQueue` drawing from the pool.

The pool is the unit of credit-based link-level flow control: the
upstream transmitter holds credits equal to the pool's free bytes, so
the pool can never overflow — an invariant the test-suite checks both
directly and via hypothesis.

**Buffer models** (docs/buffers.md) decide how a whole switch's RAM is
carved up.  The paper's architecture — and the default — is the
``static`` model: every input port owns its private Table-I pool, and
admission is exactly the pool-free check above.  The ``shared`` model
instead arbitrates *one* switch-wide pool the datacenter way (the
SONiC shared-headroom-pool design): per-(port, priority) reserved
minimums, a dynamic threshold ``alpha * free`` on the shared space,
and a PFC headroom account that absorbs the in-flight bytes arriving
between an XOFF decision and the upstream honouring the PAUSE.  Models
register in :data:`BUFFER_MODELS`, a :class:`repro.registry.Registry`
like the scheme and routing-policy ones, so the fabric builder, CLI
and sweep engine discover them by name.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Deque, Dict, Iterator, List, Optional, Tuple

from repro.network.packet import Packet, PfcPause, PfcResume
from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.switch import InputPort, Switch

__all__ = [
    "BufferPool",
    "PacketQueue",
    "BufferError",
    "BufferModel",
    "StaticBufferModel",
    "SharedBufferModel",
    "BufferModelSpec",
    "BUFFER_MODELS",
]


class BufferError(RuntimeError):
    """Raised when buffer accounting would be violated (a sim bug:
    lossless flow control must make overflow impossible)."""


class BufferPool:
    """Byte-accounted shared RAM of one input port.

    ``reserve``/``release`` are called by the owning port as packets
    enter and leave.  Queues moving a packet among themselves (the CCFIT
    post-processing NFQ→CFQ move) do not touch the pool: the packet
    stays in the same RAM.
    """

    __slots__ = ("capacity", "used")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"pool capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self.used = 0

    @property
    def free(self) -> int:
        return self.capacity - self.used

    def reserve(self, nbytes: int) -> None:
        """Account ``nbytes`` as occupied.  Raises on overflow."""
        if nbytes < 0:
            raise BufferError(f"negative reserve {nbytes}")
        if self.used + nbytes > self.capacity:
            raise BufferError(
                f"pool overflow: used={self.used} + {nbytes} > cap={self.capacity}"
            )
        self.used += nbytes

    def release(self, nbytes: int) -> None:
        """Account ``nbytes`` as freed.  Raises on underflow."""
        if nbytes < 0:
            raise BufferError(f"negative release {nbytes}")
        if nbytes > self.used:
            raise BufferError(
                f"pool underflow: releasing {nbytes} with only {self.used} used"
            )
        self.used -= nbytes

    # -- introspection hooks (guard / telemetry / watchdog dumps) -------
    def snapshot(self) -> Dict[str, int]:
        """JSON-safe occupancy dump, same shape every fabric component
        exposes (used/capacity/free)."""
        return {"used": self.used, "capacity": self.capacity, "free": self.free}

    def audit(self) -> None:
        """Invariant-guard hook: the counters must describe a physical
        RAM — ``0 <= used <= capacity``.  (Drift against queue contents
        is the owning device's cross-check; the pool itself only knows
        bytes.)"""
        if not 0 <= self.used <= self.capacity:
            raise BufferError(
                f"pool accounting corrupt: used={self.used} outside "
                f"[0, {self.capacity}]"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<BufferPool {self.used}/{self.capacity}B>"


class PacketQueue:
    """FIFO of packets with byte and packet occupancy counters.

    A queue optionally enforces its own byte cap (``max_bytes``) on top
    of the shared pool — used by VOQnet, whose fixed per-destination
    queues each get ``memory/num_destinations`` bytes.
    """

    __slots__ = ("name", "max_bytes", "_q", "bytes", "dest_bytes")

    def __init__(
        self, name: str, max_bytes: Optional[int] = None, track_dests: bool = False
    ) -> None:
        self.name = name
        self.max_bytes = max_bytes
        self._q: Deque[Packet] = deque()
        self.bytes = 0
        #: per-destination byte occupancy, maintained incrementally when
        #: ``track_dests`` — the congestion-detection logic needs it on
        #: every queue mutation, so scanning would be O(n) per event.
        self.dest_bytes: Optional[dict[int, int]] = {} if track_dests else None

    # -- state ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self._q)

    def __iter__(self) -> Iterator[Packet]:
        return iter(self._q)

    @property
    def empty(self) -> bool:
        return not self._q

    def fits(self, nbytes: int) -> bool:
        """Would a packet of ``nbytes`` respect this queue's own cap?"""
        return self.max_bytes is None or self.bytes + nbytes <= self.max_bytes

    # -- mutation ------------------------------------------------------
    def _admit(self, pkt: Packet, where: str) -> None:
        """Shared admission accounting for :meth:`push`/:meth:`push_front`
        (cap check + byte and per-destination counters)."""
        if not self.fits(pkt.size):
            raise BufferError(
                f"queue {self.name} overflow on {where}: "
                f"{self.bytes}+{pkt.size} > {self.max_bytes}"
            )
        self.bytes += pkt.size
        if self.dest_bytes is not None:
            self.dest_bytes[pkt.dst] = self.dest_bytes.get(pkt.dst, 0) + pkt.size

    def push(self, pkt: Packet) -> None:
        self._admit(pkt, "push")
        self._q.append(pkt)

    def push_front(self, pkt: Packet) -> None:
        """Re-insert at the head (used only by unit tests and rollback)."""
        self._admit(pkt, "push_front")
        self._q.appendleft(pkt)

    def pop(self) -> Packet:
        if not self._q:
            raise BufferError(f"pop from empty queue {self.name}")
        pkt = self._q.popleft()
        self.bytes -= pkt.size
        if self.dest_bytes is not None:
            left = self.dest_bytes[pkt.dst] - pkt.size
            if left:
                self.dest_bytes[pkt.dst] = left
            else:
                del self.dest_bytes[pkt.dst]
        return pkt

    def head(self) -> Optional[Packet]:
        return self._q[0] if self._q else None

    # -- validation hook ----------------------------------------------
    def audit(self) -> None:
        """Recompute the incremental counters from the queue contents
        and raise :class:`BufferError` on any drift (invariant-guard
        hook; O(n), never called on the default fast path)."""
        actual = sum(p.size for p in self._q)
        if actual != self.bytes:
            raise BufferError(
                f"queue {self.name}: byte counter {self.bytes} != contents {actual}"
            )
        if self.dest_bytes is not None:
            per_dest: dict[int, int] = {}
            for p in self._q:
                per_dest[p.dst] = per_dest.get(p.dst, 0) + p.size
            if per_dest != self.dest_bytes:
                raise BufferError(
                    f"queue {self.name}: dest_bytes {self.dest_bytes} != contents {per_dest}"
                )
        if self.max_bytes is not None and self.bytes > self.max_bytes:
            raise BufferError(
                f"queue {self.name}: {self.bytes}B exceeds cap {self.max_bytes}B"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Q {self.name} n={len(self._q)} {self.bytes}B>"


# ======================================================================
# buffer models: how one switch's RAM is carved up (docs/buffers.md)
# ======================================================================
class BufferModel:
    """Switch-wide buffer arbitration policy.

    One instance is built per :class:`~repro.network.switch.Switch`
    (``spec.build(switch)``) right after its ports exist and *before*
    the queue schemes, so schemes see the final pool capacities.  The
    base class is the identity — :meth:`attach` leaves every port on
    its private Table-I pool and the default admission methods — which
    is exactly the ``static`` model, so the hot path of the golden
    configurations never pays for the abstraction.

    A model that changes admission shadows the port's
    ``can_accept``/``reserve``/``cancel_reservation``/``release_packet``
    methods per instance (the same idiom ``Switch.__init__`` uses for
    ``port.route``), keeping the device layer free of per-packet
    branches on the model kind.
    """

    name = "static"

    def __init__(self, switch: "Switch") -> None:
        self.switch = switch

    def attach(self) -> None:
        """Install the model on the switch's ports (no-op for static)."""

    def stats(self) -> Dict[str, float]:
        """Aggregate counters for :meth:`Fabric.stats`; static returns
        nothing so healthy stats dicts keep their seed bytes."""
        return {}

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe state for watchdog dumps."""
        return {"model": self.name}

    def audit(self) -> None:
        """Invariant-guard hook; the static model has no state to drift."""


class StaticBufferModel(BufferModel):
    """The paper's per-port statically partitioned RAM (Table I) — the
    golden reference and the default.  Everything stays on the
    :class:`BufferPool` fast path."""


class SharedBufferModel(BufferModel):
    """One switch-wide pool with dynamic thresholds and PFC headroom.

    Follows the SONiC/Broadcom shared-headroom-pool design:

    * the switch RAM (``memory_size`` x num_ports) splits into a
      *reserved* region (``shared_reserved`` bytes guaranteed to every
      (port, priority) group), a *headroom* pool (``pfc_headroom`` x
      num_ports, shared by all PGs), and the remaining *shared* space;
    * a PG may draw shared bytes up to the dynamic threshold
      ``alpha * free_shared`` (``shared_alpha``);
    * when a PG can no longer admit one MTU it turns XOFF: a
      :class:`~repro.network.packet.PfcPause` travels up the ingress
      link and bytes arriving before the upstream honours it charge the
      headroom pool;
    * the PG turns XON (:class:`~repro.network.packet.PfcResume`) once
      its headroom bytes drained and its shared occupancy fell below
      ``pfc_xon_fraction`` of the dynamic threshold.  An *empty* PG
      always satisfies both, so XOFF can never deadlock — the property
      the hypothesis suite drives.

    Per-port pools stay, re-sized to the switch total, so per-port byte
    accounting (and the guard's credit-conservation check) is unchanged;
    the model enforces the real capacity split on top.
    """

    name = "shared"

    def __init__(self, switch: "Switch") -> None:
        super().__init__(switch)
        params = switch.params
        n = switch.num_ports
        self.nprios: int = params.pfc_priorities
        self.alpha: float = params.shared_alpha
        self.xon_fraction: float = params.pfc_xon_fraction
        self.mtu: int = params.mtu
        self.total: int = params.memory_size * n
        self.reserved_min: int = params.shared_reserved
        self.headroom_capacity: int = params.pfc_headroom * n
        reserved_total = self.reserved_min * n * self.nprios
        self.shared_capacity: int = self.total - self.headroom_capacity - reserved_total
        if self.shared_capacity < params.mtu:
            raise ValueError(
                f"{switch.name}: shared buffer model leaves {self.shared_capacity}B "
                f"of shared space (total={self.total}B - headroom="
                f"{self.headroom_capacity}B - reserved={reserved_total}B); "
                f"lower shared_reserved/pfc_headroom or raise memory_size"
            )
        # per-(port, priority-group) byte decomposition: used = base
        # (inside the reserved minimum) + shared + headroom.
        self._base: List[List[int]] = [[0] * self.nprios for _ in range(n)]
        self._shared: List[List[int]] = [[0] * self.nprios for _ in range(n)]
        self._head: List[List[int]] = [[0] * self.nprios for _ in range(n)]
        self._paused: List[List[bool]] = [[False] * self.nprios for _ in range(n)]
        self.shared_used = 0
        self.headroom_used = 0
        # evaluation counters (the PAUSE-storm metrics).
        self.pauses_sent = 0
        self.resumes_sent = 0
        self.headroom_peak = 0
        self.shared_peak = 0

    # -- wiring ---------------------------------------------------------
    def attach(self) -> None:
        for port in self.switch.input_ports:
            port.pool = BufferPool(self.total)
            self._install_hooks(port)

    def _install_hooks(self, port: "InputPort") -> None:
        model = self
        nprios = self.nprios

        def can_accept(pkt: Packet) -> bool:
            return model.admissible(
                port.index, pkt.dst % nprios, pkt.size
            ) and port.scheme.can_accept_extra(pkt)

        def reserve(pkt: Packet) -> None:
            model.reserve_bytes(port, pkt)
            port.scheme.reserve_extra(pkt)

        def cancel_reservation(pkt: Packet) -> None:
            model.release_bytes(port, pkt)
            port.scheme.cancel_extra(pkt)

        def release_packet(pkt: Packet) -> None:
            model.release_bytes(port, pkt)

        port.can_accept = can_accept
        port.reserve = reserve
        port.cancel_reservation = cancel_reservation
        port.release_packet = release_packet

    # -- admission ------------------------------------------------------
    def priority(self, pkt: Packet) -> int:
        """Priority group of a packet (destination-hashed, like DBBM's
        bucket map — a stand-in for the DSCP/TC field real headers
        carry)."""
        return pkt.dst % self.nprios

    def _shared_delta(self, p: int, g: int, size: int) -> int:
        """Bytes of ``size`` that must come out of the shared space
        after the PG's reserved minimum absorbed what it can."""
        headroom_in_reserve = self.reserved_min - self._base[p][g]
        if headroom_in_reserve >= size:
            return 0
        return size - max(0, headroom_in_reserve)

    def _fits_unpaused(self, p: int, g: int, size: int) -> bool:
        """Would ``size`` bytes be admitted to PG (p, g) under the
        dynamic threshold (ignoring any PAUSE state)?"""
        delta = self._shared_delta(p, g, size)
        if delta == 0:
            return True
        free = self.shared_capacity - self.shared_used
        if delta > free:
            return False
        return self._shared[p][g] + delta <= self.alpha * (free - delta)

    def admissible(self, p: int, g: int, size: int) -> bool:
        """May ``size`` bytes enter priority group ``g`` of port ``p``?
        A paused PG only admits into the headroom pool (the in-flight
        window); an unpaused PG admits into its reserve, then the
        shared space under the ``alpha * free`` threshold."""
        if self._paused[p][g]:
            return self.headroom_used + size <= self.headroom_capacity
        return self._fits_unpaused(p, g, size)

    def reserve_bytes(self, port: "InputPort", pkt: Packet) -> None:
        p, g, size = port.index, pkt.dst % self.nprios, pkt.size
        port.pool.reserve(size)
        if self._paused[p][g]:
            # XOFF already sent: these bytes were in flight when the
            # threshold crossed — they land in the headroom account.
            self._head[p][g] += size
            self.headroom_used += size
            if self.headroom_used > self.headroom_peak:
                self.headroom_peak = self.headroom_used
            if self.headroom_used > self.headroom_capacity:
                raise BufferError(
                    f"{port.name}: PFC headroom overflow — "
                    f"{self.headroom_used}B > {self.headroom_capacity}B"
                )
            return
        take_base = min(size, self.reserved_min - self._base[p][g])
        if take_base > 0:
            self._base[p][g] += take_base
        delta = size - max(0, take_base)
        if delta > 0:
            self._shared[p][g] += delta
            self.shared_used += delta
            if self.shared_used > self.shared_peak:
                self.shared_peak = self.shared_used
            if self.shared_used > self.shared_capacity:
                raise BufferError(
                    f"{port.name}: shared pool overflow — "
                    f"{self.shared_used}B > {self.shared_capacity}B"
                )
        # XOFF threshold: the PG can no longer absorb one more MTU
        # without headroom, so tell the upstream to stop this priority.
        if not self._fits_unpaused(p, g, self.mtu):
            self._paused[p][g] = True
            self.pauses_sent += 1
            port.send_upstream(PfcPause(g))

    def release_bytes(self, port: "InputPort", pkt: Packet) -> None:
        p, g, size = port.index, pkt.dst % self.nprios, pkt.size
        port.pool.release(size)
        # Drain LIFO against the admission order: headroom first (the
        # newest bytes), then shared, then the reserved base.
        take = min(size, self._head[p][g])
        if take > 0:
            self._head[p][g] -= take
            self.headroom_used -= take
            size -= take
        take = min(size, self._shared[p][g])
        if take > 0:
            self._shared[p][g] -= take
            self.shared_used -= take
            size -= take
        if size > 0:
            if size > self._base[p][g]:
                raise BufferError(
                    f"{port.name}: shared-model underflow — releasing "
                    f"{size}B beyond PG{g}'s {self._base[p][g]}B base"
                )
            self._base[p][g] -= size
        # XON: all in-flight headroom bytes drained and the PG's shared
        # occupancy fell below the hysteresis fraction of the dynamic
        # threshold.  An empty PG trivially satisfies both, so a paused
        # PG that drains completely always resumes (no XOFF deadlock).
        if (
            self._paused[p][g]
            and self._head[p][g] == 0
            and self._shared[p][g]
            <= self.xon_fraction
            * self.alpha
            * (self.shared_capacity - self.shared_used)
        ):
            self._paused[p][g] = False
            self.resumes_sent += 1
            port.send_upstream(PfcResume(g))

    # -- introspection ---------------------------------------------------
    def pg_used(self, p: int, g: int) -> int:
        """Bytes held by priority group ``g`` of port ``p``."""
        return self._base[p][g] + self._shared[p][g] + self._head[p][g]

    def paused_pairs(self) -> List[Tuple[int, int]]:
        return [
            (p, g)
            for p, row in enumerate(self._paused)
            for g, paused in enumerate(row)
            if paused
        ]

    def stats(self) -> Dict[str, float]:
        return {
            "pfc_pauses_sent": float(self.pauses_sent),
            "pfc_resumes_sent": float(self.resumes_sent),
            "pfc_headroom_peak": float(self.headroom_peak),
            "shared_pool_peak": float(self.shared_peak),
        }

    def snapshot(self) -> Dict[str, object]:
        return {
            "model": self.name,
            "shared_used": self.shared_used,
            "shared_capacity": self.shared_capacity,
            "headroom_used": self.headroom_used,
            "headroom_capacity": self.headroom_capacity,
            "paused": [f"p{p}.pg{g}" for p, g in self.paused_pairs()],
            "pauses_sent": self.pauses_sent,
            "resumes_sent": self.resumes_sent,
        }

    def audit(self) -> None:
        """Shared-pool conservation: the PG decomposition must re-sum to
        every pool/account counter, caps must hold, a PG that is not
        paused must hold no headroom bytes, and every PAUSE is matched
        by exactly one RESUME -- the XOFF ledger (pauses - resumes)
        equals the count of paused (port, priority) pairs; a drifted
        ledger means a lost or duplicated control message (a
        deadlocked PG upstream)."""
        shared_sum = 0
        head_sum = 0
        for p, port in enumerate(self.switch.input_ports):
            port_sum = 0
            for g in range(self.nprios):
                base, shared, head = self._base[p][g], self._shared[p][g], self._head[p][g]
                if base < 0 or shared < 0 or head < 0:
                    raise BufferError(
                        f"{port.name}: negative PG{g} account "
                        f"(base={base}, shared={shared}, headroom={head})"
                    )
                if base > self.reserved_min:
                    raise BufferError(
                        f"{port.name}: PG{g} base {base}B exceeds the "
                        f"reserved minimum {self.reserved_min}B"
                    )
                if head and not self._paused[p][g]:
                    raise BufferError(
                        f"{port.name}: PG{g} holds {head}B of headroom "
                        f"while not paused"
                    )
                port_sum += base + shared + head
                shared_sum += shared
                head_sum += head
            if port_sum != port.pool.used:
                raise BufferError(
                    f"{port.name}: PG accounts sum to {port_sum}B but the "
                    f"pool holds {port.pool.used}B"
                )
        if shared_sum != self.shared_used:
            raise BufferError(
                f"shared_used={self.shared_used}B but PG shares sum to {shared_sum}B"
            )
        if head_sum != self.headroom_used:
            raise BufferError(
                f"headroom_used={self.headroom_used}B but PG headrooms sum to {head_sum}B"
            )
        if self.shared_used > self.shared_capacity:
            raise BufferError(
                f"shared pool over capacity ({self.shared_used}B > {self.shared_capacity}B)"
            )
        if self.headroom_used > self.headroom_capacity:
            raise BufferError(
                "headroom pool over capacity "
                f"({self.headroom_used}B > {self.headroom_capacity}B)"
            )
        open_pauses = self.pauses_sent - self.resumes_sent
        paused = len(self.paused_pairs())
        if open_pauses != paused:
            raise BufferError(
                f"PFC ledger drift — {self.pauses_sent} pauses vs "
                f"{self.resumes_sent} resumes leaves {open_pauses} open, "
                f"but {paused} pairs are marked paused"
            )


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BufferModelSpec:
    """A named buffer model: ``build(switch)`` returns the per-switch
    model instance.  Register it in :data:`BUFFER_MODELS`."""

    name: str
    build: Callable[["Switch"], BufferModel]
    description: str = ""


#: the live buffer-model registry (name -> spec), registration order.
BUFFER_MODELS: Registry[BufferModelSpec] = Registry("buffer model")

BUFFER_MODELS.register(BufferModelSpec(
    "static", StaticBufferModel,
    description="per-port statically partitioned RAM (Table I; the paper)",
))
BUFFER_MODELS.register(BufferModelSpec(
    "shared", SharedBufferModel,
    description="switch-wide shared pool: alpha*free thresholds + PFC headroom",
))
